#include "ml/trainer.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "ml/mlp_gemm.hh"

namespace concorde
{

TrainedModel::TrainedModel(Mlp mlp, std::vector<float> mean,
                           std::vector<float> stdev,
                           std::vector<uint8_t> mask)
    : net(std::make_shared<Mlp>(std::move(mlp))),
      featureMean(std::move(mean)), featureStd(std::move(stdev)),
      featureMask(std::move(mask))
{
    buildInvStd();
}

void
TrainedModel::buildInvStd()
{
    featureInvStd.resize(featureStd.size());
    maskedDims.clear();
    for (size_t i = 0; i < featureStd.size(); ++i) {
        const bool keep = featureMask.empty() || featureMask[i];
        featureInvStd[i] = keep ? 1.0f / featureStd[i] : 0.0f;
        if (!keep)
            maskedDims.push_back(i);
    }
}

float
TrainedModel::predict(const float *raw_features) const
{
    panic_if(!net, "predict() on an empty model");
    thread_local MlpScratch scratch;
    if (scratch.acts.empty() || scratch.acts[0].size() != inputDim())
        scratch = net->makeScratch();

    thread_local std::vector<float> x;
    x.resize(inputDim());
    for (size_t i = 0; i < inputDim(); ++i)
        x[i] = (raw_features[i] - featureMean[i]) * featureInvStd[i];
    // Masked-out inputs are forced to zero (a NaN/Inf raw value times
    // the 0 inverse-std above would otherwise poison the prediction).
    for (size_t i : maskedDims)
        x[i] = 0.0f;
    const float yhat = net->forward(x.data(), scratch);
    return std::max(yhat, 1e-3f);   // CPI is positive
}

std::vector<float>
TrainedModel::predictBatch(const std::vector<float> &features, size_t dim,
                           size_t threads) const
{
    panic_if(!net, "predictBatch() on an empty model");
    panic_if(dim != inputDim(), "feature dim mismatch: %zu vs %zu", dim,
             inputDim());
    const size_t n = features.size() / dim;
    std::vector<float> out(n);
    if (n == 0)
        return out;

    // Standardize the whole batch once into one contiguous matrix
    // (workspace reused across calls to avoid per-batch page faults).
    // NOTE: thread_local is resolved per executing thread, so the
    // parallel lambdas below must capture the owning thread's buffer
    // through a plain pointer, never name `x` directly.
    thread_local std::vector<float> x;
    x.resize(n * dim);
    float *xp = x.data();
    const float *mu = featureMean.data();
    const float *inv = featureInvStd.data();
    parallelFor(n, [&, xp](size_t i) {
        const float *src = features.data() + i * dim;
        float *dst = xp + i * dim;
        for (size_t d = 0; d < dim; ++d)
            dst[d] = (src[d] - mu[d]) * inv[d];
        for (size_t d : maskedDims)
            dst[d] = 0.0f;
    }, threads);

    // One blocked-GEMM pass per shard; each shard owns its workspace.
    // Shards are cut on row-block boundaries, so only the last one ends
    // in a partial (padded) block.
    constexpr size_t RB = gemm::kRowBlock;
    parallelShards((n + RB - 1) / RB,
                   [&, xp](size_t, size_t block_lo, size_t block_hi) {
        thread_local MlpBatchScratch scratch;
        const size_t lo = block_lo * RB;
        const size_t hi = std::min(block_hi * RB, n);
        net->forwardBatch(xp + lo * dim, hi - lo, out.data() + lo,
                          scratch);
    }, threads);
    for (float &y : out)
        y = std::max(y, 1e-3f);     // CPI is positive
    return out;
}

double
TrainedModel::meanRelativeError(const std::vector<float> &features,
                                const std::vector<float> &labels,
                                size_t dim) const
{
    const auto preds = predictBatch(features, dim);
    double acc = 0.0;
    for (size_t i = 0; i < preds.size(); ++i)
        acc += std::abs(preds[i] - labels[i]) / std::max(labels[i], 1e-6f);
    return preds.empty() ? 0.0 : acc / static_cast<double>(preds.size());
}

void
TrainedModel::save(const std::string &path) const
{
    // Check before opening: BinaryWriter truncates an existing file.
    panic_if(!net, "save() on an empty model");
    BinaryWriter out(path);
    save(out);
}

void
TrainedModel::save(BinaryWriter &out) const
{
    panic_if(!net, "save() on an empty model");
    net->save(out);
    out.putVector(featureMean);
    out.putVector(featureStd);
    out.putVector(featureMask);
}

TrainedModel
TrainedModel::load(const std::string &path)
{
    BinaryReader in(path);
    return load(in);
}

TrainedModel
TrainedModel::load(BinaryReader &in)
{
    Mlp mlp(in);
    TrainedModel model;
    model.net = std::make_shared<Mlp>(std::move(mlp));
    model.featureMean = in.getVector<float>();
    model.featureStd = in.getVector<float>();
    model.featureMask = in.getVector<uint8_t>();
    const size_t dim = model.net->inputDim();
    fatal_if(model.featureMean.size() != dim ||
                 model.featureStd.size() != dim,
             "malformed model: %zu means and %zu stds for %zu inputs",
             model.featureMean.size(), model.featureStd.size(), dim);
    fatal_if(!model.featureMask.empty() && model.featureMask.size() != dim,
             "malformed model: %zu-entry feature mask for %zu inputs",
             model.featureMask.size(), dim);
    model.buildInvStd();
    return model;
}

void
saveTrainConfig(BinaryWriter &out, const TrainConfig &cfg)
{
    out.put<uint32_t>(1);   // TrainConfig format version
    out.putVector(cfg.hiddenSizes);
    out.put<double>(cfg.learningRate);
    out.putVector(cfg.lrHalveAt);
    out.put<double>(cfg.weightDecay);
    out.put<double>(cfg.beta1);
    out.put<double>(cfg.beta2);
    out.put<double>(cfg.adamEps);
    out.put<uint64_t>(cfg.batchSize);
    out.put<uint64_t>(cfg.epochs);
    out.put<uint64_t>(cfg.seed);
    out.put<uint64_t>(cfg.threads);
    out.put<double>(cfg.valFraction);
}

TrainConfig
loadTrainConfig(BinaryReader &in)
{
    const uint32_t version = in.get<uint32_t>();
    fatal_if(version != 1, "unsupported TrainConfig version %u", version);
    TrainConfig cfg;
    cfg.hiddenSizes = in.getVector<size_t>();
    cfg.learningRate = in.get<double>();
    cfg.lrHalveAt = in.getVector<double>();
    cfg.weightDecay = in.get<double>();
    cfg.beta1 = in.get<double>();
    cfg.beta2 = in.get<double>();
    cfg.adamEps = in.get<double>();
    cfg.batchSize = in.get<uint64_t>();
    cfg.epochs = in.get<uint64_t>();
    cfg.seed = in.get<uint64_t>();
    cfg.threads = in.get<uint64_t>();
    cfg.valFraction = in.get<double>();
    return cfg;
}

namespace
{

/** Training-checkpoint file header: "CNCCKP01" little-endian. */
constexpr uint64_t kCheckpointMagic = 0x3130504b43434e43ULL;
constexpr uint32_t kCheckpointVersion = 1;

uint64_t
mixDouble(uint64_t h, double v)
{
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    return hashMix(h, bits);
}

/**
 * Fingerprint of everything a checkpoint must match to resume bitwise:
 * the raw data, the hyperparameters, and the resolved worker count
 * (gradient summation order depends on the shard split).
 */
uint64_t
trainFingerprint(const std::vector<float> &features,
                 const std::vector<float> &labels, size_t dim,
                 const TrainConfig &config,
                 const std::vector<uint8_t> *mask, size_t threads)
{
    uint64_t h = hashBytes(features.data(),
                           features.size() * sizeof(float));
    h = hashBytes(labels.data(), labels.size() * sizeof(float), h);
    h = hashMix(h, dim, labels.size());
    for (size_t hidden : config.hiddenSizes)
        h = hashMix(h, 1, hidden);
    h = mixDouble(h, config.learningRate);
    for (double frac : config.lrHalveAt)
        h = mixDouble(h, frac);
    h = mixDouble(h, config.weightDecay);
    h = mixDouble(h, config.beta1);
    h = mixDouble(h, config.beta2);
    h = mixDouble(h, config.adamEps);
    h = mixDouble(h, config.valFraction);
    h = hashMix(h, config.batchSize, config.epochs);
    h = hashMix(h, config.seed, threads);
    if (mask)
        h = hashBytes(mask->data(), mask->size(), h);
    return h;
}

/** Mean relative error of the net over pre-standardized rows. */
double
relErrOverRows(const Mlp &mlp, const std::vector<float> &x,
               const std::vector<float> &y)
{
    if (y.empty())
        return 0.0;
    MlpBatchScratch scratch;
    std::vector<float> preds(y.size());
    mlp.forwardBatch(x.data(), y.size(), preds.data(), scratch);
    double acc = 0.0;
    for (size_t i = 0; i < y.size(); ++i) {
        const float yhat = std::max(preds[i], 1e-3f);
        acc += std::abs(yhat - y[i]) / std::max(y[i], 1e-6f);
    }
    return acc / static_cast<double>(y.size());
}

/** Mutable optimizer state a checkpoint round-trips. */
struct TrainState
{
    Mlp mlp;
    Rng shuffleRng;
    size_t nextEpoch = 0;
    size_t step = 0;
    double lr = 0.0;
    std::vector<float> mean;
    std::vector<float> stdev;
    /**
     * Minibatch sample order. Each epoch's Fisher-Yates pass permutes
     * the *previous* epoch's order, so the permutation composes across
     * epochs and is genuine optimizer state: resuming with a fresh
     * identity order would diverge from an uninterrupted run.
     */
    std::vector<size_t> order;
    std::vector<EpochMetrics> history;
};

void
saveCheckpointFile(const std::string &path, uint64_t fingerprint,
                   const TrainState &state)
{
    const std::string tmp = uniqueTmpName(path);
    {
        BinaryWriter out(tmp);
        out.put<uint64_t>(kCheckpointMagic);
        out.put<uint32_t>(kCheckpointVersion);
        out.put<uint64_t>(fingerprint);
        out.put<uint64_t>(state.nextEpoch);
        out.put<uint64_t>(state.step);
        out.put<double>(state.lr);
        state.shuffleRng.saveState(out);
        out.putVector(state.mean);
        out.putVector(state.stdev);
        out.putVector(state.order);
        out.put<uint64_t>(state.history.size());
        for (const auto &m : state.history) {
            out.put<uint64_t>(m.epoch);
            out.put<double>(m.trainRelErr);
            out.put<double>(m.valRelErr);
            out.put<double>(m.lr);
        }
        state.mlp.saveCheckpoint(out);
    }
    publishFile(tmp, path);
}

/**
 * Load a checkpoint into `state`; fatal() if it belongs to a different
 * (data, config, threads) combination.
 */
void
loadCheckpointFile(const std::string &path, uint64_t fingerprint,
                   TrainState &state)
{
    BinaryReader in(path);
    fatal_if(in.get<uint64_t>() != kCheckpointMagic,
             "'%s' is not a Concorde training checkpoint", path.c_str());
    const uint32_t version = in.get<uint32_t>();
    fatal_if(version != kCheckpointVersion,
             "'%s': unsupported checkpoint version %u", path.c_str(),
             version);
    const uint64_t stored = in.get<uint64_t>();
    fatal_if(stored != fingerprint,
             "checkpoint '%s' was written for different data, config, or "
             "thread count; refusing to resume (bitwise reproducibility "
             "would be lost)", path.c_str());
    state.nextEpoch = in.get<uint64_t>();
    state.step = in.get<uint64_t>();
    state.lr = in.get<double>();
    state.shuffleRng = Rng::loadState(in);
    state.mean = in.getVector<float>();
    state.stdev = in.getVector<float>();
    state.order = in.getVector<size_t>();
    const uint64_t entries = in.get<uint64_t>();
    state.history.clear();
    for (uint64_t i = 0; i < entries; ++i) {
        EpochMetrics m;
        m.epoch = in.get<uint64_t>();
        m.trainRelErr = in.get<double>();
        m.valRelErr = in.get<double>();
        m.lr = in.get<double>();
        state.history.push_back(m);
    }
    state.mlp = Mlp::loadCheckpoint(in);
}

} // anonymous namespace

TrainRun
trainMlpResumable(const std::vector<float> &features,
                  const std::vector<float> &labels, size_t dim,
                  const TrainConfig &config,
                  const std::vector<uint8_t> *mask,
                  const std::string &checkpoint_path,
                  size_t max_epochs_this_run)
{
    fatal_if(dim == 0 || labels.empty(), "empty training set");
    fatal_if(features.size() != labels.size() * dim,
             "features/labels shape mismatch");
    const size_t n = labels.size();
    const size_t threads =
        config.threads == 0 ? defaultThreads() : config.threads;

    // ---- deterministic train/validation split ----
    // Identity order when there is no split, so valFraction == 0
    // reproduces the historical single-split training bit-for-bit.
    fatal_if(config.valFraction < 0.0 || config.valFraction >= 1.0,
             "valFraction must be in [0, 1)");
    size_t n_val =
        static_cast<size_t>(config.valFraction * static_cast<double>(n));
    std::vector<size_t> train_idx;
    std::vector<size_t> val_idx;
    if (n_val > 0) {
        fatal_if(n_val >= n, "validation split leaves no training data");
        std::vector<size_t> perm(n);
        std::iota(perm.begin(), perm.end(), 0);
        Rng split_rng(hashMix(config.seed, 0x5B117ULL));
        for (size_t i = n - 1; i > 0; --i) {
            const size_t j = split_rng.nextBounded(i + 1);
            std::swap(perm[i], perm[j]);
        }
        val_idx.assign(perm.begin(), perm.begin() + n_val);
        train_idx.assign(perm.begin() + n_val, perm.end());
    } else {
        train_idx.resize(n);
        std::iota(train_idx.begin(), train_idx.end(), 0);
    }
    const size_t n_train = train_idx.size();

    // The data hash is only consumed by checkpoint files; don't make
    // every plain training run pay for hashing the feature matrix.
    const uint64_t fingerprint = checkpoint_path.empty()
        ? 0
        : trainFingerprint(features, labels, dim, config, mask, threads);
    TrainState state;
    const bool resuming =
        !checkpoint_path.empty() && fileExists(checkpoint_path);
    if (resuming) {
        loadCheckpointFile(checkpoint_path, fingerprint, state);
        fatal_if(state.mean.size() != dim,
                 "checkpoint '%s' trained on %zu-dim features, got %zu",
                 checkpoint_path.c_str(), state.mean.size(), dim);
        fatal_if(state.order.size() != n_train,
                 "checkpoint '%s' holds %zu-sample order, expected %zu",
                 checkpoint_path.c_str(), state.order.size(), n_train);
    } else {
        // ---- standardization statistics over the training split ----
        state.mean.assign(dim, 0.0f);
        state.stdev.assign(dim, 1.0f);
        std::vector<double> sum(dim, 0.0);
        std::vector<double> sum2(dim, 0.0);
        for (size_t i : train_idx) {
            const float *row = features.data() + i * dim;
            for (size_t d = 0; d < dim; ++d) {
                sum[d] += row[d];
                sum2[d] += static_cast<double>(row[d]) * row[d];
            }
        }
        for (size_t d = 0; d < dim; ++d) {
            const double mu = sum[d] / static_cast<double>(n_train);
            const double var = std::max(
                0.0, sum2[d] / static_cast<double>(n_train) - mu * mu);
            state.mean[d] = static_cast<float>(mu);
            state.stdev[d] = static_cast<float>(var > 1e-10
                                                ? std::sqrt(var) : 1.0);
        }

        std::vector<size_t> layers;
        layers.push_back(dim);
        for (size_t h : config.hiddenSizes)
            layers.push_back(h);
        layers.push_back(1);
        state.mlp = Mlp(layers, config.seed);
        state.shuffleRng = Rng(hashMix(config.seed, 0x50FFULL));
        state.lr = config.learningRate;
        state.order.resize(n_train);
        std::iota(state.order.begin(), state.order.end(), 0);
    }

    // ---- pre-processed training/validation matrices ----
    const auto standardize = [&](const std::vector<size_t> &rows,
                                 std::vector<float> &x,
                                 std::vector<float> &y) {
        x.resize(rows.size() * dim);
        y.resize(rows.size());
        parallelFor(rows.size(), [&](size_t i) {
            const float *src = features.data() + rows[i] * dim;
            float *dst = x.data() + i * dim;
            for (size_t d = 0; d < dim; ++d) {
                const bool keep = mask == nullptr || (*mask)[d];
                dst[d] = keep
                    ? (src[d] - state.mean[d]) / state.stdev[d] : 0.0f;
            }
            y[i] = labels[rows[i]];
        }, threads);
    };
    std::vector<float> x, y_train, xval, y_val;
    standardize(train_idx, x, y_train);
    if (n_val > 0)
        standardize(val_idx, xval, y_val);

    const size_t steps_per_epoch =
        (n_train + config.batchSize - 1) / config.batchSize;
    const size_t total_steps = steps_per_epoch * config.epochs;
    std::vector<size_t> halve_steps;
    for (double frac : config.lrHalveAt)
        halve_steps.push_back(static_cast<size_t>(frac * total_steps));

    std::vector<size_t> &order = state.order;

    std::vector<GradBuffer> thread_grads;
    std::vector<MlpScratch> thread_scratch;
    for (size_t t = 0; t < threads; ++t) {
        thread_grads.push_back(state.mlp.makeGradBuffer());
        thread_scratch.push_back(state.mlp.makeScratch());
    }
    std::vector<double> thread_loss(threads, 0.0);

    size_t ran_this_call = 0;
    for (size_t epoch = state.nextEpoch; epoch < config.epochs; ++epoch) {
        if (max_epochs_this_run > 0
            && ran_this_call >= max_epochs_this_run) {
            break;
        }
        // Fisher-Yates shuffle.
        for (size_t i = n_train - 1; i > 0; --i) {
            const size_t j = state.shuffleRng.nextBounded(i + 1);
            std::swap(order[i], order[j]);
        }

        double epoch_loss = 0.0;
        size_t epoch_count = 0;
        for (size_t begin = 0; begin < n_train;
             begin += config.batchSize) {
            const size_t end = std::min(n_train, begin + config.batchSize);

            std::fill(thread_loss.begin(), thread_loss.end(), 0.0);
            // Threads that receive no shard must not contribute stale
            // gradients from the previous batch.
            for (auto &grads : thread_grads)
                grads.samples = 0;
            parallelShards(end - begin,
                           [&](size_t t, size_t lo, size_t hi) {
                thread_grads[t].zero();
                double loss = 0.0;
                for (size_t s = lo; s < hi; ++s) {
                    const size_t row = order[begin + s];
                    double sample_loss = 0.0;
                    state.mlp.forwardBackward(x.data() + row * dim,
                                              y_train[row],
                                              thread_scratch[t],
                                              thread_grads[t],
                                              sample_loss);
                    loss += sample_loss;
                }
                thread_loss[t] = loss;
            }, threads);

            GradBuffer &total = thread_grads[0];
            for (size_t t = 1; t < threads; ++t) {
                if (thread_grads[t].samples > 0)
                    total.add(thread_grads[t]);
            }
            for (double l : thread_loss)
                epoch_loss += l;
            epoch_count += end - begin;

            // Halving LR schedule.
            ++state.step;
            for (size_t hs : halve_steps) {
                if (state.step == hs)
                    state.lr *= 0.5;
            }
            if (total.samples > 0) {
                state.mlp.adamwStep(total, state.lr, config.beta1,
                                    config.beta2, config.adamEps,
                                    config.weightDecay);
            }
        }

        EpochMetrics metrics;
        metrics.epoch = epoch;
        metrics.trainRelErr =
            epoch_loss / static_cast<double>(epoch_count);
        metrics.lr = state.lr;
        if (n_val > 0)
            metrics.valRelErr = relErrOverRows(state.mlp, xval, y_val);
        state.history.push_back(metrics);
        state.nextEpoch = epoch + 1;
        ++ran_this_call;

        if (!checkpoint_path.empty())
            saveCheckpointFile(checkpoint_path, fingerprint, state);

        if (config.verbose && (epoch % 5 == 0
                               || epoch + 1 == config.epochs)) {
            if (n_val > 0) {
                inform("epoch %zu/%zu: train rel-err %.4f, val rel-err "
                       "%.4f (lr %.2e)", epoch + 1, config.epochs,
                       metrics.trainRelErr, metrics.valRelErr, state.lr);
            } else {
                inform("epoch %zu/%zu: train rel-err %.4f (lr %.2e)",
                       epoch + 1, config.epochs, metrics.trainRelErr,
                       state.lr);
            }
        }
    }

    TrainRun run;
    run.finished = state.nextEpoch >= config.epochs;
    run.history = std::move(state.history);
    run.model = TrainedModel(std::move(state.mlp), std::move(state.mean),
                             std::move(state.stdev),
                             mask ? *mask : std::vector<uint8_t>{});

    // Split-conformal calibration on the held-out split: the val rows
    // were never trained on, so their residuals are exchangeable with
    // a fresh request's. The feature envelope comes from the training
    // split -- the distribution the model actually fitted -- so the
    // serve layer can flag requests outside it. Deterministic given
    // (data, config), so resumed runs reproduce it bitwise.
    if (n_val > 0) {
        std::vector<float> val_raw(n_val * dim);
        std::vector<float> val_y(n_val);
        for (size_t i = 0; i < n_val; ++i) {
            const float *src = features.data() + val_idx[i] * dim;
            std::copy(src, src + dim, val_raw.data() + i * dim);
            val_y[i] = labels[val_idx[i]];
        }
        const auto preds = run.model.predictBatch(val_raw, dim, threads);
        std::vector<float> train_raw(n_train * dim);
        for (size_t i = 0; i < n_train; ++i) {
            const float *src = features.data() + train_idx[i] * dim;
            std::copy(src, src + dim, train_raw.data() + i * dim);
        }
        run.calibration =
            fitConformalCalibration(preds, val_y, train_raw, dim);
    }
    return run;
}

TrainedModel
trainMlp(const std::vector<float> &features, const std::vector<float> &labels,
         size_t dim, const TrainConfig &config,
         const std::vector<uint8_t> *mask)
{
    return trainMlpResumable(features, labels, dim, config, mask).model;
}

} // namespace concorde
