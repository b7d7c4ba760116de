/**
 * @file
 * Tests for the from-scratch ML stack: gradient correctness against finite
 * differences, AdamW behavior, trainer convergence on synthetic targets,
 * masking, and serialization.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "common/rng.hh"
#include "ml/calibration.hh"
#include "ml/mlp.hh"
#include "ml/trainer.hh"

namespace concorde
{
namespace
{

TEST(Mlp, ForwardDeterministic)
{
    Mlp net({8, 16, 1}, 3);
    auto scratch = net.makeScratch();
    std::vector<float> x(8, 0.5f);
    const float a = net.forward(x.data(), scratch);
    const float b = net.forward(x.data(), scratch);
    EXPECT_EQ(a, b);
}

TEST(Mlp, ParameterCount)
{
    Mlp net({10, 4, 1}, 3);
    EXPECT_EQ(net.parameterCount(), 10u * 4 + 4 + 4 * 1 + 1);
}

TEST(Mlp, GradientMatchesFiniteDifference)
{
    // Perturb the INPUT and compare dL/dx via backprop-free finite
    // differences of the loss; gradients of weights are checked through
    // the loss decrease test below. Here we check the full chain by
    // numerically differentiating wrt one weight via serialization
    // round-trip is overkill; instead verify loss value & direction.
    Mlp net({6, 8, 1}, 17);
    auto scratch = net.makeScratch();
    auto grads = net.makeGradBuffer();

    Rng rng(5);
    std::vector<float> x(6);
    for (auto &v : x)
        v = static_cast<float>(rng.nextGaussian());
    const float target = 2.0f;

    double loss = 0.0;
    const float yhat = net.forwardBackward(x.data(), target, scratch,
                                           grads, loss);
    EXPECT_NEAR(loss, std::abs(yhat - target) / target, 1e-6);

    // One gradient step in the negative direction must reduce the loss
    // (unless already at zero loss).
    if (loss > 1e-3) {
        net.adamwStep(grads, 1e-3, 0.9, 0.999, 1e-8, 0.0);
        double loss2 = 0.0;
        grads.zero();
        net.forwardBackward(x.data(), target, scratch, grads, loss2);
        EXPECT_LT(loss2, loss);
    }
}

TEST(Mlp, BatchGradientDrivesLossDown)
{
    // Fit y = |w . x| + 1 on a fixed batch; loss must decrease steadily.
    Rng rng(23);
    const size_t n = 64, dim = 12;
    std::vector<float> xs(n * dim);
    std::vector<float> ys(n);
    for (size_t i = 0; i < n; ++i) {
        double acc = 0;
        for (size_t d = 0; d < dim; ++d) {
            xs[i * dim + d] = static_cast<float>(rng.nextGaussian());
            acc += 0.3 * d * xs[i * dim + d];
        }
        ys[i] = static_cast<float>(std::abs(acc) + 1.0);
    }

    Mlp net({dim, 32, 1}, 7);
    auto scratch = net.makeScratch();
    auto grads = net.makeGradBuffer();
    double first = 0.0, last = 0.0;
    for (int epoch = 0; epoch < 600; ++epoch) {
        grads.zero();
        double loss_sum = 0.0;
        for (size_t i = 0; i < n; ++i) {
            double loss = 0.0;
            net.forwardBackward(xs.data() + i * dim, ys[i], scratch,
                                grads, loss);
            loss_sum += loss;
        }
        if (epoch == 0)
            first = loss_sum / n;
        last = loss_sum / n;
        net.adamwStep(grads, 3e-3, 0.9, 0.999, 1e-8, 0.0);
    }
    EXPECT_LT(last, first * 0.2);
    EXPECT_LT(last, 0.12);
}

TEST(Mlp, SaveLoadRoundTrip)
{
    const std::string path = "/tmp/concorde_test_mlp.bin";
    Mlp net({5, 7, 1}, 11);
    {
        BinaryWriter out(path);
        net.save(out);
    }
    BinaryReader in(path);
    Mlp copy(in);
    auto s1 = net.makeScratch();
    auto s2 = copy.makeScratch();
    Rng rng(2);
    for (int trial = 0; trial < 20; ++trial) {
        std::vector<float> x(5);
        for (auto &v : x)
            v = static_cast<float>(rng.nextGaussian());
        EXPECT_EQ(net.forward(x.data(), s1), copy.forward(x.data(), s2));
    }
    std::remove(path.c_str());
}

/** Write an MLP stream by hand, so its vectors can lie about shapes. */
void
writeMlp(BinaryWriter &out, const std::vector<size_t> &sizes,
         const std::vector<size_t> &weight_counts,
         const std::vector<size_t> &bias_counts)
{
    out.putVector(sizes);
    for (size_t l = 0; l < weight_counts.size(); ++l) {
        out.putVector(std::vector<float>(weight_counts[l], 0.5f));
        out.putVector(std::vector<float>(bias_counts[l], 0.0f));
    }
}

Mlp
loadMlpFile(const std::string &path)
{
    BinaryReader in(path);
    return Mlp(in);
}

TEST(MlpDeathTest, LoadRejectsMisshapenLayers)
{
    const std::string path = "/tmp/concorde_test_mlp_shapes.bin";
    auto expectRejected = [&](const std::vector<size_t> &sizes,
                              const std::vector<size_t> &weights,
                              const std::vector<size_t> &biases) {
        {
            BinaryWriter out(path);
            writeMlp(out, sizes, weights, biases);
        }
        EXPECT_EXIT(loadMlpFile(path), ::testing::ExitedWithCode(1),
                    "malformed MLP");
    };
    expectRejected({4, 3, 1}, {11, 3}, {3, 1});     // short weights
    expectRejected({4, 3, 1}, {12, 4}, {3, 1});     // long weights
    expectRejected({4, 3, 1}, {12, 3}, {2, 1});     // short biases
    expectRejected({4, 3, 2}, {12, 6}, {3, 2});     // non-scalar output
    expectRejected({4}, {}, {});                    // no layers
    std::remove(path.c_str());
}

TEST(MlpDeathTest, CheckpointRejectsMisshapenOptimizerState)
{
    const std::string path = "/tmp/concorde_test_mlp_ckpt_shapes.bin";
    {
        BinaryWriter out(path);
        out.putVector(std::vector<size_t>{2, 1});
        out.putVector(std::vector<float>(2, 0.5f));     // weights
        out.putVector(std::vector<float>(1, 0.0f));     // biases
        out.putVector(std::vector<float>(2, 0.0f));     // mW
        out.putVector(std::vector<float>(1, 0.0f));     // vW: short
        out.putVector(std::vector<float>(1, 0.0f));     // mB
        out.putVector(std::vector<float>(1, 0.0f));     // vB
        out.put<uint64_t>(3);
    }
    auto load = [&] {
        BinaryReader in(path);
        Mlp::loadCheckpoint(in);
    };
    EXPECT_EXIT(load(), ::testing::ExitedWithCode(1),
                "malformed MLP checkpoint");
    std::remove(path.c_str());
}

TEST(TrainedModelDeathTest, LoadRejectsMismatchedStatistics)
{
    const std::string path = "/tmp/concorde_test_model_stats.bin";
    // Written field by field in TrainedModel::save's layout: the
    // constructor would index past a short mask before any save.
    auto expectRejected = [&](size_t means, size_t stds, size_t mask) {
        {
            BinaryWriter out(path);
            Mlp({4, 3, 1}, 5).save(out);
            out.putVector(std::vector<float>(means, 0.0f));
            out.putVector(std::vector<float>(stds, 1.0f));
            out.putVector(std::vector<uint8_t>(mask, 1));
        }
        EXPECT_EXIT(TrainedModel::load(path), ::testing::ExitedWithCode(1),
                    "malformed model");
    };
    expectRejected(3, 4, 0);    // short mean
    expectRejected(4, 5, 0);    // long std
    expectRejected(4, 4, 2);    // short mask
    // A well-formed model, with and without a mask, still loads.
    for (size_t mask : {size_t(0), size_t(4)}) {
        const TrainedModel model(Mlp({4, 3, 1}, 5),
                                 std::vector<float>(4, 0.0f),
                                 std::vector<float>(4, 1.0f),
                                 std::vector<uint8_t>(mask, 1));
        model.save(path);
        EXPECT_EQ(TrainedModel::load(path).inputDim(), 4u);
    }
    std::remove(path.c_str());
}

TEST(GradBuffer, AddAccumulates)
{
    Mlp net({3, 4, 1}, 1);
    auto a = net.makeGradBuffer();
    auto b = net.makeGradBuffer();
    a.weightGrads[0][0] = 1.0f;
    a.samples = 2;
    b.weightGrads[0][0] = 2.5f;
    b.samples = 3;
    a.add(b);
    EXPECT_FLOAT_EQ(a.weightGrads[0][0], 3.5f);
    EXPECT_EQ(a.samples, 5u);
}

std::pair<std::vector<float>, std::vector<float>>
syntheticDataset(size_t n, size_t dim, uint64_t seed)
{
    Rng rng(seed);
    std::vector<float> xs(n * dim);
    std::vector<float> ys(n);
    for (size_t i = 0; i < n; ++i) {
        double acc = 1.0;
        for (size_t d = 0; d < dim; ++d) {
            // Mixed feature scales: exercises standardization.
            const double scale = d % 3 == 0 ? 100.0 : 1.0;
            xs[i * dim + d] =
                static_cast<float>(rng.nextGaussian() * scale);
            acc += (d % 2 ? 0.02 : -0.015) * xs[i * dim + d] / scale
                * 3.0;
        }
        ys[i] = static_cast<float>(std::abs(acc) + 0.5);
    }
    return {xs, ys};
}

TEST(Trainer, LearnsSyntheticFunction)
{
    const size_t n = 2000, dim = 20;
    auto [xs, ys] = syntheticDataset(n, dim, 31);
    TrainConfig config;
    config.epochs = 40;
    config.batchSize = 128;
    config.threads = 4;
    const TrainedModel model = trainMlp(xs, ys, dim, config);
    EXPECT_LT(model.meanRelativeError(xs, ys, dim), 0.08);
}

TEST(Trainer, GeneralizesOnHeldOut)
{
    const size_t dim = 16;
    auto [train_x, train_y] = syntheticDataset(4000, dim, 32);
    auto [test_x, test_y] = syntheticDataset(500, dim, 99);
    TrainConfig config;
    config.epochs = 40;
    config.threads = 4;
    const TrainedModel model = trainMlp(train_x, train_y, dim, config);
    EXPECT_LT(model.meanRelativeError(test_x, test_y, dim), 0.15);
}

TEST(Trainer, MaskZeroesFeatures)
{
    // With every feature masked out, the model can only learn the mean;
    // with features kept it must do much better.
    const size_t dim = 10;
    auto [xs, ys] = syntheticDataset(3000, dim, 33);
    TrainConfig config;
    config.epochs = 25;
    config.threads = 4;
    std::vector<uint8_t> none(dim, 0);
    const TrainedModel blind = trainMlp(xs, ys, dim, config, &none);
    const TrainedModel sighted = trainMlp(xs, ys, dim, config);
    const double blind_err = blind.meanRelativeError(xs, ys, dim);
    const double sighted_err = sighted.meanRelativeError(xs, ys, dim);
    EXPECT_LT(sighted_err, blind_err * 0.7);

    // A masked model must ignore masked inputs entirely.
    std::vector<float> zeros(dim, 0.0f);
    std::vector<float> noise(dim, 123.0f);
    EXPECT_EQ(blind.predict(zeros.data()), blind.predict(noise.data()));
}

TEST(Trainer, DeterministicGivenSeedAndThreads)
{
    const size_t dim = 8;
    auto [xs, ys] = syntheticDataset(500, dim, 34);
    TrainConfig config;
    config.epochs = 5;
    config.threads = 2;
    const TrainedModel a = trainMlp(xs, ys, dim, config);
    const TrainedModel b = trainMlp(xs, ys, dim, config);
    EXPECT_EQ(a.predict(xs.data()), b.predict(xs.data()));
}

TEST(TrainedModel, SaveLoadPreservesPredictions)
{
    const size_t dim = 8;
    auto [xs, ys] = syntheticDataset(400, dim, 35);
    TrainConfig config;
    config.epochs = 5;
    config.threads = 2;
    const TrainedModel model = trainMlp(xs, ys, dim, config);
    const std::string path = "/tmp/concorde_test_model.bin";
    model.save(path);
    const TrainedModel loaded = TrainedModel::load(path);
    for (size_t i = 0; i < 10; ++i) {
        EXPECT_EQ(model.predict(xs.data() + i * dim),
                  loaded.predict(xs.data() + i * dim));
    }
    std::remove(path.c_str());
}

TEST(TrainedModel, PredictionsArePositive)
{
    const size_t dim = 6;
    auto [xs, ys] = syntheticDataset(300, dim, 36);
    TrainConfig config;
    config.epochs = 3;
    config.threads = 2;
    const TrainedModel model = trainMlp(xs, ys, dim, config);
    std::vector<float> adversarial(dim, -1000.0f);
    EXPECT_GT(model.predict(adversarial.data()), 0.0f);
}

TEST(TrainedModel, PredictBatchMatchesSingle)
{
    const size_t dim = 6;
    auto [xs, ys] = syntheticDataset(100, dim, 37);
    TrainConfig config;
    config.epochs = 3;
    config.threads = 2;
    const TrainedModel model = trainMlp(xs, ys, dim, config);
    const auto batch = model.predictBatch(xs, dim, 4);
    ASSERT_EQ(batch.size(), 100u);
    for (size_t i = 0; i < batch.size(); ++i)
        EXPECT_EQ(batch[i], model.predict(xs.data() + i * dim));
}

/** Split-conformal calibration of `model` on a held-out set. */
ConformalCalibration
calibrate(const TrainedModel &model, const std::vector<float> &xs,
          const std::vector<float> &ys, size_t dim)
{
    return fitConformalCalibration(model.predictBatch(xs, dim), ys, xs,
                                   dim);
}

TEST(Conformal, IntervalsContainPointAndAreOrdered)
{
    const size_t dim = 10;
    auto [train_x, train_y] = syntheticDataset(2000, dim, 41);
    auto [cal_x, cal_y] = syntheticDataset(500, dim, 42);
    TrainConfig config;
    config.epochs = 20;
    config.threads = 4;
    const TrainedModel model = trainMlp(train_x, train_y, dim, config);
    const ConformalCalibration cal = calibrate(model, cal_x, cal_y, dim);
    for (size_t i = 0; i < 20; ++i) {
        const double point = model.predict(cal_x.data() + i * dim);
        double lo = 0.0, hi = 0.0;
        cal.intervalAround(point, 0.1, lo, hi);
        EXPECT_LE(lo, point);
        EXPECT_GE(hi, point);
        EXPECT_GE(lo, 0.0);
    }
}

TEST(Conformal, QuantileMonotoneInConfidence)
{
    const size_t dim = 8;
    auto [train_x, train_y] = syntheticDataset(1500, dim, 43);
    auto [cal_x, cal_y] = syntheticDataset(400, dim, 44);
    TrainConfig config;
    config.epochs = 15;
    config.threads = 4;
    const TrainedModel model = trainMlp(train_x, train_y, dim, config);
    const ConformalCalibration cal = calibrate(model, cal_x, cal_y, dim);
    // Higher confidence (smaller alpha) => wider quantile.
    EXPECT_LE(cal.quantile(0.5), cal.quantile(0.2));
    EXPECT_LE(cal.quantile(0.2), cal.quantile(0.05));
    EXPECT_LE(cal.quantile(0.05), cal.quantile(0.01));
}

TEST(Conformal, EmpiricalCoverageMatchesTarget)
{
    const size_t dim = 12;
    auto [train_x, train_y] = syntheticDataset(3000, dim, 45);
    auto [cal_x, cal_y] = syntheticDataset(800, dim, 46);
    auto [test_x, test_y] = syntheticDataset(800, dim, 47);
    TrainConfig config;
    config.epochs = 25;
    config.threads = 4;
    const TrainedModel model = trainMlp(train_x, train_y, dim, config);
    const ConformalCalibration cal = calibrate(model, cal_x, cal_y, dim);
    const std::vector<float> test_preds = model.predictBatch(test_x, dim);
    for (double alpha : {0.3, 0.1}) {
        const double coverage =
            empiricalCoverage(cal, test_preds, test_y, alpha);
        EXPECT_GE(coverage, 1.0 - alpha - 0.05)
            << "undercoverage at alpha " << alpha;
        EXPECT_LE(coverage, 1.0)
            << "coverage cannot exceed 1";
    }
}

TEST(Conformal, AccurateModelGivesTightIntervals)
{
    // A model fitted to a constant function has near-zero conformity
    // scores, hence tight intervals.
    const size_t dim = 4;
    std::vector<float> xs(50 * dim, 0.0f);
    std::vector<float> ys(50, 3.0f);
    TrainConfig config;
    config.epochs = 500;        // one step per epoch on this tiny set
    config.learningRate = 1e-2;
    config.threads = 1;
    const TrainedModel model = trainMlp(xs, ys, dim, config);
    EXPECT_LT(calibrate(model, xs, ys, dim).quantile(0.2), 0.2);
}

} // anonymous namespace
} // namespace concorde
