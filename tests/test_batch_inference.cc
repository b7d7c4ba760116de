/**
 * @file
 * Tests for the batched inference engine: Mlp::forwardBatch,
 * TrainedModel::predictBatch, and ConcordePredictor::predictCpiBatch
 * must match the scalar path within 1e-6, including batch sizes 0, 1,
 * and larger than the thread count.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hh"
#include "core/concorde.hh"
#include "ml/mlp.hh"
#include "ml/trainer.hh"

namespace concorde
{
namespace
{

std::vector<float>
randomMatrix(size_t n, size_t dim, uint64_t seed)
{
    Rng rng(seed);
    std::vector<float> xs(n * dim);
    for (auto &v : xs)
        v = static_cast<float>(rng.nextGaussian());
    return xs;
}

TEST(ForwardBatch, MatchesScalarForward)
{
    const std::vector<std::vector<size_t>> shapes = {
        {7, 16, 1}, {32, 48, 24, 1}, {5, 1}, {128, 64, 32, 16, 1}};
    for (size_t s = 0; s < shapes.size(); ++s) {
        Mlp net(shapes[s], 100 + s);
        const size_t dim = shapes[s].front();
        for (size_t n : {size_t(0), size_t(1), size_t(3), size_t(17),
                         size_t(64), size_t(300)}) {
            const auto xs = randomMatrix(n, dim, 7 * n + s);
            std::vector<float> batch(n, -1.0f);
            MlpBatchScratch bscratch;
            net.forwardBatch(xs.data(), n, batch.data(), bscratch);
            auto scratch = net.makeScratch();
            for (size_t i = 0; i < n; ++i) {
                const float scalar =
                    net.forward(xs.data() + i * dim, scratch);
                EXPECT_NEAR(batch[i], scalar,
                            1e-6 * std::max(1.0f, std::abs(scalar)))
                    << "shape " << s << " batch " << n << " row " << i;
            }
        }
    }
}

TEST(ForwardBatch, ScratchIsReusableAcrossSizes)
{
    Mlp net({9, 12, 1}, 3);
    MlpBatchScratch scratch;
    auto sscratch = net.makeScratch();
    // Shrinking and growing the batch must not corrupt results.
    for (size_t n : {size_t(50), size_t(2), size_t(33)}) {
        const auto xs = randomMatrix(n, 9, n);
        std::vector<float> out(n);
        net.forwardBatch(xs.data(), n, out.data(), scratch);
        for (size_t i = 0; i < n; ++i) {
            EXPECT_NEAR(out[i], net.forward(xs.data() + i * 9, sscratch),
                        1e-6);
        }
    }
}

TrainedModel
tinyTrainedModel(size_t dim, uint64_t seed,
                 const std::vector<uint8_t> *mask = nullptr)
{
    Rng rng(seed);
    const size_t n = 200;
    std::vector<float> xs(n * dim);
    std::vector<float> ys(n);
    for (size_t i = 0; i < n; ++i) {
        double acc = 1.0;
        for (size_t d = 0; d < dim; ++d) {
            xs[i * dim + d] = static_cast<float>(rng.nextGaussian());
            acc += 0.1 * d * xs[i * dim + d];
        }
        ys[i] = static_cast<float>(std::abs(acc) + 0.5);
    }
    TrainConfig config;
    config.epochs = 3;
    config.threads = 2;
    config.seed = seed;
    return trainMlp(xs, ys, dim, config, mask);
}

TEST(PredictBatch, MatchesScalarPredict)
{
    const size_t dim = 14;
    const TrainedModel model = tinyTrainedModel(dim, 51);
    for (size_t n : {size_t(0), size_t(1), size_t(257)}) {
        const auto xs = randomMatrix(n, dim, n + 1);
        // More shards than a typical machine has threads.
        const auto batch = model.predictBatch(xs, dim, 16);
        ASSERT_EQ(batch.size(), n);
        for (size_t i = 0; i < n; ++i) {
            EXPECT_NEAR(batch[i], model.predict(xs.data() + i * dim),
                        1e-6);
        }
    }
}

TEST(PredictBatch, RespectsFeatureMask)
{
    const size_t dim = 10;
    std::vector<uint8_t> mask(dim, 0);
    mask[2] = mask[7] = 1;
    const TrainedModel model = tinyTrainedModel(dim, 52, &mask);
    const auto xs = randomMatrix(40, dim, 9);
    const auto batch = model.predictBatch(xs, dim, 4);
    for (size_t i = 0; i < 40; ++i)
        EXPECT_NEAR(batch[i], model.predict(xs.data() + i * dim), 1e-6);
}

/** A predictor around a random (untrained) MLP of the layout's width. */
ConcordePredictor
randomPredictor(const FeatureConfig &cfg, uint64_t seed)
{
    const FeatureLayout layout(cfg);
    Mlp net({layout.dim(), 24, 1}, seed);
    std::vector<float> mean(layout.dim(), 0.0f);
    std::vector<float> stdev(layout.dim(), 1.0f);
    TrainedModel model(std::move(net), std::move(mean), std::move(stdev),
                       {});
    return ConcordePredictor(std::move(model), cfg);
}

TEST(PredictCpiBatch, MatchesScalarPredictCpi)
{
    const ConcordePredictor predictor =
        randomPredictor(FeatureConfig{}, 61);
    RegionSpec spec{0, 0, 0, 2};
    FeatureProvider provider(spec, FeatureConfig{});
    Rng rng(62);

    for (size_t n : {size_t(0), size_t(1), size_t(65)}) {
        std::vector<UarchParams> points;
        for (size_t i = 0; i < n; ++i)
            points.push_back(UarchParams::sampleRandom(rng));
        const auto batch =
            predictor.predictCpiBatch(provider, points, 16);
        ASSERT_EQ(batch.size(), n);
        for (size_t i = 0; i < n; ++i) {
            const double scalar =
                predictor.predictCpi(provider, points[i]);
            EXPECT_NEAR(batch[i], scalar,
                        1e-6 * std::max(1.0, std::abs(scalar)))
                << "batch " << n << " point " << i;
        }
    }
}

TEST(PredictCpiBatch, PointerOverloadAgrees)
{
    const ConcordePredictor predictor =
        randomPredictor(FeatureConfig{}, 63);
    RegionSpec spec{1, 0, 0, 1};
    FeatureProvider provider(spec, FeatureConfig{});
    Rng rng(64);
    std::vector<UarchParams> points;
    for (size_t i = 0; i < 8; ++i)
        points.push_back(UarchParams::sampleRandom(rng));
    const auto a = predictor.predictCpiBatch(provider, points);
    const auto b =
        predictor.predictCpiBatch(provider, points.data(), points.size());
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i], b[i]);
}

} // anonymous namespace
} // namespace concorde
