/**
 * @file
 * Tests for the batched inference engine. Mlp::forwardBatch picks its
 * GEMM kernel at run time (AVX-512F where the CPU has it, else the
 * portable one); every kernel multiplies and adds in Mlp::forward's
 * order with no fused multiply-add, so each is pinned *bitwise* to
 * Mlp::forward -- signed zeros and NaNs included -- on the production
 * shape and on batch sizes around the 16-row block. Each kernel is also
 * run directly through the internal ml/mlp_gemm.hh; the AVX-512 case is
 * skipped on CPUs without it. TrainedModel::predictBatch and
 * ConcordePredictor::predictCpiBatch must match their scalar paths,
 * including batch sizes 0, 1, and larger than the thread count.
 */

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

#include "common/cpu.hh"
#include "common/rng.hh"
#include "common/serialize.hh"
#include "core/concorde.hh"
#include "ml/mlp.hh"
#include "ml/mlp_gemm.hh"
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

uint32_t
bits(float v)
{
    uint32_t b = 0;
    std::memcpy(&b, &v, sizeof(b));
    return b;
}

/** An MLP's parameters, in Mlp::save's layout. */
struct Layers
{
    std::vector<size_t> sizes;
    std::vector<std::vector<float>> weights;
    std::vector<std::vector<float>> biases;
};

/** Random parameters, biases included (Mlp's initializer zeroes them). */
Layers
randomLayers(const std::vector<size_t> &sizes, uint64_t seed)
{
    Layers layers{sizes, {}, {}};
    Rng rng(seed);
    for (size_t l = 0; l + 1 < sizes.size(); ++l) {
        const double scale = std::sqrt(2.0 / static_cast<double>(sizes[l]));
        layers.weights.emplace_back(sizes[l] * sizes[l + 1]);
        for (auto &w : layers.weights.back())
            w = static_cast<float>(rng.nextGaussian() * scale);
        layers.biases.emplace_back(sizes[l + 1]);
        for (auto &b : layers.biases.back())
            b = static_cast<float>(0.1 * rng.nextGaussian());
    }
    return layers;
}

/** The Mlp holding exactly `layers`, through its file format. */
Mlp
mlpOf(const Layers &layers)
{
    const std::string path = testing::TempDir() + "concorde_batch_mlp_" +
                             std::to_string(::getpid()) + ".bin";
    {
        BinaryWriter out(path);
        out.putVector(layers.sizes);
        for (size_t l = 0; l < layers.weights.size(); ++l) {
            out.putVector(layers.weights[l]);
            out.putVector(layers.biases[l]);
        }
    }
    BinaryReader in(path);
    Mlp net(in);
    std::remove(path.c_str());
    return net;
}

/** The production network shape: {feature dim, 192, 96, 1}. */
std::vector<size_t>
productionShape()
{
    return {FeatureLayout(FeatureConfig{}).dim(), 192, 96, 1};
}

/** Batch sizes around the 16-row block, plus an attribution shard. */
const std::vector<size_t> kBatchSizes = {1,  2,  3,  15, 16,
                                         17, 31, 32, 33, 545};

/** Every row of `kernel` over `xs` has Mlp::forward's exact bits. */
void
expectKernelBitwise(gemm::LayerKernel kernel, const Layers &layers,
                    const Mlp &net, const std::vector<float> &xs,
                    const std::string &what)
{
    const size_t dim = layers.sizes.front();
    const size_t n = xs.size() / dim;
    std::vector<float> batch(n, -1.0f);
    MlpBatchScratch bscratch;
    gemm::forwardBatch(kernel, layers.sizes, layers.weights, layers.biases,
                       xs.data(), n, batch.data(), bscratch);
    auto scratch = net.makeScratch();
    for (size_t i = 0; i < n; ++i) {
        const float scalar = net.forward(xs.data() + i * dim, scratch);
        EXPECT_EQ(bits(batch[i]), bits(scalar))
            << what << " batch " << n << " row " << i << ": " << batch[i]
            << " vs " << scalar;
    }
}

/**
 * A network whose hidden pre-activations are exactly -0.0 on an
 * all-zero input row: negative weights times +0.0 give -0.0, added to a
 * -0.0 bias. ReLU as `v < 0 ? 0 : v` keeps -0.0, and the output layer
 * (positive weights, -0.0 bias) carries the sign through to the result,
 * so a kernel that turned -0.0 into +0.0 (max_ps) is caught. 13 hidden
 * units exercise the 8-, 4- and 1-wide output tiles.
 */
Layers
signedZeroLayers()
{
    Layers layers{{5, 13, 1}, {}, {}};
    layers.weights.emplace_back(5 * 13, -0.5f);
    layers.biases.emplace_back(13, -0.0f);
    layers.weights.emplace_back(13, 0.25f);
    layers.biases.emplace_back(1, -0.0f);
    return layers;
}

/**
 * Mixed rows for signedZeroLayers(): all-zero rows (-0.0 output), one
 * row with a NaN input (NaN output; max_ps would give +0.0), and
 * random rows.
 */
std::vector<float>
specialRows(size_t n)
{
    std::vector<float> xs = randomMatrix(n, 5, 77 + n);
    for (size_t r = 0; r < n; r += 3)
        std::fill(xs.begin() + r * 5, xs.begin() + (r + 1) * 5, 0.0f);
    if (n > 1)
        xs[1 * 5 + 2] = std::numeric_limits<float>::quiet_NaN();
    return xs;
}

void
checkKernel(gemm::LayerKernel kernel)
{
    const std::vector<std::vector<size_t>> shapes = {
        productionShape(), {7, 16, 1}, {32, 48, 24, 1}, {5, 1},
        {128, 64, 33, 17, 1}};
    for (size_t s = 0; s < shapes.size(); ++s) {
        const Layers layers = randomLayers(shapes[s], 200 + s);
        const Mlp net = mlpOf(layers);
        for (size_t n : kBatchSizes) {
            expectKernelBitwise(kernel, layers, net,
                                randomMatrix(n, shapes[s].front(), n + s),
                                "shape " + std::to_string(s));
        }
    }

    const Layers layers = signedZeroLayers();
    const Mlp net = mlpOf(layers);
    auto scratch = net.makeScratch();
    const std::vector<float> zero_row(5, 0.0f);
    ASSERT_TRUE(std::signbit(net.forward(zero_row.data(), scratch)));
    for (size_t n : kBatchSizes)
        expectKernelBitwise(kernel, layers, net, specialRows(n), "special");
}

TEST(GemmKernels, PortableMatchesForwardBitwise)
{
    checkKernel(gemm::layerPortable);
}

TEST(GemmKernels, Avx512MatchesForwardBitwise)
{
    if (!avx512fSupported())
        GTEST_SKIP() << "CPU lacks AVX-512F";
    checkKernel(gemm::layerAvx512);
}

TEST(GemmKernels, KernelNameMatchesDispatch)
{
    const std::string name = Mlp::batchKernelName();
    EXPECT_EQ(name, avx512fSupported() ? "avx512f" : "portable");
    // A lone row always takes the scalar corner kernel.
    EXPECT_EQ(gemm::kernelFor(1), gemm::layerPortable);
    EXPECT_EQ(gemm::kernelFor(545) == gemm::layerAvx512,
              avx512fSupported());
}

TEST(ForwardBatch, MatchesScalarForward)
{
    const std::vector<std::vector<size_t>> shapes = {
        productionShape(), {7, 16, 1}, {32, 48, 24, 1}, {5, 1},
        {128, 64, 32, 16, 1}};
    for (size_t s = 0; s < shapes.size(); ++s) {
        Mlp net(shapes[s], 100 + s);
        const size_t dim = shapes[s].front();
        std::vector<size_t> sizes = kBatchSizes;
        sizes.push_back(0);
        for (size_t n : sizes) {
            const auto xs = randomMatrix(n, dim, 7 * n + s);
            std::vector<float> batch(n, -1.0f);
            MlpBatchScratch bscratch;
            net.forwardBatch(xs.data(), n, batch.data(), bscratch);
            auto scratch = net.makeScratch();
            for (size_t i = 0; i < n; ++i) {
                const float scalar =
                    net.forward(xs.data() + i * dim, scratch);
                EXPECT_EQ(bits(batch[i]), bits(scalar))
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
    for (size_t n : {size_t(50), size_t(2), size_t(33), size_t(1)}) {
        const auto xs = randomMatrix(n, 9, n);
        std::vector<float> out(n);
        net.forwardBatch(xs.data(), n, out.data(), scratch);
        for (size_t i = 0; i < n; ++i) {
            EXPECT_EQ(bits(out[i]),
                      bits(net.forward(xs.data() + i * 9, sscratch)));
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
            EXPECT_EQ(bits(batch[i]),
                      bits(model.predict(xs.data() + i * dim)));
        }
    }
}

TEST(PredictBatch, BlockAlignedShardsMatchScalarPredict)
{
    // 1089 rows (an attribution batch) on two threads: shards are cut on
    // 16-row blocks, so the lone ragged row lands in the last shard.
    const size_t dim = 14;
    const TrainedModel model = tinyTrainedModel(dim, 53);
    const size_t n = 1089;
    const auto xs = randomMatrix(n, dim, 5);
    for (size_t threads : {size_t(1), size_t(2), size_t(3)}) {
        const auto batch = model.predictBatch(xs, dim, threads);
        ASSERT_EQ(batch.size(), n);
        for (size_t i = 0; i < n; ++i) {
            ASSERT_EQ(bits(batch[i]),
                      bits(model.predict(xs.data() + i * dim)))
                << "threads " << threads << " row " << i;
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
        EXPECT_EQ(bits(batch[i]), bits(model.predict(xs.data() + i * dim)));
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
