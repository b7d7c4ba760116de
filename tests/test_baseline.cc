/**
 * @file
 * Tests for the TAO-style GRU sequence baseline.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

#include "baseline/tao.hh"
#include "sim/o3_core.hh"

namespace concorde
{
namespace
{

TaoConfig
tinyConfig()
{
    TaoConfig config;
    config.hidden = 8;
    config.seqLen = 64;
    config.windowsPerRegion = 2;
    config.epochs = 80;
    config.batchSize = 8;
    config.learningRate = 1e-2;
    config.threads = 4;
    return config;
}

TEST(Tao, EncodeWindowShapeAndContent)
{
    TaoModel model(tinyConfig(), UarchParams::armN1());
    RegionSpec spec{programIdByCode("S5"), 0, 0, 1};
    RegionAnalysis analysis(spec, 1);
    std::vector<float> block;
    model.encodeWindow(analysis, 0, block);
    ASSERT_EQ(block.size(), 64u * kTaoInstrDim);
    // Every instruction has exactly one type bit set.
    for (size_t t = 0; t < 64; ++t) {
        float type_bits = 0;
        for (size_t k = 0; k < 9; ++k)
            type_bits += block[t * kTaoInstrDim + k];
        EXPECT_EQ(type_bits, 1.0f);
    }
}

TEST(Tao, PredictIsDeterministic)
{
    TaoModel model(tinyConfig(), UarchParams::armN1());
    RegionSpec spec{programIdByCode("S7"), 0, 2, 1};
    RegionAnalysis a(spec, 1), b(spec, 1);
    EXPECT_EQ(model.predictCpi(a), model.predictCpi(b));
}

TEST(Tao, TrainingReducesError)
{
    // Train on a handful of regions whose CPIs differ and verify that the
    // fitted model beats the untrained one on its own training set.
    const UarchParams n1 = UarchParams::armN1();
    std::vector<RegionSpec> regions;
    std::vector<float> labels;
    Rng rng(17);
    for (int i = 0; i < 12; ++i) {
        const RegionSpec spec = sampleRegion(rng, 1);
        RegionAnalysis analysis(spec, 1);
        regions.push_back(spec);
        labels.push_back(
            static_cast<float>(simulateRegion(n1, analysis).cpi()));
    }

    TaoModel model(tinyConfig(), n1);
    auto rel_err = [&](TaoModel &m) {
        double acc = 0;
        for (size_t i = 0; i < regions.size(); ++i) {
            RegionAnalysis analysis(regions[i], 1);
            acc += std::abs(m.predictCpi(analysis) - labels[i])
                / labels[i];
        }
        return acc / regions.size();
    };

    const double before = rel_err(model);
    model.train(regions, labels);
    const double after = rel_err(model);
    EXPECT_LT(after, before);
    EXPECT_LT(after, 0.6);
}

TEST(Tao, SaveLoadRoundTrip)
{
    TaoModel model(tinyConfig(), UarchParams::armN1());
    const std::string path = "/tmp/concorde_test_tao.bin";
    model.save(path);
    TaoModel loaded = TaoModel::load(path);
    EXPECT_TRUE(loaded.valid());
    RegionSpec spec{programIdByCode("P8"), 0, 1, 1};
    RegionAnalysis a(spec, 1), b(spec, 1);
    EXPECT_EQ(model.predictCpi(a), loaded.predictCpi(b));
    std::remove(path.c_str());
}

/** Overwrite the uint64 header field at `offset` of a saved model. */
void
patchHeader(const std::string &path, std::streamoff offset, uint64_t value)
{
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.good());
    file.seekp(offset);
    file.write(reinterpret_cast<const char *>(&value), sizeof(value));
    ASSERT_TRUE(file.good());
}

TEST(Tao, LoadRejectsHeaderThatDisagreesWithWeights)
{
    // Weights saved at hidden=8 under a header claiming hidden=64 would
    // send predictCpi past the end of every gate row; load must refuse.
    TaoModel model(tinyConfig(), UarchParams::armN1());
    const std::string path = testing::TempDir() + "concorde_forged_tao.bin";
    model.save(path);
    patchHeader(path, 0, 64);       // hidden
    EXPECT_THROW(TaoModel::load(path), std::runtime_error);

    model.save(path);
    patchHeader(path, 8, 0);        // seqLen
    EXPECT_THROW(TaoModel::load(path), std::runtime_error);
    std::remove(path.c_str());
}

} // anonymous namespace
} // namespace concorde
