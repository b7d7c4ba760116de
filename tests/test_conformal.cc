/**
 * @file
 * Unit tests for the serializable conformal-calibration state: quantile
 * finite-sample edge cases (tiny calibration sets, alpha near the
 * ends), interval and OOD-envelope math, byte-identical serialization
 * round trips, the trainer integration (TrainRun.calibration exists iff
 * a validation split does), and artifact version compatibility (a v1
 * artifact, which predates calibration, loads as "uncalibrated").
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <vector>

#include "common/rng.hh"
#include "common/serialize.hh"
#include "core/model_artifact.hh"
#include "ml/calibration.hh"
#include "ml/trainer.hh"

namespace concorde
{
namespace
{

ConformalCalibration
calWithScores(std::vector<double> scores)
{
    ConformalCalibration cal;
    cal.scores = std::move(scores);
    return cal;
}

/** y depends linearly on x plus noise -- easy to fit approximately. */
std::pair<std::vector<float>, std::vector<float>>
syntheticDataset(size_t n, size_t dim, uint64_t seed)
{
    Rng rng(seed);
    std::vector<float> xs(n * dim);
    std::vector<float> ys(n);
    for (size_t i = 0; i < n; ++i) {
        float sum = 0.0f;
        for (size_t d = 0; d < dim; ++d) {
            const float v = static_cast<float>(rng.nextGaussian());
            xs[i * dim + d] = v;
            sum += v * static_cast<float>(d + 1) * 0.05f;
        }
        ys[i] = 1.5f + sum
            + 0.05f * static_cast<float>(rng.nextGaussian());
        if (ys[i] < 0.05f)
            ys[i] = 0.05f;
    }
    return {xs, ys};
}

// ---- quantile finite-sample edge cases ----

TEST(ConformalCalibration, QuantileOnEmptyCalibrationPanics)
{
    const ConformalCalibration cal;
    EXPECT_FALSE(cal.valid());
    EXPECT_DEATH(cal.quantile(0.1), "empty calibration");
}

TEST(ConformalCalibration, QuantileRejectsDegenerateAlpha)
{
    const ConformalCalibration cal = calWithScores({0.1});
    EXPECT_DEATH(cal.quantile(0.0), "alpha");
    EXPECT_DEATH(cal.quantile(1.0), "alpha");
    EXPECT_DEATH(cal.quantile(-0.5), "alpha");
}

TEST(ConformalCalibration, SingleSampleQuantile)
{
    // n = 1: rank = ceil(2 (1 - alpha)). For alpha < 0.5 the corrected
    // rank (2) exceeds the support, so the quantile must be *inflated*
    // past the observed score -- never silently under-cover.
    const ConformalCalibration cal = calWithScores({0.5});
    EXPECT_GT(cal.quantile(0.1), 0.5);
    // For alpha > 0.5 the rank is 1: the observed score itself.
    EXPECT_EQ(cal.quantile(0.9), 0.5);
}

TEST(ConformalCalibration, AlphaNearZeroInflatesBeyondSupport)
{
    std::vector<double> scores;
    for (int i = 1; i <= 10; ++i)
        scores.push_back(0.01 * i);
    const ConformalCalibration cal = calWithScores(scores);
    // ceil(11 * 0.999) = 11 > n = 10: beyond the calibration support.
    EXPECT_GT(cal.quantile(0.001), scores.back());
}

TEST(ConformalCalibration, AlphaNearOneUsesSmallestScore)
{
    std::vector<double> scores;
    for (int i = 1; i <= 10; ++i)
        scores.push_back(0.01 * i);
    const ConformalCalibration cal = calWithScores(scores);
    // ceil(11 * 0.001) = 1: the smallest conformity score.
    EXPECT_EQ(cal.quantile(0.999), scores.front());
}

TEST(ConformalCalibration, QuantileMonotoneInAlpha)
{
    std::vector<double> scores;
    Rng rng(11);
    for (int i = 0; i < 200; ++i)
        scores.push_back(rng.nextDouble());
    std::sort(scores.begin(), scores.end());
    const ConformalCalibration cal = calWithScores(scores);
    double prev = cal.quantile(0.99);
    for (double alpha : {0.5, 0.2, 0.1, 0.05, 0.01}) {
        const double q = cal.quantile(alpha);
        EXPECT_GE(q, prev);
        prev = q;
    }
}

// ---- interval + OOD math ----

TEST(ConformalCalibration, IntervalBracketsPointAndClampsAtZero)
{
    const ConformalCalibration cal = calWithScores({0.25});
    double lo = -1.0, hi = -1.0;
    cal.intervalAround(2.0, 0.9, lo, hi);   // q = 0.25
    EXPECT_DOUBLE_EQ(lo, 2.0 * 0.75);
    EXPECT_DOUBLE_EQ(hi, 2.0 * 1.25);

    // q > 1 would give a negative lower bound; CPI can't be negative.
    const ConformalCalibration wide = calWithScores({1.5});
    wide.intervalAround(2.0, 0.9, lo, hi);
    EXPECT_EQ(lo, 0.0);
    EXPECT_DOUBLE_EQ(hi, 2.0 * 2.5);
}

TEST(ConformalCalibration, OodScoreCountsDimensionsOutsideEnvelope)
{
    const size_t dim = 4;
    // Envelope from two rows: per-dim range [0, 1].
    const std::vector<float> envelope = {0, 0, 0, 0, 1, 1, 1, 1};
    const ConformalCalibration cal = fitConformalCalibration(
        {1.0f, 1.0f}, {1.0f, 1.2f}, envelope, dim);

    const std::vector<float> inside = {0.5f, 0.0f, 1.0f, 0.25f};
    EXPECT_EQ(cal.oodScore(inside.data(), dim), 0.0);

    const std::vector<float> one_out = {0.5f, 2.0f, 1.0f, 0.25f};
    EXPECT_DOUBLE_EQ(cal.oodScore(one_out.data(), dim), 0.25);

    const std::vector<float> all_out = {-1.0f, 2.0f, 5.0f, -0.1f};
    EXPECT_DOUBLE_EQ(cal.oodScore(all_out.data(), dim), 1.0);
}

TEST(ConformalCalibration, NoEnvelopeMeansNoOodSignal)
{
    // Empty envelope matrix: fit keeps scores but records no bounds.
    const ConformalCalibration cal =
        fitConformalCalibration({1.0f}, {1.1f}, {}, 4);
    EXPECT_TRUE(cal.valid());
    const std::vector<float> row = {1e9f, -1e9f, 0.0f, 3.0f};
    EXPECT_EQ(cal.oodScore(row.data(), 4), 0.0);
}

TEST(ConformalCalibration, FitRejectsMismatchedInputs)
{
    EXPECT_EXIT(fitConformalCalibration({1.0f, 2.0f}, {1.0f}, {}, 4),
                ::testing::ExitedWithCode(1), "size mismatch");
    EXPECT_EXIT(fitConformalCalibration({}, {}, {}, 4),
                ::testing::ExitedWithCode(1), "empty calibration");
    EXPECT_EXIT(fitConformalCalibration({1.0f}, {1.0f}, {1.0f, 2.0f}, 4),
                ::testing::ExitedWithCode(1), "multiple of dim");
}

TEST(ConformalCalibration, EmpiricalCoverageCountsLabelsInsideIntervals)
{
    // Scores {0.1, 0.2, 0.3}: at alpha 0.5 the rank is ceil(4 * 0.5) = 2,
    // so q = 0.2 and the interval around p is [0.8 p, 1.2 p].
    const ConformalCalibration cal = calWithScores({0.1, 0.2, 0.3});
    const std::vector<float> preds = {1.0f, 1.0f, 2.0f, 2.0f};
    const std::vector<float> labels = {1.1f, 1.3f, 1.5f, 2.0f};
    EXPECT_DOUBLE_EQ(empiricalCoverage(cal, preds, labels, 0.5), 0.5);
    EXPECT_EQ(empiricalCoverage(cal, {}, {}, 0.5), 0.0);
}

TEST(ConformalCalibration, EmpiricalCoverageOfPureCalibrationMath)
{
    // Without any model: labels scatter multiplicatively around the
    // point predictions. Fit on one half, measure coverage on the
    // other -- the conformal guarantee must hold within sampling noise.
    Rng rng(77);
    const size_t n = 2000;
    std::vector<float> preds(n), labels(n);
    for (size_t i = 0; i < n; ++i) {
        preds[i] = 1.0f + static_cast<float>(rng.nextDouble());
        labels[i] = preds[i]
            * (1.0f + 0.2f * static_cast<float>(rng.nextGaussian()));
    }
    const size_t half = n / 2;
    const ConformalCalibration cal = fitConformalCalibration(
        {preds.begin(), preds.begin() + half},
        {labels.begin(), labels.begin() + half}, {}, 1);

    for (double alpha : {0.3, 0.1}) {
        const double coverage = empiricalCoverage(
            cal, {preds.begin() + half, preds.end()},
            {labels.begin() + half, labels.end()}, alpha);
        EXPECT_GE(coverage, 1.0 - alpha - 0.04)
            << "undercoverage at alpha " << alpha;
    }
}

// ---- serialization ----

TEST(ConformalCalibration, SerializationRoundTripIsByteIdentical)
{
    Rng rng(5);
    ConformalCalibration cal;
    for (int i = 0; i < 64; ++i)
        cal.scores.push_back(rng.nextDouble());
    std::sort(cal.scores.begin(), cal.scores.end());
    for (int d = 0; d < 7; ++d) {
        cal.featLo.push_back(static_cast<float>(-d));
        cal.featHi.push_back(static_cast<float>(d * d));
    }

    const std::string a = "/tmp/concorde_test_cal_a.bin";
    const std::string b = "/tmp/concorde_test_cal_b.bin";
    {
        BinaryWriter out(a);
        cal.save(out);
    }
    ConformalCalibration loaded;
    {
        BinaryReader in(a);
        loaded = ConformalCalibration::load(in);
    }
    EXPECT_EQ(loaded.scores, cal.scores);
    EXPECT_EQ(loaded.featLo, cal.featLo);
    EXPECT_EQ(loaded.featHi, cal.featHi);
    {
        BinaryWriter out(b);
        loaded.save(out);
    }
    // Byte identity, not just value equality: the calibration feeds
    // artifact fingerprints, which must be stable across round trips.
    EXPECT_EQ(fileHash(a), fileHash(b));
    std::remove(a.c_str());
    std::remove(b.c_str());
}

TEST(ConformalCalibration, LoadRejectsCorruptState)
{
    const std::string path = "/tmp/concorde_test_cal_corrupt.bin";
    {
        BinaryWriter out(path);
        ConformalCalibration cal;
        cal.scores = {0.5, 0.1};    // deliberately unsorted
        cal.save(out);
    }
    EXPECT_EXIT(
        {
            BinaryReader in(path);
            ConformalCalibration::load(in);
        },
        ::testing::ExitedWithCode(1), "not sorted");
    std::remove(path.c_str());
}

// ---- trainer + artifact integration ----

TEST(ConformalCalibration, TrainerFitsCalibrationIffValidationSplit)
{
    const size_t dim = 6;
    auto [xs, ys] = syntheticDataset(300, dim, 91);
    TrainConfig config;
    config.epochs = 3;
    config.threads = 2;

    config.valFraction = 0.2;
    const TrainRun with_val =
        trainMlpResumable(xs, ys, dim, config, nullptr);
    EXPECT_TRUE(with_val.calibration.valid());
    // Scores come from the held-out split; envelope from the train split.
    EXPECT_EQ(with_val.calibration.size(), 300u / 5);
    EXPECT_EQ(with_val.calibration.featLo.size(), dim);

    config.valFraction = 0.0;
    const TrainRun without_val =
        trainMlpResumable(xs, ys, dim, config, nullptr);
    EXPECT_FALSE(without_val.calibration.valid());
}

TEST(ConformalCalibration, ArtifactRoundTripAndV1Compatibility)
{
    const size_t dim = 6;
    auto [xs, ys] = syntheticDataset(300, dim, 92);
    TrainConfig config;
    config.epochs = 3;
    config.threads = 2;
    config.valFraction = 0.2;
    const TrainRun run = trainMlpResumable(xs, ys, dim, config, nullptr);

    ModelArtifact artifact;
    artifact.model = run.model;
    artifact.calibration = run.calibration;
    const std::string v2_path = "/tmp/concorde_test_artifact_v2.bin";
    artifact.save(v2_path);

    const ModelArtifact loaded = ModelArtifact::load(v2_path);
    ASSERT_TRUE(loaded.calibrated());
    EXPECT_EQ(loaded.calibration.scores, artifact.calibration.scores);
    EXPECT_EQ(loaded.calibration.featLo, artifact.calibration.featLo);
    EXPECT_EQ(loaded.calibration.featHi, artifact.calibration.featHi);

    // Forge a genuine v1 file from an uncalibrated save: the v2 format
    // is v1 + (version bump + trailing has-calibration byte), so patch
    // the version field back to 1 and drop the last byte.
    ModelArtifact uncal = artifact;
    uncal.calibration = ConformalCalibration{};
    const std::string uncal_path =
        "/tmp/concorde_test_artifact_uncal.bin";
    uncal.save(uncal_path);
    std::vector<uint8_t> bytes;
    {
        std::FILE *f = std::fopen(uncal_path.c_str(), "rb");
        ASSERT_NE(f, nullptr);
        std::fseek(f, 0, SEEK_END);
        bytes.resize(static_cast<size_t>(std::ftell(f)));
        std::fseek(f, 0, SEEK_SET);
        ASSERT_EQ(std::fread(bytes.data(), 1, bytes.size(), f),
                  bytes.size());
        std::fclose(f);
    }
    ASSERT_GT(bytes.size(), 13u);
    bytes[8] = 1;                   // u32 version at offset 8, LE
    bytes.pop_back();               // the v2 has-calibration flag
    const std::string v1_path = "/tmp/concorde_test_artifact_v1.bin";
    {
        std::FILE *f = std::fopen(v1_path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size() - 0, f),
                  bytes.size());
        std::fclose(f);
    }

    // A v1 artifact (predates calibration) loads and reports
    // uncalibrated; its model predicts identically.
    const ModelArtifact v1 = ModelArtifact::load(v1_path);
    EXPECT_FALSE(v1.calibrated());
    EXPECT_EQ(v1.model.predict(xs.data()), artifact.model.predict(xs.data()));

    std::remove(v2_path.c_str());
    std::remove(uncal_path.c_str());
    std::remove(v1_path.c_str());
}

} // anonymous namespace
} // namespace concorde
