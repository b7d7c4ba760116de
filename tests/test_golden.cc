/**
 * @file
 * Golden-reference tests (ctest label: golden): the committed corpus in
 * tests/golden/ pins the end-to-end pipeline's features and CPIs, and
 * every executor -- scalar region loop, sharded ThreadPool pipeline,
 * and the serve layer answering each region on the Bulk class -- must
 * reproduce it. The scalar
 * executor is compared against the committed files with a tight
 * tolerance (to absorb libm round-off across toolchains); the other
 * executors are compared against the scalar one bitwise.
 *
 * The simulator labels of the sim-label corpus (sim_label_corpus.hh)
 * are pinned the same way in tests/golden/sim_labels.golden, exactly:
 * the simulator's statistics are integer counts and IEEE quotients of
 * them, with no libm in between.
 *
 * Regenerate with CONCORDE_REGEN_GOLDEN=1 (tests/golden/README.md);
 * CI never regenerates.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "golden_harness.hh"
#include "sim_label_corpus.hh"

using namespace concorde;
using golden::GoldenCase;
using golden::GoldenRecord;

namespace
{

void
expectClose(const std::vector<double> &actual,
            const std::vector<double> &expected, const char *what)
{
    ASSERT_EQ(actual.size(), expected.size()) << what;
    for (size_t i = 0; i < actual.size(); ++i) {
        EXPECT_NEAR(actual[i], expected[i],
                    1e-9 + 1e-6 * std::abs(expected[i]))
            << what << " [" << i << "]";
    }
}

void
expectFeaturesClose(const std::vector<float> &actual,
                    const std::vector<float> &expected, const char *what)
{
    ASSERT_EQ(actual.size(), expected.size()) << what;
    size_t mismatches = 0;
    for (size_t i = 0; i < actual.size(); ++i) {
        const double tol =
            1e-6 + 1e-5 * std::abs(static_cast<double>(expected[i]));
        if (std::abs(static_cast<double>(actual[i]) - expected[i]) > tol) {
            if (++mismatches <= 5) {
                ADD_FAILURE() << what << " [" << i << "]: "
                              << actual[i] << " vs golden "
                              << expected[i];
            }
        }
    }
    EXPECT_EQ(mismatches, 0u) << what;
}

} // anonymous namespace

TEST(GoldenCorpus, ScalarPipelineMatchesCommittedFiles)
{
    for (const GoldenCase &c : golden::corpus()) {
        SCOPED_TRACE(c.name);
        const GoldenRecord actual = golden::compute(c);

        if (golden::regenRequested()) {
            golden::write(golden::path(c), actual);
            std::printf("regenerated %s\n", golden::path(c).c_str());
            continue;
        }

        GoldenRecord expected;
        ASSERT_TRUE(golden::read(golden::path(c), expected))
            << "missing or malformed " << golden::path(c)
            << " -- regenerate with CONCORDE_REGEN_GOLDEN=1 "
            << "(tests/golden/README.md)";

        expectClose(actual.cpiIndependent, expected.cpiIndependent,
                    "cpi_independent");
        expectClose(actual.cpiCarry, expected.cpiCarry, "cpi_carry");
        EXPECT_NEAR(actual.programCpiIndependent,
                    expected.programCpiIndependent,
                    1e-9 + 1e-6
                        * std::abs(expected.programCpiIndependent));
        EXPECT_NEAR(actual.programCpiCarry, expected.programCpiCarry,
                    1e-9 + 1e-6 * std::abs(expected.programCpiCarry));
        expectFeaturesClose(actual.featuresIndependent,
                            expected.featuresIndependent,
                            "features_independent");
        expectFeaturesClose(actual.featuresCarry, expected.featuresCarry,
                            "features_carry");
    }
}

TEST(GoldenCorpus, ShardedPipelineBitwiseIdenticalToScalar)
{
    for (const GoldenCase &c : golden::corpus()) {
        SCOPED_TRACE(c.name);
        const ConcordePredictor predictor = golden::predictorFor(c);
        for (auto state : {pipeline::StateMode::Independent,
                           pipeline::StateMode::Carry}) {
            pipeline::PipelineConfig config;
            config.regionChunks = c.regionChunks;
            config.state = state;
            config.keepFeatures = true;

            config.mode = pipeline::ExecMode::Scalar;
            pipeline::AnalysisPipeline scalar(predictor, config);
            const auto scalar_result = scalar.run(c.span, c.params);

            config.mode = pipeline::ExecMode::Sharded;
            config.threads = 3;
            pipeline::AnalysisPipeline sharded(predictor, config);
            const auto sharded_result = sharded.run(c.span, c.params);

            ASSERT_EQ(scalar_result.regionCpi.size(),
                      sharded_result.regionCpi.size());
            for (size_t i = 0; i < scalar_result.regionCpi.size(); ++i) {
                EXPECT_EQ(scalar_result.regionCpi[i],
                          sharded_result.regionCpi[i])
                    << "region " << i;
            }
            EXPECT_EQ(scalar_result.programCpi,
                      sharded_result.programCpi);
            EXPECT_EQ(scalar_result.features, sharded_result.features);
        }
    }
}

TEST(GoldenCorpus, ServedRegionsBitwiseIdenticalToScalar)
{
    for (const GoldenCase &c : golden::corpus()) {
        SCOPED_TRACE(c.name);
        pipeline::PipelineConfig config;
        config.regionChunks = c.regionChunks;
        config.mode = pipeline::ExecMode::Scalar;
        config.state = pipeline::StateMode::Independent;
        const ConcordePredictor predictor = golden::predictorFor(c);
        pipeline::AnalysisPipeline scalar(predictor, config);
        const auto reference = scalar.run(c.span, c.params);

        serve::ServeConfig sc;
        sc.poolThreads = 2;
        serve::PredictionService service(sc);
        service.registry().add(c.name, golden::predictorFor(c));
        const auto served = golden::serveSpan(service, c.name, c.span,
                                              c.regionChunks, c.params);

        ASSERT_EQ(served.regionCpi.size(), reference.regionCpi.size());
        for (size_t i = 0; i < reference.regionCpi.size(); ++i)
            EXPECT_EQ(served.regionCpi[i], reference.regionCpi[i])
                << "region " << i;
        EXPECT_EQ(served.programCpi, reference.programCpi);
        EXPECT_EQ(served.instructions, reference.instructions);
    }
}

TEST(GoldenSimLabels, SimulateRegionMatchesCommittedLabels)
{
    std::vector<RegionAnalysis> analyses = simcorpus::analyses();
    const std::vector<UarchParams> points = simcorpus::designPoints();
    const std::string file = golden::directory() + "/sim_labels.golden";

    // One scratch reused across every label (the labelRange shape: the
    // timing memory is reset in place between design points), and a
    // fresh one per label.
    SimScratch scratch;
    std::vector<SimResult> reused;
    std::vector<SimResult> fresh;
    for (RegionAnalysis &analysis : analyses) {
        for (const UarchParams &p : points) {
            reused.push_back(simulateRegion(
                p, analysis, simcorpus::kGoldenWindow, &scratch));
            fresh.push_back(
                simulateRegion(p, analysis, simcorpus::kGoldenWindow));
        }
    }

    if (golden::regenRequested()) {
        ASSERT_TRUE(simcorpus::write(file, reused)) << file;
        std::printf("regenerated %s\n", file.c_str());
        return;
    }

    std::vector<SimResult> expected;
    ASSERT_TRUE(simcorpus::read(file, expected))
        << "missing or malformed " << file
        << " -- regenerate with CONCORDE_REGEN_GOLDEN=1 "
        << "(tests/golden/README.md)";
    ASSERT_EQ(expected.size(), reused.size());
    for (size_t i = 0; i < expected.size(); ++i) {
        SCOPED_TRACE("region " + std::to_string(i / points.size())
                     + ", design point "
                     + std::to_string(i % points.size()));
        EXPECT_EQ(simcorpus::format(reused[i]),
                  simcorpus::format(expected[i]));
        EXPECT_TRUE(simcorpus::identical(reused[i], expected[i]));
        EXPECT_TRUE(simcorpus::identical(fresh[i], expected[i]));
    }
}
