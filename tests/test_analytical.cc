/**
 * @file
 * Tests for the per-resource analytical models (Section 3.2) and the
 * feature provider: exact width bounds, monotonicity properties, window
 * conversion, memoization, and layout integrity.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "analytical/feature_provider.hh"
#include "analytical/frontend_models.hh"
#include "analytical/lsq_model.hh"
#include "analytical/rob_kernels.hh"
#include "analytical/rob_model.hh"
#include "analytical/width_models.hh"
#include "common/cpu.hh"
#include "common/rng.hh"
#include "trace/workloads.hh"

namespace concorde
{
namespace
{

TraceColumns
chainRegion(size_t n, int dep_dist)
{
    TraceColumns region;
    for (size_t i = 0; i < n; ++i) {
        Instruction instr;
        instr.type = InstrType::IntAlu;
        instr.pc = 0x1000 + (i % 16) * 4;
        if (dep_dist > 0 && i >= static_cast<size_t>(dep_dist))
            instr.srcDeps[0] = static_cast<int32_t>(i) - dep_dist;
        region.append(instr);
    }
    return region;
}

TEST(Windows, ThroughputFromBoundaries)
{
    // Windows ending at cycles 100, 300: thr = 400/100, 400/200.
    const auto thr = throughputFromBoundaries({100, 300}, 400);
    ASSERT_EQ(thr.size(), 2u);
    EXPECT_DOUBLE_EQ(thr[0], 4.0);
    EXPECT_DOUBLE_EQ(thr[1], 2.0);
}

TEST(Windows, ZeroDeltaIsCapped)
{
    const auto thr = throughputFromBoundaries({50, 50}, 400);
    EXPECT_DOUBLE_EQ(thr[1], kMaxThroughput);
}

TEST(Windows, CountsPartitionInstructions)
{
    RegionSpec spec{programIdByCode("O2"), 0, 0, 2};
    const auto region = generateRegion(spec);
    const auto counts = WindowCounts::build(region, 400);
    EXPECT_EQ(counts.windows(), region.size() / 400);
    for (size_t j = 0; j < counts.windows(); ++j) {
        EXPECT_EQ(counts.nAlu[j] + counts.nFp[j] + counts.nLs[j], 400u);
        EXPECT_EQ(counts.nLs[j], counts.nLoad[j] + counts.nStore[j]);
    }
}

TEST(RobModel, SerialChainBoundsAtOne)
{
    // Unit-latency serial chain: throughput ~1 regardless of ROB size.
    const auto region = chainRegion(4000, 1);
    const auto index = LoadLineIndex::build(region);
    std::vector<int32_t> lat(region.size(), 1);
    const auto result = runRobModel(region, index, lat, 512, 400);
    EXPECT_NEAR(result.overallIpc, 1.0, 0.05);
}

TEST(RobModel, RobOneSerializes)
{
    const auto region = chainRegion(4000, 0);   // independent
    const auto index = LoadLineIndex::build(region);
    std::vector<int32_t> lat(region.size(), 3);
    const auto result = runRobModel(region, index, lat, 1, 400);
    // One instruction in flight at a time: IPC = 1/3.
    EXPECT_NEAR(result.overallIpc, 1.0 / 3.0, 0.02);
}

TEST(RobModel, IndependentInstructionsUncapped)
{
    const auto region = chainRegion(4000, 0);
    const auto index = LoadLineIndex::build(region);
    std::vector<int32_t> lat(region.size(), 1);
    const auto result = runRobModel(region, index, lat, 1024, 400);
    // No dependencies, huge ROB: bound hits the throughput cap.
    EXPECT_GT(result.overallIpc, 30.0);
}

TEST(RobModel, LatenciesCollectedAndConsistent)
{
    const auto region = chainRegion(2000, 2);
    const auto index = LoadLineIndex::build(region);
    std::vector<int32_t> lat(region.size(), 5);
    // Two sizes, so hosts with AVX-512F run the lockstep kernel.
    std::vector<RobModelResult> results;
    std::vector<RobStageLatencies> latencies;
    runRobModels(region, index, lat, {{64, true, true}, {16, true, false}},
                 400, results, latencies);
    ASSERT_EQ(results.size(), 2u);
    const RobStageLatencies &lats = latencies[0];
    EXPECT_EQ(lats.issue.size(), region.size());
    EXPECT_EQ(lats.commit.size(), region.size());
    EXPECT_EQ(lats.exec.size(), region.size());
    EXPECT_EQ(lats.exec.count(5), region.size());
    EXPECT_EQ(latencies[1].issue.size(), region.size());
}

TEST(RobModel, IsbDrainsPipeline)
{
    auto region = chainRegion(2000, 0);
    for (size_t i = 100; i < region.size(); i += 100)
        region.type[i] = InstrType::Isb;
    const auto index = LoadLineIndex::build(region);
    std::vector<int32_t> lat(region.size(), 1);
    const auto with_isb = runRobModel(region, index, lat, 256, 400);
    const auto baseline =
        runRobModel(chainRegion(2000, 0), LoadLineIndex::build(region),
                    lat, 256, 400);
    EXPECT_LT(with_isb.overallIpc, baseline.overallIpc);
}

class RobMonotonicity : public ::testing::TestWithParam<const char *>
{
};

TEST_P(RobMonotonicity, ThroughputNonDecreasingInRobSize)
{
    RegionSpec spec{programIdByCode(GetParam()), 0, 2, 2};
    RegionAnalysis analysis(spec, 1);
    const auto &dside = analysis.dside(MemoryConfig{});
    double prev = 0.0;
    for (int rob : {1, 4, 16, 64, 256, 1024}) {
        const auto result =
            runRobModel(analysis.regionColumns(), analysis.loadIndex(),
                        dside.execLat, rob, 400);
        EXPECT_GE(result.overallIpc, prev * 0.999)
            << "ROB " << rob;
        prev = result.overallIpc;
    }
}

INSTANTIATE_TEST_SUITE_P(Programs, RobMonotonicity,
                         ::testing::Values("P1", "S1", "S5", "O3", "C1"));

// ---- ROB kernels vs the per-instruction reference ----

/** One single-size run with per-instruction stage latencies. */
struct ReferenceRun
{
    std::vector<double> windows;
    double overallIpc = 0.0;
    std::vector<double> issue, exec, commit;
};

/**
 * Reference ROB model, one size per run, written for clarity: an
 * n-entry finish array, 64-bit cycles and three n-length latency
 * vectors.
 */
ReferenceRun
referenceRobModel(const TraceColumns &region, const LoadLineIndex &index,
                  const std::vector<int32_t> &exec_lat, int rob_size,
                  int window_k)
{
    ReferenceRun run;
    const size_t n = region.size();
    if (n == 0)
        return run;
    MemoryStateMachine memory(index, exec_lat);
    std::vector<uint64_t> commit_ring(rob_size, 0), finish(n, 0);
    std::vector<uint64_t> boundaries;
    uint64_t c_prev = 0, max_finish = 0, barrier_finish = 0;
    for (size_t i = 0; i < n; ++i) {
        const uint64_t a = commit_ring[i % rob_size];
        uint64_t s = std::max(a, barrier_finish);
        for (int32_t dep :
             {region.srcDep0[i], region.srcDep1[i], region.memDep[i]}) {
            if (dep >= 0)
                s = std::max(s, finish[dep]);
        }
        if (region.isIsb(i))
            s = std::max(s, max_finish);
        const uint64_t f = memory.respCycleInOrder(s, i, region.isLoad(i));
        const uint64_t c = std::max(f, c_prev);
        finish[i] = f;
        max_finish = std::max(max_finish, f);
        if (region.isIsb(i))
            barrier_finish = std::max(barrier_finish, f);
        commit_ring[i % rob_size] = c;
        c_prev = c;
        run.issue.push_back(static_cast<double>(s - a));
        run.exec.push_back(static_cast<double>(f - s));
        run.commit.push_back(static_cast<double>(c - f));
        if ((i + 1) % window_k == 0)
            boundaries.push_back(c);
    }
    run.windows = throughputFromBoundaries(boundaries, window_k);
    run.overallIpc = c_prev > 0
        ? static_cast<double>(n) / static_cast<double>(c_prev)
        : kMaxThroughput;
    return run;
}

/** Reference latency encode: sort, log1p, encodeSorted. */
std::vector<float>
referenceEncode(std::vector<double> samples)
{
    sortSamples(samples);
    for (double &x : samples)
        x = std::log1p(x);
    std::vector<float> out;
    DistributionEncoder(25).encodeSorted(samples, out);
    return out;
}

std::vector<float>
histogramEncode(IntegerHistogram &hist)
{
    std::vector<float> out;
    DistributionEncoder(25).encodeHistogramLog1p(hist, out);
    return out;
}

template <typename T>
void
expectBitwiseEqual(const std::vector<T> &got, const std::vector<T> &want,
                   const std::string &what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(std::memcmp(&got[i], &want[i], sizeof(T)), 0)
            << what << " entry " << i << ": " << got[i] << " vs "
            << want[i];
    }
}

/** A kernel's output for request k against the reference run. */
void
expectMatchesReference(const RobRunRequest &request,
                       const RobModelResult &result,
                       RobStageLatencies &latencies,
                       const ReferenceRun &want, const std::string &what)
{
    const std::string label = what + " rob " + std::to_string(request.robSize);
    expectBitwiseEqual(result.windowThroughput, want.windows,
                       label + " windows");
    EXPECT_EQ(std::memcmp(&result.overallIpc, &want.overallIpc,
                          sizeof(double)), 0)
        << label << " overallIpc " << result.overallIpc << " vs "
        << want.overallIpc;
    if (request.latencies) {
        expectBitwiseEqual(histogramEncode(latencies.issue),
                           referenceEncode(want.issue), label + " issue");
        expectBitwiseEqual(histogramEncode(latencies.commit),
                           referenceEncode(want.commit), label + " commit");
    }
    if (request.execLatency) {
        expectBitwiseEqual(histogramEncode(latencies.exec),
                           referenceEncode(want.exec), label + " exec");
    }
}

/** A region and its d-side latencies. */
struct KernelCase
{
    std::string name;
    TraceColumns region;
    std::vector<int32_t> execLat;
};

/**
 * Synthetic trace: ALU ops and loads with random near dependencies.
 * `isb_every` > 0 puts an ISB every that many instructions; `chase`
 * makes every load depend on the previous load and share a few lines,
 * with memory-like latencies.
 */
KernelCase
syntheticCase(const std::string &name, size_t n, uint64_t seed,
              int isb_every, bool chase)
{
    KernelCase kc;
    kc.name = name;
    Rng rng(seed);
    int32_t last_load = -1;
    for (size_t i = 0; i < n; ++i) {
        Instruction instr;
        instr.pc = 0x1000 + (i % 64) * 4;
        int32_t lat = 1 + static_cast<int32_t>(rng.nextBounded(4));
        if (isb_every > 0
            && i % static_cast<size_t>(isb_every)
                == static_cast<size_t>(isb_every - 1)) {
            instr.type = InstrType::Isb;
        } else if (rng.nextBounded(chase ? 2 : 4) == 0) {
            instr.type = InstrType::Load;
            const uint64_t lines = chase ? 8 : 256;
            instr.memAddr = 0x100000 + rng.nextBounded(lines) * 64;
            if (chase && last_load >= 0)
                instr.srcDeps[0] = last_load;
            lat = chase ? 20 + static_cast<int32_t>(rng.nextBounded(300))
                        : 4 + static_cast<int32_t>(rng.nextBounded(40));
            last_load = static_cast<int32_t>(i);
        }
        if (instr.srcDeps[0] < 0 && i > 0 && rng.nextBounded(2) == 0) {
            instr.srcDeps[0] = static_cast<int32_t>(
                i - 1 - rng.nextBounded(std::min<size_t>(i, 300)));
        }
        if (i > 0 && rng.nextBounded(3) == 0) {
            instr.srcDeps[1] = static_cast<int32_t>(
                i - 1 - rng.nextBounded(std::min<size_t>(i, 40)));
        }
        kc.region.append(instr);
        kc.execLat.push_back(lat);
    }
    return kc;
}

std::vector<KernelCase>
kernelCases()
{
    std::vector<KernelCase> cases;
    cases.push_back(syntheticCase("isb_heavy", 3000, 11, 7, false));
    cases.push_back(syntheticCase("chase_heavy", 3000, 12, 0, true));
    for (const char *code : {"S5", "C1"}) {
        RegionSpec spec{programIdByCode(code), 0, 1, 2};
        RegionAnalysis analysis(spec, 1);
        KernelCase kc;
        kc.name = code;
        kc.region = analysis.regionColumns();
        kc.execLat = analysis.dside(MemoryConfig{}).execLat;
        cases.push_back(std::move(kc));
    }
    return cases;
}

/**
 * Requests cycling through sizes that cover ROB 1, sizes past the
 * case's largest dependency distance and past its length, and
 * duplicates; latency kinds vary per request.
 */
std::vector<RobRunRequest>
kernelRequests(size_t count, size_t n)
{
    const int sizes[] = {1, 4, 1024, 2, 64, 4, static_cast<int>(n),
                         static_cast<int>(n) + 5, 16, 1, 256, 3, 700, 128,
                         8, 32};
    std::vector<RobRunRequest> requests;
    for (size_t k = 0; k < count; ++k) {
        requests.push_back(RobRunRequest{sizes[k % 16], k % 3 != 1,
                                         k % 4 == 0});
    }
    return requests;
}

TEST(RobKernels, PortableMatchesReference)
{
    for (KernelCase &kc : kernelCases()) {
        const auto index = LoadLineIndex::build(kc.region);
        const auto bounds =
            robkernel::RegionBounds::of(kc.region, kc.execLat);
        robkernel::Workspace work;
        for (const RobRunRequest &request :
             kernelRequests(16, kc.region.size())) {
            RobModelResult result;
            RobStageLatencies latencies;
            robkernel::runPortable(kc.region, index, kc.execLat, bounds,
                                   request, 400, result, latencies, work);
            expectMatchesReference(
                request, result, latencies,
                referenceRobModel(kc.region, index, kc.execLat,
                                  request.robSize, 400),
                kc.name);
        }
    }
}

TEST(RobKernels, LockstepMatchesReferenceForEveryLaneCount)
{
    if (!avx512fSupported())
        GTEST_SKIP() << "CPU lacks AVX-512F: lockstep ROB kernel not run";
    for (KernelCase &kc : kernelCases()) {
        const auto index = LoadLineIndex::build(kc.region);
        const auto bounds =
            robkernel::RegionBounds::of(kc.region, kc.execLat);
        ASSERT_TRUE(bounds.fitsLanes()) << kc.name;
        std::vector<ReferenceRun> want;
        const auto all = kernelRequests(16, kc.region.size());
        for (const RobRunRequest &request : all) {
            want.push_back(referenceRobModel(kc.region, index, kc.execLat,
                                             request.robSize, 400));
        }
        robkernel::Workspace work;
        for (size_t count = 1; count <= robkernel::kLanes; ++count) {
            std::vector<RobModelResult> results(count);
            std::vector<RobStageLatencies> latencies(count);
            robkernel::runLockstep(kc.region, index, kc.execLat, bounds,
                                   all.data(), count, 400, results.data(),
                                   latencies.data(), work);
            for (size_t l = 0; l < count; ++l) {
                expectMatchesReference(
                    all[l], results[l], latencies[l], want[l],
                    kc.name + " lanes " + std::to_string(count));
            }
        }
    }
}

TEST(RobKernels, WideCyclesFallBackAndMatch)
{
    // Latencies near 2^28 push the region's cycles past 32 bits, so a
    // multi-size call must take the 64-bit portable kernel.
    KernelCase kc = syntheticCase("wide", 1200, 13, 50, true);
    for (size_t i = 0; i < kc.execLat.size(); i += 40)
        kc.execLat[i] = (1 << 28) + static_cast<int32_t>(i);
    const auto index = LoadLineIndex::build(kc.region);
    EXPECT_FALSE(robkernel::RegionBounds::of(kc.region, kc.execLat)
                     .fitsLanes());
    const auto requests = kernelRequests(12, kc.region.size());
    std::vector<RobModelResult> results;
    std::vector<RobStageLatencies> latencies;
    runRobModels(kc.region, index, kc.execLat, requests, 400, results,
                 latencies);
    ASSERT_EQ(results.size(), requests.size());
    for (size_t k = 0; k < requests.size(); ++k) {
        expectMatchesReference(
            requests[k], results[k], latencies[k],
            referenceRobModel(kc.region, index, kc.execLat,
                              requests[k].robSize, 400),
            kc.name);
    }
}

TEST(RobKernels, RunRobModelsMatchesReference)
{
    // The dispatcher, with output vectors reused across calls: more sizes
    // than lanes, then fewer, then one.
    std::vector<RobModelResult> results;
    std::vector<RobStageLatencies> latencies;
    for (KernelCase &kc : kernelCases()) {
        const auto index = LoadLineIndex::build(kc.region);
        for (size_t count : {20, 5, 1}) {
            auto requests = kernelRequests(16, kc.region.size());
            while (requests.size() < count)
                requests.push_back(RobRunRequest{
                    static_cast<int>(requests.size()) * 9, true, true});
            requests.resize(count);
            runRobModels(kc.region, index, kc.execLat, requests, 400,
                         results, latencies);
            ASSERT_EQ(results.size(), count);
            for (size_t k = 0; k < count; ++k) {
                expectMatchesReference(
                    requests[k], results[k], latencies[k],
                    referenceRobModel(kc.region, index, kc.execLat,
                                      requests[k].robSize, 400),
                    kc.name + " dispatch");
            }
        }
    }
}

TEST(RobKernels, KernelNameMatchesProbe)
{
    EXPECT_STREQ(robKernelName(),
                 avx512fSupported() ? "avx512f" : "portable");
}

TEST(LsqModel, NoLoadsMeansUnbounded)
{
    const auto region = chainRegion(2000, 0);
    const auto index = LoadLineIndex::build(region);
    std::vector<int32_t> lat(region.size(), 1);
    const auto thr = runLoadQueueModel(region, index, lat, 4, 400);
    for (double t : thr)
        EXPECT_DOUBLE_EQ(t, kMaxThroughput);
}

TEST(LsqModel, QueueOfOneSerializesLoads)
{
    TraceColumns region;
    for (size_t i = 0; i < 2000; ++i) {
        Instruction instr;
        instr.type = InstrType::Load;
        instr.memAddr = 0x100000 + i * 64;
        instr.pc = 0x1000;
        region.append(instr);
    }
    const auto index = LoadLineIndex::build(region);
    std::vector<int32_t> lat(region.size(), 4);
    const auto thr = runLoadQueueModel(region, index, lat, 1, 400);
    // One load per 4 cycles.
    EXPECT_NEAR(thr.back(), 0.25, 0.01);
}

TEST(LsqModel, MonotoneInQueueSize)
{
    RegionSpec spec{programIdByCode("S1"), 0, 4, 2};
    RegionAnalysis analysis(spec, 1);
    const auto &dside = analysis.dside(MemoryConfig{});
    double prev_mean = 0.0;
    for (int lq : {1, 4, 16, 64, 256}) {
        const auto thr =
            runLoadQueueModel(analysis.regionColumns(), analysis.loadIndex(),
                              dside.execLat, lq, 400);
        double sum = 0;
        for (double t : thr)
            sum += t;
        EXPECT_GE(sum, prev_mean * 0.999) << "LQ " << lq;
        prev_mean = sum;
    }
}

TEST(SqModel, StoresSerializeAtQueueOne)
{
    Instruction store;
    store.type = InstrType::Store;
    store.memAddr = 0x100000;
    store.pc = 0x1000;
    TraceColumns region;
    for (int i = 0; i < 800; ++i)
        region.append(store);
    const auto thr = runStoreQueueModel(region, 1, 400);
    EXPECT_NEAR(thr.back(), 1.0 / fixedLatency(InstrType::Store), 0.01);
}

TEST(WidthModels, IssueBoundExactValues)
{
    // Eq (6): k=400, n=100, width=2 -> 8.0.
    const auto thr = issueWidthBound({100, 0, 400}, 2, 400);
    ASSERT_EQ(thr.size(), 3u);
    EXPECT_DOUBLE_EQ(thr[0], 8.0);
    EXPECT_DOUBLE_EQ(thr[1], kMaxThroughput);
    EXPECT_DOUBLE_EQ(thr[2], 2.0);
}

TEST(WidthModels, PipesBoundsExactValues)
{
    WindowCounts counts;
    counts.k = 400;
    counts.nLoad = {120};
    counts.nStore = {40};
    counts.nAlu = {240};
    counts.nFp = {0};
    counts.nLs = {160};
    counts.nIsb = {0};
    counts.nCondBr = {0};
    counts.nUncondBr = {0};
    counts.nIndirectBr = {0};
    // LSP=2, LP=1: T_max = 120/3 + 40/2 = 60; T_min = max(20, 160/3).
    const auto lower = pipesLowerBound(counts, 2, 1);
    const auto upper = pipesUpperBound(counts, 2, 1);
    EXPECT_NEAR(lower[0], 400.0 / 60.0, 1e-9);
    EXPECT_NEAR(upper[0], 400.0 / (160.0 / 3.0), 1e-9);
}

class PipesProperty
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(PipesProperty, LowerNeverExceedsUpper)
{
    const auto [lsp, lp] = GetParam();
    RegionSpec spec{programIdByCode("S7"), 0, 0, 2};
    const auto region = generateRegion(spec);
    const auto counts = WindowCounts::build(region, 400);
    const auto lower = pipesLowerBound(counts, lsp, lp);
    const auto upper = pipesUpperBound(counts, lsp, lp);
    for (size_t j = 0; j < lower.size(); ++j)
        EXPECT_LE(lower[j], upper[j] + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Combos, PipesProperty,
    ::testing::Combine(::testing::Values(1, 2, 4, 8),
                       ::testing::Values(0, 1, 4, 8)));

TEST(PipesBounds, EqualWhenNoLoadPipes)
{
    RegionSpec spec{programIdByCode("S7"), 0, 0, 1};
    const auto region = generateRegion(spec);
    const auto counts = WindowCounts::build(region, 400);
    const auto lower = pipesLowerBound(counts, 3, 0);
    const auto upper = pipesUpperBound(counts, 3, 0);
    for (size_t j = 0; j < lower.size(); ++j)
        EXPECT_NEAR(lower[j], upper[j], 1e-9);
}

TEST(FrontendModels, FillsMonotoneInSlots)
{
    RegionSpec spec{programIdByCode("S3"), 0, 2, 2};
    RegionAnalysis analysis(spec, 0);
    const auto &iside = analysis.iside(MemoryConfig{});
    double prev = 0.0;
    for (int fills : {1, 2, 4, 8, 16, 32}) {
        const auto thr =
            runIcacheFillsModel(iside, fills, 400);
        double sum = 0;
        for (double t : thr)
            sum += t;
        EXPECT_GE(sum, prev * 0.999) << fills << " fills";
        prev = sum;
    }
}

TEST(FrontendModels, BuffersMonotone)
{
    RegionSpec spec{programIdByCode("C2"), 0, 2, 2};
    RegionAnalysis analysis(spec, 0);
    const auto &iside = analysis.iside(MemoryConfig{});
    double prev = 0.0;
    for (int bufs : {1, 2, 4, 8}) {
        const auto thr =
            runFetchBufferModel(iside, bufs, 400);
        double sum = 0;
        for (double t : thr)
            sum += t;
        EXPECT_GE(sum, prev * 0.999) << bufs << " buffers";
        prev = sum;
    }
}

TEST(FrontendModels, AllHitsAreUnbounded)
{
    // Tiny code footprint: after the first window, fills never bind.
    RegionSpec spec{programIdByCode("O1"), 0, 2, 1};
    RegionAnalysis analysis(spec, 1);
    const auto &iside = analysis.iside(MemoryConfig{});
    const auto thr = runIcacheFillsModel(iside, 4, 400);
    EXPECT_DOUBLE_EQ(thr.back(), kMaxThroughput);
}

TEST(FeatureLayout, DimsAddUp)
{
    FeatureConfig config;
    FeatureLayout layout(config);
    size_t total = 0;
    for (const auto &[name, width] : layout.blocks())
        total += width;
    EXPECT_EQ(total, layout.dim());
    // 11 primary + 1 rate + (4 dists + sweep) + 13 latency + params.
    const size_t enc = layout.encDim();
    EXPECT_EQ(layout.dim(),
              11 * enc + 1 + 4 * enc + config.robSweep.size() + 13 * enc
                  + kParamEncodingDim);
}

TEST(FeatureLayout, GroupsAreDisjointAndOrdered)
{
    FeatureLayout layout(FeatureConfig{});
    size_t prev_end = 0;
    for (int g = 0; g < static_cast<int>(FeatureGroup::NumGroups); ++g) {
        const auto range = layout.group(static_cast<FeatureGroup>(g));
        EXPECT_EQ(range.begin, prev_end);
        EXPECT_GT(range.end, range.begin);
        prev_end = range.end;
    }
    EXPECT_EQ(prev_end, layout.dim());
}

TEST(FeatureLayout, MaskSelectsGroups)
{
    FeatureLayout layout(FeatureConfig{});
    const auto mask = layout.maskFor({FeatureGroup::Params});
    const auto range = layout.group(FeatureGroup::Params);
    for (size_t i = 0; i < mask.size(); ++i)
        EXPECT_EQ(mask[i], i >= range.begin && i < range.end ? 1 : 0);
}

TEST(FeatureProvider, AssembleMatchesLayoutDim)
{
    RegionSpec spec{programIdByCode("P9"), 0, 8, 2};
    FeatureProvider provider(spec);
    std::vector<float> out;
    provider.assemble(UarchParams::armN1(), out);
    EXPECT_EQ(out.size(), provider.layout().dim());
}

TEST(FeatureProvider, AssembleIsDeterministic)
{
    RegionSpec spec{programIdByCode("P2"), 1, 12, 2};
    Rng rng(9);
    const UarchParams params = UarchParams::sampleRandom(rng);
    std::vector<float> a, b;
    {
        FeatureProvider provider(spec);
        provider.assemble(params, a);
    }
    {
        FeatureProvider provider(spec);
        provider.assemble(params, b);
    }
    EXPECT_EQ(a, b);
}

TEST(FeatureProvider, MemoizationAvoidsRecomputation)
{
    RegionSpec spec{programIdByCode("S9"), 0, 0, 2};
    FeatureProvider provider(spec);
    std::vector<float> out;
    provider.assemble(UarchParams::armN1(), out);
    const size_t runs = provider.modelRuns();
    out.clear();
    provider.assemble(UarchParams::armN1(), out);
    EXPECT_EQ(provider.modelRuns(), runs)
        << "repeat assembly must be free of model runs";
    // A different ROB size adds exactly one ROB-model run.
    UarchParams other = UarchParams::armN1();
    other.robSize = 200;
    out.clear();
    provider.assemble(other, out);
    EXPECT_EQ(provider.modelRuns(), runs + 1);
}

// assemble() appends one row to the caller's matrix. Rows appended to a
// vector the caller did not reserve must grow it geometrically, not
// reallocate and copy the whole matrix on every row.
TEST(FeatureProvider, UnreservedAppendsGrowGeometrically)
{
    RegionSpec spec{programIdByCode("S9"), 0, 0, 2};
    FeatureProvider provider(spec);
    const UarchParams n1 = UarchParams::armN1();
    const size_t rows = 256;
    const size_t dim = provider.layout().dim();
    std::vector<float> out;
    size_t capacity_changes = 0;
    for (size_t r = 0; r < rows; ++r) {
        const size_t before = out.capacity();
        provider.assemble(n1, out);
        capacity_changes += out.capacity() != before;
    }
    ASSERT_EQ(out.size(), rows * dim);
    EXPECT_LE(static_cast<double>(capacity_changes),
              2.0 * std::log2(static_cast<double>(rows * dim)) + 2.0);
}

TEST(FeatureProvider, MinBoundBelowComponentBounds)
{
    RegionSpec spec{programIdByCode("S6"), 0, 2, 2};
    FeatureProvider provider(spec);
    const UarchParams n1 = UarchParams::armN1();
    const auto &rob = provider.robWindows(n1.robSize, n1.memory);
    std::vector<float> out;
    provider.assemble(n1, out);     // forces min-bound computation
    const double cpi = provider.cpiMinBound(n1);
    // CPI from the min bound can never beat the ROB bound alone.
    double rob_cpi = 0;
    for (double t : rob)
        rob_cpi += 1.0 / std::max(t, 1e-6);
    rob_cpi /= static_cast<double>(rob.size());
    EXPECT_GE(cpi, rob_cpi - 1e-9);
}

class RandomDesignFeatures : public ::testing::TestWithParam<int>
{
};

TEST_P(RandomDesignFeatures, AssembledVectorsAreFinite)
{
    Rng rng(1000 + GetParam());
    const RegionSpec spec = sampleRegion(rng, 2);
    FeatureProvider provider(spec);
    for (int trial = 0; trial < 3; ++trial) {
        const UarchParams params = UarchParams::sampleRandom(rng);
        std::vector<float> out;
        provider.assemble(params, out);
        ASSERT_EQ(out.size(), provider.layout().dim());
        for (float v : out) {
            ASSERT_TRUE(std::isfinite(v));
            ASSERT_GE(v, -1e6f);
            ASSERT_LE(v, 1e6f);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDesignFeatures,
                         ::testing::Range(0, 6));

TEST(FeatureProvider, ThroughputFeaturesRespectCaps)
{
    RegionSpec spec{programIdByCode("O1"), 0, 0, 2};
    FeatureProvider provider(spec);
    std::vector<float> out;
    provider.assemble(UarchParams::bigCore(), out);
    const auto range = provider.layout().group(FeatureGroup::Primary);
    for (size_t i = range.begin; i < range.end; ++i) {
        EXPECT_GE(out[i], 0.0f);
        EXPECT_LE(out[i], static_cast<float>(kMaxThroughput) + 1e-3f);
    }
}

TEST(FeatureProvider, MispredictRateFeatureTracksPredictor)
{
    RegionSpec spec{programIdByCode("S4"), 0, 2, 2};
    FeatureProvider provider(spec);
    const auto range = provider.layout().group(FeatureGroup::MispredRate);

    UarchParams simple = UarchParams::armN1();
    simple.branch.type = BranchConfig::Type::Simple;
    simple.branch.simpleMispredictPct = 40;
    std::vector<float> out;
    provider.assemble(simple, out);
    EXPECT_NEAR(out[range.begin], 0.40f, 0.05f);

    out.clear();
    provider.assemble(UarchParams::armN1(), out);    // TAGE
    EXPECT_LT(out[range.begin], 0.25f);
}

TEST(FeatureProvider, LargerRobSweepValuesAreMonotone)
{
    RegionSpec spec{programIdByCode("P5"), 0, 4, 2};
    FeatureConfig config;
    FeatureProvider provider(spec, config);
    std::vector<float> out;
    provider.assemble(UarchParams::armN1(), out);
    // The ROB-sweep block sits at the end of the Stalls group.
    const auto range = provider.layout().group(FeatureGroup::Stalls);
    const size_t sweep_begin = range.end - config.robSweep.size();
    for (size_t i = sweep_begin + 1; i < range.end; ++i)
        EXPECT_GE(out[i], out[i - 1] - 1e-4f);
}

TEST(FeatureProvider, PrecomputeQuantizedSweep)
{
    RegionSpec spec{programIdByCode("O1"), 0, 0, 1};
    FeatureProvider provider(spec);
    const size_t runs = provider.precomputeAll(true);
    // 40 d-configs x (11 ROB + 9 LQ) + 9 SQ + 20 i-configs x (6 + 8).
    EXPECT_EQ(runs, 40u * (11 + 9) + 9 + 20u * (6 + 8));
    // After the sweep, a random design point costs no further model runs.
    Rng rng(4);
    UarchParams params = UarchParams::sampleRandom(rng);
    params.robSize = 256;       // on the quantized grid
    params.lqSize = 64;
    params.sqSize = 16;
    params.maxIcacheFills = 8;
    const size_t before = provider.modelRuns();
    std::vector<float> out;
    provider.assemble(params, out);
    EXPECT_EQ(provider.modelRuns(), before);
}

} // anonymous namespace
} // namespace concorde
