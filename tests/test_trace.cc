/**
 * @file
 * Tests for the synthetic workload generator and the Table-2 corpus:
 * determinism, chunk composability, dependency sanity, instruction-mix
 * plausibility, and phase behavior.
 */

#include <gtest/gtest.h>

#include <set>

#include "trace/workloads.hh"

namespace concorde
{
namespace
{

TEST(Corpus, HasTwentyNinePrograms)
{
    const auto &corpus = workloadCorpus();
    ASSERT_EQ(corpus.size(), 29u);
    int proprietary = 0, cloud = 0, open = 0, spec = 0;
    for (const auto &info : corpus) {
        if (info.profile.group == "Proprietary")
            ++proprietary;
        else if (info.profile.group == "Cloud")
            ++cloud;
        else if (info.profile.group == "Open")
            ++open;
        else if (info.profile.group == "SPEC2017")
            ++spec;
    }
    EXPECT_EQ(proprietary, 13);
    EXPECT_EQ(cloud, 2);
    EXPECT_EQ(open, 4);
    EXPECT_EQ(spec, 10);
}

/** A generated region as rows, for the record-level properties below. */
std::vector<Instruction>
regionRows(const RegionSpec &spec)
{
    return generateRegion(spec).toInstructions();
}

TEST(Corpus, CodesResolve)
{
    EXPECT_EQ(programIdByCode("P1"), 0);
    EXPECT_GE(programIdByCode("S1"), 0);
    EXPECT_GE(programIdByCode("O3"), 0);
    EXPECT_GE(programIdByCode("C2"), 0);
    EXPECT_EQ(programIdByCode("ZZ"), -1);
    // Codes are unique.
    std::set<std::string> codes;
    for (const auto &info : workloadCorpus())
        codes.insert(info.code());
    EXPECT_EQ(codes.size(), workloadCorpus().size());
}

TEST(Generator, DeterministicRegions)
{
    RegionSpec spec{3, 1, 17, 4};
    const auto a = regionRows(spec);
    const auto b = regionRows(spec);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].pc, b[i].pc);
        EXPECT_EQ(a[i].memAddr, b[i].memAddr);
        EXPECT_EQ(a[i].type, b[i].type);
        EXPECT_EQ(a[i].taken, b[i].taken);
        EXPECT_EQ(a[i].srcDeps[0], b[i].srcDeps[0]);
    }
}

TEST(Generator, RegionLengthMatchesSpec)
{
    RegionSpec spec{0, 0, 0, 3};
    EXPECT_EQ(regionRows(spec).size(), 3u * kChunkLen);
}

TEST(Generator, ChunksComposeIntoRegions)
{
    // A 2-chunk region equals the concatenation of its two 1-chunk
    // regions, modulo dependency indices being region-relative.
    RegionSpec two{5, 0, 10, 2};
    RegionSpec first{5, 0, 10, 1};
    RegionSpec second{5, 0, 11, 1};
    const auto big = regionRows(two);
    const auto a = regionRows(first);
    const auto b = regionRows(second);
    ASSERT_EQ(big.size(), a.size() + b.size());
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(big[i].pc, a[i].pc);
    for (size_t i = 0; i < b.size(); ++i) {
        EXPECT_EQ(big[a.size() + i].pc, b[i].pc);
        EXPECT_EQ(big[a.size() + i].memAddr, b[i].memAddr);
        // Chunk-local dependency, shifted by the base offset.
        if (b[i].srcDeps[0] >= 0) {
            EXPECT_EQ(big[a.size() + i].srcDeps[0],
                      b[i].srcDeps[0] + static_cast<int32_t>(a.size()));
        }
    }
}

TEST(Generator, TracesDiffer)
{
    RegionSpec t0{2, 0, 5, 1};
    RegionSpec t1{2, 1, 5, 1};
    const auto a = regionRows(t0);
    const auto b = regionRows(t1);
    size_t same = 0;
    for (size_t i = 0; i < a.size(); ++i)
        same += a[i].pc == b[i].pc;
    EXPECT_LT(same, a.size());
}

class AllProgramsTest : public ::testing::TestWithParam<int>
{
};

TEST_P(AllProgramsTest, RegionsAreWellFormed)
{
    const int pid = GetParam();
    RegionSpec spec{pid, 0, 2, 2};
    const auto region = regionRows(spec);
    ASSERT_EQ(region.size(), 2u * kChunkLen);

    size_t loads = 0, stores = 0, branches = 0;
    for (size_t i = 0; i < region.size(); ++i) {
        const Instruction &instr = region[i];
        // Dependencies point strictly backward within the region.
        for (int d = 0; d < kMaxSrcDeps; ++d) {
            if (instr.srcDeps[d] >= 0) {
                ASSERT_LT(instr.srcDeps[d], static_cast<int32_t>(i));
                // Register deps reference value producers.
                EXPECT_TRUE(producesValue(region[instr.srcDeps[d]].type));
            }
        }
        if (instr.memDep >= 0) {
            ASSERT_LT(instr.memDep, static_cast<int32_t>(i));
            EXPECT_TRUE(region[instr.memDep].isStore());
            // Forwarding loads share the store's address.
            EXPECT_EQ(instr.memAddr, region[instr.memDep].memAddr);
        }
        if (instr.isMem()) {
            EXPECT_NE(instr.memAddr, 0u);
        }
        if (instr.isBranch()) {
            EXPECT_NE(instr.branchKind, BranchKind::None);
        }
        loads += instr.isLoad();
        stores += instr.isStore();
        branches += instr.isBranch();
    }
    EXPECT_GT(loads, 0u);
    EXPECT_GT(stores, 0u);
    EXPECT_GT(branches, 0u);

    // Instruction mix is in the neighborhood of the profile. The dynamic
    // mix legitimately deviates from the static mix (hot loops repeat
    // whatever their bodies contain), so only a loose band is asserted.
    const auto &prof = workloadCorpus()[pid].profile;
    const double observed = loads / static_cast<double>(region.size());
    EXPECT_GT(observed, prof.fracLoad * 0.3);
    EXPECT_LT(observed, prof.fracLoad * 2.5);
}

TEST_P(AllProgramsTest, StaticBlocksHaveStableOpcodes)
{
    // Same PC => same opcode class (static code property).
    const int pid = GetParam();
    RegionSpec spec{pid, 0, 0, 2};
    const auto region = regionRows(spec);
    std::map<uint64_t, InstrType> opcode_at;
    for (const auto &instr : region) {
        if (instr.isIsb())
            continue;   // barriers are dynamic events
        auto [it, inserted] = opcode_at.try_emplace(instr.pc, instr.type);
        if (!inserted) {
            EXPECT_EQ(it->second, instr.type) << "pc " << instr.pc;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Corpus, AllProgramsTest, ::testing::Range(0, 29));

TEST(Phases, PhaseIndexCyclesDeterministically)
{
    const int pid = programIdByCode("P9");
    const ProgramModel &model = programModel(pid);
    const auto &prof = workloadCorpus()[pid].profile;
    ASSERT_GT(prof.phases.size(), 1u);
    EXPECT_EQ(model.phaseOf(0), 0u);
    EXPECT_EQ(model.phaseOf(prof.chunksPerPhase), 1u);
    EXPECT_EQ(model.phaseOf(prof.chunksPerPhase * prof.phases.size()), 0u);
}

TEST(Phases, ScatterPhaseTouchesMoreLines)
{
    // P9's scatter phase (index 9) touches far more distinct data lines
    // than its hot phase (the Figure-17 behavior).
    const int pid = programIdByCode("P9");
    const auto &prof = workloadCorpus()[pid].profile;
    const uint64_t hot_chunk = 0;
    const uint64_t scatter_chunk = 9 * prof.chunksPerPhase;
    ASSERT_EQ(programModel(pid).phaseOf(scatter_chunk), 9u);

    auto distinct_lines = [&](uint64_t chunk) {
        RegionSpec spec{pid, 0, chunk, 1};
        std::set<uint64_t> lines;
        for (const auto &instr : regionRows(spec)) {
            if (instr.isLoad())
                lines.insert(instr.dataLine());
        }
        return lines.size();
    };
    EXPECT_GT(static_cast<double>(distinct_lines(scatter_chunk)),
              1.3 * static_cast<double>(distinct_lines(hot_chunk)));
}

TEST(Sampling, RegionWithinTraceBounds)
{
    Rng rng(77);
    for (int i = 0; i < 200; ++i) {
        const RegionSpec spec = sampleRegion(rng, 8);
        const auto &info = workloadCorpus()[spec.programId];
        EXPECT_LT(spec.traceId, info.numTraces);
        EXPECT_LE(spec.startChunk + spec.numChunks, info.chunksPerTrace);
    }
}

TEST(Sampling, FromProgramRespectsProgram)
{
    Rng rng(78);
    for (int i = 0; i < 50; ++i) {
        const RegionSpec spec = sampleRegionFromProgram(rng, 7, 4);
        EXPECT_EQ(spec.programId, 7);
    }
}

TEST(Sampling, RandomRegionsRarelyOverlap)
{
    // The corpus is large enough that two independently sampled regions
    // almost never overlap (the Figure-4 no-memorization property).
    Rng rng(79);
    std::vector<RegionSpec> specs;
    for (int i = 0; i < 300; ++i)
        specs.push_back(sampleRegion(rng, 8));
    size_t overlapping = 0;
    for (size_t a = 0; a < specs.size(); ++a) {
        for (size_t b = a + 1; b < specs.size(); ++b) {
            if (specs[a].programId != specs[b].programId
                || specs[a].traceId != specs[b].traceId) {
                continue;
            }
            const uint64_t lo = std::max(specs[a].startChunk,
                                         specs[b].startChunk);
            const uint64_t hi = std::min(
                specs[a].startChunk + specs[a].numChunks,
                specs[b].startChunk + specs[b].numChunks);
            overlapping += hi > lo;
        }
    }
    EXPECT_LT(overlapping, 10u);
}

TEST(Generator, IndirectTargetsShowTemporalLocality)
{
    // Indirect branches repeat their last target often enough for a
    // last-target predictor to be useful (interpreter-dispatch realism).
    const int pid = programIdByCode("S8");
    RegionSpec spec{pid, 0, 0, 24};
    const auto region = regionRows(spec);
    std::map<uint64_t, uint16_t> last_target;
    size_t repeats = 0, total = 0;
    for (const auto &instr : region) {
        if (instr.branchKind != BranchKind::Indirect)
            continue;
        auto [it, inserted] =
            last_target.try_emplace(instr.pc, instr.targetId);
        if (!inserted) {
            ++total;
            repeats += it->second == instr.targetId;
            it->second = instr.targetId;
        }
    }
    ASSERT_GT(total, 5u);
    const double repeat_rate =
        static_cast<double>(repeats) / static_cast<double>(total);
    EXPECT_GT(repeat_rate, 0.3);
    EXPECT_LE(repeat_rate, 1.0);
}

TEST(Generator, StreamLoadsHaveConstantPerPcStride)
{
    // A static sequential-stream load walks one stream with a constant
    // stride (prefetcher trainability).
    const int pid = programIdByCode("P1");
    RegionSpec spec{pid, 0, 2, 2};
    const auto region = regionRows(spec);
    std::map<uint64_t, std::vector<uint64_t>> per_pc;
    for (const auto &instr : region) {
        if (instr.isLoad())
            per_pc[instr.pc].push_back(instr.memAddr);
    }
    size_t strided_pcs = 0, multi_pcs = 0;
    for (const auto &[pc, addrs] : per_pc) {
        if (addrs.size() < 8)
            continue;
        ++multi_pcs;
        // Robust to chunk-boundary restarts: count the modal delta.
        std::map<int64_t, size_t> deltas;
        for (size_t i = 1; i < addrs.size(); ++i) {
            ++deltas[static_cast<int64_t>(addrs[i])
                     - static_cast<int64_t>(addrs[i - 1])];
        }
        size_t modal_count = 0;
        int64_t modal = 0;
        for (const auto &[d, c] : deltas) {
            if (c > modal_count) {
                modal_count = c;
                modal = d;
            }
        }
        strided_pcs += modal != 0
            && modal_count * 10 >= (addrs.size() - 1) * 7;
    }
    ASSERT_GT(multi_pcs, 3u);
    // P1 is stream heavy: a healthy share of its hot loads are strided.
    EXPECT_GE(strided_pcs, std::max<size_t>(1, multi_pcs / 4));
}

TEST(Generator, ChaseLoadsFormDependencyChains)
{
    const int pid = programIdByCode("S1");
    RegionSpec spec{pid, 0, 0, 2};
    const auto region = regionRows(spec);
    // Find load->load dependency chains (the defining mcf pattern).
    size_t load_on_load = 0;
    for (const auto &instr : region) {
        if (!instr.isLoad() || instr.srcDeps[0] < 0)
            continue;
        load_on_load += region[instr.srcDeps[0]].isLoad();
    }
    EXPECT_GT(load_on_load, 200u);
}

} // anonymous namespace
} // namespace concorde
