#include "analysis/trace_analyzer.hh"

#include <algorithm>

#include "common/rng.hh"
#include "trace/workloads.hh"

namespace concorde
{

uint64_t
branchSeedFor(int program_id, int trace_id, uint64_t start_chunk)
{
    return hashMix(workloadCorpus()[program_id].seed,
                   static_cast<uint64_t>(trace_id) + 1,
                   start_chunk + 0xB4A2C);
}

namespace
{

// One columnar sweep per side. Each feeds its structure exactly the
// subsequence, in exactly the order, the row oracles of
// AnalyzerCarryState feed it, so the results are bitwise-identical to
// them. A null output trains without recording (warmup).

void
sweepDside(const TraceColumns &cols, DataHierarchy &dh, DSideAnalysis *d)
{
    const size_t n = cols.size();
    if (d) {
        d->execLat.resize(n);
        d->loadLevel.assign(n, CacheLevel::L1);
    }
    for (size_t k = 0; k < n; ++k) {
        const InstrType t = cols.type[k];
        if (t == InstrType::Load) {
            const CacheLevel level =
                dh.access(cols.pc[k], cols.memAddr[k], false);
            if (d) {
                d->loadLevel[k] = level;
                d->execLat[k] = loadLatency(level);
            }
        } else {
            if (t == InstrType::Store)
                dh.access(cols.pc[k], cols.memAddr[k], true);
            if (d)
                d->execLat[k] = fixedLatency(t);
        }
    }
    if (d)
        d->stats = dh.stats();
}

void
sweepIside(const TraceColumns &cols, InstHierarchy &ih, uint64_t &last_line,
           ISideAnalysis *i)
{
    const size_t n = cols.size();
    if (i) {
        i->newLine.assign(n, 0);
        i->lineLat.assign(n, kL1iHitLat);
    }
    for (size_t k = 0; k < n; ++k) {
        const uint64_t line = cols.instLine[k];
        if (line == last_line)
            continue;
        const CacheLevel level = ih.access(line);
        if (i) {
            i->newLine[k] = 1;
            i->lineLat[k] = level == CacheLevel::L1
                ? kL1iHitLat : loadLatency(level);
        }
        last_line = line;
    }
    if (i)
        i->stats = ih.stats();
}

void
sweepBranches(const TraceColumns &cols, BranchPredictor &bp,
              BranchAnalysis *b)
{
    const size_t n = cols.size();
    if (b)
        b->mispredict.assign(n, 0);
    for (size_t k = 0; k < n; ++k) {
        if (cols.type[k] != InstrType::Branch)
            continue;
        const BranchKind kind = cols.branchKind[k];
        const uint8_t miss = predictorStep(bp, cols.pc[k], kind,
                                           cols.taken[k] != 0,
                                           cols.targetId[k]);
        if (b) {
            b->mispredict[k] = miss;
            if (kind != BranchKind::DirectUncond) {
                ++b->numBranches;
                b->numMispredicts += miss;
            }
        }
    }
}

} // anonymous namespace

RegionAnalysis::RegionAnalysis(const RegionSpec &spec, uint32_t warmup_chunks)
    : regionSpec(spec)
{
    const ProgramModel &model = programModel(spec.programId);
    GenScratch scratch;

    if (warmup_chunks > 0 && spec.startChunk < warmup_chunks) {
        // Warmup prefix for a region at the trace head: re-play the
        // region's own first chunks. Those chunks are already covered by
        // the region, so generate the region once and slice the shared
        // prefix instead of generating it twice (dependency indices are
        // chunk-relative, so the slices are bitwise-identical).
        model.generateRegion(spec, region, scratch);
        const uint32_t shared = std::min(warmup_chunks, spec.numChunks);
        warmup.reserve(static_cast<size_t>(warmup_chunks) * kChunkLen);
        warmup.appendSlice(region, 0,
                           static_cast<size_t>(shared) * kChunkLen);
        for (uint32_t c = shared; c < warmup_chunks; ++c) {
            model.generateChunk(spec.traceId, spec.startChunk + c, warmup,
                                static_cast<int64_t>(warmup.size()),
                                scratch);
        }
    } else {
        // Warmup prefix: the chunks immediately preceding the region.
        if (warmup_chunks > 0) {
            RegionSpec warm = spec;
            warm.numChunks = warmup_chunks;
            warm.startChunk = spec.startChunk - warmup_chunks;
            model.generateRegion(warm, warmup, scratch);
        }
        model.generateRegion(spec, region, scratch);
    }

    loadLineIndex = LoadLineIndex::build(region);
    branchSeed = branchSeedFor(spec.programId, spec.traceId,
                               spec.startChunk);
}

RegionAnalysis::RegionAnalysis(const RegionSpec &spec, TraceColumns cols,
                               const MemoryConfig &mem,
                               const BranchConfig &branch,
                               ShardAnalyses sides)
    : regionSpec(spec), region(std::move(cols))
{
    loadLineIndex = LoadLineIndex::build(region);
    branchSeed = branchSeedFor(spec.programId, spec.traceId,
                               spec.startChunk);
    st->dsides.get(mem.dSideKey(), [&] { return std::move(sides.dside); });
    st->isides.get(mem.iSideKey(), [&] { return std::move(sides.iside); });
    st->branchAnalyses.get(branch.key(),
                           [&] { return std::move(sides.branches); });
}

const TraceColumns &
RegionAnalysis::combinedColumns() const
{
    return st->combined.get(0, [this] {
        TraceColumns cols;
        cols.assignConcat(warmup, region);
        return cols;
    });
}

const std::vector<uint8_t> &
RegionAnalysis::combinedFlags(const BranchConfig &config)
{
    // Takes the branch entry's latch under this one; nothing takes them
    // in the other order.
    return st->combinedFlagLayouts.get(config.key(), [&] {
        const std::vector<uint8_t> &mispredict =
            branches(config).mispredict;
        std::vector<uint8_t> flags(warmup.size() + mispredict.size(), 0);
        std::copy(mispredict.begin(), mispredict.end(),
                  flags.begin()
                      + static_cast<std::ptrdiff_t>(warmup.size()));
        return flags;
    });
}

const DSideAnalysis &
RegionAnalysis::dside(const MemoryConfig &config)
{
    return st->dsides.get(config.dSideKey(), [&] {
        DataHierarchy dh(config);
        DSideAnalysis d;
        sweepDside(warmup, dh, nullptr);
        sweepDside(region, dh, &d);
        return d;
    });
}

const ISideAnalysis &
RegionAnalysis::iside(const MemoryConfig &config)
{
    return st->isides.get(config.iSideKey(), [&] {
        InstHierarchy ih(config);
        uint64_t last_line = ~0ULL;
        ISideAnalysis i;
        sweepIside(warmup, ih, last_line, nullptr);
        sweepIside(region, ih, last_line, &i);
        return i;
    });
}

const BranchAnalysis &
RegionAnalysis::branches(const BranchConfig &config)
{
    return st->branchAnalyses.get(config.key(), [&] {
        const std::unique_ptr<BranchPredictor> bp =
            makePredictor(config, branchSeed);
        BranchAnalysis b;
        sweepBranches(warmup, *bp, nullptr);
        sweepBranches(region, *bp, &b);
        return b;
    });
}

void
RegionAnalysis::analyzeAll(const MemoryConfig &config,
                           const BranchConfig &branch)
{
    // Each getter holds only its own side's latch, so no thread blocks
    // while holding one.
    (void)dside(config);
    (void)iside(config);
    (void)branches(branch);
}

AnalyzerCarryState::AnalyzerCarryState(const MemoryConfig &mem,
                                       const BranchConfig &branch,
                                       uint64_t branch_seed)
    : dHier(mem), iHier(mem), predictor(makePredictor(branch, branch_seed))
{
}

void
AnalyzerCarryState::warm(const std::vector<Instruction> &instrs)
{
    // One pass feeding all three structures: each sees exactly the
    // subsequence it would see in RegionAnalysis's per-side warmup loops.
    for (const auto &instr : instrs) {
        if (instr.isMem())
            dHier.access(instr.pc, instr.memAddr, instr.isStore());
        const uint64_t line = instr.instLine();
        if (line != lastILine) {
            iHier.access(line);
            lastILine = line;
        }
    }
    runPredictor(*predictor, instrs, nullptr);
}

void
AnalyzerCarryState::warm(const TraceColumns &instrs)
{
    sweepDside(instrs, dHier, nullptr);
    sweepIside(instrs, iHier, lastILine, nullptr);
    sweepBranches(instrs, *predictor, nullptr);
}

ShardAnalyses
AnalyzerCarryState::analyzeShard(const TraceColumns &shard)
{
    ShardAnalyses out;
    sweepDside(shard, dHier, &out.dside);
    sweepIside(shard, iHier, lastILine, &out.iside);
    sweepBranches(shard, *predictor, &out.branches);
    return out;
}

DSideAnalysis
AnalyzerCarryState::analyzeDside(const std::vector<Instruction> &shard)
{
    DSideAnalysis analysis;
    analysis.execLat.resize(shard.size());
    analysis.loadLevel.assign(shard.size(), CacheLevel::L1);

    for (size_t i = 0; i < shard.size(); ++i) {
        const Instruction &instr = shard[i];
        if (instr.isLoad()) {
            const CacheLevel level =
                dHier.access(instr.pc, instr.memAddr, false);
            analysis.loadLevel[i] = level;
            analysis.execLat[i] = loadLatency(level);
        } else {
            if (instr.isStore())
                dHier.access(instr.pc, instr.memAddr, true);
            analysis.execLat[i] = fixedLatency(instr.type);
        }
    }
    analysis.stats = dHier.stats();
    return analysis;
}

ISideAnalysis
AnalyzerCarryState::analyzeIside(const std::vector<Instruction> &shard)
{
    ISideAnalysis analysis;
    analysis.newLine.assign(shard.size(), 0);
    analysis.lineLat.assign(shard.size(), kL1iHitLat);

    for (size_t i = 0; i < shard.size(); ++i) {
        const uint64_t line = shard[i].instLine();
        if (line != lastILine) {
            const CacheLevel level = iHier.access(line);
            analysis.newLine[i] = 1;
            analysis.lineLat[i] = level == CacheLevel::L1
                ? kL1iHitLat : loadLatency(level);
            lastILine = line;
        }
    }
    analysis.stats = iHier.stats();
    return analysis;
}

BranchAnalysis
AnalyzerCarryState::analyzeBranches(const std::vector<Instruction> &shard)
{
    BranchAnalysis analysis;
    runPredictor(*predictor, shard, &analysis.mispredict);
    for (size_t i = 0; i < shard.size(); ++i) {
        if (shard[i].isBranch()
            && shard[i].branchKind != BranchKind::DirectUncond) {
            ++analysis.numBranches;
            analysis.numMispredicts += analysis.mispredict[i];
        }
    }
    return analysis;
}

} // namespace concorde
