#include "analysis/trace_analyzer.hh"

#include <algorithm>
#include <optional>

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

/**
 * The fused analysis sweep: one pass over `cols` feeding every non-null
 * structure. The d-hierarchy, i-hierarchy, and branch predictor are
 * independent state machines, and each sees exactly the subsequence (in
 * exactly the order) the legacy per-side loops fed it, so the results
 * are bitwise-identical to three separate passes.
 *
 * Null outputs with a non-null structure = warmup (train, don't record).
 */
void
fusedSweep(const TraceColumns &cols, DataHierarchy *dh, InstHierarchy *ih,
           uint64_t &last_i_line, BranchPredictor *bp, DSideAnalysis *d,
           ISideAnalysis *i, BranchAnalysis *b)
{
    const size_t n = cols.size();
    if (d) {
        d->execLat.resize(n);
        d->loadLevel.assign(n, CacheLevel::L1);
    }
    if (i) {
        i->newLine.assign(n, 0);
        i->lineLat.assign(n, kL1iHitLat);
    }
    if (b)
        b->mispredict.assign(n, 0);

    for (size_t k = 0; k < n; ++k) {
        const InstrType t = cols.type[k];
        if (dh) {
            if (t == InstrType::Load) {
                const CacheLevel level =
                    dh->access(cols.pc[k], cols.memAddr[k], false);
                if (d) {
                    d->loadLevel[k] = level;
                    d->execLat[k] = loadLatency(level);
                }
            } else {
                if (t == InstrType::Store)
                    dh->access(cols.pc[k], cols.memAddr[k], true);
                if (d)
                    d->execLat[k] = fixedLatency(t);
            }
        }
        if (ih) {
            const uint64_t line = cols.instLine[k];
            if (line != last_i_line) {
                const CacheLevel level = ih->access(line);
                if (i) {
                    i->newLine[k] = 1;
                    i->lineLat[k] = level == CacheLevel::L1
                        ? kL1iHitLat : loadLatency(level);
                }
                last_i_line = line;
            }
        }
        if (bp && t == InstrType::Branch) {
            const BranchKind kind = cols.branchKind[k];
            const uint8_t miss = predictorStep(*bp, cols.pc[k], kind,
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
    if (d && dh)
        d->stats = dh->stats();
    if (i && ih)
        i->stats = ih->stats();
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

RegionAnalysis::RegionAnalysis(const RegionSpec &spec, TraceColumns cols)
    : regionSpec(spec), region(std::move(cols))
{
    loadLineIndex = LoadLineIndex::build(region);
    branchSeed = branchSeedFor(spec.programId, spec.traceId,
                               spec.startChunk);
}

const TraceColumns &
RegionAnalysis::combinedColumns() const
{
    CombinedTrace &combined = st->combined;
    if (!combined.ready.load(std::memory_order_acquire)) {
        std::lock_guard<std::mutex> lock(combined.mtx);
        if (!combined.ready.load(std::memory_order_relaxed)) {
            combined.cols.assignConcat(warmup, region);
            combined.ready.store(true, std::memory_order_release);
        }
    }
    return combined.cols;
}

void
RegionAnalysis::rebuildCombinedFlags(const BranchAnalysis &branch_info,
                                     std::vector<uint8_t> &flags) const
{
    const size_t total = warmup.size() + region.size();
    flags.assign(total, 0);
    std::copy(branch_info.mispredict.begin(), branch_info.mispredict.end(),
              flags.begin()
                  + static_cast<std::ptrdiff_t>(
                        total - branch_info.mispredict.size()));
}

const std::vector<uint8_t> &
RegionAnalysis::combinedFlags(const BranchConfig &config)
{
    auto &e = st->combinedFlagLayouts.entryFor(config.key());
    if (std::vector<uint8_t> *p = e.ready.load(std::memory_order_acquire))
        return *p;
    // Build the input outside this entry's latch: it takes the branch
    // entry's own latch.
    const BranchAnalysis &branch_info = branches(config);
    std::lock_guard<std::mutex> lock(e.buildMtx);
    if (std::vector<uint8_t> *p = e.ready.load(std::memory_order_relaxed))
        return *p;
    auto flags = std::make_unique<std::vector<uint8_t>>();
    rebuildCombinedFlags(branch_info, *flags);
    std::vector<uint8_t> *raw = flags.get();
    e.value = std::move(flags);
    e.ready.store(raw, std::memory_order_release);
    return *raw;
}

void
RegionAnalysis::buildFused(const MemoryConfig *mem, DSideAnalysis *d,
                           ISideAnalysis *i, const BranchConfig *br,
                           BranchAnalysis *b) const
{
    std::optional<DataHierarchy> dh;
    std::optional<InstHierarchy> ih;
    std::unique_ptr<BranchPredictor> bp;
    uint64_t last_i_line = ~0ULL;
    if (d)
        dh.emplace(*mem);
    if (i)
        ih.emplace(*mem);
    if (b)
        bp = makePredictor(*br, branchSeed);

    fusedSweep(warmup, dh ? &*dh : nullptr, ih ? &*ih : nullptr,
               last_i_line, bp.get(), nullptr, nullptr, nullptr);
    fusedSweep(region, dh ? &*dh : nullptr, ih ? &*ih : nullptr,
               last_i_line, bp.get(), d, i, b);
}

const DSideAnalysis &
RegionAnalysis::dside(const MemoryConfig &config)
{
    auto &e = st->dsides.entryFor(config.dSideKey());
    if (DSideAnalysis *p = e.ready.load(std::memory_order_acquire))
        return *p;
    std::lock_guard<std::mutex> lock(e.buildMtx);
    if (DSideAnalysis *p = e.ready.load(std::memory_order_relaxed))
        return *p;
    auto analysis = std::make_unique<DSideAnalysis>();
    buildFused(&config, analysis.get(), nullptr, nullptr, nullptr);
    DSideAnalysis *raw = analysis.get();
    e.value = std::move(analysis);
    e.ready.store(raw, std::memory_order_release);
    return *raw;
}

const ISideAnalysis &
RegionAnalysis::iside(const MemoryConfig &config)
{
    auto &e = st->isides.entryFor(config.iSideKey());
    if (ISideAnalysis *p = e.ready.load(std::memory_order_acquire))
        return *p;
    std::lock_guard<std::mutex> lock(e.buildMtx);
    if (ISideAnalysis *p = e.ready.load(std::memory_order_relaxed))
        return *p;
    auto analysis = std::make_unique<ISideAnalysis>();
    buildFused(&config, nullptr, analysis.get(), nullptr, nullptr);
    ISideAnalysis *raw = analysis.get();
    e.value = std::move(analysis);
    e.ready.store(raw, std::memory_order_release);
    return *raw;
}

const BranchAnalysis &
RegionAnalysis::branches(const BranchConfig &config)
{
    auto &e = st->branchAnalyses.entryFor(config.key());
    if (BranchAnalysis *p = e.ready.load(std::memory_order_acquire))
        return *p;
    std::lock_guard<std::mutex> lock(e.buildMtx);
    if (BranchAnalysis *p = e.ready.load(std::memory_order_relaxed))
        return *p;
    auto analysis = std::make_unique<BranchAnalysis>();
    buildFused(nullptr, nullptr, nullptr, &config, analysis.get());
    BranchAnalysis *raw = analysis.get();
    e.value = std::move(analysis);
    e.ready.store(raw, std::memory_order_release);
    return *raw;
}

void
RegionAnalysis::analyzeAll(const MemoryConfig &config,
                           const BranchConfig &branch)
{
    auto &de = st->dsides.entryFor(config.dSideKey());
    auto &ie = st->isides.entryFor(config.iSideKey());
    auto &be = st->branchAnalyses.entryFor(branch.key());
    if (de.ready.load(std::memory_order_acquire)
        && ie.ready.load(std::memory_order_acquire)
        && be.ready.load(std::memory_order_acquire)) {
        return;
    }

    // Lock all three sides at once (deadlock-avoidant) so the missing
    // subset is filled by one sweep while per-side builders of other
    // configurations proceed under their own entries' latches.
    std::scoped_lock lock(de.buildMtx, ie.buildMtx, be.buildMtx);
    const bool want_d = !de.ready.load(std::memory_order_relaxed);
    const bool want_i = !ie.ready.load(std::memory_order_relaxed);
    const bool want_b = !be.ready.load(std::memory_order_relaxed);
    if (!want_d && !want_i && !want_b)
        return;

    auto d = want_d ? std::make_unique<DSideAnalysis>() : nullptr;
    auto i = want_i ? std::make_unique<ISideAnalysis>() : nullptr;
    auto b = want_b ? std::make_unique<BranchAnalysis>() : nullptr;
    buildFused(&config, d.get(), i.get(), &branch, b.get());

    if (want_d) {
        DSideAnalysis *raw = d.get();
        de.value = std::move(d);
        de.ready.store(raw, std::memory_order_release);
    }
    if (want_i) {
        ISideAnalysis *raw = i.get();
        ie.value = std::move(i);
        ie.ready.store(raw, std::memory_order_release);
    }
    if (want_b) {
        BranchAnalysis *raw = b.get();
        be.value = std::move(b);
        be.ready.store(raw, std::memory_order_release);
    }
}

void
RegionAnalysis::adoptDside(const MemoryConfig &config, DSideAnalysis analysis)
{
    auto &e = st->dsides.entryFor(config.dSideKey());
    std::lock_guard<std::mutex> lock(e.buildMtx);
    e.value = std::make_unique<DSideAnalysis>(std::move(analysis));
    e.ready.store(e.value.get(), std::memory_order_release);
}

void
RegionAnalysis::adoptIside(const MemoryConfig &config, ISideAnalysis analysis)
{
    auto &e = st->isides.entryFor(config.iSideKey());
    std::lock_guard<std::mutex> lock(e.buildMtx);
    e.value = std::make_unique<ISideAnalysis>(std::move(analysis));
    e.ready.store(e.value.get(), std::memory_order_release);
}

void
RegionAnalysis::adoptBranches(const BranchConfig &config,
                              BranchAnalysis analysis)
{
    auto &e = st->branchAnalyses.entryFor(config.key());
    std::lock_guard<std::mutex> lock(e.buildMtx);
    e.value = std::make_unique<BranchAnalysis>(std::move(analysis));
    e.ready.store(e.value.get(), std::memory_order_release);

    // A cached simulator flags layout for this key is now stale; rewrite
    // it in place (the vector's identity, and thus any outstanding
    // reference, is preserved).
    auto &fe = st->combinedFlagLayouts.entryFor(config.key());
    std::lock_guard<std::mutex> flock(fe.buildMtx);
    if (fe.ready.load(std::memory_order_relaxed))
        rebuildCombinedFlags(*e.value, *fe.value);
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
    fusedSweep(instrs, &dHier, &iHier, lastILine, predictor.get(),
               nullptr, nullptr, nullptr);
}

ShardAnalyses
AnalyzerCarryState::analyzeShard(const TraceColumns &shard)
{
    ShardAnalyses out;
    fusedSweep(shard, &dHier, &iHier, lastILine, predictor.get(),
               &out.dside, &out.iside, &out.branches);
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
