#include "trace/program_model.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/rng.hh"

namespace concorde
{

namespace
{

// Fixed virtual-address layout. Every analysis / simulation run owns its own
// cold cache state, so traces never share a cache and can share a layout.
constexpr uint64_t kCodeBase = 0x40000000ULL;
constexpr uint64_t kWsBase = 0x80000000ULL;
constexpr uint64_t kSeqBase = 0x100000000ULL;
constexpr uint64_t kStrideBase = 0x800000000ULL;
constexpr uint64_t kWriteBase = 0xF00000000ULL;

/** Per-static-slot private streams (so the stride prefetcher can train). */
constexpr uint64_t kStreamSpacing = 16ULL << 20;   // 16MB per stream
constexpr uint64_t kStreamLines = (16ULL << 20) / 64;

constexpr size_t kProducerRing = 512;
constexpr size_t kStoreRing = 16;

/** Mutable generation state, reset at every chunk boundary. */
struct ChunkState
{
    // Control flow.
    uint32_t curBlock = 0;
    bool loopActive = false;
    uint32_t loopHead = 0;
    uint32_t loopTail = 0;
    int64_t tripsLeft = 0;

    // Dependency tracking (absolute instruction indices).
    int64_t producers[kProducerRing];
    size_t numProducers = 0;
    int64_t lastChase = -1;

    // Recent stores for forwarding loads: (index, address).
    int64_t storeIdx[kStoreRing];
    uint64_t storeAddr[kStoreRing];
    size_t numStores = 0;

    // Pointer-chase state.
    uint64_t chaseState = 0;
};

} // anonymous namespace

ProgramModel::ProgramModel(WorkloadProfile profile, uint64_t seed_in)
    : prof(std::move(profile)), seed(seed_in)
{
    fatal_if(prof.phases.empty(), "workload '%s' has no phases",
             prof.name.c_str());
    fatal_if(prof.numBlocks < 4, "workload '%s': need >= 4 blocks",
             prof.name.c_str());
    buildStaticTables();
}

void
ProgramModel::buildStaticTables()
{
    // Everything TAGE / the I-cache / the prefetcher could learn about a
    // block is a pure function of (program seed, block id): the legacy
    // generator re-drew this whole sequence from a fresh block_rng at
    // every visit. Replaying the same draws here, once per block, yields
    // bitwise-identical tables (the per-visit draw order below is exactly
    // the per-visit order of the old inner loop, and unemitted tail slots
    // of a chunk-truncated visit never fed any later draw).
    blocks.resize(prof.numBlocks);
    slots.clear();
    slots.reserve(static_cast<size_t>(prof.numBlocks)
                  * prof.blockCapacity / 2);

    for (uint32_t b = 0; b < prof.numBlocks; ++b) {
        Rng block_rng(hashMix(seed, 0xB10CULL, b));
        StaticBlock &sb = blocks[b];
        sb.bodyLen = static_cast<uint32_t>(std::clamp<uint64_t>(
            block_rng.nextGeometric(prof.branchEvery), 1,
            prof.blockCapacity - 1));
        // Branch bias skews heavily toward predictable: most real
        // conditionals are 95%+ one-sided. condBias controls the skew.
        const double bias_u = block_rng.nextDouble();
        const double one_sided =
            1.0 - (1.0 - prof.condBias) * bias_u * bias_u;
        sb.bias = block_rng.nextBool(0.7) ? one_sided : 1.0 - one_sided;
        sb.randomBranch = block_rng.nextBool(prof.condRandomFrac);
        sb.loopLen = static_cast<uint32_t>(block_rng.nextBounded(3));
        // Cap static trip counts: unbounded geometric draws create blocks
        // that trap control flow for thousands of instructions.
        sb.baseTrips = 2 + static_cast<int64_t>(std::min(
            block_rng.nextGeometric(prof.meanTrip),
            static_cast<uint64_t>(3.0 * prof.meanTrip)));
        {
            const double ku = block_rng.nextDouble();
            const double p_loop = prof.loopFrac / 3.0;
            if (ku < prof.indirectFrac) {
                sb.kind = BranchKindStatic::Indirect;
            } else if (ku < prof.indirectFrac + prof.uncondFrac) {
                sb.kind = BranchKindStatic::Uncond;
            } else if (ku < prof.indirectFrac + prof.uncondFrac + p_loop) {
                sb.kind = BranchKindStatic::LoopTail;
            } else {
                sb.kind = BranchKindStatic::Cond;
            }
        }

        sb.slotBegin = static_cast<uint32_t>(slots.size());
        for (uint32_t slot = 0; slot < sb.bodyLen; ++slot) {
            StaticSlot ss;
            ss.pc = kCodeBase
                + (static_cast<uint64_t>(b) * prof.blockCapacity + slot)
                  * 4;

            // Opcode class is a static property of the slot.
            const double u = block_rng.nextDouble();
            if (u < prof.fracLoad) {
                ss.type = InstrType::Load;
            } else if (u < prof.fracLoad + prof.fracStore) {
                ss.type = InstrType::Store;
            } else if (block_rng.nextBool(prof.fracFp)) {
                ss.type = block_rng.nextBool(prof.fracDivOfFp)
                    ? InstrType::FpDiv : InstrType::FpAlu;
            } else if (block_rng.nextBool(prof.fracMulDiv)) {
                ss.type = block_rng.nextBool(0.15)
                    ? InstrType::IntDiv : InstrType::IntMul;
            } else {
                ss.type = InstrType::IntAlu;
            }
            // Memory role and stream binding are also static: a given
            // static load walks one stream with one stride.
            ss.roleU = block_rng.nextDouble();
            ss.streamId = hashMix(seed, ss.pc, 0x57F3A8ULL);
            ss.streamBase = (ss.streamId % 1024) * kStreamSpacing;
            slots.push_back(ss);
        }

        sb.indirectTarget = static_cast<uint16_t>(
            hashMix(seed, b, 0x7A26E7ULL)
            % std::max(1, prof.indirectTargets));
        sb.branchPc = kCodeBase
            + (static_cast<uint64_t>(b) * prof.blockCapacity + sb.bodyLen)
              * 4;
    }
}

size_t
ProgramModel::phaseOf(uint64_t chunk_index) const
{
    const uint64_t period = std::max<uint32_t>(1, prof.chunksPerPhase);
    return (chunk_index / period) % prof.phases.size();
}

TraceColumns
ProgramModel::generateRegion(const RegionSpec &spec) const
{
    TraceColumns out;
    GenScratch scratch;
    generateRegion(spec, out, scratch);
    return out;
}

void
ProgramModel::generateRegion(const RegionSpec &spec, TraceColumns &out,
                             GenScratch &scratch) const
{
    out.clear();
    out.reserve(spec.numInstructions());
    for (uint32_t c = 0; c < spec.numChunks; ++c) {
        generateChunk(spec.traceId, spec.startChunk + c, out,
                      static_cast<int64_t>(out.size()), scratch);
    }
}

std::vector<RegionSpec>
shardSpan(const TraceSpan &span, uint32_t region_chunks)
{
    panic_if(region_chunks == 0, "region_chunks must be positive");
    std::vector<RegionSpec> regions;
    regions.reserve((span.numChunks + region_chunks - 1) / region_chunks);
    for (uint64_t at = 0; at < span.numChunks; at += region_chunks) {
        RegionSpec spec;
        spec.programId = span.programId;
        spec.traceId = span.traceId;
        spec.startChunk = span.startChunk + at;
        spec.numChunks = static_cast<uint32_t>(
            std::min<uint64_t>(region_chunks, span.numChunks - at));
        regions.push_back(spec);
    }
    return regions;
}

void
ProgramModel::generateChunk(int trace_id, uint64_t chunk_index,
                            TraceColumns &out, int64_t base,
                            GenScratch &scratch) const
{
    out.reserve(out.size() + kChunkLen);
    const PhaseProfile &phase = prof.phases[phaseOf(chunk_index)];
    Rng rng(hashMix(seed, static_cast<uint64_t>(trace_id) + 1,
                    chunk_index + 0x5eedULL));

    // Size the flat scratch to this model and open a fresh epoch: every
    // per-slot / per-block history below starts the chunk invalid without
    // touching (or reallocating) the backing arrays.
    if (scratch.streamPos.size() < slots.size()) {
        scratch.streamPos.resize(slots.size());
        scratch.streamEpoch.assign(slots.size(), 0);
    }
    if (scratch.lastIndirect.size() < blocks.size()) {
        scratch.lastIndirect.resize(blocks.size());
        scratch.indirectEpoch.assign(blocks.size(), 0);
        scratch.loopVisits.resize(blocks.size());
        scratch.loopEpoch.assign(blocks.size(), 0);
    }
    ++scratch.epoch;
    if (scratch.epoch == 0) {
        // Epoch wrap: invalidate explicitly (once per 4G chunks).
        std::fill(scratch.streamEpoch.begin(), scratch.streamEpoch.end(),
                  ~0u);
        std::fill(scratch.indirectEpoch.begin(),
                  scratch.indirectEpoch.end(), ~0u);
        std::fill(scratch.loopEpoch.begin(), scratch.loopEpoch.end(), ~0u);
        ++scratch.epoch;
    }
    const uint32_t epoch = scratch.epoch;

    ChunkState st;
    st.curBlock = static_cast<uint32_t>(rng.nextBounded(prof.numBlocks));
    st.chaseState = rng.next();

    const uint64_t ws_lines = std::max<uint64_t>(1, phase.wsBytes / 64);
    const double isb_prob = prof.isbPer1k / 1000.0;

    auto record_producer = [&](int64_t idx) {
        st.producers[st.numProducers % kProducerRing] = idx;
        ++st.numProducers;
    };

    auto pick_producer = [&](double mean_dist) -> int32_t {
        if (st.numProducers == 0)
            return -1;
        const uint64_t avail = std::min(st.numProducers, kProducerRing);
        uint64_t dist = rng.nextGeometric(mean_dist);
        if (dist > avail)
            dist = avail;
        const size_t slot = (st.numProducers - dist) % kProducerRing;
        return static_cast<int32_t>(st.producers[slot]);
    };

    auto random_ws_line = [&](uint64_t salt) -> uint64_t {
        // Zipf rank -> stable pseudo-random permutation of WS lines so that
        // hot lines are the same in every chunk of the trace.
        const uint64_t rank = rng.nextZipf(ws_lines, phase.wsZipf);
        return hashMix(seed ^ 0xDA7Au, rank, salt) % ws_lines;
    };

    // A static slot's private stream cursor; starts at a chunk-dependent
    // offset and advances per execution, giving the slot a constant stride.
    auto stream_addr = [&](uint64_t stream_base, uint32_t slot_ix,
                           uint64_t stride) -> uint64_t {
        const StaticSlot &ss = slots[slot_ix];
        uint64_t pos;
        if (scratch.streamEpoch[slot_ix] != epoch) {
            scratch.streamEpoch[slot_ix] = epoch;
            pos = hashMix(ss.streamId, chunk_index) % kStreamLines;
        } else {
            pos = scratch.streamPos[slot_ix];
        }
        scratch.streamPos[slot_ix] = pos + 1;
        const uint64_t span = kStreamLines * 64 / std::max<uint64_t>(
            1, stride);
        return stream_base + ss.streamBase
            + (pos % std::max<uint64_t>(1, span)) * stride;
    };

    const uint64_t target_count = kChunkLen;
    uint64_t emitted = 0;

    while (emitted < target_count) {
        const StaticBlock &persona = blocks[st.curBlock];

        // ---- block body (static per-slot opcode/role tables) ----
        for (uint32_t slot = 0;
             slot < persona.bodyLen && emitted < target_count;
             ++slot, ++emitted) {
            const uint32_t slot_ix = persona.slotBegin + slot;
            const StaticSlot &ss = slots[slot_ix];
            Instruction instr;
            instr.pc = ss.pc;

            InstrType type = ss.type;
            const double role_u = ss.roleU;

            // Barriers are rare dynamic events, not static slots.
            if (isb_prob > 0 && rng.nextBool(isb_prob))
                type = InstrType::Isb;

            instr.type = type;
            const int64_t self = base + static_cast<int64_t>(emitted);

            switch (type) {
              case InstrType::Load: {
                const double m = role_u;
                const PhaseProfile &ph = phase;
                if (m < ph.seqFrac) {
                    // Sequential element streams: 8-byte elements, so most
                    // accesses hit the line fetched by the previous ones.
                    instr.memAddr = stream_addr(kSeqBase, slot_ix, 8);
                    instr.srcDeps[0] = pick_producer(prof.depMeanDist);
                } else if (m < ph.seqFrac + ph.strideFrac) {
                    instr.memAddr = stream_addr(
                        kStrideBase, slot_ix,
                        std::max<uint64_t>(64, ph.strideBytes));
                    instr.srcDeps[0] = pick_producer(prof.depMeanDist);
                } else if (m < ph.seqFrac + ph.strideFrac + ph.chaseFrac) {
                    st.chaseState = hashMix(st.chaseState, 0xC4A5EULL);
                    const uint64_t rank = st.chaseState % ws_lines;
                    instr.memAddr = kWsBase
                        + (hashMix(seed ^ 0xDA7Au, rank, 1) % ws_lines) * 64;
                    // The defining property of a chase: the address depends
                    // on the previous chase load's value.
                    if (st.lastChase >= 0) {
                        instr.srcDeps[0] =
                            static_cast<int32_t>(st.lastChase);
                    }
                    st.lastChase = self;
                } else if (m < ph.seqFrac + ph.strideFrac + ph.chaseFrac
                               + ph.forwardFrac
                           && st.numStores > 0) {
                    const size_t pick = rng.nextBounded(
                        std::min(st.numStores, kStoreRing));
                    const size_t slot_pos =
                        (st.numStores - 1 - pick) % kStoreRing;
                    instr.memAddr = st.storeAddr[slot_pos];
                    instr.memDep =
                        static_cast<int32_t>(st.storeIdx[slot_pos]);
                    instr.srcDeps[0] = pick_producer(prof.depMeanDist);
                } else {
                    instr.memAddr = kWsBase + random_ws_line(2) * 64;
                    instr.srcDeps[0] = pick_producer(prof.depMeanDist);
                }
                record_producer(self);
                break;
              }
              case InstrType::Store: {
                if (role_u < phase.storeSeqFrac) {
                    instr.memAddr = stream_addr(kWriteBase, slot_ix, 8);
                } else {
                    instr.memAddr = kWsBase + random_ws_line(3) * 64;
                }
                instr.srcDeps[0] = pick_producer(prof.depMeanDist);
                if (rng.nextBool(prof.secondSrcProb))
                    instr.srcDeps[1] = pick_producer(prof.depMeanDist);
                st.storeIdx[st.numStores % kStoreRing] = self;
                st.storeAddr[st.numStores % kStoreRing] = instr.memAddr;
                ++st.numStores;
                break;
              }
              case InstrType::Isb:
                break;
              default: {
                instr.srcDeps[0] = pick_producer(prof.depMeanDist);
                if (rng.nextBool(prof.secondSrcProb))
                    instr.srcDeps[1] = pick_producer(prof.depMeanDist);
                record_producer(self);
                break;
              }
            }
            out.append(instr);
        }
        if (emitted >= target_count)
            break;

        // ---- terminating branch ----
        Instruction br;
        br.type = InstrType::Branch;
        br.pc = persona.branchPc;
        // Branch resolution waits on a recent producer.
        br.srcDeps[0] = pick_producer(3.0);

        uint32_t next_block;
        const uint32_t linear_next = (st.curBlock + 1) % prof.numBlocks;
        const uint32_t hot = std::max<uint32_t>(
            2, static_cast<uint32_t>(prof.hotGroupFrac * prof.numBlocks));

        if (st.loopActive && st.curBlock == st.loopTail) {
            // Active loop back-edge: taken while iterations remain. On
            // exit, hop past the immediate successor occasionally so
            // adjacent loop families do not recapture control forever.
            br.branchKind = BranchKind::DirectCond;
            --st.tripsLeft;
            br.taken = st.tripsLeft > 0;
            if (br.taken) {
                next_block = st.loopHead;
            } else {
                next_block = (st.curBlock + 1
                              + static_cast<uint32_t>(rng.nextBounded(2)))
                    % prof.numBlocks;
                st.loopActive = false;
            }
        } else {
            switch (persona.kind) {
              case BranchKindStatic::Indirect: {
                br.branchKind = BranchKind::Indirect;
                br.taken = true;
                // Indirect targets repeat with temporal locality, like
                // interpreter dispatch: hard but not hopeless to predict.
                // Each site's default target is a static property, so a
                // site revisited across chunks stays predictable.
                uint16_t last;
                if (scratch.indirectEpoch[st.curBlock] != epoch) {
                    scratch.indirectEpoch[st.curBlock] = epoch;
                    last = persona.indirectTarget;
                } else {
                    last = scratch.lastIndirect[st.curBlock];
                }
                if (!rng.nextBool(prof.indirectRepeat)) {
                    last = static_cast<uint16_t>(rng.nextZipf(
                        std::max(1, prof.indirectTargets),
                        prof.indirectZipf));
                }
                scratch.lastIndirect[st.curBlock] = last;
                br.targetId = last;
                // Dispatch within the neighborhood (handler locality).
                next_block = static_cast<uint32_t>(
                    (st.curBlock
                     + hashMix(seed, st.curBlock, br.targetId + 17) % hot
                     + 1)
                    % prof.numBlocks);
                st.loopActive = false;
                break;
              }
              case BranchKindStatic::Uncond: {
                br.branchKind = BranchKind::DirectUncond;
                br.taken = true;
                if (rng.nextBool(prof.coldJumpProb)) {
                    next_block = static_cast<uint32_t>(
                        rng.nextBounded(prof.numBlocks));
                } else {
                    next_block = (st.curBlock
                                  + 1
                                  + static_cast<uint32_t>(
                                      rng.nextBounded(hot)))
                        % prof.numBlocks;
                }
                st.loopActive = false;
                break;
              }
              case BranchKindStatic::LoopTail: {
                br.branchKind = BranchKind::DirectCond;
                // Deterministic periodic loop entry (2 of 3 visits): a
                // tail reached right after exiting often falls through,
                // which keeps loop families from trapping control flow --
                // and the period is history-predictable, like real
                // enclosing iteration patterns.
                uint32_t visit;
                if (scratch.loopEpoch[st.curBlock] != epoch) {
                    scratch.loopEpoch[st.curBlock] = epoch;
                    visit = 0;
                } else {
                    visit = scratch.loopVisits[st.curBlock];
                }
                scratch.loopVisits[st.curBlock] = visit + 1;
                if (visit % 3 == 2) {
                    br.taken = false;
                    next_block = linear_next;
                    break;
                }
                st.loopActive = true;
                st.loopTail = st.curBlock;
                st.loopHead = (st.curBlock + prof.numBlocks
                               - persona.loopLen) % prof.numBlocks;
                // Trips: stable per block with mild jitter, so TAGE can
                // learn the exit of short loops.
                st.tripsLeft = persona.baseTrips;
                if (rng.nextBool(0.2))
                    st.tripsLeft += rng.nextRange(-1, 1);
                if (st.tripsLeft < 1)
                    st.tripsLeft = 1;
                --st.tripsLeft;
                br.taken = st.tripsLeft > 0;
                next_block = br.taken ? st.loopHead : linear_next;
                if (!br.taken)
                    st.loopActive = false;
                break;
              }
              case BranchKindStatic::Cond:
              default: {
                br.branchKind = BranchKind::DirectCond;
                br.taken = persona.randomBranch
                    ? rng.nextBool(0.5) : rng.nextBool(persona.bias);
                // Taken conditionals skip a block or two forward.
                next_block = br.taken
                    ? (st.curBlock + 1
                       + static_cast<uint32_t>(rng.nextBounded(2) + 1))
                      % prof.numBlocks
                    : linear_next;
                break;
              }
            }
        }

        out.append(br);
        ++emitted;
        st.curBlock = next_block;
    }
}

} // namespace concorde
