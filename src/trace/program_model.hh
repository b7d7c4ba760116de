/**
 * @file
 * Synthetic program model: deterministic, seeded generation of dynamic
 * instruction traces with controllable instruction mix, dependency
 * structure, memory-access behavior (streams, strided, random working set,
 * pointer chasing, store-to-load forwarding), branch behavior (loops,
 * biased and random conditionals, indirect branches), code footprint, and
 * phase structure.
 *
 * This substitutes for the paper's DynamoRIO traces of proprietary / cloud /
 * open / SPEC2017 programs (Table 2). Traces are never stored: a trace is a
 * sequence of fixed-size chunks, and every chunk is a pure function of
 * (program seed, trace id, chunk index), so regions of any length can be
 * materialized from any chunk-aligned offset in O(length).
 */

#ifndef CONCORDE_TRACE_PROGRAM_MODEL_HH
#define CONCORDE_TRACE_PROGRAM_MODEL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "trace/instruction.hh"
#include "trace/trace_columns.hh"

namespace concorde
{

/** Instructions per generation chunk; regions are chunk-aligned. */
constexpr uint32_t kChunkLen = 2048;

/**
 * One memory-behavior phase. A program cycles deterministically through its
 * phases as a function of chunk index, reproducing the phase behavior that
 * Figure 17 of the paper highlights.
 */
struct PhaseProfile
{
    double seqFrac = 0.25;      ///< loads from sequential (line) streams
    double strideFrac = 0.0;    ///< loads from strided streams
    double chaseFrac = 0.0;     ///< dependent pointer-chase loads
    double forwardFrac = 0.05;  ///< loads reading a recent store (forwarding)
    // remaining loads: random accesses within the working set
    uint64_t wsBytes = 1 << 20; ///< random/chase working-set size
    double wsZipf = 0.6;        ///< skew of random WS accesses
    int strideBytes = 256;      ///< stride of strided streams
    double storeSeqFrac = 0.5;  ///< stores to write streams vs random WS
};

/** Full workload profile: one per Table-2 program. */
struct WorkloadProfile
{
    std::string name;           ///< e.g. "S1.505.mcf_r"
    std::string group;          ///< Proprietary / Cloud / Open / SPEC2017

    // Instruction mix (fractions of non-branch body instructions).
    double fracLoad = 0.25;
    double fracStore = 0.10;
    double fracFp = 0.05;       ///< of ALU-ish instructions, share that is FP
    double fracMulDiv = 0.05;   ///< of int ALU instructions, share mul/div
    double fracDivOfFp = 0.1;   ///< of FP instructions, share that is FpDiv
    double isbPer1k = 0.0;      ///< barriers per 1000 instructions

    // Dependency structure.
    double depMeanDist = 6.0;   ///< geometric mean distance (in producers)
    double secondSrcProb = 0.4;

    // Branch behavior.
    double branchEvery = 8.0;   ///< mean basic-block length (instructions)
    double loopFrac = 0.55;     ///< branches that are loop back-edges
    double meanTrip = 12.0;     ///< mean loop trip count
    double condBias = 0.85;     ///< taken-bias of plain conditionals
    double condRandomFrac = 0.1;///< conditionals with 50/50 outcomes
    double uncondFrac = 0.10;   ///< direct unconditional (calls/jumps)
    double indirectFrac = 0.02; ///< indirect branches
    int indirectTargets = 4;    ///< fan-out of indirect branches
    double indirectZipf = 0.9;  ///< skew of indirect target selection
    double indirectRepeat = 0.65; ///< probability the last target repeats

    // Code footprint.
    uint32_t numBlocks = 128;   ///< basic blocks in the binary
    uint32_t blockCapacity = 16;///< max instructions per static block
    double hotGroupFrac = 0.25; ///< fraction of blocks forming the hot set
    double coldJumpProb = 0.04; ///< probability a control transfer leaves
                                ///< the hot set (instruction-cache pressure)

    // Phases.
    std::vector<PhaseProfile> phases{PhaseProfile{}};
    uint32_t chunksPerPhase = 32;
};

/** Identifies a region of a program trace (chunk granularity). */
struct RegionSpec
{
    int programId = 0;      ///< index into the workload corpus
    int traceId = 0;        ///< which trace of the program
    uint64_t startChunk = 0;
    uint32_t numChunks = 8; ///< region length = numChunks * kChunkLen

    uint64_t numInstructions() const
    {
        return static_cast<uint64_t>(numChunks) * kChunkLen;
    }
    uint64_t startInstr() const { return startChunk * kChunkLen; }
};

/**
 * A contiguous, chunk-aligned span of one program trace: the unit of work
 * of the end-to-end pipeline, which shards a span into consecutive
 * RegionSpecs (see shardSpan).
 */
struct TraceSpan
{
    int programId = 0;      ///< index into the workload corpus
    int traceId = 0;        ///< which trace of the program
    uint64_t startChunk = 0;
    uint64_t numChunks = 64;

    uint64_t numInstructions() const { return numChunks * kChunkLen; }

    bool operator==(const TraceSpan &o) const
    {
        return programId == o.programId && traceId == o.traceId
            && startChunk == o.startChunk && numChunks == o.numChunks;
    }
};

/**
 * Shard a span into consecutive regions of `region_chunks` chunks each
 * (the final region takes the remainder). The regions tile the span
 * exactly: concatenating them in order reproduces the span's trace.
 */
std::vector<RegionSpec> shardSpan(const TraceSpan &span,
                                  uint32_t region_chunks);

/**
 * Reusable per-chunk generation scratch: flat per-static-slot stream
 * cursors and per-block dynamic histories, invalidated wholesale at each
 * chunk boundary by an epoch counter instead of being reallocated. One
 * instance may be threaded through many generateChunk calls (it carries
 * no cross-chunk state), which keeps region generation free of
 * per-instruction and per-chunk allocation.
 */
struct GenScratch
{
    std::vector<uint64_t> streamPos;        ///< per static slot
    std::vector<uint32_t> streamEpoch;
    std::vector<uint16_t> lastIndirect;     ///< per block
    std::vector<uint32_t> indirectEpoch;
    std::vector<uint32_t> loopVisits;       ///< per block
    std::vector<uint32_t> loopEpoch;
    uint32_t epoch = 0;
};

/**
 * Generator for a single program. Stateless between calls: chunk content is
 * fully determined by (seed, traceId, chunkIndex). The static half of the
 * generator -- per-block personas and per-slot opcode/role/stream draws,
 * which are pure functions of (seed, block id) -- is tabulated once at
 * construction, so the per-chunk loop replays tables instead of re-drawing
 * the static RNG sequence at every block visit.
 */
class ProgramModel
{
  public:
    ProgramModel(WorkloadProfile profile, uint64_t seed);

    const WorkloadProfile &profile() const { return prof; }

    /** Phase index active during a given chunk. */
    size_t phaseOf(uint64_t chunk_index) const;

    /**
     * Append exactly kChunkLen instructions for the given chunk.
     * Dependency indices are relative to `base` (the index the chunk's
     * first instruction will occupy in `out`).
     */
    void generateChunk(int trace_id, uint64_t chunk_index,
                       TraceColumns &out, int64_t base,
                       GenScratch &scratch) const;

    /** Materialize a contiguous region (numChunks chunks from startChunk). */
    TraceColumns generateRegion(const RegionSpec &spec) const;
    /** Same, into caller-owned storage and scratch (the cold hot path). */
    void generateRegion(const RegionSpec &spec, TraceColumns &out,
                        GenScratch &scratch) const;

  private:
    /** Static branch personality of one basic block. */
    enum class BranchKindStatic : uint8_t { Cond, Uncond, Indirect,
                                            LoopTail };

    /** Static (seed, block)-determined state of one body slot. */
    struct StaticSlot
    {
        uint64_t pc;
        uint64_t streamId;      ///< hashMix(seed, pc, salt)
        uint64_t streamBase;    ///< (streamId % 1024) * kStreamSpacing
        double roleU;           ///< memory-role draw
        InstrType type;
    };

    /** Static personality of one basic block (tabulated in the ctor). */
    struct StaticBlock
    {
        uint32_t bodyLen;
        BranchKindStatic kind;
        double bias;            ///< taken-probability of the Cond branch
        bool randomBranch;      ///< 50/50 conditional
        uint32_t loopLen;       ///< LoopTail: blocks in the loop body
        int64_t baseTrips;      ///< LoopTail: nominal trip count
        uint16_t indirectTarget;///< Indirect: static default target
        uint64_t branchPc;
        uint32_t slotBegin;     ///< first entry in `slots`
    };

    void buildStaticTables();

    WorkloadProfile prof;
    uint64_t seed;
    std::vector<StaticBlock> blocks;
    std::vector<StaticSlot> slots;

    // The per-draw laws' constants, computed once per model.
    GeometricLaw depDistance;       ///< producer distance, body slots
    GeometricLaw branchDistance;    ///< producer distance, branches
    ZipfLaw indirectLaw;            ///< indirect-branch target ranks
    std::vector<ZipfLaw> wsLaws;    ///< per phase: working-set line ranks
};

} // namespace concorde

#endif // CONCORDE_TRACE_PROGRAM_MODEL_HH
