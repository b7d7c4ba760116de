/**
 * @file
 * Reference cycle-level simulator: a generic parameterized out-of-order
 * core in the style of gem5's O3 CPU (paper Section 3), used as the
 * ground-truth oracle f(x, p) that Concorde learns.
 *
 * Modeled structure:
 *  - Fetch: in-order line fetch along the (known) correct path, limited by
 *    fetch buffers, maximum outstanding I-cache fills, and fetch width;
 *    redirects on mispredicted branches (resolved at execute) and ISB
 *    pipeline drains (resolved at commit).
 *  - Decode / rename: width-limited queues (the rename queue's occupancy
 *    is one of the Section 5.2.6 alternative targets).
 *  - Backend: ROB / load queue / store queue dispatch, per-class issue
 *    widths (ALU, FP, load-store), load and load-store pipes,
 *    dependency-driven wakeup, store-to-load forwarding, and in-order
 *    commit with commit width.
 *  - Memory: TimingMemory (shared L2/LLC, MSHRs, DRAM bandwidth, stride
 *    prefetcher), accessed in issue order -- deliberately richer than the
 *    in-order trace analysis so that Figure 11's discrepancies arise.
 *
 * Two implementations share these semantics cycle for cycle:
 *  - the fast path (simulateTrace / simulateCombined / simulateRegion)
 *    reads the columnar TraceColumns layout, like every other production
 *    path: every per-call container lives in a caller-owned SimScratch,
 *    queues are fixed-cap ring buffers, the fill and event heaps are
 *    reused vectors, the ready queues are bitmaps over instruction
 *    indices, and the timing memory is reset in place -- labeling N
 *    design points of one region allocates once, not N times;
 *  - the reference path (simulateTraceReference): the original
 *    fresh-containers-per-call engine over Instruction rows, kept
 *    verbatim as the bitwise A/B oracle (tests/test_sim_labeler,
 *    bench/bench_sim_labeler).
 */

#ifndef CONCORDE_SIM_O3_CORE_HH
#define CONCORDE_SIM_O3_CORE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "analysis/trace_analyzer.hh"
#include "trace/instruction.hh"
#include "trace/trace_columns.hh"
#include "uarch/params.hh"

namespace concorde
{

/** Ground-truth metrics for one simulated region. */
struct SimResult
{
    uint64_t cycles = 0;            ///< region cycles (warmup excluded)
    uint64_t instructions = 0;      ///< region instructions
    double avgRobOccupancy = 0.0;   ///< mean ROB entries / capacity (%)
    double avgRenameQOccupancy = 0.0; ///< mean rename-queue fill (%)
    double avgLqOccupancy = 0.0;    ///< mean LQ entries / capacity (%)
    uint64_t branchMispredicts = 0;
    /** Sum of actual issued-load latencies (Figure 11 numerator). */
    uint64_t actualLoadLatencySum = 0;
    /** Number of region loads (Figure 11 denominator pairing). */
    uint64_t loadCount = 0;
    /**
     * Region commit cycle at each window boundary (when a window length
     * was requested); yields the ground-truth per-window IPC of Figure 1.
     */
    std::vector<uint64_t> windowCommitCycles;

    double
    cpi() const
    {
        return instructions
            ? static_cast<double>(cycles)
                / static_cast<double>(instructions)
            : 0.0;
    }
    double ipc() const { return cpi() > 0 ? 1.0 / cpi() : 0.0; }
};

/**
 * Reusable simulator working set: all of the engine's per-run state --
 * per-instruction arrays, wakeup edge chains, fetch/decode/rename ring
 * buffers, ready bitmaps, fill and event heaps, and the TimingMemory
 * itself -- owned by the caller and threaded through simulateTrace /
 * simulateRegion. One instance reused across runs keeps
 * the hot labeling loop free of per-sample allocation once warm, and its
 * TimingMemory reset costs time independent of the cache sizes. A fresh
 * instance per call costs one TimingMemory construction, whose tag
 * arrays are allocated without being written (pages of sets the run
 * never fills are never faulted in). Results are bitwise-identical
 * either way.
 *
 * Not thread-safe: one scratch per thread. Safe to reuse across regions
 * and design points in any interleaving.
 */
struct SimScratch
{
    SimScratch();
    ~SimScratch();
    SimScratch(const SimScratch &) = delete;
    SimScratch &operator=(const SimScratch &) = delete;

    struct Impl;
    std::unique_ptr<Impl> impl;
};

/**
 * Simulate `region` (preceded by `warmup`, which fills caches and timing
 * state but is excluded from all statistics).
 *
 * @param mispredict_flags one flag per region instruction (from trace
 *        analysis with the same BranchConfig as `params.branch`)
 * @param window_k when > 0, record region commit cycles every window_k
 *        committed region instructions (per-window IPC ground truth)
 * @param scratch optional reusable working set; null = per-call local
 */
SimResult simulateTrace(const UarchParams &params,
                        const TraceColumns &warmup,
                        const TraceColumns &region,
                        const std::vector<uint8_t> &mispredict_flags,
                        int window_k = 0, SimScratch *scratch = nullptr);

/**
 * Simulate a prebuilt warmup+region concatenation whose region deps are
 * already rebased (RegionAnalysis::combinedColumns / combinedFlags): the
 * allocation-free labeling hot path -- no per-call trace rebuild at all.
 */
SimResult simulateCombined(const UarchParams &params,
                           const TraceColumns &all,
                           const std::vector<uint8_t> &flags,
                           size_t warmup_count, int window_k,
                           SimScratch &scratch);

/**
 * Convenience wrapper: pulls the cached combined trace and flags from the
 * analysis (building them on first use) and runs the fast path.
 */
SimResult simulateRegion(const UarchParams &params, RegionAnalysis &analysis,
                         int window_k = 0, SimScratch *scratch = nullptr);

/**
 * The original implementation, kept verbatim: rebuilds the concatenated
 * trace and every engine container per call. Exists solely as the bitwise
 * oracle for the fast path; new callers want simulateTrace.
 */
SimResult simulateTraceReference(const UarchParams &params,
                                 const std::vector<Instruction> &warmup,
                                 const std::vector<Instruction> &region,
                                 const std::vector<uint8_t>
                                     &mispredict_flags,
                                 int window_k = 0);

} // namespace concorde

#endif // CONCORDE_SIM_O3_CORE_HH
