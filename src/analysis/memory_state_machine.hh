/**
 * @file
 * Algorithm 1 of the paper: a trace-driven state machine for memory that
 * repairs in-order cache-simulation latencies for timing effects between
 * loads to the same cache line.
 *
 * Principle 1: the response cycle for consecutive loads to the same cache
 * line is non-decreasing. Principle 2: access levels follow issue order.
 * Our callers process instructions in trace order (the dynamical system of
 * Eqs. 1-4 only references earlier instructions), so request cycles for a
 * line are clamped to be non-decreasing instead of asserted; see DESIGN.md.
 */

#ifndef CONCORDE_ANALYSIS_MEMORY_STATE_MACHINE_HH
#define CONCORDE_ANALYSIS_MEMORY_STATE_MACHINE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace/trace_columns.hh"

namespace concorde
{

/**
 * Dense per-region index of load instructions grouped by data-cache line.
 * Built once per region; shared by every model run over that region.
 */
struct LoadLineIndex
{
    /** Dense line id per instruction (-1 for non-loads). */
    std::vector<int32_t> lineIdOf;
    /** Number of distinct lines accessed by loads. */
    uint32_t numLines = 0;
    /** CSR: for each dense line id, the load indices in trace order. */
    std::vector<uint32_t> lineStart;
    std::vector<uint32_t> loadList;

    static LoadLineIndex build(const TraceColumns &region);
};

/**
 * Algorithm 1. One instance per model run; state variables are per-line
 * access counters and last request/response cycles.
 */
class MemoryStateMachine
{
  public:
    /**
     * @param index per-region load/line index
     * @param exec_lat per-instruction execution-latency estimates from
     *        trace analysis (the exec_times state variable, stored
     *        region-wide and consumed per line via access counters)
     */
    MemoryStateMachine(const LoadLineIndex &index,
                       const std::vector<int32_t> &exec_lat);

    /**
     * Response (execution completion) cycle for instruction `idx` whose
     * request is issued at `req_cycle`. Only the instruction's load-ness
     * matters.
     */
    uint64_t respCycle(uint64_t req_cycle, size_t idx, bool is_load);

    /**
     * Trace-order fast path for the analytical models, which visit every
     * load exactly once in trace order. Under that calling convention the
     * access_number-th load to a line IS instruction idx, so respCycle()'s
     * donor lookup degenerates to exec_lat[idx] and the access counters
     * carry no information; only the per-line request/response clamps
     * remain. Results are bitwise identical to respCycle(). Do not mix
     * the two variants on one instance (this one skips the counters).
     */
    uint64_t
    respCycleInOrder(uint64_t req_cycle, size_t idx, bool is_load)
    {
        if (!is_load)
            return req_cycle + static_cast<uint64_t>(execLat[idx]);
        const int32_t lid = index.lineIdOf[idx];
        const uint64_t req = std::max(req_cycle, lastReqCycles[lid]);
        lastReqCycles[lid] = req;
        const uint64_t resp =
            std::max(req + static_cast<uint64_t>(execLat[idx]),
                     lastRespCycles[lid]);
        lastRespCycles[lid] = resp;
        return resp;
    }

    /** Reset all per-line state for a fresh model run. */
    void reset();

    /**
     * Full per-line state at a point in a model run. Splitting a run at
     * any instruction boundary -- snapshot after the prefix, restore
     * into a machine over the same LoadLineIndex, resume on the suffix
     * -- reproduces the unsplit run's response cycles exactly.
     */
    struct Snapshot
    {
        std::vector<uint32_t> accessCounters;
        std::vector<uint64_t> lastReqCycles;
        std::vector<uint64_t> lastRespCycles;
    };

    Snapshot snapshot() const;
    void restore(const Snapshot &state);

  private:
    const LoadLineIndex &index;
    const std::vector<int32_t> &execLat;

    std::vector<uint32_t> accessCounters;
    std::vector<uint64_t> lastReqCycles;
    std::vector<uint64_t> lastRespCycles;
};

} // namespace concorde

#endif // CONCORDE_ANALYSIS_MEMORY_STATE_MACHINE_HH
