/**
 * @file
 * The ROB analytical model (paper Eqs. 1-5): an instruction-level
 * dynamical system capturing out-of-order execution constrained only by a
 * finite ROB, instruction dependencies, and in-order commit, with load
 * completion times from the Algorithm-1 memory state machine.
 *
 *   a_i = c_{i-ROB}                          (ROB size constraint)
 *   s_i = max(a_i, max{f_d : d in Dep(i)})   (dependencies)
 *   f_i = RespCycle(s_i, instr_i)            (memory state machine)
 *   c_i = max(f_i, c_{i-1})                  (in-order commit)
 *
 * ISBs additionally wait for all earlier instructions to finish and act as
 * a dependency barrier for later ones.
 */

#ifndef CONCORDE_ANALYTICAL_ROB_MODEL_HH
#define CONCORDE_ANALYTICAL_ROB_MODEL_HH

#include <cstdint>
#include <vector>

#include "analysis/memory_state_machine.hh"
#include "trace/trace_columns.hh"

namespace concorde
{

/** Output of one ROB-model run. */
struct RobModelResult
{
    /** Eq. (5) throughput bound per k-instruction window. */
    std::vector<double> windowThroughput;
    /** Whole-region throughput: n / c_n (the Section 3.2.2 sweep value). */
    double overallIpc = 0.0;

    /** Per-instruction stage latencies (when collect_latencies). */
    std::vector<double> issueLat;   ///< s_i - a_i
    std::vector<double> execLat;    ///< f_i - s_i
    std::vector<double> commitLat;  ///< c_i - f_i
};

/**
 * Reusable per-run working buffers (commit ring, finish cycles, window
 * boundaries). One instance threaded through many runs over the same
 * region keeps the model free of per-run allocation once warm.
 */
struct RobModelScratch
{
    std::vector<uint64_t> commitRing;
    std::vector<uint64_t> finish;
    std::vector<uint64_t> boundaries;
};

/**
 * Run the ROB model.
 *
 * @param region instruction trace
 * @param index load/line index for the memory state machine
 * @param exec_lat per-instruction latency estimates (d-side analysis)
 * @param rob_size ROB entries (>= 1)
 * @param window_k window length for Eq. (5)
 * @param collect_latencies also fill the three latency vectors
 * @param scratch optional reusable working buffers
 */
RobModelResult runRobModel(const TraceColumns &region,
                           const LoadLineIndex &index,
                           const std::vector<int32_t> &exec_lat,
                           int rob_size, int window_k,
                           bool collect_latencies,
                           RobModelScratch *scratch = nullptr);

/** One ROB size of a fused multi-size sweep. */
struct RobSweepRequest
{
    int robSize = 1;
    bool collectLatencies = false;
};

/**
 * Run the ROB model for a whole list of sizes over one region, sharing
 * the working buffers across runs (each size's arithmetic is exactly
 * runRobModel's, so results are bitwise identical to per-size calls).
 * This is the cold-path entry point: FeatureProvider batches every size
 * an assemble() will touch into one call instead of interleaving model
 * runs with cache lookups and encodes.
 */
std::vector<RobModelResult>
runRobModelSweep(const TraceColumns &region, const LoadLineIndex &index,
                 const std::vector<int32_t> &exec_lat,
                 const std::vector<RobSweepRequest> &requests,
                 int window_k);

} // namespace concorde

#endif // CONCORDE_ANALYTICAL_ROB_MODEL_HH
