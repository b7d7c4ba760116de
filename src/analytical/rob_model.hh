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
 *
 * runRobModels() runs several ROB sizes of one memory config. On a CPU
 * with AVX-512F it runs up to 16 sizes in one pass over the trace, one
 * 32-bit lane per size (rob_kernels.hh): every recurrence above is an
 * integer max or add, so each lane is bitwise equal to a single-size
 * run. Elsewhere, for a lone size, and for a region whose cycles could
 * exceed 32 bits, it runs the sizes one after another. Stage latencies
 * are counted into integer histograms, never stored per instruction.
 */

#ifndef CONCORDE_ANALYTICAL_ROB_MODEL_HH
#define CONCORDE_ANALYTICAL_ROB_MODEL_HH

#include <cstdint>
#include <vector>

#include "analysis/memory_state_machine.hh"
#include "common/stats.hh"
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
};

/** Per-instruction stage latencies of one run, counted by value. */
struct RobStageLatencies
{
    IntegerHistogram issue;     ///< s_i - a_i
    IntegerHistogram exec;      ///< f_i - s_i
    IntegerHistogram commit;    ///< c_i - f_i
};

/** One ROB size of a runRobModels() call. */
struct RobRunRequest
{
    int robSize = 1;            ///< ROB entries (>= 1)
    bool latencies = false;     ///< count issue and commit latencies
    bool execLatency = false;   ///< count exec latencies too
};

/**
 * Run the ROB model once per request over one region and d-side
 * analysis; results[k] and latencies[k] answer requests[k], and only
 * the latency kinds a request asked for are filled. Duplicate sizes
 * are allowed. The working set (rings, per-line state) lives for the
 * call only; keeping it across calls measured no faster.
 *
 * @param region instruction trace
 * @param index load/line index for the memory state machine
 * @param exec_lat per-instruction latency estimates (d-side analysis)
 * @param window_k window length for Eq. (5)
 */
void runRobModels(const TraceColumns &region, const LoadLineIndex &index,
                  const std::vector<int32_t> &exec_lat,
                  const std::vector<RobRunRequest> &requests, int window_k,
                  std::vector<RobModelResult> &results,
                  std::vector<RobStageLatencies> &latencies);

/** One ROB size, no latencies. */
RobModelResult runRobModel(const TraceColumns &region,
                           const LoadLineIndex &index,
                           const std::vector<int32_t> &exec_lat,
                           int rob_size, int window_k);

/**
 * The kernel runRobModels() runs multi-size calls with on this host:
 * "avx512f" (lockstep) or "portable" (one size at a time).
 */
const char *robKernelName();

} // namespace concorde

#endif // CONCORDE_ANALYTICAL_ROB_MODEL_HH
