/**
 * @file
 * Load-queue / store-queue analytical models (Section 3.2.1). Identical to
 * the ROB model restricted to loads (or stores), with two differences: the
 * calculations involve only that instruction class, and there are no
 * dependency constraints -- an entry starts as soon as it gets a queue
 * slot. Non-members of the class are free and incur no latency.
 */

#ifndef CONCORDE_ANALYTICAL_LSQ_MODEL_HH
#define CONCORDE_ANALYTICAL_LSQ_MODEL_HH

#include <cstdint>
#include <vector>

#include "analysis/memory_state_machine.hh"
#include "trace/trace_columns.hh"

namespace concorde
{

/**
 * Load-queue throughput bound per window of `window_k` consecutive
 * instructions (all instructions count toward windows; only loads are
 * constrained).
 */
std::vector<double> runLoadQueueModel(const TraceColumns &region,
                                      const LoadLineIndex &index,
                                      const std::vector<int32_t> &exec_lat,
                                      int lq_size, int window_k);

/** Store-queue analogue (store latency is fixed; no memory state machine). */
std::vector<double> runStoreQueueModel(const TraceColumns &region,
                                       int sq_size, int window_k);

} // namespace concorde

#endif // CONCORDE_ANALYTICAL_LSQ_MODEL_HH
