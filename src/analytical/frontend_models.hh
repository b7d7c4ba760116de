/**
 * @file
 * Frontend dynamic-constraint models (Section 3.2.1): basic
 * instruction-level simulations of the maximum-I-cache-fills limit and the
 * fetch-buffer pool, assuming an instruction backlog limited only by the
 * modeled resource. Both read only the region's i-side analysis (one
 * entry per region instruction).
 */

#ifndef CONCORDE_ANALYTICAL_FRONTEND_MODELS_HH
#define CONCORDE_ANALYTICAL_FRONTEND_MODELS_HH

#include <vector>

#include "analysis/trace_analyzer.hh"

namespace concorde
{

/**
 * Maximum-I-cache-fills throughput bound: at most `max_fills` line fills
 * in flight; a missing line's request issues as soon as a fill slot frees;
 * instructions are delivered in order at their line's response cycle.
 * L1i hits consume no fill slot.
 */
std::vector<double> runIcacheFillsModel(const ISideAnalysis &iside,
                                        int max_fills, int window_k);

/**
 * Fetch-buffer throughput bound: every line access (hit or miss) occupies
 * one of `num_buffers` fetch buffers for the duration of its access.
 */
std::vector<double> runFetchBufferModel(const ISideAnalysis &iside,
                                        int num_buffers, int window_k);

} // namespace concorde

#endif // CONCORDE_ANALYTICAL_FRONTEND_MODELS_HH
