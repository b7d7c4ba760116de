#include "analytical/lsq_model.hh"

#include <algorithm>

#include "analytical/windows.hh"
#include "common/logging.hh"

namespace concorde
{

namespace
{

/**
 * Shared queue recurrence: a_i = c_{i-Q}, s_i = a_i,
 * f_i = completion(s_i), c_i = max(f_i, c_{i-1}); windows are over all
 * instructions, with non-members free.
 */
template <typename CompletionFn, typename MemberFn>
std::vector<double>
runQueueModel(size_t n, int queue_size, int window_k, MemberFn is_member,
              CompletionFn completion)
{
    panic_if(queue_size < 1, "queue size must be >= 1");

    std::vector<uint64_t> commit_ring(queue_size, 0);
    uint64_t c_prev = 0;
    // Member-count % queue_size and window modulo as rotating counters
    // (runtime-divisor modulos dominate the recurrence otherwise).
    size_t slot = 0;
    int until_boundary = window_k;

    std::vector<uint64_t> boundaries;
    boundaries.reserve(numWindows(n, window_k));

    for (size_t i = 0; i < n; ++i) {
        if (is_member(i)) {
            const uint64_t a = commit_ring[slot];
            const uint64_t s = a;   // no dependency constraints
            const uint64_t f = completion(s, i);
            const uint64_t c = std::max(f, c_prev);
            commit_ring[slot] = c;
            if (++slot == static_cast<size_t>(queue_size))
                slot = 0;
            c_prev = c;
        }
        if (--until_boundary == 0) {
            boundaries.push_back(c_prev);
            until_boundary = window_k;
        }
    }
    return throughputFromBoundaries(boundaries, window_k);
}

} // anonymous namespace

std::vector<double>
runLoadQueueModel(const TraceColumns &region, const LoadLineIndex &index,
                  const std::vector<int32_t> &exec_lat, int lq_size,
                  int window_k)
{
    MemoryStateMachine memory(index, exec_lat);
    return runQueueModel(
        region.size(), lq_size, window_k,
        [&](size_t i) { return region.isLoad(i); },
        [&](uint64_t s, size_t i) {
            return memory.respCycleInOrder(s, i, true);
        });
}

std::vector<double>
runStoreQueueModel(const TraceColumns &region, int sq_size, int window_k)
{
    const uint64_t store_lat = fixedLatency(InstrType::Store);
    return runQueueModel(
        region.size(), sq_size, window_k,
        [&](size_t i) { return region.isStore(i); },
        [&](uint64_t s, size_t) { return s + store_lat; });
}

} // namespace concorde
