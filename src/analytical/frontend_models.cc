#include "analytical/frontend_models.hh"

#include <algorithm>
#include <queue>

#include "analytical/windows.hh"
#include "common/logging.hh"

namespace concorde
{

namespace
{

using MinHeap = std::priority_queue<uint64_t, std::vector<uint64_t>,
                                    std::greater<uint64_t>>;

/**
 * Shared slot-pool frontend simulation: line events acquire a slot (of
 * `slots`), hold it for their latency, and deliver in order.
 * `needs_slot(i)` decides whether instruction i's line event uses a slot.
 */
template <typename NeedsSlot>
std::vector<double>
runSlotModel(const ISideAnalysis &iside, int slots, int window_k,
             NeedsSlot needs_slot)
{
    panic_if(slots < 1, "need at least one slot");
    const size_t n = iside.newLine.size();

    MinHeap slot_free;  // completion cycles of busy slots
    uint64_t prev_resp = 0;
    int until_boundary = window_k;   // avoids a per-instruction modulo

    std::vector<uint64_t> boundaries;
    boundaries.reserve(numWindows(n, window_k));

    for (size_t i = 0; i < n; ++i) {
        if (iside.newLine[i] && needs_slot(i)) {
            // Backlogged fetch: a line event starts the moment a slot is
            // available (cycle 0 while the pool is not yet full).
            uint64_t start = 0;
            if (static_cast<int>(slot_free.size()) >= slots) {
                start = slot_free.top();
                slot_free.pop();
            }
            const uint64_t line_resp =
                start + static_cast<uint64_t>(iside.lineLat[i]);
            slot_free.push(line_resp);
            prev_resp = std::max(prev_resp, line_resp);
        }
        if (--until_boundary == 0) {
            boundaries.push_back(prev_resp);
            until_boundary = window_k;
        }
    }
    return throughputFromBoundaries(boundaries, window_k);
}

} // anonymous namespace

std::vector<double>
runIcacheFillsModel(const ISideAnalysis &iside, int max_fills, int window_k)
{
    // Only misses (latency above an L1i hit) occupy a fill slot.
    return runSlotModel(iside, max_fills, window_k, [&](size_t i) {
        return iside.lineLat[i] > kL1iHitLat;
    });
}

std::vector<double>
runFetchBufferModel(const ISideAnalysis &iside, int num_buffers,
                    int window_k)
{
    // Every line access occupies a buffer, hits included.
    return runSlotModel(iside, num_buffers, window_k,
                        [](size_t) { return true; });
}

} // namespace concorde
