#include "analytical/rob_model.hh"

#include <algorithm>

#include "analytical/windows.hh"
#include "common/logging.hh"

namespace concorde
{

RobModelResult
runRobModel(const TraceColumns &region, const LoadLineIndex &index,
            const std::vector<int32_t> &exec_lat, int rob_size,
            int window_k, bool collect_latencies, RobModelScratch *scratch)
{
    panic_if(rob_size < 1, "ROB size must be >= 1");
    const size_t n = region.size();

    RobModelResult result;
    if (n == 0)
        return result;

    MemoryStateMachine memory(index, exec_lat);

    RobModelScratch local;
    RobModelScratch &buf = scratch ? *scratch : local;

    // Commit-cycle ring buffer: c_{i-ROB} with c_i = 0 for i <= 0.
    buf.commitRing.assign(rob_size, 0);
    buf.finish.assign(n, 0);
    std::vector<uint64_t> &commit_ring = buf.commitRing;
    std::vector<uint64_t> &finish = buf.finish;
    uint64_t c_prev = 0;
    uint64_t max_finish = 0;        // for ISB pipeline drains
    uint64_t barrier_finish = 0;    // ISBs gate later instructions

    if (collect_latencies) {
        result.issueLat.resize(n);
        result.execLat.resize(n);
        result.commitLat.resize(n);
    }

    std::vector<uint64_t> &boundaries = buf.boundaries;
    boundaries.clear();
    boundaries.reserve(numWindows(n, window_k));

    // i % rob_size and (i + 1) % window_k as rotating counters: the two
    // runtime-divisor modulos per instruction cost more than the rest of
    // the recurrence for small ROB sizes.
    size_t slot = 0;
    int until_boundary = window_k;

    for (size_t i = 0; i < n; ++i) {
        // Eq. (1): arrival waits for the instruction ROB slots earlier to
        // commit.
        const uint64_t a = commit_ring[slot];

        // Eq. (2): dependencies.
        uint64_t s = std::max(a, barrier_finish);
        if (region.srcDep0[i] >= 0)
            s = std::max(s, finish[region.srcDep0[i]]);
        if (region.srcDep1[i] >= 0)
            s = std::max(s, finish[region.srcDep1[i]]);
        if (region.memDep[i] >= 0)
            s = std::max(s, finish[region.memDep[i]]);
        const bool isb = region.isIsb(i);
        if (isb)
            s = std::max(s, max_finish);

        // Eq. (3): memory state machine.
        const uint64_t f = memory.respCycleInOrder(s, i, region.isLoad(i));

        // Eq. (4): in-order commit.
        const uint64_t c = std::max(f, c_prev);

        finish[i] = f;
        max_finish = std::max(max_finish, f);
        if (isb)
            barrier_finish = std::max(barrier_finish, f);
        commit_ring[slot] = c;
        if (++slot == static_cast<size_t>(rob_size))
            slot = 0;
        c_prev = c;

        if (collect_latencies) {
            result.issueLat[i] = static_cast<double>(s - a);
            result.execLat[i] = static_cast<double>(f - s);
            result.commitLat[i] = static_cast<double>(c - f);
        }

        if (--until_boundary == 0) {
            boundaries.push_back(c);
            until_boundary = window_k;
        }
    }

    result.windowThroughput = throughputFromBoundaries(boundaries, window_k);
    result.overallIpc = c_prev > 0
        ? static_cast<double>(n) / static_cast<double>(c_prev)
        : kMaxThroughput;
    return result;
}

} // namespace concorde
