#include "analysis/memory_state_machine.hh"

#include <algorithm>
#include <unordered_map>

#include "common/logging.hh"

namespace concorde
{

LoadLineIndex
LoadLineIndex::build(const TraceColumns &region)
{
    const size_t n = region.size();
    LoadLineIndex index;
    index.lineIdOf.assign(n, -1);

    std::unordered_map<uint64_t, uint32_t> dense;
    dense.reserve(n / 4);
    std::vector<uint32_t> counts;
    for (size_t i = 0; i < n; ++i) {
        if (!region.isLoad(i))
            continue;
        auto [it, inserted] = dense.try_emplace(
            region.dataLine(i), static_cast<uint32_t>(dense.size()));
        if (inserted)
            counts.push_back(0);
        index.lineIdOf[i] = static_cast<int32_t>(it->second);
        ++counts[it->second];
    }
    index.numLines = static_cast<uint32_t>(dense.size());

    index.lineStart.assign(index.numLines + 1, 0);
    for (uint32_t l = 0; l < index.numLines; ++l)
        index.lineStart[l + 1] = index.lineStart[l] + counts[l];
    index.loadList.resize(index.lineStart[index.numLines]);
    std::vector<uint32_t> cursor(index.lineStart.begin(),
                                 index.lineStart.end() - 1);
    for (size_t i = 0; i < n; ++i) {
        const int32_t lid = index.lineIdOf[i];
        if (lid >= 0)
            index.loadList[cursor[lid]++] = static_cast<uint32_t>(i);
    }
    return index;
}

MemoryStateMachine::MemoryStateMachine(const LoadLineIndex &index_in,
                                       const std::vector<int32_t> &exec_lat)
    : index(index_in), execLat(exec_lat),
      accessCounters(index_in.numLines, 0),
      lastReqCycles(index_in.numLines, 0),
      lastRespCycles(index_in.numLines, 0)
{
}

uint64_t
MemoryStateMachine::respCycle(uint64_t req_cycle, size_t idx, bool is_load)
{
    if (!is_load) {
        // Nothing special for non-load instructions.
        return req_cycle + static_cast<uint64_t>(execLat[idx]);
    }

    const int32_t lid = index.lineIdOf[idx];
    panic_if(lid < 0, "load %zu missing from line index", idx);

    // Request cycles to a line must be non-decreasing; trace-order callers
    // satisfy this by clamping (see file comment).
    const uint64_t req = std::max(req_cycle, lastReqCycles[lid]);
    lastReqCycles[lid] = req;

    // exec_times[cache_line][access_number]: the in-order cache-simulation
    // latency of the line's access_number-th load.
    const uint32_t begin = index.lineStart[lid];
    const uint32_t end = index.lineStart[lid + 1];
    uint32_t access_number = accessCounters[lid];
    if (begin + access_number >= end)
        access_number = end - begin - 1;
    const uint32_t donor = index.loadList[begin + access_number];
    const uint64_t exec_time = static_cast<uint64_t>(execLat[donor]);
    ++accessCounters[lid];

    const uint64_t resp = std::max(req + exec_time, lastRespCycles[lid]);
    lastRespCycles[lid] = resp;
    return resp;
}

void
MemoryStateMachine::reset()
{
    std::fill(accessCounters.begin(), accessCounters.end(), 0);
    std::fill(lastReqCycles.begin(), lastReqCycles.end(), 0);
    std::fill(lastRespCycles.begin(), lastRespCycles.end(), 0);
}

MemoryStateMachine::Snapshot
MemoryStateMachine::snapshot() const
{
    return Snapshot{accessCounters, lastReqCycles, lastRespCycles};
}

void
MemoryStateMachine::restore(const Snapshot &state)
{
    panic_if(state.accessCounters.size() != accessCounters.size(),
             "snapshot over %zu lines restored into a machine over %zu",
             state.accessCounters.size(), accessCounters.size());
    accessCounters = state.accessCounters;
    lastReqCycles = state.lastReqCycles;
    lastRespCycles = state.lastRespCycles;
}

} // namespace concorde
