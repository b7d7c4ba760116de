#include "analysis/memory_state_machine.hh"

#include <algorithm>
#include <vector>

#include "common/logging.hh"

namespace concorde
{

LoadLineIndex
LoadLineIndex::build(const TraceColumns &region)
{
    const size_t n = region.size();
    LoadLineIndex index;
    index.lineIdOf.assign(n, -1);

    // The loads' positions, gathered without a branch per instruction;
    // both passes below walk only these.
    std::vector<uint32_t> load_at(n);
    size_t loads = 0;
    for (size_t i = 0; i < n; ++i) {
        load_at[loads] = static_cast<uint32_t>(i);
        loads += region.isLoad(i);
    }

    // Dense ids in first-seen order, found through an open-addressing
    // table of (line, id) at most half full.
    size_t slots = 64;
    while (slots < 2 * loads)
        slots *= 2;
    constexpr uint64_t kEmpty = ~uint64_t{0};   // no line index is this
    std::vector<uint64_t> table_lines(slots, kEmpty);
    std::vector<uint32_t> table_ids(slots);
    const int shift = 64 - __builtin_ctzll(slots);

    std::vector<uint32_t> counts;
    counts.reserve(loads);
    for (size_t k = 0; k < loads; ++k) {
        const uint32_t i = load_at[k];
        const uint64_t line = region.dataLine(i);
        size_t at = static_cast<size_t>(
            (line * 0x9e3779b97f4a7c15ULL) >> shift);
        while (table_lines[at] != line && table_lines[at] != kEmpty)
            at = (at + 1) & (slots - 1);
        if (table_lines[at] == kEmpty) {
            table_lines[at] = line;
            table_ids[at] = static_cast<uint32_t>(counts.size());
            counts.push_back(0);
        }
        const uint32_t id = table_ids[at];
        index.lineIdOf[i] = static_cast<int32_t>(id);
        ++counts[id];
    }
    index.numLines = static_cast<uint32_t>(counts.size());

    index.lineStart.assign(index.numLines + 1, 0);
    for (uint32_t l = 0; l < index.numLines; ++l)
        index.lineStart[l + 1] = index.lineStart[l] + counts[l];
    index.loadList.resize(loads);
    // counts becomes each line's fill cursor.
    for (uint32_t l = 0; l < index.numLines; ++l)
        counts[l] = index.lineStart[l];
    for (size_t k = 0; k < loads; ++k) {
        const uint32_t i = load_at[k];
        index.loadList[counts[index.lineIdOf[i]]++] = i;
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
