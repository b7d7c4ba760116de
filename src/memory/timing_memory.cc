#include "memory/timing_memory.hh"

#include <algorithm>
#include <functional>

namespace concorde
{

namespace
{

constexpr uint32_t kL1Ways = 4;
constexpr uint32_t kL2Ways = 8;
constexpr uint32_t kLlcWays = 16;

} // anonymous namespace

static_assert((InflightFills::kInitialSlots
               & (InflightFills::kInitialSlots - 1)) == 0,
              "the slot count must be a power of two");

InflightFills::InflightFills()
    : table(kInitialSlots, Slot{kEmpty, 0}),
      shift(64 - static_cast<uint32_t>(__builtin_ctzll(kInitialSlots)))
{
}

size_t
InflightFills::probe(uint64_t line) const
{
    const size_t mask = table.size() - 1;
    size_t i = home(line);
    while (table[i].line != line && table[i].line != kEmpty)
        i = (i + 1) & mask;
    return i;
}

const uint64_t *
InflightFills::find(uint64_t line) const
{
    const Slot &slot = table[probe(line)];
    return slot.line == line ? &slot.done : nullptr;
}

void
InflightFills::set(uint64_t line, uint64_t done)
{
    size_t i = probe(line);
    if (table[i].line == line) {
        table[i].done = done;
        return;
    }
    if (2 * (used.size() + 1) > table.size()) {
        grow();
        i = probe(line);
    }
    table[i] = {line, done};
    used.push_back(static_cast<uint32_t>(i));
}

void
InflightFills::clear()
{
    for (uint32_t i : used)
        table[i].line = kEmpty;
    used.clear();
}

void
InflightFills::grow()
{
    std::vector<Slot> old(2 * table.size(), Slot{kEmpty, 0});
    old.swap(table);
    --shift;
    used.clear();
    for (const Slot &slot : old) {
        if (slot.line != kEmpty) {
            const size_t i = probe(slot.line);
            table[i] = slot;
            used.push_back(static_cast<uint32_t>(i));
        }
    }
}

TimingMemory::TimingMemory(const MemoryConfig &config)
    : l1d(config.l1dKb * 1024ULL, kL1Ways),
      l1i(config.l1iKb * 1024ULL, kL1Ways),
      l2(config.l2Kb * 1024ULL, kL2Ways),
      llc(MemoryConfig::kLlcKb * 1024ULL, kLlcWays),
      prefetcher(config.prefetchDegree)
{
}

void
TimingMemory::reset(const MemoryConfig &config)
{
    l1d.reset(config.l1dKb * 1024ULL, kL1Ways);
    l1i.reset(config.l1iKb * 1024ULL, kL1Ways);
    l2.reset(config.l2Kb * 1024ULL, kL2Ways);
    llc.reset(MemoryConfig::kLlcKb * 1024ULL, kLlcWays);
    prefetcher.reset(config.prefetchDegree);
    dStats = HierarchyStats{};
    iStats = HierarchyStats{};
    lastDataLine = ~0ULL;
    lastInstLine = ~0ULL;
    dramNextFree = 0;
    inflightData.clear();
    inflightInst.clear();
    mshrHeap.clear();
    prefetchBuf.clear();
}

CacheLevel
TimingMemory::dataLookupFill(uint64_t line, bool is_write, bool sequential)
{
    if (l1d.touch(line)) {
        if (is_write)
            l1d.markDirty(line);
        return CacheLevel::L1;
    }
    CacheLevel level;
    if (l2.touch(line)) {
        level = CacheLevel::L2;
    } else if (llc.touch(line)) {
        level = CacheLevel::LLC;
    } else {
        level = CacheLevel::Ram;
    }

    bool evicted_dirty = false;
    const uint64_t victim = l1d.fill(line, is_write, evicted_dirty);
    if (victim != Cache::kNoLine && evicted_dirty) {
        ++dStats.writebacks;
        bool wb_dirty = false;
        l2.fill(victim, true, wb_dirty);
        if (wb_dirty) {
            llc.fill(victim, true, wb_dirty);
            if (wb_dirty)
                dramNextFree += kDramGap;   // LLC victim write-back
        }
    }
    if (!sequential) {
        bool d = false;
        if (level == CacheLevel::Ram || level == CacheLevel::LLC)
            l2.fill(line, false, d);
        if (level == CacheLevel::Ram)
            llc.fill(line, false, d);
    }
    return level;
}

CacheLevel
TimingMemory::instLookupFill(uint64_t line, bool sequential)
{
    if (l1i.touch(line))
        return CacheLevel::L1;
    CacheLevel level;
    if (l2.touch(line)) {
        level = CacheLevel::L2;
    } else if (llc.touch(line)) {
        level = CacheLevel::LLC;
    } else {
        level = CacheLevel::Ram;
    }
    bool d = false;
    l1i.fill(line, false, d);
    if (!sequential) {
        if (level == CacheLevel::Ram || level == CacheLevel::LLC)
            l2.fill(line, false, d);
        if (level == CacheLevel::Ram)
            llc.fill(line, false, d);
    }
    return level;
}

uint64_t
TimingMemory::dramService(uint64_t cycle)
{
    const uint64_t start = std::max(cycle, dramNextFree);
    dramNextFree = start + kDramGap;
    return start + kDramLat;
}

uint64_t
TimingMemory::mshrAdmit(uint64_t cycle)
{
    const auto cmp = std::greater<uint64_t>();
    while (!mshrHeap.empty() && mshrHeap.front() <= cycle) {
        std::pop_heap(mshrHeap.begin(), mshrHeap.end(), cmp);
        mshrHeap.pop_back();
    }
    if (mshrHeap.size() < static_cast<size_t>(kMshrs))
        return cycle;
    const uint64_t free_at = mshrHeap.front();
    std::pop_heap(mshrHeap.begin(), mshrHeap.end(), cmp);
    mshrHeap.pop_back();
    return free_at;
}

void
TimingMemory::mshrRetire(uint64_t completion)
{
    mshrHeap.push_back(completion);
    std::push_heap(mshrHeap.begin(), mshrHeap.end(),
                   std::greater<uint64_t>());
}

MemResponse
TimingMemory::load(uint64_t pc, uint64_t addr, uint64_t cycle)
{
    const uint64_t line = addr >> 6;
    MemResponse resp;

    // Merge with an in-flight fill for the same line (principle 1 of
    // Algorithm 1, realized in the ground-truth simulator).
    const uint64_t *inflight = inflightData.find(line);
    if (inflight && *inflight > cycle) {
        resp.readyCycle = *inflight;
        resp.level = CacheLevel::L1;    // will be an L1 hit once filled
        resp.isFill = false;
        // Keep replacement state warm.
        l1d.touch(line);
        return resp;
    }

    const bool sequential = (line == lastDataLine + 1);
    lastDataLine = line;
    const CacheLevel level = dataLookupFill(line, false, sequential);
    switch (level) {
      case CacheLevel::L1: ++dStats.l1Hits; break;
      case CacheLevel::L2: ++dStats.l2Hits; break;
      case CacheLevel::LLC: ++dStats.llcHits; break;
      default: ++dStats.ramAccesses; break;
    }

    resp.level = level;
    if (level == CacheLevel::L1) {
        resp.readyCycle = cycle + loadLatency(CacheLevel::L1);
    } else {
        const uint64_t start = mshrAdmit(cycle);
        uint64_t done;
        if (level == CacheLevel::Ram)
            done = dramService(start);
        else
            done = start + loadLatency(level);
        mshrRetire(done);
        inflightData.set(line, done);
        resp.readyCycle = done;
        resp.isFill = true;
    }

    // Prefetching: trained by demand loads, issued in timing order.
    if (prefetcher.enabled()) {
        prefetcher.observe(pc, addr, prefetchBuf);
        for (uint64_t pf_addr : prefetchBuf) {
            const uint64_t pf_line = pf_addr >> 6;
            if (l1d.lookup(pf_line))
                continue;
            const uint64_t *in = inflightData.find(pf_line);
            if (in && *in > cycle)
                continue;
            ++dStats.prefetchesIssued;
            const bool pf_seq = (pf_line == lastDataLine + 1);
            lastDataLine = pf_line;
            const CacheLevel pf_level =
                dataLookupFill(pf_line, false, pf_seq);
            uint64_t done;
            if (pf_level == CacheLevel::Ram)
                done = dramService(cycle);
            else
                done = cycle + loadLatency(pf_level);
            inflightData.set(pf_line, done);
        }
    }
    return resp;
}

void
TimingMemory::store(uint64_t pc, uint64_t addr, uint64_t cycle)
{
    (void)pc;
    const uint64_t line = addr >> 6;
    const bool sequential = (line == lastDataLine + 1);
    lastDataLine = line;
    const CacheLevel level = dataLookupFill(line, true, sequential);
    switch (level) {
      case CacheLevel::L1: ++dStats.l1Hits; break;
      case CacheLevel::L2: ++dStats.l2Hits; break;
      case CacheLevel::LLC: ++dStats.llcHits; break;
      default: ++dStats.ramAccesses; break;
    }
    if (level == CacheLevel::Ram)
        dramNextFree += kDramGap;   // fill bandwidth for the write allocate
    (void)cycle;
}

bool
TimingMemory::instLineNeedsFill(uint64_t line, uint64_t cycle) const
{
    if (l1i.lookup(line))
        return false;
    const uint64_t *inflight = inflightInst.find(line);
    return !(inflight && *inflight > cycle);
}

MemResponse
TimingMemory::fetchLine(uint64_t line, uint64_t cycle)
{
    MemResponse resp;
    const uint64_t *inflight = inflightInst.find(line);
    if (inflight && *inflight > cycle) {
        resp.readyCycle = *inflight;
        resp.level = CacheLevel::L1;
        resp.isFill = false;
        l1i.touch(line);
        return resp;
    }

    const bool sequential = (line == lastInstLine + 1);
    lastInstLine = line;
    const CacheLevel level = instLookupFill(line, sequential);
    switch (level) {
      case CacheLevel::L1: ++iStats.l1Hits; break;
      case CacheLevel::L2: ++iStats.l2Hits; break;
      case CacheLevel::LLC: ++iStats.llcHits; break;
      default: ++iStats.ramAccesses; break;
    }

    resp.level = level;
    if (level == CacheLevel::L1) {
        resp.readyCycle = cycle + 1;
    } else {
        uint64_t done;
        if (level == CacheLevel::Ram)
            done = dramService(cycle);
        else
            done = cycle + loadLatency(level);
        inflightInst.set(line, done);
        resp.readyCycle = done;
        resp.isFill = true;
    }
    return resp;
}

} // namespace concorde
