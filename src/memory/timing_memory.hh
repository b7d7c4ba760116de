/**
 * @file
 * Timed memory system for the reference cycle-level simulator: the
 * functional hierarchy plus timing-dependent behavior the in-order trace
 * analysis cannot see -- same-line miss merging, limited MSHRs, DRAM
 * bandwidth queueing, prefetch timing, and a shared L2/LLC between the
 * instruction and data sides.
 *
 * These effects are a deliberate source of discrepancy between trace
 * analysis and ground truth (paper Section 5.2.1, Figure 11).
 */

#ifndef CONCORDE_MEMORY_TIMING_MEMORY_HH
#define CONCORDE_MEMORY_TIMING_MEMORY_HH

#include <cstdint>
#include <vector>

#include "memory/cache.hh"
#include "memory/hierarchy.hh"
#include "memory/prefetcher.hh"

namespace concorde
{

/** Result of a timed access. */
struct MemResponse
{
    uint64_t readyCycle = 0;    ///< data/line available at this cycle
    CacheLevel level = CacheLevel::L1;
    bool isFill = false;        ///< required a fill from below L1
};

/**
 * In-flight fills of one side: line -> completion cycle, open-addressed
 * with linear probing over a power-of-two slot array (load factor at
 * most 1/2, doubling when exceeded). Entries are never erased within a
 * run -- a fill whose completion has passed simply no longer merges --
 * and clear() empties only the slots that were used, keeping the
 * storage.
 */
class InflightFills
{
  public:
    static constexpr size_t kInitialSlots = 1024;

    InflightFills();

    /** Completion cycle recorded for `line`, or null. */
    const uint64_t *find(uint64_t line) const;

    /** Record (insert or overwrite) the completion cycle of `line`. */
    void set(uint64_t line, uint64_t done);

    /** Forget every entry; O(entries), capacity kept. */
    void clear();

    size_t size() const { return used.size(); }
    size_t slots() const { return table.size(); }

  private:
    static constexpr uint64_t kEmpty = ~0ULL;

    struct Slot
    {
        uint64_t line;
        uint64_t done;
    };

    size_t
    home(uint64_t line) const
    {
        // Fibonacci hashing: the multiply mixes the line's low bits into
        // the high bits the shift keeps.
        return static_cast<size_t>((line * 0x9E3779B97F4A7C15ULL)
                                   >> shift);
    }

    /** Slot holding `line`, or the empty slot where it would go. */
    size_t probe(uint64_t line) const;

    void grow();

    std::vector<Slot> table;
    std::vector<uint32_t> used;     ///< occupied slot indices
    uint32_t shift;                 ///< 64 - log2(table.size())
};

/**
 * Cycle-addressable memory model. Requests must arrive in non-decreasing
 * cycle order (the out-of-order core issues them in simulation-time order).
 */
class TimingMemory
{
  public:
    explicit TimingMemory(const MemoryConfig &config);

    /**
     * Reinitialize to the exact state of a freshly constructed
     * TimingMemory(config), reusing all existing allocations (cache tag
     * arrays, in-flight tables, heap storage) in time independent of
     * their size: caches clear their sets lazily and the in-flight
     * tables clear only the slots the last run used. The simulator
     * scratch path resets one instance per run instead of
     * reconstructing it.
     */
    void reset(const MemoryConfig &config);

    /** Timed demand load. */
    MemResponse load(uint64_t pc, uint64_t addr, uint64_t cycle);

    /**
     * Store performed at commit (write-back, allocate-on-write). Timing
     * cost is absorbed by the store buffer; this updates cache state and
     * charges write-back bandwidth.
     */
    void store(uint64_t pc, uint64_t addr, uint64_t cycle);

    /** Timed instruction-line fetch. */
    MemResponse fetchLine(uint64_t line, uint64_t cycle);

    /**
     * Would a fetch of this line at `cycle` start a new fill (consume an
     * I-cache fill slot)? Pure query; no state change.
     */
    bool instLineNeedsFill(uint64_t line, uint64_t cycle) const;

    const HierarchyStats &dataStats() const { return dStats; }
    const HierarchyStats &instStats() const { return iStats; }

    /** DRAM line-transfer gap in cycles (37 GB/s at ~2 GHz, 64B lines). */
    static constexpr uint64_t kDramGap = 4;
    /** Extra DRAM latency beyond LLC (paper: 90 ns ~ 200 cycles total). */
    static constexpr uint64_t kDramLat = 200;
    static constexpr int kMshrs = 16;

  private:
    /**
     * Look up the data-side levels and fill upward; returns serving level.
     * Pure state transition; timing handled by callers.
     */
    CacheLevel dataLookupFill(uint64_t line, bool is_write, bool sequential);
    CacheLevel instLookupFill(uint64_t line, bool sequential);

    /** DRAM queue: next service completion for a request at `cycle`. */
    uint64_t dramService(uint64_t cycle);

    /** MSHR gate: returns the cycle at which a new miss may start. */
    uint64_t mshrAdmit(uint64_t cycle);
    void mshrRetire(uint64_t completion);

    Cache l1d;
    Cache l1i;
    Cache l2;
    Cache llc;
    StridePrefetcher prefetcher;

    HierarchyStats dStats;
    HierarchyStats iStats;

    uint64_t lastDataLine = ~0ULL;
    uint64_t lastInstLine = ~0ULL;
    uint64_t dramNextFree = 0;

    /** In-flight fills (demand or prefetch) of each side. */
    InflightFills inflightData;
    InflightFills inflightInst;

    /**
     * Outstanding data-miss completions: a min-heap over a plain vector
     * (std::push_heap/pop_heap), capped at kMshrs, so reset() keeps the
     * storage.
     */
    std::vector<uint64_t> mshrHeap;

    std::vector<uint64_t> prefetchBuf;
};

} // namespace concorde

#endif // CONCORDE_MEMORY_TIMING_MEMORY_HH
