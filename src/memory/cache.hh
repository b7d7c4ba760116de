/**
 * @file
 * Single-level set-associative cache with tree-PLRU replacement, modeled
 * after gem5's TreePLRURP (paper footnote 2). Tag-only: no data is stored.
 */

#ifndef CONCORDE_MEMORY_CACHE_HH
#define CONCORDE_MEMORY_CACHE_HH

#include <cstdint>
#include <memory>

namespace concorde
{

/**
 * Tag array with tree-PLRU replacement. Addresses are line indices
 * (byte address >> 6, so below 2^58). Sets and ways must be powers of
 * two, at most 16 ways.
 *
 * Layout: one 64-bit word per way, `tag << 1 | dirty`, all-ones when the
 * way is empty; per set, one 16-bit tree-PLRU word (bit n is internal
 * node n of the heap-ordered tree) and a 16-bit epoch stamp. A set whose
 * stamp is not the current epoch is empty: reset() bumps the epoch in
 * O(1), and the first fill into a set after it clears that set's ways
 * and PLRU bits. The tag array is allocated uninitialized, so the pages
 * of sets a run never fills are never written.
 */
class Cache
{
  public:
    /**
     * @param size_bytes total capacity (power of two)
     * @param ways associativity (power of two, at most 16)
     */
    Cache(uint64_t size_bytes, uint32_t ways);

    /**
     * Reinitialize to the state of a fresh Cache(size_bytes, ways):
     * every way empty, PLRU trees zeroed. O(1) when the geometry fits
     * the storage already held (sets are cleared lazily); a bigger
     * geometry reallocates.
     */
    void reset(uint64_t size_bytes, uint32_t ways);

    /** Probe without updating replacement state. */
    bool lookup(uint64_t line) const;

    /** Access: on hit update PLRU and return true; on miss return false. */
    bool touch(uint64_t line);

    /**
     * Allocate a line (evicting the PLRU victim if needed).
     * @return the evicted line index, or kNoLine if none was evicted.
     * @param dirty mark the installed line dirty (write allocation)
     * @param evicted_dirty set to true when the victim was dirty
     */
    uint64_t fill(uint64_t line, bool dirty, bool &evicted_dirty);

    /** touch(); on miss, fill(). @return true on hit. */
    bool access(uint64_t line, bool is_write);

    /** Mark a resident line dirty (no-op on miss). */
    void markDirty(uint64_t line);

    /** Drop a line if resident (back-invalidation). */
    void invalidate(uint64_t line);

    uint64_t sizeBytes() const { return numSets * numWays * 64ULL; }
    uint32_t ways() const { return numWays; }
    uint64_t sets() const { return numSets; }

    static constexpr uint64_t kNoLine = ~0ULL;

  private:
    static constexpr uint64_t kEmpty = ~0ULL;
    static constexpr uint32_t kMaxWays = 16;

    struct SetState
    {
        uint16_t stamp;     ///< epoch of the set's last clear
        uint16_t plru;      ///< tree-PLRU node bits
    };

    uint64_t setOf(uint64_t line) const { return line & (numSets - 1); }
    uint64_t tagOf(uint64_t line) const { return line >> setShift; }

    /** The set's ways, or null when the set is empty this epoch. */
    uint64_t *
    liveRow(uint64_t set) const
    {
        return setState[set].stamp == epoch ? &tags[set * numWays]
                                            : nullptr;
    }

    /** Way holding `tag` in `row`, or -1. */
    int findWay(const uint64_t *row, uint64_t tag) const;

    /** PLRU victim way within a set. */
    uint32_t victimWay(uint64_t set) const;
    /** Update the PLRU tree to protect `way`. */
    void
    touchWay(uint64_t set, uint32_t way)
    {
        uint16_t &plru = setState[set].plru;
        plru = static_cast<uint16_t>((plru & ~pathMask[way])
                                     | pathBits[way]);
    }

    uint64_t numSets = 0;
    uint32_t numWays = 0;
    uint32_t setShift = 0;
    uint16_t epoch = 0;

    /** Per way: the PLRU nodes on its root path, and their values. */
    uint16_t pathMask[kMaxWays] = {};
    uint16_t pathBits[kMaxWays] = {};

    std::unique_ptr<uint64_t[]> tags;       ///< numSets * numWays, lazy
    std::unique_ptr<SetState[]> setState;   ///< numSets, zeroed on alloc
    uint64_t tagCapacity = 0;
    uint64_t setCapacity = 0;
};

} // namespace concorde

#endif // CONCORDE_MEMORY_CACHE_HH
