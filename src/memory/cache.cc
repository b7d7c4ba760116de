#include "memory/cache.hh"

#include <algorithm>

#include "common/logging.hh"

namespace concorde
{

namespace
{

bool
isPow2(uint64_t x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

uint32_t
log2u(uint64_t x)
{
    uint32_t n = 0;
    while ((1ULL << n) < x)
        ++n;
    return n;
}

} // anonymous namespace

Cache::Cache(uint64_t size_bytes, uint32_t ways)
{
    reset(size_bytes, ways);
}

void
Cache::reset(uint64_t size_bytes, uint32_t ways)
{
    fatal_if(ways == 0 || size_bytes < 64ULL * ways,
             "cache too small: %llu bytes",
             static_cast<unsigned long long>(size_bytes));
    numSets = size_bytes / 64 / ways;
    numWays = ways;
    fatal_if(!isPow2(numSets) || !isPow2(numWays),
             "sets (%llu) and ways (%u) must be powers of two",
             static_cast<unsigned long long>(numSets), numWays);
    fatal_if(numWays > kMaxWays, "at most %u ways supported (got %u)",
             kMaxWays, numWays);
    setShift = log2u(numSets);

    // Heap-ordered tree over the ways: a touch points every node on the
    // way's root path away from it (bit 1 = go left next time).
    for (uint32_t w = 0; w < numWays; ++w) {
        uint16_t mask = 0;
        uint16_t bits = 0;
        for (uint32_t node = w + numWays - 1; node > 0;) {
            const uint32_t parent = (node - 1) / 2;
            mask = static_cast<uint16_t>(mask | (1u << parent));
            if (node != 2 * parent + 2)
                bits = static_cast<uint16_t>(bits | (1u << parent));
            node = parent;
        }
        pathMask[w] = mask;
        pathBits[w] = bits;
    }

    // Storage: grow-only. Fresh tag words are left uninitialized (a set
    // is cleared on its first fill) and fresh set states are zeroed, so
    // every stamp is stale against epoch 1.
    const uint64_t ways_total = numSets * numWays;
    if (ways_total > tagCapacity) {
        tags.reset(new uint64_t[ways_total]);
        tagCapacity = ways_total;
    }
    if (numSets > setCapacity) {
        setState.reset(new SetState[numSets]());
        setCapacity = numSets;
        epoch = 1;
    } else if (++epoch == 0) {
        // The stamp wrapped: forget every stamp, including those of sets
        // beyond the current geometry, before epochs are reused.
        std::fill(setState.get(), setState.get() + setCapacity,
                  SetState{0, 0});
        epoch = 1;
    }
}

int
Cache::findWay(const uint64_t *row, uint64_t tag) const
{
    for (uint32_t w = 0; w < numWays; ++w) {
        if ((row[w] >> 1) == tag && row[w] != kEmpty)
            return static_cast<int>(w);
    }
    return -1;
}

bool
Cache::lookup(uint64_t line) const
{
    const uint64_t *row = liveRow(setOf(line));
    return row && findWay(row, tagOf(line)) >= 0;
}

bool
Cache::touch(uint64_t line)
{
    const uint64_t set = setOf(line);
    const uint64_t *row = liveRow(set);
    if (!row)
        return false;
    const int w = findWay(row, tagOf(line));
    if (w < 0)
        return false;
    touchWay(set, static_cast<uint32_t>(w));
    return true;
}

uint64_t
Cache::fill(uint64_t line, bool dirty, bool &evicted_dirty)
{
    const uint64_t set = setOf(line);
    const uint64_t tag = tagOf(line);
    evicted_dirty = false;

    uint64_t *row = liveRow(set);
    if (!row) {
        // First fill this epoch: clear the set.
        row = &tags[set * numWays];
        std::fill(row, row + numWays, kEmpty);
        setState[set] = {epoch, 0};
    }

    // Already resident: just update state. Otherwise prefer the first
    // empty way.
    int empty = -1;
    for (uint32_t w = 0; w < numWays; ++w) {
        if (row[w] == kEmpty) {
            if (empty < 0)
                empty = static_cast<int>(w);
        } else if ((row[w] >> 1) == tag) {
            row[w] |= dirty ? 1 : 0;
            touchWay(set, w);
            return kNoLine;
        }
    }
    const uint64_t word = tag << 1 | (dirty ? 1 : 0);
    if (empty >= 0) {
        row[empty] = word;
        touchWay(set, static_cast<uint32_t>(empty));
        return kNoLine;
    }
    // Evict the PLRU victim.
    const uint32_t w = victimWay(set);
    const uint64_t victim_line = ((row[w] >> 1) << setShift) | set;
    evicted_dirty = (row[w] & 1) != 0;
    row[w] = word;
    touchWay(set, w);
    return victim_line;
}

bool
Cache::access(uint64_t line, bool is_write)
{
    if (touch(line)) {
        if (is_write)
            markDirty(line);
        return true;
    }
    bool evicted_dirty = false;
    fill(line, is_write, evicted_dirty);
    return false;
}

void
Cache::markDirty(uint64_t line)
{
    uint64_t *row = liveRow(setOf(line));
    const int w = row ? findWay(row, tagOf(line)) : -1;
    if (w >= 0)
        row[w] |= 1;
}

void
Cache::invalidate(uint64_t line)
{
    uint64_t *row = liveRow(setOf(line));
    const int w = row ? findWay(row, tagOf(line)) : -1;
    if (w >= 0)
        row[w] = kEmpty;
}

uint32_t
Cache::victimWay(uint64_t set) const
{
    // Walk the binary tree: bit==0 means "go left", following the
    // least-recently-protected direction.
    const uint32_t plru = setState[set].plru;
    uint32_t node = 0;
    while (node < numWays - 1)
        node = 2 * node + 1 + ((plru >> node) & 1);
    return node - (numWays - 1);
}

} // namespace concorde
