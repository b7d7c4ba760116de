/**
 * @file
 * Tests for the cache model, hierarchy, prefetcher, and timing memory.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "memory/cache.hh"
#include "memory/hierarchy.hh"
#include "memory/prefetcher.hh"
#include "memory/timing_memory.hh"

namespace concorde
{
namespace
{

/**
 * The differential oracle: the earlier Cache implementation, kept
 * verbatim in behavior -- one 16-byte {tag, valid, dirty} entry per way,
 * one byte per PLRU tree node, and a reset that rewrites every entry.
 */
class ReferenceCache
{
  public:
    ReferenceCache(uint64_t size_bytes, uint32_t ways)
    {
        reset(size_bytes, ways);
    }

    void
    reset(uint64_t size_bytes, uint32_t ways)
    {
        numSets = size_bytes / 64 / ways;
        numWays = ways;
        setShift = 0;
        while ((1ULL << setShift) < numSets)
            ++setShift;
        entries.assign(numSets * numWays, Entry{});
        plruBits.assign(numSets * (numWays > 1 ? numWays - 1 : 1), 0);
    }

    bool
    lookup(uint64_t line) const
    {
        const Entry *row = &entries[setOf(line) * numWays];
        for (uint32_t w = 0; w < numWays; ++w) {
            if (row[w].valid && row[w].tag == tagOf(line))
                return true;
        }
        return false;
    }

    bool
    touch(uint64_t line)
    {
        const uint64_t set = setOf(line);
        Entry *row = &entries[set * numWays];
        for (uint32_t w = 0; w < numWays; ++w) {
            if (row[w].valid && row[w].tag == tagOf(line)) {
                touchWay(set, w);
                return true;
            }
        }
        return false;
    }

    uint64_t
    fill(uint64_t line, bool dirty, bool &evicted_dirty)
    {
        const uint64_t set = setOf(line);
        const uint64_t tag = tagOf(line);
        Entry *row = &entries[set * numWays];
        evicted_dirty = false;
        for (uint32_t w = 0; w < numWays; ++w) {
            if (row[w].valid && row[w].tag == tag) {
                row[w].dirty |= dirty;
                touchWay(set, w);
                return Cache::kNoLine;
            }
        }
        for (uint32_t w = 0; w < numWays; ++w) {
            if (!row[w].valid) {
                row[w] = {tag, true, dirty};
                touchWay(set, w);
                return Cache::kNoLine;
            }
        }
        const uint32_t w = victimWay(set);
        const uint64_t victim_line = (row[w].tag << setShift) | set;
        evicted_dirty = row[w].dirty;
        row[w] = {tag, true, dirty};
        touchWay(set, w);
        return victim_line;
    }

    bool
    access(uint64_t line, bool is_write)
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
    markDirty(uint64_t line)
    {
        Entry *row = &entries[setOf(line) * numWays];
        for (uint32_t w = 0; w < numWays; ++w) {
            if (row[w].valid && row[w].tag == tagOf(line)) {
                row[w].dirty = true;
                return;
            }
        }
    }

    void
    invalidate(uint64_t line)
    {
        Entry *row = &entries[setOf(line) * numWays];
        for (uint32_t w = 0; w < numWays; ++w) {
            if (row[w].valid && row[w].tag == tagOf(line)) {
                row[w].valid = false;
                row[w].dirty = false;
                return;
            }
        }
    }

  private:
    uint64_t setOf(uint64_t line) const { return line & (numSets - 1); }
    uint64_t tagOf(uint64_t line) const { return line >> setShift; }

    uint32_t
    victimWay(uint64_t set) const
    {
        if (numWays == 1)
            return 0;
        const uint8_t *bits = &plruBits[set * (numWays - 1)];
        uint32_t node = 0;
        while (node < numWays - 1)
            node = 2 * node + 1 + (bits[node] ? 1 : 0);
        return node - (numWays - 1);
    }

    void
    touchWay(uint64_t set, uint32_t way)
    {
        if (numWays == 1)
            return;
        uint8_t *bits = &plruBits[set * (numWays - 1)];
        uint32_t node = way + (numWays - 1);
        while (node > 0) {
            const uint32_t parent = (node - 1) / 2;
            bits[parent] = node == 2 * parent + 2 ? 0 : 1;
            node = parent;
        }
    }

    struct Entry
    {
        uint64_t tag = ~0ULL;
        bool valid = false;
        bool dirty = false;
    };

    uint64_t numSets = 0;
    uint32_t numWays = 0;
    uint32_t setShift = 0;
    std::vector<Entry> entries;
    std::vector<uint8_t> plruBits;
};

/** A cache geometry: sets x ways. */
struct Geometry
{
    uint64_t sets;
    uint32_t ways;

    uint64_t bytes() const { return sets * ways * 64; }
};

const Geometry kGeometries[] = {
    {1, 1}, {1, 4}, {64, 4}, {256, 8}, {4096, 16}};

/** Drives a Cache and its ReferenceCache in lockstep. */
class Differential
{
  public:
    Differential(Geometry g, uint64_t seed)
        : cache(g.bytes(), g.ways), ref(g.bytes(), g.ways), geom(g),
          rng(seed)
    {
    }

    void
    reset(Geometry g)
    {
        cache.reset(g.bytes(), g.ways);
        ref.reset(g.bytes(), g.ways);
        geom = g;
    }

    /**
     * A line that lands in a set of [set_lo, set_hi): tags drawn from
     * about twice the associativity, so hits, misses and evictions all
     * occur, plus an occasional tag near the top of the line range.
     */
    uint64_t
    randomLine(uint64_t set_lo, uint64_t set_hi)
    {
        const uint64_t set = set_lo + rng.nextBounded(set_hi - set_lo);
        uint64_t tag = rng.nextBounded(2 * geom.ways + 1);
        if (rng.nextBool(0.02))
            tag = (1ULL << 57) / geom.sets + rng.nextBounded(4);
        return tag * geom.sets + set;
    }

    /** One random operation on a line of [set_lo, set_hi). */
    void
    step(uint64_t set_lo, uint64_t set_hi)
    {
        const uint64_t line = randomLine(set_lo, set_hi);
        switch (rng.nextBounded(6)) {
          case 0:
            ASSERT_EQ(cache.touch(line), ref.touch(line)) << line;
            break;
          case 1: {
            const bool dirty = rng.nextBool(0.5);
            bool cache_dirty = false, ref_dirty = false;
            ASSERT_EQ(cache.fill(line, dirty, cache_dirty),
                      ref.fill(line, dirty, ref_dirty)) << line;
            ASSERT_EQ(cache_dirty, ref_dirty) << line;
            break;
          }
          case 2:
            ASSERT_EQ(cache.lookup(line), ref.lookup(line)) << line;
            break;
          case 3:
            cache.markDirty(line);
            ref.markDirty(line);
            break;
          case 4:
            cache.invalidate(line);
            ref.invalidate(line);
            break;
          default: {
            const bool write = rng.nextBool(0.3);
            ASSERT_EQ(cache.access(line, write), ref.access(line, write))
                << line;
            break;
          }
        }
    }

    void
    steps(size_t n)
    {
        for (size_t i = 0; i < n && !::testing::Test::HasFatalFailure();
             ++i) {
            step(0, geom.sets);
        }
    }

    /**
     * Compare whole states: evict every way of every set with fresh
     * lines, which reports each resident line (in PLRU victim order)
     * and its dirty bit. Destroys the contents.
     */
    void
    drainAndCompare()
    {
        const uint64_t fresh_tag = (1ULL << 56) / geom.sets;
        for (uint64_t set = 0; set < geom.sets; ++set) {
            for (uint32_t w = 0; w < geom.ways; ++w) {
                const uint64_t line = (fresh_tag + w) * geom.sets + set;
                bool cache_dirty = false, ref_dirty = false;
                ASSERT_EQ(cache.fill(line, false, cache_dirty),
                          ref.fill(line, false, ref_dirty))
                    << "set " << set << " way " << w;
                ASSERT_EQ(cache_dirty, ref_dirty)
                    << "set " << set << " way " << w;
            }
        }
    }

    Cache cache;
    ReferenceCache ref;
    Geometry geom;
    Rng rng;
};

TEST(CacheDifferential, RandomStreamsMatchReference)
{
    for (const Geometry &g : kGeometries) {
        SCOPED_TRACE(std::to_string(g.sets) + "x" + std::to_string(g.ways));
        Differential d(g, 0xCAC4E + g.sets * 31 + g.ways);
        d.steps(40 * g.sets * g.ways + 2000);
        ASSERT_FALSE(::testing::Test::HasFatalFailure());
        d.drainAndCompare();
    }
}

TEST(CacheDifferential, ResetsThatShrinkAndGrowMatchReference)
{
    // Start big, shrink to every smaller geometry and grow back, with
    // same-geometry resets in between, so reused storage holds ways and
    // stamps of earlier, larger geometries.
    const Geometry order[] = {
        {4096, 16}, {64, 4}, {1, 1}, {256, 8}, {256, 8}, {1, 4},
        {4096, 16}, {64, 4}, {4096, 16}, {1, 1}, {64, 4}, {256, 8}};
    Differential d(order[0], 77);
    for (const Geometry &g : order) {
        SCOPED_TRACE(std::to_string(g.sets) + "x" + std::to_string(g.ways));
        d.reset(g);
        d.steps(4 * g.sets * g.ways + 500);
        ASSERT_FALSE(::testing::Test::HasFatalFailure());
        d.drainAndCompare();
        ASSERT_FALSE(::testing::Test::HasFatalFailure());
    }
}

TEST(CacheDifferential, MoreResetsThanTheStampCountsMatchReference)
{
    // Set 63 is filled, then left alone for more resets than a 16-bit
    // epoch stamp can count (with the other sets busy in between), then
    // probed: its old lines must be gone however many resets passed.
    const Geometry g{64, 4};
    Differential d(g, 91);
    const uint64_t kStampPeriod = 1ULL << 16;
    for (uint64_t extra : {0, 1, 2, 97}) {
        SCOPED_TRACE("resets " + std::to_string(kStampPeriod - 1 + extra));
        for (uint32_t w = 0; w < g.ways; ++w) {
            bool dirty = false;
            d.cache.fill(w * g.sets + 63, true, dirty);
            d.ref.fill(w * g.sets + 63, true, dirty);
        }
        for (uint64_t r = 0; r < kStampPeriod - 1 + extra; ++r) {
            d.reset(g);
            d.step(0, 63);
            ASSERT_FALSE(::testing::Test::HasFatalFailure());
        }
        for (uint32_t w = 0; w < g.ways; ++w)
            ASSERT_EQ(d.cache.lookup(w * g.sets + 63),
                      d.ref.lookup(w * g.sets + 63));
        for (int i = 0; i < 200; ++i)
            d.step(0, g.sets);
        ASSERT_FALSE(::testing::Test::HasFatalFailure());
        d.drainAndCompare();
        ASSERT_FALSE(::testing::Test::HasFatalFailure());
    }
}

TEST(Cache, HitAfterFill)
{
    Cache cache(16 * 1024, 4);
    EXPECT_FALSE(cache.lookup(100));
    EXPECT_FALSE(cache.access(100, false));
    EXPECT_TRUE(cache.lookup(100));
    EXPECT_TRUE(cache.access(100, false));
}

TEST(Cache, DirectMappedConflict)
{
    Cache cache(64 * 64, 1);    // 64 sets, direct mapped
    EXPECT_FALSE(cache.access(0, false));
    EXPECT_FALSE(cache.access(64, false));  // same set, evicts line 0
    EXPECT_FALSE(cache.lookup(0));
    EXPECT_TRUE(cache.lookup(64));
}

TEST(Cache, PlruProtectsRecentlyUsed)
{
    Cache cache(4 * 64, 4);     // one set, 4 ways
    for (uint64_t line = 0; line < 4; ++line)
        cache.access(line, false);
    // Touch line 0 (most recent), then insert a new line.
    EXPECT_TRUE(cache.access(0, false));
    cache.access(10, false);
    EXPECT_TRUE(cache.lookup(0)) << "MRU line must survive";
    EXPECT_TRUE(cache.lookup(10));
}

TEST(Cache, PlruEvictsApproximateLru)
{
    Cache cache(4 * 64, 4);
    for (uint64_t line = 0; line < 4; ++line)
        cache.access(line, false);
    // Touch 1, 2, 3: line 0 becomes the PLRU victim.
    cache.access(1, false);
    cache.access(2, false);
    cache.access(3, false);
    cache.access(20, false);
    EXPECT_FALSE(cache.lookup(0));
}

TEST(Cache, DirtyEvictionReported)
{
    Cache cache(64, 1);         // one line total
    bool dirty = false;
    cache.fill(1, true, dirty);
    EXPECT_FALSE(dirty);
    const uint64_t victim = cache.fill(2, false, dirty);
    EXPECT_EQ(victim, 1u);
    EXPECT_TRUE(dirty);
}

TEST(Cache, InvalidateDropsLine)
{
    Cache cache(16 * 1024, 4);
    cache.access(5, false);
    cache.invalidate(5);
    EXPECT_FALSE(cache.lookup(5));
}

TEST(Cache, FillExistingLineKeepsSingleCopy)
{
    Cache cache(4 * 64, 4);
    bool dirty = false;
    cache.fill(7, false, dirty);
    cache.fill(7, true, dirty);
    // Fill three more; all four coexist => 7 occupied one way only.
    cache.fill(1, false, dirty);
    cache.fill(2, false, dirty);
    cache.fill(3, false, dirty);
    EXPECT_TRUE(cache.lookup(7));
    EXPECT_TRUE(cache.lookup(1));
    EXPECT_TRUE(cache.lookup(2));
    EXPECT_TRUE(cache.lookup(3));
}

TEST(Hierarchy, LevelsServeInOrder)
{
    MemoryConfig config;
    DataHierarchy h(config);
    // Cold access: RAM. Second: L1.
    EXPECT_EQ(h.access(0x1000, 0x400000, false), CacheLevel::Ram);
    EXPECT_EQ(h.access(0x1000, 0x400000, false), CacheLevel::L1);
    EXPECT_EQ(h.stats().ramAccesses, 1u);
    EXPECT_EQ(h.stats().l1Hits, 1u);
}

TEST(Hierarchy, L2HitAfterL1Eviction)
{
    MemoryConfig config;
    config.l1dKb = 16;          // 256 lines, 64 sets x 4 ways
    DataHierarchy h(config);
    // Fill a set-conflicting series of non-sequential lines.
    const uint64_t set_stride = 64 * 64;    // same set each time
    for (int i = 0; i < 8; ++i)
        h.access(0x1000, 0x1000000 + 2 * i * set_stride, false);
    // The first line fell out of L1 but must still be in L2.
    const CacheLevel level = h.access(0x1000, 0x1000000, false);
    EXPECT_EQ(level, CacheLevel::L2);
}

TEST(Hierarchy, SequentialStreamsBypassL2Allocation)
{
    MemoryConfig config;
    DataHierarchy h(config);
    // Pin a hot line into L2 (non-sequential accesses).
    h.access(0x10, 0x8000000, false);
    // A long sequential sweep (> L2 capacity) must not evict it.
    for (uint64_t i = 0; i < (8ULL << 20) / 64; ++i)
        h.access(0x20, 0x10000000 + i * 64, false);
    // Evict from L1 by conflict; then the hot line should hit in L2.
    // (Verify it was not flushed by the stream.)
    const HierarchyStats before = h.stats();
    (void)before;
    // Direct probe: re-access; it may be L1 or L2, never RAM.
    const CacheLevel level = h.access(0x10, 0x8000000, false);
    EXPECT_NE(level, CacheLevel::Ram);
}

TEST(Prefetcher, DetectsConstantStride)
{
    StridePrefetcher pf(4);
    std::vector<uint64_t> out;
    const uint64_t pc = 0x4444;
    pf.observe(pc, 1000, out);
    EXPECT_TRUE(out.empty());
    pf.observe(pc, 1064, out);
    pf.observe(pc, 1128, out);
    pf.observe(pc, 1192, out);      // confidence reached
    ASSERT_EQ(out.size(), 4u);
    EXPECT_EQ(out[0], 1192u + 64);
    EXPECT_EQ(out[3], 1192u + 4 * 64);
}

TEST(Prefetcher, SubLineStridesCoverNextLines)
{
    StridePrefetcher pf(2);
    std::vector<uint64_t> out;
    for (int i = 0; i < 8; ++i)
        pf.observe(0x8, 5000 + i * 8, out);
    ASSERT_FALSE(out.empty());
    // Line-granular stepping: first prefetch at least one line ahead.
    EXPECT_GE(out[0], 5000u + 7 * 8 + 64);
}

TEST(Prefetcher, DisabledEmitsNothing)
{
    StridePrefetcher pf(0);
    std::vector<uint64_t> out;
    for (int i = 0; i < 10; ++i)
        pf.observe(0x8, 1000 + i * 64, out);
    EXPECT_TRUE(out.empty());
    EXPECT_FALSE(pf.enabled());
}

TEST(Prefetcher, RandomAccessesStayQuiet)
{
    StridePrefetcher pf(4);
    std::vector<uint64_t> out;
    Rng rng(5);
    size_t total = 0;
    for (int i = 0; i < 1000; ++i) {
        pf.observe(0x8, rng.next() % (1 << 30), out);
        total += out.size();
    }
    EXPECT_LT(total, 100u);
}

TEST(HierarchyPrefetch, StreamBecomesHitsWithPrefetchOn)
{
    MemoryConfig off;
    off.prefetchDegree = 0;
    MemoryConfig on;
    on.prefetchDegree = 4;
    DataHierarchy h_off(off), h_on(on);
    for (uint64_t i = 0; i < 4000; ++i) {
        h_off.access(0x100, 0x20000000 + i * 64, false);
        h_on.access(0x100, 0x20000000 + i * 64, false);
    }
    EXPECT_GT(h_on.stats().prefetchesIssued, 1000u);
    EXPECT_GT(h_on.stats().l1Hits, 4 * h_off.stats().l1Hits);
}

TEST(InstHierarchy, HitsAfterWarm)
{
    MemoryConfig config;
    InstHierarchy h(config);
    EXPECT_EQ(h.access(1000), CacheLevel::Ram);
    EXPECT_EQ(h.access(1001), CacheLevel::Ram);
    EXPECT_EQ(h.access(1000), CacheLevel::L1);
}

TEST(TimingMemory, L1HitLatency)
{
    MemoryConfig config;
    TimingMemory mem(config);
    mem.load(0x10, 0x5000, 0);              // miss, fills
    const MemResponse resp = mem.load(0x10, 0x5000, 1000);
    EXPECT_EQ(resp.level, CacheLevel::L1);
    EXPECT_EQ(resp.readyCycle, 1000u + loadLatency(CacheLevel::L1));
}

TEST(TimingMemory, SameLineMissesMerge)
{
    MemoryConfig config;
    TimingMemory mem(config);
    const MemResponse first = mem.load(0x10, 0x765000, 0);
    EXPECT_GE(first.readyCycle, TimingMemory::kDramLat);
    const MemResponse second = mem.load(0x20, 0x765008, 1);
    // Second load to the same in-flight line completes with the first,
    // never earlier (Algorithm 1's first principle in the ground truth).
    EXPECT_EQ(second.readyCycle, first.readyCycle);
}

TEST(TimingMemory, DramBandwidthSpacing)
{
    MemoryConfig config;
    TimingMemory mem(config);
    uint64_t prev = 0;
    for (int i = 0; i < 32; ++i) {
        const MemResponse resp =
            mem.load(0x10, 0x9000000 + i * 4096, 0);
        if (i > 0) {
            EXPECT_GE(resp.readyCycle, prev + TimingMemory::kDramGap);
        }
        prev = resp.readyCycle;
    }
}

TEST(TimingMemory, MshrLimitDelaysExcessMisses)
{
    MemoryConfig config;
    TimingMemory mem(config);
    // More concurrent misses than MSHRs: the tail must wait.
    uint64_t last = 0;
    for (int i = 0; i < TimingMemory::kMshrs + 8; ++i)
        last = mem.load(0x10, 0x9000000 + i * 4096, 0).readyCycle;
    EXPECT_GT(last, TimingMemory::kDramLat
              + (TimingMemory::kMshrs + 7) * TimingMemory::kDramGap);
}

TEST(TimingMemory, InstLineNeedsFillQuery)
{
    MemoryConfig config;
    TimingMemory mem(config);
    EXPECT_TRUE(mem.instLineNeedsFill(500, 0));
    const MemResponse resp = mem.fetchLine(500, 0);
    EXPECT_TRUE(resp.isFill);
    // While in flight, no new fill is needed.
    EXPECT_FALSE(mem.instLineNeedsFill(500, resp.readyCycle - 1));
    // After it lands, it is resident in L1i: still no fill.
    EXPECT_FALSE(mem.instLineNeedsFill(500, resp.readyCycle + 1));
}

TEST(TimingMemory, StoresUpdateState)
{
    MemoryConfig config;
    TimingMemory mem(config);
    mem.store(0x10, 0x345000, 0);
    const MemResponse resp = mem.load(0x20, 0x345000, 100);
    EXPECT_EQ(resp.level, CacheLevel::L1);
}

TEST(InflightFills, MatchesAMapAcrossGrowthAndClear)
{
    InflightFills table;
    const size_t initial_slots = table.slots();
    EXPECT_EQ(initial_slots, InflightFills::kInitialSlots);
    Rng rng(17);
    for (int round = 0; round < 3; ++round) {
        std::map<uint64_t, uint64_t> oracle;
        for (size_t i = 0; i < 3 * InflightFills::kInitialSlots; ++i) {
            const uint64_t line = rng.nextBounded(4000) * 977 + round;
            const uint64_t done = rng.next();
            table.set(line, done);
            oracle[line] = done;
        }
        EXPECT_EQ(table.size(), oracle.size());
        EXPECT_GT(table.slots(), initial_slots);
        for (uint64_t line = round; line < 4000 * 977; line += 977) {
            const uint64_t *done = table.find(line);
            const auto it = oracle.find(line);
            ASSERT_EQ(done != nullptr, it != oracle.end()) << line;
            if (done) {
                EXPECT_EQ(*done, it->second) << line;
            }
        }
        table.clear();
        EXPECT_EQ(table.size(), 0u);
        for (const auto &[line, done] : oracle)
            ASSERT_EQ(table.find(line), nullptr) << line;
    }
}

/** Everything a TimingMemory run returns, in order. */
struct MemTrace
{
    std::vector<uint64_t> ready;
    std::vector<int> levels;
    std::vector<uint8_t> fills;
    HierarchyStats d;
    HierarchyStats i;
};

/**
 * A seeded stream of loads (strided streams per pc, so the prefetcher
 * fires when on, plus scattered lines), stores, instruction fetches and
 * fill queries at non-decreasing cycles, missing on several thousand
 * distinct data lines and over a thousand instruction lines.
 */
MemTrace
replay(TimingMemory &mem, uint64_t seed)
{
    MemTrace out;
    auto record = [&](const MemResponse &r) {
        out.ready.push_back(r.readyCycle);
        out.levels.push_back(static_cast<int>(r.level));
        out.fills.push_back(r.isFill ? 1 : 0);
    };
    Rng rng(seed);
    uint64_t cycle = 0;
    uint64_t stream[4] = {0x10000000, 0x20000000, 0x30000000, 0x40000000};
    for (int n = 0; n < 12000; ++n) {
        cycle += rng.nextBounded(3);
        switch (rng.nextBounded(5)) {
          case 0: {
            const uint64_t s = rng.nextBounded(4);
            stream[s] += 64;
            record(mem.load(0x100 + s * 4, stream[s], cycle));
            break;
          }
          case 1:
            record(mem.load(0x200, 0x50000000 + rng.nextBounded(6000) * 64,
                            cycle));
            break;
          case 2:
            mem.store(0x300, 0x60000000 + rng.nextBounded(3000) * 64,
                      cycle);
            break;
          case 3: {
            const uint64_t line = 0x9000 + rng.nextBounded(2500);
            out.fills.push_back(mem.instLineNeedsFill(line, cycle));
            record(mem.fetchLine(line, cycle));
            break;
          }
          default:
            record(mem.load(0x400, 0x50000000 + rng.nextBounded(64) * 64,
                            cycle));
            break;
        }
    }
    out.d = mem.dataStats();
    out.i = mem.instStats();
    return out;
}

void
expectSameStats(const HierarchyStats &a, const HierarchyStats &b)
{
    EXPECT_EQ(a.l1Hits, b.l1Hits);
    EXPECT_EQ(a.l2Hits, b.l2Hits);
    EXPECT_EQ(a.llcHits, b.llcHits);
    EXPECT_EQ(a.ramAccesses, b.ramAccesses);
    EXPECT_EQ(a.prefetchesIssued, b.prefetchesIssued);
    EXPECT_EQ(a.writebacks, b.writebacks);
}

void
expectSameTrace(const MemTrace &a, const MemTrace &b)
{
    EXPECT_EQ(a.ready, b.ready);
    EXPECT_EQ(a.levels, b.levels);
    EXPECT_EQ(a.fills, b.fills);
    expectSameStats(a.d, b.d);
    expectSameStats(a.i, b.i);
}

TEST(TimingMemory, ResetReplaysLikeAFreshInstance)
{
    MemoryConfig small;
    small.l1dKb = 16;
    small.l1iKb = 16;
    small.l2Kb = 512;
    small.prefetchDegree = 4;
    MemoryConfig big;
    big.l1dKb = 256;
    big.l1iKb = 128;
    big.l2Kb = 4096;

    TimingMemory fresh_small(small);
    const MemTrace expected_small = replay(fresh_small, 5);
    TimingMemory fresh_big(big);
    const MemTrace expected_big = replay(fresh_big, 6);
    // The stream misses on more distinct lines than the in-flight
    // tables start with, so both grew before the resets below.
    EXPECT_GT(expected_small.d.ramAccesses + expected_small.d.llcHits
                  + expected_small.d.l2Hits,
              InflightFills::kInitialSlots);
    EXPECT_GT(expected_small.i.ramAccesses, InflightFills::kInitialSlots);

    TimingMemory mem(small);
    expectSameTrace(replay(mem, 5), expected_small);
    mem.reset(big);
    expectSameTrace(replay(mem, 6), expected_big);
    mem.reset(small);
    expectSameTrace(replay(mem, 5), expected_small);
    mem.reset(small);
    expectSameTrace(replay(mem, 5), expected_small);
}

TEST(MemoryConfig, KeysDistinguishConfigs)
{
    const auto d_configs = allDataConfigs();
    EXPECT_EQ(d_configs.size(), 40u);
    std::set<uint32_t> keys;
    for (const auto &config : d_configs)
        keys.insert(config.dSideKey());
    EXPECT_EQ(keys.size(), 40u);

    const auto i_configs = allInstConfigs();
    EXPECT_EQ(i_configs.size(), 20u);
    std::set<uint32_t> ikeys;
    for (const auto &config : i_configs)
        ikeys.insert(config.iSideKey());
    EXPECT_EQ(ikeys.size(), 20u);
}

class CacheSizeSweep : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(CacheSizeSweep, BiggerL1NeverHitsLess)
{
    // Property: on a zipf-random access stream, a larger L1d yields at
    // least as many L1 hits.
    const uint32_t kb = GetParam();
    if (kb == 16)
        return;     // compared against the next smaller size
    MemoryConfig small_cfg, big_cfg;
    small_cfg.l1dKb = kb / 2;
    big_cfg.l1dKb = kb;
    DataHierarchy small_h(small_cfg), big_h(big_cfg);
    Rng rng(kb);
    for (int i = 0; i < 40000; ++i) {
        const uint64_t line = rng.nextZipf(16384, 1.0);
        small_h.access(0x10, line * 64, false);
        big_h.access(0x10, line * 64, false);
    }
    EXPECT_GE(big_h.stats().l1Hits, small_h.stats().l1Hits);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CacheSizeSweep,
                         ::testing::Values(16, 32, 64, 128, 256));

} // anonymous namespace
} // namespace concorde
