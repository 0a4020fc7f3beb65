/**
 * @file
 * Tests for the generic set-associative cache model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <utility>
#include <vector>

#include "cache/set_assoc_cache.hh"
#include "sim/random.hh"

namespace vstream
{
namespace
{

CacheConfig
tinyCache(std::uint32_t size = 1024, std::uint32_t assoc = 2)
{
    CacheConfig cfg;
    cfg.size_bytes = size;
    cfg.line_bytes = 64;
    cfg.assoc = assoc;
    return cfg;
}

TEST(CacheConfig, Geometry)
{
    const CacheConfig cfg = tinyCache();
    EXPECT_EQ(cfg.numLines(), 16u);
    EXPECT_EQ(cfg.numSets(), 8u);
    cfg.validate();
}

TEST(CacheConfigDeath, NonPow2Sets)
{
    CacheConfig cfg = tinyCache(1024, 1);
    cfg.size_bytes = 64 * 12; // 12 sets
    EXPECT_DEATH(cfg.validate(), "power of two");
}

TEST(Cache, MissThenHit)
{
    SetAssocCache c("c", tinyCache());
    const auto first = c.access(0, 64);
    EXPECT_EQ(first.misses, 1u);
    EXPECT_EQ(first.fills.size(), 1u);
    const auto second = c.access(0, 64);
    EXPECT_EQ(second.hits, 1u);
    EXPECT_TRUE(second.fills.empty());
    EXPECT_EQ(c.hitCount(), 1u);
    EXPECT_EQ(c.missCount(), 1u);
    EXPECT_DOUBLE_EQ(c.missRate(), 0.5);
}

TEST(Cache, MultiLineAccessCountsEachLine)
{
    SetAssocCache c("c", tinyCache());
    // 100 bytes starting at 60 spans lines 0,1,2.
    const auto s = c.access(60, 100);
    EXPECT_EQ(s.lines, 3u);
    EXPECT_EQ(s.misses, 3u);
}

TEST(Cache, LruEvictsOldest)
{
    // 2-way: fill a set with 2 lines, touch the first, insert a
    // third; the second (least recent) must be the victim.
    SetAssocCache c("c", tinyCache(1024, 2));
    const Addr set_stride = 8 * 64; // sets * line
    c.access(0, 64);              // A
    c.access(set_stride, 64);     // B, same set
    c.access(0, 64);              // touch A
    c.access(2 * set_stride, 64); // C evicts B
    EXPECT_TRUE(c.contains(0));
    EXPECT_FALSE(c.contains(set_stride));
    EXPECT_TRUE(c.contains(2 * set_stride));
    EXPECT_EQ(c.evictionCount(), 1u);
}

TEST(Cache, InvalidateDropsEverything)
{
    SetAssocCache c("c", tinyCache());
    c.access(0, 64);
    c.access(64, 64);
    c.invalidateAll();
    EXPECT_FALSE(c.contains(0));
    EXPECT_FALSE(c.contains(64));
    EXPECT_EQ(c.access(0, 64).fills, (std::vector<Addr>{0}));
}

TEST(Cache, ContainsDoesNotPerturb)
{
    SetAssocCache c("c", tinyCache());
    c.access(0, 64);
    const auto hits_before = c.hitCount();
    EXPECT_TRUE(c.contains(0));
    EXPECT_FALSE(c.contains(1 << 20));
    EXPECT_EQ(c.hitCount(), hits_before);
}

TEST(Cache, StreamingWorkingSetLargerThanCacheThrashes)
{
    SetAssocCache c("c", tinyCache(1024, 2));
    // Two passes over 4 KB > 1 KB cache: second pass misses too.
    for (int pass = 0; pass < 2; ++pass) {
        for (Addr a = 0; a < 4096; a += 64) {
            c.access(a, 64);
        }
    }
    EXPECT_GT(c.missRate(), 0.9);
}

TEST(Cache, SmallWorkingSetFitsAfterWarmup)
{
    SetAssocCache c("c", tinyCache(1024, 2));
    for (int pass = 0; pass < 10; ++pass) {
        for (Addr a = 0; a < 512; a += 64) {
            c.access(a, 64);
        }
    }
    // 8 cold misses out of 80 accesses.
    EXPECT_NEAR(c.missRate(), 0.1, 1e-9);
}

class AssocSweep : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(AssocSweep, HigherAssociativityNeverHurtsThisPattern)
{
    // A cyclic pattern over assoc+? lines in one set region.
    const std::uint32_t assoc = GetParam();
    SetAssocCache c("c", tinyCache(4096, assoc));
    const std::uint32_t sets = c.config().numSets();
    // Touch `assoc` lines mapping to set 0 repeatedly: always fits.
    for (int pass = 0; pass < 5; ++pass) {
        for (std::uint32_t w = 0; w < assoc; ++w) {
            c.access(static_cast<Addr>(w) * sets * 64, 64);
        }
    }
    EXPECT_EQ(c.missCount(), assoc);
}

INSTANTIATE_TEST_SUITE_P(Ways, AssocSweep,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u));

class SizeSweep : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(SizeSweep, MissRateMonotoneInSizeForLoopingPattern)
{
    // Fig. 7a's premise: bigger caches help looping (compute-side)
    // access patterns.
    const std::uint32_t size_kb = GetParam();
    SetAssocCache c("c", tinyCache(size_kb * 1024, 4));
    for (int pass = 0; pass < 4; ++pass) {
        for (Addr a = 0; a < 64 * 1024; a += 64) {
            c.access(a, 64);
        }
    }
    RecordProperty("missRate", c.missRate());
    if (size_kb >= 64) {
        EXPECT_NEAR(c.missRate(), 0.25, 0.01); // cold misses only
    } else {
        EXPECT_GT(c.missRate(), 0.9);
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SizeSweep,
                         ::testing::Values(16u, 32u, 64u, 128u));

/**
 * Naive reference for the documented cache policy: every lookup scans
 * every way, and every hit refreshes the LRU stamp.  It shares no
 * code with SetAssocCache.
 */
class ReferenceCache
{
  public:
    explicit ReferenceCache(const CacheConfig &cfg)
        : cfg_(cfg), sets_(cfg.numSets()), ways_(cfg.numLines()),
          last_way_(sets_, 0)
    {
    }

    CacheAccessSummary
    access(Addr addr, std::uint32_t size)
    {
        CacheAccessSummary s;
        const Addr first = addr / cfg_.line_bytes;
        const Addr last = (addr + size - 1) / cfg_.line_bytes;
        for (Addr ln = first; ln <= last; ++ln) {
            ++s.lines;
            if (accessLine(ln, s)) {
                ++s.hits;
                ++hits_;
            } else {
                ++s.misses;
                ++misses_;
            }
        }
        return s;
    }

    std::uint64_t
    invalidateRange(Addr addr, std::uint64_t size)
    {
        if (size == 0) {
            return 0;
        }
        const Addr first = addr / cfg_.line_bytes;
        const Addr last = (addr + size - 1) / cfg_.line_bytes;
        std::uint64_t n = 0;
        for (Way &w : ways_) {
            if (w.valid && w.line >= first && w.line <= last) {
                w.valid = false;
                ++n;
            }
        }
        return n;
    }

    void
    invalidateAll()
    {
        for (Way &w : ways_) {
            w.valid = false;
        }
    }

    bool
    contains(Addr addr) const
    {
        const Addr ln = addr / cfg_.line_bytes;
        for (std::uint32_t w = 0; w < cfg_.assoc; ++w) {
            const Way &way = ways_[index(ln % sets_, w)];
            if (way.valid && way.line == ln) {
                return true;
            }
        }
        return false;
    }

    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
    /** Hits on the way the set last hit or filled, and elsewhere. */
    std::uint64_t repeat_way_hits_ = 0;
    std::uint64_t other_way_hits_ = 0;

  private:
    struct Way
    {
        bool valid = false;
        Addr line = 0;
        std::uint64_t stamp = 0;
    };

    std::size_t
    index(Addr set, std::uint32_t way) const
    {
        return static_cast<std::size_t>(set) * cfg_.assoc + way;
    }

    bool
    accessLine(Addr ln, CacheAccessSummary &s)
    {
        const Addr set = ln % sets_;
        for (std::uint32_t w = 0; w < cfg_.assoc; ++w) {
            Way &way = ways_[index(set, w)];
            if (way.valid && way.line == ln) {
                ++(last_way_[set] == w ? repeat_way_hits_
                                       : other_way_hits_);
                last_way_[set] = w;
                way.stamp = ++clock_;
                return true;
            }
        }
        std::uint32_t victim = cfg_.assoc;
        for (std::uint32_t w = 0; w < cfg_.assoc; ++w) {
            if (!ways_[index(set, w)].valid) {
                victim = w;
                break;
            }
        }
        if (victim == cfg_.assoc) {
            victim = 0;
            for (std::uint32_t w = 1; w < cfg_.assoc; ++w) {
                if (ways_[index(set, w)].stamp <
                    ways_[index(set, victim)].stamp) {
                    victim = w;
                }
            }
            ++evictions_;
        }
        last_way_[set] = victim;
        Way &way = ways_[index(set, victim)];
        way.valid = true;
        way.line = ln;
        way.stamp = ++clock_;
        s.fills.push_back(ln * cfg_.line_bytes);
        return false;
    }

    CacheConfig cfg_;
    std::uint32_t sets_;
    std::vector<Way> ways_;
    std::vector<std::uint32_t> last_way_;
    std::uint64_t clock_ = 0;
};

/**
 * A read goes the way VideoDecoder::readThroughCache sends it: the
 * whole-region MRU-hit check first, accessInto() when that fails.
 */
void
accessLikeDecoder(SetAssocCache &cache, Addr addr, std::uint32_t size,
                  CacheAccessSummary &got)
{
    const std::uint64_t hits = cache.hitCount();
    if (cache.tryMruReadHit(addr, size)) {
        got.lines = static_cast<std::uint32_t>(cache.hitCount() - hits);
        got.hits = got.lines;
        got.misses = 0;
        got.fills.clear();
        return;
    }
    cache.accessInto(addr, size, got);
}

/** Parameter: associativity. */
class CacheDifferential : public ::testing::TestWithParam<std::uint32_t>
{
};

/**
 * Differential replay: a seeded random trace of reads, multi-line
 * ranges and invalidations against ReferenceCache.  The trace
 * revisits recent lines often (so hits land on the MRU way and on
 * other ways) and strays far enough to force evictions.
 */
TEST_P(CacheDifferential, MatchesNaiveReferenceOnRandomTrace)
{
    const std::uint32_t assoc = GetParam();
    const CacheConfig cfg = tinyCache(2048, assoc);
    SetAssocCache cache("c", cfg);
    ReferenceCache ref(cfg);
    CacheAccessSummary got;

    Random rng(0xd1ffULL + assoc);
    const Addr space = 8 * cfg.size_bytes;
    Addr cursor = 0;
    for (int op = 0; op < 12000; ++op) {
        const std::uint64_t kind = rng.uniformInt(0, 999);
        if (kind < 10) {
            // Up to twice the cache: exercises both the per-line and
            // the whole-cache walk of invalidateRange.
            const Addr at = rng.uniformInt(0, space - 1);
            const std::uint64_t len =
                rng.uniformInt(0, 2 * cfg.size_bytes);
            ASSERT_EQ(cache.invalidateRange(at, len),
                      ref.invalidateRange(at, len))
                << "op " << op;
            continue;
        }
        if (kind < 14) {
            cache.invalidateAll();
            ref.invalidateAll();
            continue;
        }
        // Mostly near the last access, sometimes anywhere.
        if (rng.uniformInt(0, 3) == 0) {
            cursor = rng.uniformInt(0, space - 1);
        } else {
            cursor = (cursor + rng.uniformInt(0, 256)) % space;
        }
        const auto size =
            static_cast<std::uint32_t>(rng.uniformInt(1, 300));
        cache.accessInto(cursor, size, got);
        const CacheAccessSummary want = ref.access(cursor, size);
        ASSERT_EQ(got.lines, want.lines) << "op " << op;
        ASSERT_EQ(got.hits, want.hits) << "op " << op;
        ASSERT_EQ(got.misses, want.misses) << "op " << op;
        ASSERT_EQ(got.fills, want.fills) << "op " << op;
    }

    // The trace hit both the repeat way and the other ways (with one
    // way there are no others), and evicted.
    EXPECT_GT(ref.repeat_way_hits_, 1000u);
    if (assoc > 1) {
        EXPECT_GT(ref.other_way_hits_, 100u);
    }
    EXPECT_GT(ref.evictions_, 100u);
    EXPECT_EQ(cache.hitCount(), ref.hits_);
    EXPECT_EQ(cache.missCount(), ref.misses_);
    EXPECT_EQ(cache.evictionCount(), ref.evictions_);
    for (Addr a = 0; a < space; a += cfg.line_bytes) {
        ASSERT_EQ(cache.contains(a), ref.contains(a)) << "addr " << a;
    }
}

/**
 * Differential replay aimed at region mode (four-line regions, or one
 * group of every set when there are fewer): most reads repeat one of
 * a few recent regions, interleaved with reads of other sets,
 * same-set conflicts that evict region lines, invalidateRange and
 * invalidateAll.  Every result must match ReferenceCache, and
 * lockstep groups must have answered a good share of the repeats.
 */
TEST_P(CacheDifferential, RepeatedReadRegionsMatchReference)
{
    const std::uint32_t assoc = GetParam();
    const CacheConfig cfg = tinyCache(2048, assoc);
    const std::uint32_t region_lines =
        std::min<std::uint32_t>(4, cfg.numSets());
    const Addr region_bytes = Addr{region_lines} * cfg.line_bytes;
    SetAssocCache cache("c", cfg, region_lines);
    ReferenceCache ref(cfg);
    CacheAccessSummary got;

    const Addr sets = cfg.numSets();
    const Addr space = 8 * cfg.size_bytes;
    struct Region
    {
        Addr addr = 0;
        std::uint32_t size = 1;
    };
    std::vector<Region> recent(3);
    Random rng(0x4e90ULL + assoc);
    for (int op = 0; op < 12000; ++op) {
        const std::uint64_t kind = rng.uniformInt(0, 99);
        Region &region = recent[rng.uniformInt(0, recent.size() - 1)];
        if (kind < 2) {
            const Addr at = rng.uniformInt(0, 1) == 0
                                ? region.addr
                                : rng.uniformInt(0, space - 1);
            const std::uint64_t len = rng.uniformInt(1, 512);
            ASSERT_EQ(cache.invalidateRange(at, len),
                      ref.invalidateRange(at, len))
                << "op " << op;
            continue;
        }
        if (kind < 4) {
            cache.invalidateAll();
            ref.invalidateAll();
            continue;
        }

        Addr addr = region.addr;
        std::uint32_t size = region.size;
        if (kind < 14) {
            // A new region of up to a few lines, or (3 in 4) one or
            // two whole aligned regions.
            if (rng.uniformInt(0, 3) == 0) {
                region.addr = rng.uniformInt(0, space - 1);
                region.size = static_cast<std::uint32_t>(
                    rng.uniformInt(1, sets * cfg.line_bytes));
            } else {
                region.addr =
                    rng.uniformInt(0, space - 1) & ~(region_bytes - 1);
                region.size = static_cast<std::uint32_t>(
                    rng.uniformInt(1, 2) * region_bytes);
            }
            addr = region.addr;
            size = region.size;
        } else if (kind < 24) {
            // Elsewhere: other sets.
            addr = rng.uniformInt(0, space - 1);
            size = static_cast<std::uint32_t>(rng.uniformInt(1, 200));
        } else if (kind < 34) {
            // Same set as the region's first line, another tag.
            addr = (region.addr +
                    rng.uniformInt(1, 8) * sets * cfg.line_bytes) %
                   space;
            size = static_cast<std::uint32_t>(rng.uniformInt(1, 64));
        }
        if (kind >= 14 && kind < 34 && rng.uniformInt(0, 3) != 0) {
            // Three in four of those as one whole region.
            addr &= ~(region_bytes - 1);
            size = static_cast<std::uint32_t>(region_bytes);
        }
        accessLikeDecoder(cache, addr, size, got);
        const CacheAccessSummary want = ref.access(addr, size);
        ASSERT_EQ(got.lines, want.lines) << "op " << op;
        ASSERT_EQ(got.hits, want.hits) << "op " << op;
        ASSERT_EQ(got.misses, want.misses) << "op " << op;
        ASSERT_EQ(got.fills, want.fills) << "op " << op;
    }

    EXPECT_GT(cache.lockstepAccesses(), 500u);
    EXPECT_GT(ref.evictions_, 100u);
    EXPECT_EQ(cache.hitCount(), ref.hits_);
    EXPECT_EQ(cache.missCount(), ref.misses_);
    EXPECT_EQ(cache.evictionCount(), ref.evictions_);
    for (Addr a = 0; a < space; a += cfg.line_bytes) {
        ASSERT_EQ(cache.contains(a), ref.contains(a)) << "addr " << a;
    }
}

INSTANTIATE_TEST_SUITE_P(Ways, CacheDifferential,
                         ::testing::Values(1u, 2u, 4u, 8u));

/**
 * A region-mode cache (8 KB, 4 ways, 64 B lines: four groups of
 * eight sets, 512 B regions) beside ReferenceCache, for the DMA
 * invalidations the decoder makes on each frame's slot.
 */
class RegionInvalidation : public ::testing::Test
{
  protected:
    static constexpr Addr kRegion = 512;

    static CacheConfig
    cfg()
    {
        return tinyCache(8192, 4);
    }

    /** Read whole region @p r through both caches; last_mru_ says
     * whether tryMruReadHit answered it. */
    void
    readRegion(Addr r)
    {
        const std::uint64_t mru_hits = cache_.lockstepAccesses();
        last_mru_ = cache_.tryMruReadHit(r * kRegion, kRegion);
        if (last_mru_) {
            ASSERT_EQ(cache_.lockstepAccesses(), mru_hits + 1);
            got_.hits = static_cast<std::uint32_t>(kRegion / 64);
            got_.fills.clear();
        } else {
            cache_.accessInto(r * kRegion, kRegion, got_);
        }
        const CacheAccessSummary want = ref_.access(r * kRegion, kRegion);
        ASSERT_EQ(got_.hits, want.hits) << "region " << r;
        ASSERT_EQ(got_.fills, want.fills) << "region " << r;
    }

    void
    invalidate(Addr addr, std::uint64_t size)
    {
        ASSERT_EQ(cache_.invalidateRange(addr, size),
                  ref_.invalidateRange(addr, size))
            << "[" << addr << ", +" << size << ")";
    }

    /** Every counter and every line agree with the reference. */
    void
    expectSameState()
    {
        EXPECT_EQ(cache_.hitCount(), ref_.hits_);
        EXPECT_EQ(cache_.missCount(), ref_.misses_);
        EXPECT_EQ(cache_.evictionCount(), ref_.evictions_);
        for (Addr a = 0; a < 64 * kRegion; a += 64) {
            ASSERT_EQ(cache_.contains(a), ref_.contains(a)) << a;
        }
    }

    SetAssocCache cache_{"vd", cfg(), kRegion / 64};
    ReferenceCache ref_{cfg()};
    CacheAccessSummary got_;
    bool last_mru_ = false;
};

TEST_F(RegionInvalidation, WholeRegionRangeKeepsLockstep)
{
    // Regions 0..15: region r sits in group r % 4, one way each.
    for (Addr r = 0; r < 16; ++r) {
        readRegion(r);
    }
    // Regions 2, 3 and 4 whole (24 lines, the range path).
    invalidate(2 * kRegion, 3 * kRegion);
    EXPECT_EQ(cache_.copyOuts(), 0u);
    // 64 B-aligned edges inside regions 40 and 41, which are not
    // resident: no set would change, so nothing copies out.
    invalidate(40 * kRegion + 64, kRegion);
    EXPECT_EQ(cache_.copyOuts(), 0u);
    // Groups 2, 3 and 0 kept lockstep: their MRU regions (14, 15,
    // 12) are still answered by one check each.
    for (Addr r : {Addr{12}, Addr{14}, Addr{15}}) {
        ASSERT_NO_FATAL_FAILURE(readRegion(r));
        EXPECT_TRUE(last_mru_) << r;
    }
    // A dropped region misses, refills on the lockstep group and is
    // then the group's MRU hit.
    ASSERT_NO_FATAL_FAILURE(readRegion(2));
    EXPECT_FALSE(last_mru_);
    EXPECT_EQ(got_.fills.size(), 8u);
    ASSERT_NO_FATAL_FAILURE(readRegion(2));
    EXPECT_TRUE(last_mru_);
    EXPECT_EQ(cache_.copyOuts(), 0u);
    expectSameState();
}

TEST_F(RegionInvalidation, WholeCacheWalkKeepsLockstep)
{
    // Regions 0..7 and 16..23: four per group, two tags each.
    for (Addr r = 0; r < 24; ++r) {
        if (r < 8 || r >= 16) {
            readRegion(r);
        }
    }
    // [0, 8 KB) is the whole cache's size: the whole-cache walk.
    // Regions 0..7 lie wholly inside it, 16..23 wholly outside.
    invalidate(0, 16 * kRegion);
    EXPECT_EQ(cache_.copyOuts(), 0u);
    for (Addr r = 20; r < 24; ++r) {
        ASSERT_NO_FATAL_FAILURE(readRegion(r));
        EXPECT_TRUE(last_mru_) << r;
    }
    for (Addr r = 0; r < 8; ++r) {
        EXPECT_FALSE(cache_.contains(r * kRegion)) << r;
        ASSERT_NO_FATAL_FAILURE(readRegion(r));
    }
    EXPECT_EQ(cache_.copyOuts(), 0u);
    expectSameState();
}

TEST_F(RegionInvalidation, SplitRegionStillCopiesOut)
{
    for (Addr r = 0; r < 24; ++r) {
        if (r < 8 || r >= 16) {
            readRegion(r);
        }
    }
    // 64 B-aligned edges inside regions 2 and 3: two groups split.
    invalidate(2 * kRegion + 64, kRegion);
    EXPECT_EQ(cache_.copyOuts(), 2u);
    // The whole-cache walk, its edges inside regions 0 and 16:
    // both in group 0, which copies out once.
    invalidate(64, 16 * kRegion);
    EXPECT_EQ(cache_.copyOuts(), 3u);
    // Group 1 has no split region and stays in lockstep.
    ASSERT_NO_FATAL_FAILURE(readRegion(21));
    EXPECT_TRUE(last_mru_);
    for (Addr r = 0; r < 24; ++r) {
        ASSERT_NO_FATAL_FAILURE(readRegion(r));
    }
    expectSameState();
}

/** Parameter: (cache KB, ways, line bytes). */
class RegionDifferential
    : public ::testing::TestWithParam<
          std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>>
{
};

/**
 * Differential replay of VD-shaped traces through a region-mode cache
 * with 512 B regions (the decoder's read-prefetch granularity):
 *
 *  - per mab, an encoded-stream read walking a ring and (outside I
 *    frames) a motion-compensation read near the same mab of the
 *    previous frame's slot, each widened to one or two whole regions
 *    and sent the decoder's way (accessLikeDecoder);
 *  - once per frame, the invalidation of the slot being written, at a
 *    64 B-aligned base that is not region-aligned: the whole slot,
 *    larger than the cache, or a quarter of it;
 *  - now and then partial invalidateRange at 64 B-aligned edges (a
 *    few larger than the cache), an unwidened read, whole-region
 *    reads anywhere in either slot, and invalidateAll.
 *
 * Every op must match ReferenceCache: the summary (lines, hits,
 * misses, fills), the invalidation count, and every counter; at the
 * end, contains() over the whole address space.
 */
TEST_P(RegionDifferential, VdTraceMatchesReference)
{
    const auto [kb, assoc, line_bytes] = GetParam();
    const std::uint32_t region_lines = 512 / line_bytes;
    const Addr region_bytes = 512;
    CacheConfig cfg;
    cfg.size_bytes = std::uint64_t{kb} * 1024;
    cfg.line_bytes = line_bytes;
    cfg.assoc = assoc;
    SetAssocCache cache("vd", cfg, region_lines);
    ReferenceCache ref(cfg);
    CacheAccessSummary got;

    // An encoded ring of twice the cache, then three frame slots
    // a little over the cache each, every base 64 B past a region
    // boundary.
    const Addr ring_bytes = 2 * cfg.size_bytes;
    const Addr slot_bytes = cfg.size_bytes + 3 * 64;
    const auto slotBase = [&](std::uint64_t i) {
        return ring_bytes + 64 + i * (slot_bytes + region_bytes);
    };
    const Addr space = slotBase(3);
    const std::uint32_t mab_bytes = 768;
    const std::uint64_t mabs = slot_bytes / mab_bytes;

    // Widen [addr, addr + size) to whole regions.
    const auto widen = [&](Addr addr, std::uint64_t size) {
        const Addr lo = addr & ~(region_bytes - 1);
        const Addr hi =
            (addr + size + region_bytes - 1) & ~(region_bytes - 1);
        return std::pair<Addr, std::uint32_t>(
            lo, static_cast<std::uint32_t>(hi - lo));
    };
    int op = 0;
    const auto check = [&](const CacheAccessSummary &want) {
        ASSERT_EQ(got.lines, want.lines) << "op " << op;
        ASSERT_EQ(got.hits, want.hits) << "op " << op;
        ASSERT_EQ(got.misses, want.misses) << "op " << op;
        ASSERT_EQ(got.fills, want.fills) << "op " << op;
    };

    Random rng(0x5e9aULL + kb * 7 + assoc * 131 + line_bytes);
    Addr enc_cursor = 0;
    const auto counters = [&] {
        ASSERT_EQ(cache.hitCount(), ref.hits_) << "op " << op;
        ASSERT_EQ(cache.missCount(), ref.misses_) << "op " << op;
        ASSERT_EQ(cache.evictionCount(), ref.evictions_) << "op " << op;
    };
    // At least six frames and 6,000 mabs.
    const std::uint64_t frames = std::max<std::uint64_t>(
        6, (6000 + mabs - 1) / mabs);
    for (std::uint64_t frame = 0; frame < frames; ++frame) {
        // The slot this frame writes is invalidated: all of it
        // (more than the cache), or now and then a quarter (line
        // by line).
        const Addr slot = slotBase(frame % 3);
        const Addr prev = slotBase((frame + 2) % 3);
        const std::uint64_t len =
            frame % 3 == 2 ? slot_bytes / 4 : slot_bytes;
        ASSERT_EQ(cache.invalidateRange(slot, len),
                  ref.invalidateRange(slot, len));
        for (std::uint64_t mab = 0; mab < mabs; ++mab, ++op) {
            // This mab's slice of the encoded stream.
            const std::uint64_t bytes = rng.uniformInt(20, 700);
            const auto [elo, esize] =
                widen(enc_cursor % ring_bytes, bytes);
            enc_cursor += bytes;
            accessLikeDecoder(cache, elo, esize, got);
            check(ref.access(elo, esize));

            // Its MC reference, within 8 mabs in the previous
            // frame's slot (I frames have none).
            if (frame % 3 != 0) {
                const std::uint64_t at =
                    std::min(mabs - 1, mab + rng.uniformInt(0, 16));
                const auto [rlo, rsize] = widen(
                    prev + (at > 8 ? at - 8 : 0) * mab_bytes,
                    mab_bytes);
                accessLikeDecoder(cache, rlo, rsize, got);
                check(ref.access(rlo, rsize));
            }

            const std::uint64_t kind = rng.uniformInt(0, 999);
            if (kind < 50) {
                // Whole-region reads anywhere in either slot.
                const Addr at =
                    (kind < 25 ? slot : prev) +
                    rng.uniformInt(0, slot_bytes - 1024);
                const auto [wlo, wsize] = widen(at, 1 + kind % 600);
                accessLikeDecoder(cache, wlo, wsize, got);
                check(ref.access(wlo, wsize));
            } else if (kind < 100) {
                // An unwidened read of a few lines.
                const Addr at = rng.uniformInt(0, space - 1);
                const auto size = static_cast<std::uint32_t>(
                    rng.uniformInt(1, 300));
                accessLikeDecoder(cache, at, size, got);
                check(ref.access(at, size));
            } else if (kind < 120) {
                // 64 B-aligned edges: within a region or across a
                // few, now and then more than the whole cache.
                const Addr at =
                    rng.uniformInt(0, space - 1) & ~Addr{63};
                const std::uint64_t ilen =
                    kind < 118 ? 64 * rng.uniformInt(1, 24)
                               : cfg.size_bytes +
                                     64 * rng.uniformInt(0, 64);
                ASSERT_EQ(cache.invalidateRange(at, ilen),
                          ref.invalidateRange(at, ilen))
                    << "op " << op;
            } else if (kind < 122) {
                cache.invalidateAll();
                ref.invalidateAll();
            }
            counters();
            if (HasFatalFailure()) {
                return;
            }
        }
    }

    // The trace evicted and ran the one-check path.
    EXPECT_GT(ref.evictions_, 0u);
    EXPECT_GT(cache.lockstepAccesses(), 500u);
    for (Addr a = 0; a < space; a += cfg.line_bytes) {
        ASSERT_EQ(cache.contains(a), ref.contains(a)) << "addr " << a;
    }
}

INSTANTIATE_TEST_SUITE_P(
    RegionGeometry, RegionDifferential,
    ::testing::Combine(::testing::Values(32u, 64u, 512u),
                       ::testing::Values(1u, 4u, 8u, 16u),
                       ::testing::Values(32u, 64u, 128u)));

} // namespace
} // namespace vstream
