/**
 * @file
 * Tests for the generic set-associative cache model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cache/set_assoc_cache.hh"
#include "sim/random.hh"

namespace vstream
{
namespace
{

CacheConfig
tinyCache(std::uint32_t size = 1024, std::uint32_t assoc = 2,
          bool write_alloc = true)
{
    CacheConfig cfg;
    cfg.size_bytes = size;
    cfg.line_bytes = 64;
    cfg.assoc = assoc;
    cfg.write_allocate = write_alloc;
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
    const auto first = c.access(0, 64, MemOp::kRead);
    EXPECT_EQ(first.misses, 1u);
    EXPECT_EQ(first.fills.size(), 1u);
    const auto second = c.access(0, 64, MemOp::kRead);
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
    const auto s = c.access(60, 100, MemOp::kRead);
    EXPECT_EQ(s.lines, 3u);
    EXPECT_EQ(s.misses, 3u);
}

TEST(Cache, LruEvictsOldest)
{
    // 2-way: fill a set with 2 lines, touch the first, insert a
    // third; the second (least recent) must be the victim.
    SetAssocCache c("c", tinyCache(1024, 2));
    const Addr set_stride = 8 * 64; // sets * line
    c.access(0, 64, MemOp::kRead);            // A
    c.access(set_stride, 64, MemOp::kRead);   // B, same set
    c.access(0, 64, MemOp::kRead);            // touch A
    c.access(2 * set_stride, 64, MemOp::kRead); // C evicts B
    EXPECT_TRUE(c.contains(0));
    EXPECT_FALSE(c.contains(set_stride));
    EXPECT_TRUE(c.contains(2 * set_stride));
    EXPECT_EQ(c.evictionCount(), 1u);
}

TEST(Cache, WriteNoAllocateBypasses)
{
    SetAssocCache c("c", tinyCache(1024, 2, /*write_alloc=*/false));
    const auto s = c.access(0, 64, MemOp::kWrite);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_FALSE(c.contains(0));
    EXPECT_TRUE(s.fills.empty());
    // Write hits still update state.
    c.access(0, 64, MemOp::kRead);
    const auto s2 = c.access(0, 64, MemOp::kWrite);
    EXPECT_EQ(s2.hits, 1u);
}

TEST(Cache, DirtyEvictionProducesWriteback)
{
    SetAssocCache c("c", tinyCache(1024, 1)); // direct-mapped
    const Addr set_stride = 16 * 64;
    c.access(0, 64, MemOp::kWrite); // allocate dirty
    const auto s = c.access(set_stride, 64, MemOp::kRead); // conflict
    ASSERT_EQ(s.writebacks.size(), 1u);
    EXPECT_EQ(s.writebacks[0], 0u);
    EXPECT_EQ(c.writebackCount(), 1u);
}

TEST(Cache, CleanEvictionNoWriteback)
{
    SetAssocCache c("c", tinyCache(1024, 1));
    const Addr set_stride = 16 * 64;
    c.access(0, 64, MemOp::kRead);
    const auto s = c.access(set_stride, 64, MemOp::kRead);
    EXPECT_TRUE(s.writebacks.empty());
}

TEST(Cache, FlushReturnsDirtyLinesOnly)
{
    SetAssocCache c("c", tinyCache());
    c.access(0, 64, MemOp::kWrite);
    c.access(64, 64, MemOp::kRead);
    c.access(128, 64, MemOp::kWrite);
    auto dirty = c.flush();
    std::sort(dirty.begin(), dirty.end());
    EXPECT_EQ(dirty, (std::vector<Addr>{0, 128}));
    EXPECT_FALSE(c.contains(0));
    EXPECT_FALSE(c.contains(64));
}

TEST(Cache, InvalidateDropsEverything)
{
    SetAssocCache c("c", tinyCache());
    c.access(0, 64, MemOp::kWrite);
    c.invalidateAll();
    EXPECT_FALSE(c.contains(0));
    EXPECT_TRUE(c.flush().empty()); // dirty data dropped
}

TEST(Cache, ContainsDoesNotPerturb)
{
    SetAssocCache c("c", tinyCache());
    c.access(0, 64, MemOp::kRead);
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
            c.access(a, 64, MemOp::kRead);
        }
    }
    EXPECT_GT(c.missRate(), 0.9);
}

TEST(Cache, SmallWorkingSetFitsAfterWarmup)
{
    SetAssocCache c("c", tinyCache(1024, 2));
    for (int pass = 0; pass < 10; ++pass) {
        for (Addr a = 0; a < 512; a += 64) {
            c.access(a, 64, MemOp::kRead);
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
            c.access(static_cast<Addr>(w) * sets * 64, 64, MemOp::kRead);
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
            c.access(a, 64, MemOp::kRead);
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
    access(Addr addr, std::uint32_t size, MemOp op)
    {
        CacheAccessSummary s;
        const Addr first = addr / cfg_.line_bytes;
        const Addr last = (addr + size - 1) / cfg_.line_bytes;
        for (Addr ln = first; ln <= last; ++ln) {
            ++s.lines;
            if (accessLine(ln, op, s)) {
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
                w.dirty = false;
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
            w.dirty = false;
        }
    }

    std::vector<Addr>
    flush()
    {
        std::vector<Addr> dirty;
        for (Way &w : ways_) {
            if (w.valid && w.dirty) {
                dirty.push_back(w.line * cfg_.line_bytes);
            }
            w.valid = false;
            w.dirty = false;
        }
        writebacks_ += dirty.size();
        return dirty;
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
    std::uint64_t writebacks_ = 0;
    /** Hits on the way the set last hit or filled, and elsewhere. */
    std::uint64_t repeat_way_hits_ = 0;
    std::uint64_t other_way_hits_ = 0;

  private:
    struct Way
    {
        bool valid = false;
        bool dirty = false;
        Addr line = 0;
        std::uint64_t stamp = 0;
    };

    std::size_t
    index(Addr set, std::uint32_t way) const
    {
        return static_cast<std::size_t>(set) * cfg_.assoc + way;
    }

    bool
    accessLine(Addr ln, MemOp op, CacheAccessSummary &s)
    {
        const Addr set = ln % sets_;
        for (std::uint32_t w = 0; w < cfg_.assoc; ++w) {
            Way &way = ways_[index(set, w)];
            if (way.valid && way.line == ln) {
                ++(last_way_[set] == w ? repeat_way_hits_
                                       : other_way_hits_);
                last_way_[set] = w;
                way.stamp = ++clock_;
                if (op == MemOp::kWrite) {
                    way.dirty = true;
                }
                return true;
            }
        }
        if (op == MemOp::kWrite && !cfg_.write_allocate) {
            return false;
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
            const Way &old = ways_[index(set, victim)];
            if (old.dirty) {
                ++writebacks_;
                s.writebacks.push_back(old.line * cfg_.line_bytes);
            }
        }
        last_way_[set] = victim;
        Way &way = ways_[index(set, victim)];
        way.valid = true;
        way.line = ln;
        way.dirty = op == MemOp::kWrite;
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

/** Parameter: associativity. */
class CacheDifferential : public ::testing::TestWithParam<std::uint32_t>
{
};

/**
 * Differential replay: a seeded random trace of reads, writes,
 * multi-line ranges and invalidations against ReferenceCache.  The
 * trace revisits recent lines often (so hits land on the MRU way and
 * on other ways) and strays far enough to force evictions.
 */
TEST_P(CacheDifferential, MatchesNaiveReferenceOnRandomTrace)
{
    const std::uint32_t assoc = GetParam();
    // Write-allocate, then write-around.
    for (int mode = 0; mode < 2; ++mode) {
        const CacheConfig cfg = tinyCache(2048, assoc, mode == 0);
        SetAssocCache cache("c", cfg);
        ReferenceCache ref(cfg);
        CacheAccessSummary got;

        Random rng(0xd1ffULL + mode * 131 + assoc);
        const Addr space = 8 * cfg.size_bytes;
        Addr cursor = 0;
        for (int op = 0; op < 6000; ++op) {
            const std::uint64_t kind = rng.uniformInt(0, 999);
            if (kind < 10) {
                // Up to twice the cache: exercises both the per-line
                // and the whole-cache walk of invalidateRange.
                const Addr at = rng.uniformInt(0, space - 1);
                const std::uint64_t len =
                    rng.uniformInt(0, 2 * cfg.size_bytes);
                ASSERT_EQ(cache.invalidateRange(at, len),
                          ref.invalidateRange(at, len))
                    << "op " << op;
                continue;
            }
            if (kind < 12) {
                cache.invalidateAll();
                ref.invalidateAll();
                continue;
            }
            if (kind < 14) {
                auto a = cache.flush();
                auto b = ref.flush();
                std::sort(a.begin(), a.end());
                std::sort(b.begin(), b.end());
                ASSERT_EQ(a, b) << "op " << op;
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
            const MemOp mop =
                rng.uniformInt(0, 3) == 0 ? MemOp::kWrite : MemOp::kRead;
            cache.accessInto(cursor, size, mop, got);
            const CacheAccessSummary want = ref.access(cursor, size, mop);
            ASSERT_EQ(got.lines, want.lines) << "op " << op;
            ASSERT_EQ(got.hits, want.hits) << "op " << op;
            ASSERT_EQ(got.misses, want.misses) << "op " << op;
            ASSERT_EQ(got.fills, want.fills) << "op " << op;
            ASSERT_EQ(got.writebacks, want.writebacks) << "op " << op;
        }

        // The trace hit both the repeat way and the other ways (with
        // one way there are no others), and evicted.
        EXPECT_GT(ref.repeat_way_hits_, 1000u);
        if (assoc > 1) {
            EXPECT_GT(ref.other_way_hits_, 100u);
        }
        EXPECT_GT(ref.evictions_, 100u);
        EXPECT_EQ(cache.hitCount(), ref.hits_);
        EXPECT_EQ(cache.missCount(), ref.misses_);
        EXPECT_EQ(cache.evictionCount(), ref.evictions_);
        EXPECT_EQ(cache.writebackCount(), ref.writebacks_);
        EXPECT_GT(ref.writebacks_, 0u);
        for (Addr a = 0; a < space; a += cfg.line_bytes) {
            ASSERT_EQ(cache.contains(a), ref.contains(a)) << "addr " << a;
        }
    }
}

/**
 * Differential replay aimed at the read-region memo: most reads
 * repeat one of a few recent regions, interleaved with accesses to
 * other sets, same-set conflicts that evict region lines, write hits
 * inside regions, invalidateRange, invalidateAll and flush.  Every
 * result must match ReferenceCache, and the memo must have answered
 * a good share of the repeats.
 */
TEST_P(CacheDifferential, RepeatedReadRegionsMatchReference)
{
    const std::uint32_t assoc = GetParam();
    // Write-allocate, then write-around.
    for (int mode = 0; mode < 2; ++mode) {
        const CacheConfig cfg = tinyCache(2048, assoc, mode == 0);
        SetAssocCache cache("c", cfg);
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
        Random rng(0x4e90ULL + mode * 17 + assoc);
        for (int op = 0; op < 6000; ++op) {
            const std::uint64_t kind = rng.uniformInt(0, 99);
            Region &region =
                recent[rng.uniformInt(0, recent.size() - 1)];
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
            if (kind < 3) {
                cache.invalidateAll();
                ref.invalidateAll();
                continue;
            }
            if (kind < 4) {
                auto a = cache.flush();
                auto b = ref.flush();
                std::sort(a.begin(), a.end());
                std::sort(b.begin(), b.end());
                ASSERT_EQ(a, b) << "op " << op;
                continue;
            }

            Addr addr = region.addr;
            std::uint32_t size = region.size;
            MemOp mop = MemOp::kRead;
            if (kind < 14) {
                // A new region of up to a few lines.
                region.addr = rng.uniformInt(0, space - 1);
                region.size = static_cast<std::uint32_t>(
                    rng.uniformInt(1, sets * cfg.line_bytes));
                addr = region.addr;
                size = region.size;
            } else if (kind < 24) {
                // Elsewhere: other sets, either direction.
                addr = rng.uniformInt(0, space - 1);
                size = static_cast<std::uint32_t>(rng.uniformInt(1, 200));
                mop = rng.uniformInt(0, 1) ? MemOp::kWrite : MemOp::kRead;
            } else if (kind < 34) {
                // Same set as the region's first line, another tag.
                addr = (region.addr + rng.uniformInt(1, 8) * sets *
                                          cfg.line_bytes) %
                       space;
                size = static_cast<std::uint32_t>(rng.uniformInt(1, 64));
                mop = rng.uniformInt(0, 1) ? MemOp::kWrite : MemOp::kRead;
            } else if (kind < 42) {
                // A write hit inside the region.
                mop = MemOp::kWrite;
            }
            cache.accessInto(addr, size, mop, got);
            const CacheAccessSummary want = ref.access(addr, size, mop);
            ASSERT_EQ(got.lines, want.lines) << "op " << op;
            ASSERT_EQ(got.hits, want.hits) << "op " << op;
            ASSERT_EQ(got.misses, want.misses) << "op " << op;
            ASSERT_EQ(got.fills, want.fills) << "op " << op;
            ASSERT_EQ(got.writebacks, want.writebacks) << "op " << op;
        }

        EXPECT_GT(cache.memoHits(), 500u);
        EXPECT_EQ(cache.hitCount(), ref.hits_);
        EXPECT_EQ(cache.missCount(), ref.misses_);
        EXPECT_EQ(cache.evictionCount(), ref.evictions_);
        EXPECT_EQ(cache.writebackCount(), ref.writebacks_);
        for (Addr a = 0; a < space; a += cfg.line_bytes) {
            ASSERT_EQ(cache.contains(a), ref.contains(a)) << "addr " << a;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Ways, CacheDifferential,
                         ::testing::Values(1u, 2u, 4u, 8u));

} // namespace
} // namespace vstream
