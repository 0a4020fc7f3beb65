/**
 * @file
 * Edge tests for the flat open-addressing tables: zero-capacity
 * construction, rehash triggered mid-insert at the maximum load
 * factor, and tombstone bookkeeping under erase-heavy churn.  The
 * erase path must never perturb a table that does not erase — the
 * determinism contract pins byte-identical stats output — so these
 * tests also nail the exact growth points the insert-only seed had.
 *
 * FlatCounter (the MACH match tracker) must count exactly what a
 * std::map would, through growth and through its spill map.
 *
 * Run under the asan-ubsan preset these double as lifetime checks
 * for the move-based rehash and the value-release on erase.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <numeric>
#include <vector>

#include "core/flat_table.hh"

namespace vstream
{
namespace
{

TEST(FlatMap, ZeroCapacityConstruction)
{
    FlatMap<std::uint32_t, int> m;
    EXPECT_EQ(m.size(), 0u);
    EXPECT_EQ(m.capacity(), 0u);
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.find(0u), nullptr);
    EXPECT_EQ(m.find(0xffffffffu), nullptr);
    EXPECT_FALSE(m.erase(7u));
    int visits = 0;
    m.forEach([&](std::uint32_t, int) { ++visits; });
    EXPECT_EQ(visits, 0);
    // clear() on a never-used table is a no-op, not a crash.
    m.clear();
    EXPECT_EQ(m.capacity(), 0u);
}

TEST(FlatMap, FirstInsertAllocatesSixteen)
{
    FlatMap<std::uint64_t, int> m;
    m[42] = 1;
    EXPECT_EQ(m.size(), 1u);
    EXPECT_EQ(m.capacity(), 16u);
}

TEST(FlatMap, RehashMidInsertAtMaxLoadFactor)
{
    // Load factor is 3/4: a 16-slot table holds 12 entries, and the
    // 13th insert must grow to 32 mid-insert without losing any
    // entry inserted so far (these growth points are the insert-only
    // seed's, unchanged by tombstone support).
    FlatMap<std::uint32_t, std::uint32_t> m;
    for (std::uint32_t k = 0; k < 12; ++k) {
        m[k] = k * 10;
    }
    ASSERT_EQ(m.size(), 12u);
    ASSERT_EQ(m.capacity(), 16u);

    m[12] = 120; // crosses (size + 1) * 4 > capacity * 3
    EXPECT_EQ(m.size(), 13u);
    EXPECT_EQ(m.capacity(), 32u);
    for (std::uint32_t k = 0; k <= 12; ++k) {
        const auto *v = m.find(k);
        ASSERT_NE(v, nullptr) << "key " << k << " lost in rehash";
        EXPECT_EQ(*v, k * 10);
    }
}

TEST(FlatMap, EraseThenFindMiss)
{
    FlatMap<std::uint32_t, int> m;
    m[1] = 10;
    m[2] = 20;
    EXPECT_TRUE(m.erase(1u));
    EXPECT_FALSE(m.erase(1u)); // already gone
    EXPECT_EQ(m.find(1u), nullptr);
    ASSERT_NE(m.find(2u), nullptr); // probes walk over the tombstone
    EXPECT_EQ(*m.find(2u), 20);
    EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMap, TombstoneReuseUnderChurn)
{
    // Erase+reinsert of one key must reuse its tombstone: thousands
    // of cycles may not grow the table past the first allocation.
    FlatMap<std::uint64_t, std::uint64_t> m;
    m[99] = 0;
    ASSERT_EQ(m.capacity(), 16u);
    for (std::uint64_t cycle = 1; cycle <= 4096; ++cycle) {
        ASSERT_TRUE(m.erase(99u));
        m[99] = cycle;
    }
    EXPECT_EQ(m.size(), 1u);
    EXPECT_EQ(m.capacity(), 16u);
    ASSERT_NE(m.find(99u), nullptr);
    EXPECT_EQ(*m.find(99u), 4096u);
}

TEST(FlatMap, EraseHeavyChurnKeepsEveryLiveKey)
{
    // Rolling window: insert k, erase k-64; the live set is always
    // the last 64 keys.  Same-size rehashes reclaim tombstones, so
    // the table stays near the size a 64-entry table needs instead
    // of growing with the total insert count.
    FlatMap<std::uint32_t, std::uint32_t> m;
    constexpr std::uint32_t kWindow = 64;
    constexpr std::uint32_t kTotal = 20000;
    for (std::uint32_t k = 0; k < kTotal; ++k) {
        m[k] = k ^ 0xa5a5a5a5u;
        if (k >= kWindow) {
            ASSERT_TRUE(m.erase(k - kWindow));
        }
    }
    EXPECT_EQ(m.size(), kWindow);
    // 64 live entries need 128 slots at 3/4 load; churn headroom may
    // hold one doubling more, but unbounded growth means tombstones
    // leak into the load factor.
    EXPECT_LE(m.capacity(), 256u);
    for (std::uint32_t k = kTotal - kWindow; k < kTotal; ++k) {
        const auto *v = m.find(k);
        ASSERT_NE(v, nullptr) << "live key " << k << " lost";
        EXPECT_EQ(*v, k ^ 0xa5a5a5a5u);
    }
    EXPECT_EQ(m.find(0u), nullptr);
    EXPECT_EQ(m.find(kTotal - kWindow - 1), nullptr);
}

TEST(FlatMap, ForEachSkipsErased)
{
    FlatMap<std::uint32_t, std::uint32_t> m;
    for (std::uint32_t k = 0; k < 10; ++k) {
        m[k] = 1;
    }
    for (std::uint32_t k = 0; k < 10; k += 2) {
        ASSERT_TRUE(m.erase(k));
    }
    std::uint32_t visits = 0;
    std::uint32_t key_sum = 0;
    m.forEach([&](std::uint32_t k, std::uint32_t v) {
        ++visits;
        key_sum += k;
        EXPECT_EQ(v, 1u);
        EXPECT_EQ(k % 2, 1u);
    });
    EXPECT_EQ(visits, 5u);
    EXPECT_EQ(key_sum, 1u + 3u + 5u + 7u + 9u);
}

TEST(FlatMap, ClearDropsTombstones)
{
    FlatMap<std::uint32_t, int> m;
    for (std::uint32_t k = 0; k < 8; ++k) {
        m[k] = 1;
    }
    for (std::uint32_t k = 0; k < 8; ++k) {
        m.erase(k);
    }
    m.clear();
    EXPECT_EQ(m.size(), 0u);
    const std::size_t cap = m.capacity(); // allocation kept
    EXPECT_EQ(cap, 16u);
    // A cleared table behaves like a fresh one of the same capacity.
    for (std::uint32_t k = 100; k < 108; ++k) {
        m[k] = static_cast<int>(k);
    }
    EXPECT_EQ(m.size(), 8u);
    EXPECT_EQ(m.capacity(), cap);
}

TEST(FlatMap, EraseReleasesHeldValue)
{
    // erase() must drop the held value, not park it in the
    // tombstone: a later reinsert of the key starts from Value{}.
    FlatMap<std::uint32_t, std::vector<int>> m;
    m[5].assign(1000, 7);
    ASSERT_TRUE(m.erase(5u));
    EXPECT_TRUE(m[5].empty());
}

TEST(FlatMap, MoveOnlyValuesSurviveRehashAndErase)
{
    FlatMap<std::uint32_t, std::unique_ptr<std::uint32_t>> m;
    for (std::uint32_t k = 0; k < 40; ++k) { // forces two rehashes
        m[k] = std::make_unique<std::uint32_t>(k * 3);
    }
    for (std::uint32_t k = 0; k < 40; k += 3) {
        ASSERT_TRUE(m.erase(k));
    }
    for (std::uint32_t k = 0; k < 40; ++k) {
        const auto *v = m.find(k);
        if (k % 3 == 0) {
            EXPECT_EQ(v, nullptr);
        } else {
            ASSERT_NE(v, nullptr);
            ASSERT_NE(v->get(), nullptr);
            EXPECT_EQ(**v, k * 3);
        }
    }
}

TEST(FlatMap, ReserveThenFillNoRehash)
{
    FlatMap<std::uint32_t, int> m;
    m.reserve(100);
    const std::size_t cap = m.capacity();
    EXPECT_GE(cap * 3, 100u * 4 / 2); // sanity: big enough
    for (std::uint32_t k = 0; k < 100; ++k) {
        m[k] = 1;
    }
    EXPECT_EQ(m.capacity(), cap) << "reserve(100) must cover 100";
}

TEST(FlatSet, ZeroCapacityConstruction)
{
    FlatSet<std::uint32_t> s;
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.capacity(), 0u);
    EXPECT_FALSE(s.contains(0u));
    EXPECT_FALSE(s.erase(0u));
}

TEST(FlatSet, InsertEraseChurn)
{
    FlatSet<std::uint64_t> s;
    EXPECT_TRUE(s.insert(1u));
    EXPECT_FALSE(s.insert(1u)); // duplicate
    EXPECT_TRUE(s.contains(1u));
    EXPECT_TRUE(s.erase(1u));
    EXPECT_FALSE(s.contains(1u));
    EXPECT_FALSE(s.erase(1u));
    for (int cycle = 0; cycle < 2048; ++cycle) {
        EXPECT_TRUE(s.insert(7u));
        EXPECT_TRUE(s.erase(7u));
    }
    EXPECT_EQ(s.size(), 0u);
    EXPECT_EQ(s.capacity(), 16u);
}

/**
 * Seeded keys with a skewed mix (a few hot keys, many cold ones, key
 * 0 among them) through FlatCounter against std::map: the default
 * carry, and a carry of 3 that sends the hot keys through the spill
 * map many times.
 */
TEST(FlatCounter, CountsMatchMapThroughGrowthAndCarries)
{
    for (const std::uint32_t carry_at : {UINT32_MAX, 3u}) {
        FlatCounter c(carry_at);
        std::map<std::uint32_t, std::uint64_t> want;
        std::uint64_t x = 0x9e37;
        for (int i = 0; i < 20000; ++i) {
            x = mixHash(x);
            const auto key = static_cast<std::uint32_t>(
                x % 4 == 0 ? x % 5 : x % 3000);
            c.add(key);
            ++want[key];
        }
        EXPECT_EQ(c.size(), want.size());
        std::map<std::uint32_t, std::uint64_t> got;
        c.forEach([&](std::uint32_t key, std::uint64_t n) {
            EXPECT_TRUE(got.emplace(key, n).second) << key;
        });
        EXPECT_EQ(got, want);
    }
}

TEST(FlatCounter, EmptyVisitsNothing)
{
    FlatCounter c;
    c.reserve(100);
    int visits = 0;
    c.forEach([&](std::uint32_t, std::uint64_t) { ++visits; });
    EXPECT_EQ(visits, 0);
    EXPECT_EQ(c.size(), 0u);
}

} // namespace
} // namespace vstream
