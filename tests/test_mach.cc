/**
 * @file
 * Tests for the MACH content cache: the set-major table of per-frame
 * MACHs, the 8-deep array, LRU within sets, intra/inter
 * classification, digest-match bookkeeping, the CO-MACH collision
 * detector (including a real brute-forced CRC32 collision), and a
 * differential check of the whole array against a frame-by-frame
 * reference model over seeded op sequences.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/mach_array.hh"
#include "core/mach_table.hh"
#include "hash/crc.hh"
#include "sim/fault_injector.hh"
#include "sim/random.hh"

namespace vstream
{
namespace
{

std::vector<std::uint8_t>
blockOf(std::uint8_t fill, std::size_t n = 48)
{
    return std::vector<std::uint8_t>(n, fill);
}

MachConfig
smallConfig()
{
    MachConfig cfg;
    cfg.num_machs = 4;
    cfg.entries = 16;
    cfg.ways = 4;
    return cfg;
}

/** One per-frame MACH: a one-slot table. */
MachTable
single(const MachConfig &cfg, bool full_tags = false)
{
    return MachTable(cfg, cfg.entries, 1, full_tags);
}

/** A probe of @p arr counted as MachWriteback::writeMab() counts it. */
MachLookupResult
lookup(MachArray &arr, std::uint32_t digest, std::uint16_t aux,
       std::span<const std::uint8_t> truth, Tick now = 0)
{
    const MachLookupResult r = arr.probe(digest, aux, truth, now);
    arr.count(r.bits(), r.digest);
    return r;
}

/** Store the unique block that follows a probe whose MachBit flags
 * were @p bits, and count it, as the writeback does: into CO-MACH when
 * the probe detected a collision, dropped when it was bypassed. */
void
insert(MachArray &arr, std::uint8_t bits, std::uint32_t digest,
       std::uint16_t aux, Addr ptr, std::span<const std::uint8_t> truth)
{
    const bool collided = (bits & kMachCollisionDetected) != 0;
    if (collided && arr.config().co_mach) {
        bits |= kMachCoMachInsert;
    }
    arr.store(digest, aux, ptr, truth, collided);
    arr.countInsert(bits);
}

/** A block pointer as the writeback names it (MachOutcome): the frame
 * whose data region holds the block, and the offset in it. */
constexpr Addr
blockPtr(std::uint32_t frame, std::uint32_t offset)
{
    return static_cast<Addr>(frame) << 32 | offset;
}

/** Frame index of a block pointer (MachOutcome::frame). */
constexpr std::uint32_t
ptrFrame(Addr ptr)
{
    return static_cast<std::uint32_t>(ptr >> 32);
}

/** The current slot's entries as (digest, ptr), in dump order. */
std::vector<std::pair<std::uint32_t, Addr>>
dumpOf(const MachTable &t)
{
    std::vector<std::pair<std::uint32_t, Addr>> out;
    t.forEachValid([&](std::uint32_t d, Addr p) { out.emplace_back(d, p); });
    return out;
}

TEST(MachConfig, DefaultsMatchPaperDesignPoint)
{
    MachConfig cfg;
    EXPECT_EQ(cfg.num_machs, 8u);
    EXPECT_EQ(cfg.entries, 256u);
    EXPECT_EQ(cfg.ways, 4u);
    EXPECT_EQ(cfg.sets(), 64u); // 6 index bits, as in Sec. 4.4
    cfg.validate();
}

TEST(MachConfigDeath, BadGeometry)
{
    MachConfig cfg;
    cfg.entries = 100; // 25 sets: not a power of two
    EXPECT_DEATH(cfg.validate(), "power of two");
}

TEST(MachTable, InsertThenLookup)
{
    const MachConfig cfg = smallConfig();
    MachTable cache = single(cfg);
    const auto truth = blockOf(7);
    cache.insert(0x1234, 0, 0xf00, truth);
    const MachProbe p = cache.lookup(0x1234, 0, truth);
    EXPECT_TRUE(p.hit);
    EXPECT_EQ(p.ptr, 0xf00u);
    EXPECT_FALSE(p.collision_undetected);
    EXPECT_EQ(cache.validCount(), 1u);
}

TEST(MachTable, MissOnAbsentDigest)
{
    MachTable cache = single(smallConfig());
    EXPECT_FALSE(cache.lookup(0xdead, 0, blockOf(1)).hit);
}

TEST(MachTable, LruEvictionWithinSet)
{
    const MachConfig cfg = smallConfig(); // 4 sets, 4 ways
    MachTable cache = single(cfg);
    const std::uint32_t sets = cfg.sets();
    // Five digests mapping to set 0.
    for (std::uint32_t i = 0; i < 5; ++i) {
        cache.insert(i * sets, 0, i,
                     blockOf(static_cast<std::uint8_t>(i)));
    }
    // The first (LRU) entry must be gone; the rest present.
    EXPECT_FALSE(cache.lookup(0, 0, blockOf(0)).hit);
    for (std::uint32_t i = 1; i < 5; ++i) {
        EXPECT_TRUE(cache.lookup(i * sets, 0,
                                 blockOf(static_cast<std::uint8_t>(i)))
                        .hit);
    }
}

TEST(MachTable, LookupRefreshesLru)
{
    const MachConfig cfg = smallConfig();
    MachTable cache = single(cfg);
    const std::uint32_t sets = cfg.sets();
    for (std::uint32_t i = 0; i < 4; ++i) {
        cache.insert(i * sets, 0, i,
                     blockOf(static_cast<std::uint8_t>(i)));
    }
    // Touch entry 0, then insert a fifth: victim must be entry 1.
    cache.lookup(0, 0, blockOf(0));
    cache.insert(4 * sets, 0, 4, blockOf(4));
    EXPECT_TRUE(cache.lookup(0, 0, blockOf(0)).hit);
    EXPECT_FALSE(cache.lookup(sets, 0, blockOf(1)).hit);
}

TEST(MachTable, UndetectedCollisionFlagged)
{
    // Same digest, different content, no CO-MACH: the probe hits the
    // wrong block and reports collision_undetected.
    MachTable cache = single(smallConfig());
    cache.insert(0xabcd, 0, 1, blockOf(1));
    const MachProbe p = cache.lookup(0xabcd, 0, blockOf(2));
    EXPECT_TRUE(p.hit);
    EXPECT_TRUE(p.collision_undetected);
}

TEST(MachTable, CoMachAuxDetectsCollision)
{
    MachConfig cfg = smallConfig();
    cfg.co_mach = true;
    MachTable cache = single(cfg);
    cache.insert(0xabcd, /*aux=*/0x11, 1, blockOf(1));
    // Same CRC32, different CRC16: detected, treated as a miss.
    const MachProbe p = cache.lookup(0xabcd, 0x22, blockOf(2));
    EXPECT_FALSE(p.hit);
    EXPECT_TRUE(p.collision_detected);
}

TEST(MachTable, FullTagsCompareAux)
{
    MachConfig cfg = smallConfig();
    MachTable cache = single(cfg, /*full_tags=*/true);
    cache.insert(0xabcd, 0x11, 1, blockOf(1));
    EXPECT_FALSE(cache.lookup(0xabcd, 0x22, blockOf(2)).hit);
    EXPECT_TRUE(cache.lookup(0xabcd, 0x11, blockOf(1)).hit);
}

TEST(MachTableDeath, TruthSizeIsFixed)
{
    MachTable cache = single(smallConfig());
    cache.insert(1, 0, 1, blockOf(1));
    EXPECT_DEATH(cache.insert(2, 0, 2, blockOf(2, 12)), "truth size");
}

TEST(MachTable, DumpListsValidEntriesSetBySet)
{
    const MachConfig cfg = smallConfig(); // 4 sets
    MachTable cache = single(cfg);
    EXPECT_EQ(cache.validCount(), 0u);
    cache.insert(6, 0, 60, blockOf(6)); // set 2
    cache.insert(1, 0, 10, blockOf(1)); // set 1
    cache.insert(2, 0, 20, blockOf(2)); // set 2, way 1
    EXPECT_EQ(cache.validCount(), 3u);
    const std::vector<std::pair<std::uint32_t, Addr>> want = {
        {1, 10}, {6, 60}, {2, 20}};
    EXPECT_EQ(dumpOf(cache), want);
    cache.advance(); // one slot: recycled in place
    EXPECT_EQ(cache.validCount(), 0u);
    EXPECT_TRUE(dumpOf(cache).empty());
}

TEST(MachTable, FrozenSlotsAnswerByAge)
{
    MachConfig cfg = smallConfig();
    MachTable ring(cfg, cfg.entries, 3, false);
    ring.insert(5, 0, 50, blockOf(5));
    ring.advance();
    ring.insert(9, 0, 90, blockOf(9));
    ring.advance();
    EXPECT_EQ(ring.history(), 2u);
    EXPECT_EQ(ring.lookup(5, 0, blockOf(5)).age, 2u);
    EXPECT_EQ(ring.lookup(9, 0, blockOf(9)).age, 1u);
    ring.advance(); // the oldest slot (digest 5) is recycled
    EXPECT_EQ(ring.history(), 2u);
    EXPECT_FALSE(ring.lookup(5, 0, blockOf(5)).hit);
    EXPECT_EQ(ring.lookup(9, 0, blockOf(9)).age, 2u);
}

TEST(MachArray, IntraVsInterClassification)
{
    MachArray arr(smallConfig());
    arr.beginFrame(); // frame 0
    insert(arr, 0, 0x10, 0, blockPtr(0, 100), blockOf(1));

    // Same frame: intra, a hit on this frame's block.
    auto r = lookup(arr, 0x10, 0, blockOf(1));
    EXPECT_TRUE(r.hit);
    EXPECT_FALSE(r.inter);
    EXPECT_EQ(r.ptr, blockPtr(0, 100));

    // Next frame: the old MACH freezes into history -> inter, and the
    // block is one frame old.
    arr.beginFrame(); // frame 1
    r = lookup(arr, 0x10, 0, blockOf(1));
    EXPECT_TRUE(r.hit);
    EXPECT_TRUE(r.inter);
    EXPECT_EQ(1 - ptrFrame(r.ptr), 1u);

    EXPECT_EQ(arr.stats().intra_hits, 1u);
    EXPECT_EQ(arr.stats().inter_hits, 1u);
}

TEST(MachArray, HistoryBoundedByNumMachs)
{
    MachConfig cfg = smallConfig();
    cfg.num_machs = 3; // current + 2 previous
    MachArray arr(cfg);
    arr.beginFrame();
    insert(arr, 0, 0x42, 0, 1, blockOf(9));
    // Age the entry past the window.
    for (int i = 0; i < 3; ++i) {
        arr.beginFrame();
    }
    EXPECT_FALSE(lookup(arr, 0x42, 0, blockOf(9)).hit);
    EXPECT_LE(arr.historyDepth(), 2u);
}

TEST(MachArray, CurrentFrameWinsOverHistory)
{
    MachArray arr(smallConfig());
    arr.beginFrame();
    insert(arr, 0, 0x7, 0, 111, blockOf(3));
    arr.beginFrame();
    insert(arr, 0, 0x7, 0, 222, blockOf(3));
    const auto r = lookup(arr, 0x7, 0, blockOf(3));
    EXPECT_TRUE(r.hit);
    EXPECT_FALSE(r.inter); // found in the current frame first
    EXPECT_EQ(r.ptr, 222u);
}

TEST(MachArray, MatchCountsFeedTopShares)
{
    MachArray arr(smallConfig());
    arr.beginFrame();
    insert(arr, 0, 0xa, 0, 1, blockOf(1));
    insert(arr, 0, 0xb, 0, 2, blockOf(2));
    for (int i = 0; i < 3; ++i) {
        lookup(arr, 0xa, 0, blockOf(1));
    }
    lookup(arr, 0xb, 0, blockOf(2));
    const auto shares = arr.topMatchShares(4);
    ASSERT_EQ(shares.size(), 2u);
    EXPECT_DOUBLE_EQ(shares[0], 0.75);
    EXPECT_DOUBLE_EQ(shares[1], 0.25);
}

TEST(MachArray, TopMatchSharesMatchFullSort)
{
    // 40 digests hit 1 to 5 times each (many ties) in one frame.
    MachConfig cfg = smallConfig();
    cfg.entries = 64;
    MachArray arr(cfg);
    arr.beginFrame();
    std::vector<std::uint64_t> counts;
    for (std::uint32_t d = 1; d <= 40; ++d) {
        const auto fill = static_cast<std::uint8_t>(d);
        insert(arr, 0, d, 0, d, blockOf(fill));
        counts.push_back(d * 7 % 5 + 1);
        for (std::uint64_t i = 0; i < counts.back(); ++i) {
            ASSERT_TRUE(lookup(arr, d, 0, blockOf(fill)).hit) << d;
        }
    }
    std::uint64_t total = 0;
    for (std::uint64_t n : counts) {
        total += n;
    }
    std::sort(counts.begin(), counts.end(),
              std::greater<std::uint64_t>());
    for (std::size_t k : {0, 1, 5, 8, 32, 39, 40, 41, 1000}) {
        std::vector<double> want;
        for (std::size_t i = 0; i < k && i < counts.size(); ++i) {
            want.push_back(static_cast<double>(counts[i]) /
                           static_cast<double>(total));
        }
        EXPECT_EQ(arr.topMatchShares(k), want) << "k " << k;
    }
}

TEST(MachArray, MissesCounted)
{
    MachArray arr(smallConfig());
    arr.beginFrame();
    lookup(arr, 0x1, 0, blockOf(1));
    lookup(arr, 0x2, 0, blockOf(2));
    EXPECT_EQ(arr.stats().misses, 2u);
    EXPECT_EQ(arr.stats().lookups, 2u);
    EXPECT_DOUBLE_EQ(arr.stats().hitRate(), 0.0);
}

/**
 * Trace equivalence for one slot of the table: replay a
 * recorded random trace against an independent map-based LRU model
 * of the documented policy and demand identical per-op hits, misses
 * and evictions.  This pins the open-addressing tables and the truth
 * arena to the exact behaviour of the original node-based storage.
 */
TEST(MachTable, OneSlotMatchesReferenceModelOnRandomTrace)
{
    const MachConfig cfg = smallConfig();
    MachTable cache = single(cfg);
    const std::uint32_t sets = cfg.sets();

    // Reference model: per set, tags in LRU order (front = LRU).
    std::vector<std::vector<std::uint32_t>> model(sets);
    auto model_find = [&](std::uint32_t digest) {
        auto &set = model[digest & (sets - 1)];
        for (std::size_t i = 0; i < set.size(); ++i) {
            if (set[i] == digest) {
                return static_cast<std::ptrdiff_t>(i);
            }
        }
        return static_cast<std::ptrdiff_t>(-1);
    };

    Random rng(0x77ace);
    std::uint64_t hits = 0, misses = 0, evictions = 0;
    for (int op = 0; op < 4000; ++op) {
        // A small digest space keeps the sets colliding and evicting.
        const std::uint32_t digest =
            static_cast<std::uint32_t>(rng.next() % 96);
        const auto truth =
            blockOf(static_cast<std::uint8_t>(digest));
        auto &set = model[digest & (sets - 1)];
        const std::ptrdiff_t at = model_find(digest);

        const MachProbe p = cache.lookup(digest, 0, truth);
        EXPECT_EQ(p.hit, at >= 0) << "op " << op;
        EXPECT_FALSE(p.collision_undetected);
        if (at >= 0) {
            ++hits;
            // LRU refresh on hit.
            set.erase(set.begin() + at);
            set.push_back(digest);
        } else {
            ++misses;
            // Mirror the writeback's insert-on-miss.
            cache.insert(digest, 0, digest * 48, truth);
            if (set.size() == cfg.ways) {
                set.erase(set.begin());
                ++evictions;
            }
            set.push_back(digest);
        }
    }

    // The trace must actually have exercised all three behaviours.
    EXPECT_GT(hits, 100u);
    EXPECT_GT(misses, 100u);
    EXPECT_GT(evictions, 100u);

    // Residency after the trace matches the model exactly.
    std::uint32_t resident = 0;
    for (std::uint32_t digest = 0; digest < 96; ++digest) {
        const bool want = model_find(digest) >= 0;
        resident += want ? 1u : 0u;
        EXPECT_EQ(cache
                      .lookup(digest, 0,
                              blockOf(static_cast<std::uint8_t>(
                                  digest)))
                      .hit,
                  want)
            << "digest " << digest;
    }
    EXPECT_EQ(cache.validCount(), resident);
}

/** The MachArray over the same idea: a recorded random trace of
 * frames, inserts and lookups replayed twice must produce identical
 * statistics, and the counts must conserve. */
TEST(MachArray, RandomTraceIsDeterministicAndConserves)
{
    auto run = [] {
        MachArray arr(smallConfig());
        Random rng(0xa77);
        arr.beginFrame();
        for (int op = 0; op < 3000; ++op) {
            const std::uint32_t digest =
                static_cast<std::uint32_t>(rng.next() % 128);
            const auto truth =
                blockOf(static_cast<std::uint8_t>(digest));
            if (op % 97 == 96) {
                arr.beginFrame();
            }
            const auto r = lookup(arr, digest, 0, truth);
            if (!r.hit) {
                insert(arr, r.bits(), digest, 0, digest * 48, truth);
            }
        }
        return arr.stats();
    };
    const MachStats a = run();
    const MachStats b = run();
    EXPECT_EQ(a.lookups, b.lookups);
    EXPECT_EQ(a.intra_hits, b.intra_hits);
    EXPECT_EQ(a.inter_hits, b.inter_hits);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.inserts, b.inserts);
    EXPECT_EQ(a.collisions_undetected, b.collisions_undetected);
    EXPECT_EQ(a.lookups, a.hits() + a.misses);
    EXPECT_EQ(a.inserts, a.misses); // one insert per miss above
    EXPECT_GT(a.hits(), 0u);
    EXPECT_GT(a.misses, 0u);
}

TEST(CoMach, PerFrameReset)
{
    MachConfig cfg = smallConfig();
    cfg.co_mach = true;
    MachArray arr(cfg);
    arr.beginFrame();
    insert(arr, kMachCollisionDetected, 0x1, 0x2, 99, blockOf(5));
    EXPECT_TRUE(lookup(arr, 0x1, 0x2, blockOf(5)).hit);
    arr.beginFrame();
    EXPECT_FALSE(lookup(arr, 0x1, 0x2, blockOf(5)).hit);
    EXPECT_EQ(arr.coMachInserts(), 1u);
}

TEST(MachArray, CollidedInsertGoesToCoMach)
{
    MachConfig cfg = smallConfig();
    cfg.co_mach = true;
    MachArray arr(cfg);
    arr.beginFrame();
    insert(arr, 0, 0x99, 0x01, 1, blockOf(1));
    // Pretend a probe detected a collision; the new block lands in
    // CO-MACH under its full 48-bit tag.
    insert(arr, kMachCollisionDetected, 0x99, 0x02, 2, blockOf(2));
    EXPECT_EQ(arr.coMachInserts(), 1u);
    // Both are now findable (different aux).
    EXPECT_EQ(lookup(arr, 0x99, 0x01, blockOf(1)).ptr, 1u);
    EXPECT_EQ(lookup(arr, 0x99, 0x02, blockOf(2)).ptr, 2u);
}

/** Brute-force a genuine CRC32 collision between distinct 48-byte
 * blocks and check the CO-MACH mechanism end to end. */
TEST(CoMach, RealCrc32CollisionIsDetected)
{
    Random rng(2024);
    std::unordered_map<std::uint32_t, std::vector<std::uint8_t>> seen;
    std::vector<std::uint8_t> a, b;
    for (int i = 0; i < 500000; ++i) {
        std::vector<std::uint8_t> block(48);
        for (auto &byte : block) {
            byte = static_cast<std::uint8_t>(rng.next());
        }
        const std::uint32_t d = Crc32::compute(block.data(), 48);
        auto [it, fresh] = seen.emplace(d, block);
        if (!fresh && it->second != block) {
            a = it->second;
            b = block;
            break;
        }
    }
    ASSERT_FALSE(a.empty()) << "no CRC32 collision found (unlucky seed)";
    ASSERT_NE(a, b);
    const std::uint32_t d = Crc32::compute(a.data(), 48);
    ASSERT_EQ(d, Crc32::compute(b.data(), 48));

    // CRC16s differ with overwhelming probability.
    const std::uint16_t aux_a = Crc16::compute(a.data(), 48);
    const std::uint16_t aux_b = Crc16::compute(b.data(), 48);
    ASSERT_NE(aux_a, aux_b) << "CRC16 also collided; astronomically "
                               "unlikely";

    MachConfig cfg;
    cfg.co_mach = true;
    MachArray arr(cfg);
    arr.beginFrame();
    insert(arr, 0, d, aux_a, 10, a);

    const auto r = lookup(arr, d, aux_b, b);
    EXPECT_FALSE(r.hit);
    EXPECT_TRUE(r.collision_detected);

    // Without CO-MACH the same lookup silently returns block a.
    MachConfig plain;
    plain.co_mach = false;
    MachArray bad(plain);
    bad.beginFrame();
    insert(bad, 0, d, 0, 10, a);
    const auto rb = lookup(bad, d, 0, b);
    EXPECT_TRUE(rb.hit);
    EXPECT_TRUE(rb.collision_undetected);
}

class MachWaySweep : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(MachWaySweep, CapacityIsEntriesRegardlessOfWays)
{
    MachConfig cfg;
    cfg.entries = 64;
    cfg.ways = GetParam();
    cfg.validate();
    MachTable cache = single(cfg);
    // Insert exactly `entries` digests with distinct set indices
    // spread uniformly: all must be resident.
    for (std::uint32_t i = 0; i < cfg.entries; ++i) {
        cache.insert(i, 0, i, blockOf(static_cast<std::uint8_t>(i)));
    }
    EXPECT_EQ(cache.validCount(), cfg.entries);
}

INSTANTIATE_TEST_SUITE_P(Ways, MachWaySweep,
                         ::testing::Values(1u, 2u, 4u, 8u));

// ---------------------------------------------------------------------
// Differential check against a frame-by-frame reference
// ---------------------------------------------------------------------

/**
 * Reference MachArray written from the paper's description, sharing
 * no code with src/core: one cache object per frame, kept newest
 * first and probed frame by frame; each set a list of ways filled in
 * order, LRU by per-cache stamps (touched on every hit, frozen or
 * not).  CO-MACH is one more such cache with 48-bit tags, emptied at
 * every frame boundary.
 */
class RefMachArray
{
  public:
    RefMachArray(const MachConfig &cfg, FaultInjector *faults)
        : cfg_(cfg), faults_(faults)
    {
        frames_.push_front(fresh(cfg_.entries));
        if (cfg_.co_mach) {
            co_ = fresh(cfg_.co_mach_entries);
        }
    }

    void setBypass(bool on) { bypass_ = on; }

    void
    beginFrame()
    {
        if (valid(frames_.front()) > 0 || frames_.size() > 1) {
            frames_.push_front(fresh(cfg_.entries));
            if (frames_.size() > cfg_.num_machs) {
                frames_.pop_back();
            }
        }
        if (cfg_.co_mach) {
            co_ = fresh(cfg_.co_mach_entries);
        }
    }

    MachLookupResult
    lookup(std::uint32_t digest, std::uint16_t aux,
           const std::vector<std::uint8_t> &truth, Tick now)
    {
        ++stats_.lookups;
        MachLookupResult r;
        if (bypass_) {
            ++stats_.bypassed_lookups;
            ++stats_.misses;
            return r;
        }
        bool forged = false;
        if (faults_ != nullptr && have_collider_ &&
            collider_truth_ != truth &&
            faults_->shouldInject(FaultClass::kDigestCollision, now)) {
            digest = collider_digest_;
            aux = collider_aux_;
            forged = true;
        }
        for (std::size_t age = 0; age < frames_.size(); ++age) {
            if (probe(frames_[age], digest, aux, truth, false, r)) {
                r.inter = age > 0;
                break;
            }
        }
        if (!r.hit && cfg_.co_mach) {
            MachLookupResult c;
            if (probe(co_, digest, aux, truth, true, c)) {
                r.hit = true;
                r.ptr = c.ptr;
                r.collision_undetected = c.collision_undetected;
            }
        }
        if (forged && r.hit && r.collision_undetected) {
            ++stats_.injected_collisions;
        }
        if (cfg_.verify_on_hit && r.hit && r.collision_undetected) {
            ++stats_.false_hits;
            if (faults_ != nullptr && forged) {
                faults_->noteRecovered(FaultClass::kDigestCollision);
            }
            r = MachLookupResult{.collision_detected = r.collision_detected};
        }
        if (r.hit) {
            ++(r.inter ? stats_.inter_hits : stats_.intra_hits);
            ++matches_[digest];
        } else {
            ++stats_.misses;
        }
        stats_.collisions_detected += r.collision_detected ? 1 : 0;
        stats_.collisions_undetected += r.collision_undetected ? 1 : 0;
        return r;
    }

    void
    insertUnique(std::uint32_t digest, std::uint16_t aux, Addr ptr,
                 const std::vector<std::uint8_t> &truth, bool collided)
    {
        if (bypass_) {
            return;
        }
        ++stats_.inserts;
        if (faults_ != nullptr) {
            have_collider_ = true;
            collider_digest_ = digest;
            collider_aux_ = aux;
            collider_truth_ = truth;
        }
        if (collided && cfg_.co_mach) {
            ++co_inserts_;
            insert(co_, digest, aux, ptr, truth);
            return;
        }
        insert(frames_.front(), digest, aux, ptr, truth);
    }

    std::vector<double>
    topMatchShares(std::size_t k) const
    {
        std::vector<std::uint64_t> counts;
        std::uint64_t total = 0;
        for (const auto &[digest, n] : matches_) {
            counts.push_back(n);
            total += n;
        }
        std::sort(counts.rbegin(), counts.rend());
        std::vector<double> out;
        for (std::size_t i = 0; i < k && i < counts.size(); ++i) {
            out.push_back(static_cast<double>(counts[i]) /
                          static_cast<double>(total));
        }
        return out;
    }

    /** The current frame's cache, set by set, way by way. */
    std::vector<std::pair<std::uint32_t, Addr>>
    dump() const
    {
        std::vector<std::pair<std::uint32_t, Addr>> out;
        for (const auto &set : frames_.front().sets) {
            for (const Entry &e : set) {
                out.emplace_back(e.digest, e.ptr);
            }
        }
        return out;
    }

    std::uint32_t validCount() const { return valid(frames_.front()); }
    std::uint32_t
    historyDepth() const
    {
        return static_cast<std::uint32_t>(frames_.size() - 1);
    }
    const MachStats &stats() const { return stats_; }
    std::uint64_t coMachInserts() const { return co_inserts_; }

  private:
    struct Entry
    {
        std::uint32_t digest;
        std::uint16_t aux;
        Addr ptr;
        std::vector<std::uint8_t> truth;
        std::uint64_t stamp;
    };
    struct Cache
    {
        std::vector<std::vector<Entry>> sets;
        std::uint64_t clock = 0;
    };

    Cache
    fresh(std::uint32_t entries) const
    {
        Cache c;
        c.sets.resize(entries / cfg_.ways);
        return c;
    }

    static std::uint32_t
    valid(const Cache &c)
    {
        std::size_t n = 0;
        for (const auto &set : c.sets) {
            n += set.size();
        }
        return static_cast<std::uint32_t>(n);
    }

    bool
    probe(Cache &c, std::uint32_t digest, std::uint16_t aux,
          const std::vector<std::uint8_t> &truth, bool full_tags,
          MachLookupResult &r)
    {
        for (Entry &e : c.sets[digest % c.sets.size()]) {
            if (e.digest != digest) {
                continue;
            }
            if (e.aux != aux && (full_tags || cfg_.co_mach)) {
                r.collision_detected = r.collision_detected || !full_tags;
                continue;
            }
            r.hit = true;
            r.ptr = e.ptr;
            r.collision_undetected = e.truth != truth;
            e.stamp = ++c.clock;
            return true;
        }
        return false;
    }

    void
    insert(Cache &c, std::uint32_t digest, std::uint16_t aux, Addr ptr,
           const std::vector<std::uint8_t> &truth)
    {
        auto &set = c.sets[digest % c.sets.size()];
        Entry e{digest, aux, ptr, truth, ++c.clock};
        if (set.size() < cfg_.ways) {
            set.push_back(std::move(e));
            return;
        }
        std::size_t victim = 0;
        for (std::size_t w = 1; w < set.size(); ++w) {
            if (set[w].stamp < set[victim].stamp) {
                victim = w;
            }
        }
        set[victim] = std::move(e);
    }

    MachConfig cfg_;
    FaultInjector *faults_;
    std::deque<Cache> frames_;
    Cache co_;
    std::uint64_t co_inserts_ = 0;
    MachStats stats_;
    std::map<std::uint32_t, std::uint64_t> matches_;
    bool bypass_ = false;
    bool have_collider_ = false;
    std::uint32_t collider_digest_ = 0;
    std::uint16_t collider_aux_ = 0;
    std::vector<std::uint8_t> collider_truth_;
};

::testing::AssertionResult
sameResult(const MachLookupResult &a, const MachLookupResult &b)
{
    if (a.hit == b.hit && a.inter == b.inter && a.ptr == b.ptr &&
        a.collision_detected == b.collision_detected &&
        a.collision_undetected == b.collision_undetected) {
        return ::testing::AssertionSuccess();
    }
    return ::testing::AssertionFailure()
           << "table {hit " << a.hit << " inter " << a.inter << " ptr "
           << a.ptr << " det "
           << a.collision_detected << " undet " << a.collision_undetected
           << "} vs reference {hit " << b.hit << " inter " << b.inter
           << " ptr " << b.ptr << " det "
           << b.collision_detected << " undet " << b.collision_undetected
           << "}";
}

::testing::AssertionResult
sameStats(const MachStats &a, const MachStats &b)
{
    const std::vector<std::uint64_t> x = {
        a.lookups, a.intra_hits, a.inter_hits, a.misses,
        a.collisions_detected, a.collisions_undetected, a.inserts,
        a.injected_collisions, a.false_hits, a.bypassed_lookups};
    const std::vector<std::uint64_t> y = {
        b.lookups, b.intra_hits, b.inter_hits, b.misses,
        b.collisions_detected, b.collisions_undetected, b.inserts,
        b.injected_collisions, b.false_hits, b.bypassed_lookups};
    if (x == y) {
        return ::testing::AssertionSuccess();
    }
    auto failure = ::testing::AssertionFailure() << "stats differ:";
    for (std::size_t i = 0; i < x.size(); ++i) {
        failure << " [" << i << "] " << x[i] << " vs " << y[i];
    }
    return failure;
}

/**
 * 1,200 seeded op sequences over random geometries (1-8 sets, 1-8
 * ways including 3, 1-17 frames so some tables exceed 64 entries per
 * set), CO-MACH, verify-on-hit and forged collisions on and off:
 * lookups (a miss inserts, as the writeback does), bare inserts that
 * duplicate digests, frame starts and bypass toggles, over a small
 * block palette whose digests and auxes collide across differing
 * bytes.  Every result, the stats after every op, the current frame's
 * dump at every frame start, and the Fig. 9b shares must match.
 */
TEST(MachArray, MatchesFrameByFrameReferenceOnSeededSequences)
{
    MachStats seen; // coverage across all sequences
    std::uint64_t wide = 0, deep_hits = 0;
    for (std::uint64_t seq = 0; seq < 1200; ++seq) {
        Random rng(0x3ac4 + seq * 7919);
        MachConfig cfg;
        const std::uint32_t ways[] = {1, 2, 3, 4, 8};
        const std::uint32_t machs[] = {1, 2, 3, 8, 17};
        cfg.ways = ways[rng.uniformInt(0, 4)];
        cfg.entries = cfg.ways * (1u << rng.uniformInt(0, 3));
        cfg.num_machs = machs[rng.uniformInt(0, 4)];
        cfg.co_mach = rng.chance(0.5);
        cfg.co_mach_entries = cfg.ways * (1u << rng.uniformInt(0, 2));
        cfg.verify_on_hit = rng.chance(0.3);
        wide += cfg.num_machs * cfg.ways > 64 ? 1 : 0;

        FaultConfig fcfg;
        fcfg.seed = seq;
        if (rng.chance(0.4)) {
            FaultRule rule;
            rule.cls = FaultClass::kDigestCollision;
            rule.probability = 0.25;
            fcfg.rules.push_back(rule);
        }
        std::unique_ptr<FaultInjector> fa, fb;
        if (fcfg.enabled()) {
            fa = std::make_unique<FaultInjector>("fa", fcfg);
            fb = std::make_unique<FaultInjector>("fb", fcfg);
        }
        MachArray arr(cfg);
        arr.setFaultInjector(fa.get());
        RefMachArray ref(cfg, fb.get());

        const auto palette = rng.uniformInt(4, 40);
        // Pointers name the frame that inserted the block, so a hit's
        // age is frame - ptrFrame(ptr), as the writeback reads it.
        std::uint32_t frame = 0;
        bool bypassed = false;
        for (std::uint32_t op = 0; op < 250; ++op) {
            const double u = rng.uniform();
            if (u < 0.08) {
                ++frame;
                arr.beginFrame();
                ref.beginFrame();
                std::vector<std::pair<std::uint32_t, Addr>> dump;
                arr.ring().forEachValid([&](std::uint32_t d, Addr p) {
                    dump.emplace_back(d, p);
                });
                ASSERT_EQ(dump, ref.dump()) << "seq " << seq << " op " << op;
                ASSERT_EQ(arr.historyDepth(), ref.historyDepth());
                continue;
            }
            if (u < 0.10) {
                bypassed = rng.chance(0.3);
                arr.setBypass(bypassed);
                ref.setBypass(bypassed);
                continue;
            }
            // Digests mostly follow the content; some collide with a
            // neighbour's.  Auxes collide every fifth fill.
            const auto fill = static_cast<std::uint8_t>(
                rng.uniformInt(0, palette));
            const std::vector<std::uint8_t> truth = blockOf(fill, 12);
            const std::uint32_t key =
                rng.chance(0.15) ? fill + 1u : static_cast<std::uint32_t>(fill);
            const std::uint32_t digest = key * 0x9e3779b1u;
            const auto aux = static_cast<std::uint16_t>(
                cfg.co_mach ? fill % 5 : 0);
            const Addr ptr = blockPtr(frame, 48 * op);
            const Tick now = 1000ull * op;
            if (u < 0.15) {
                insert(arr, bypassed ? kMachBypassed : 0, digest, aux, ptr,
                       truth);
                ref.insertUnique(digest, aux, ptr, truth, false);
            } else {
                const MachLookupResult a =
                    lookup(arr, digest, aux, truth, now);
                const MachLookupResult b = ref.lookup(digest, aux, truth, now);
                ASSERT_TRUE(sameResult(a, b)) << "seq " << seq << " op " << op;
                deep_hits += a.hit && frame - ptrFrame(a.ptr) > 1 ? 1 : 0;
                if (!a.hit) {
                    insert(arr, a.bits(), digest, aux, ptr, truth);
                    ref.insertUnique(digest, aux, ptr, truth,
                                     b.collision_detected);
                }
            }
            ASSERT_TRUE(sameStats(arr.stats(), ref.stats()))
                << "seq " << seq << " op " << op;
            ASSERT_EQ(arr.ring().validCount(), ref.validCount());
        }
        ASSERT_EQ(arr.topMatchShares(8), ref.topMatchShares(8))
            << "seq " << seq;
        ASSERT_EQ(arr.coMachInserts(), ref.coMachInserts());
        if (fa) {
            ASSERT_EQ(fa->totals().injected, fb->totals().injected);
            ASSERT_EQ(fa->totals().recovered, fb->totals().recovered);
        }
        const MachStats &st = arr.stats();
        seen.inter_hits += st.inter_hits;
        seen.collisions_detected += st.collisions_detected;
        seen.collisions_undetected += st.collisions_undetected;
        seen.injected_collisions += st.injected_collisions;
        seen.false_hits += st.false_hits;
        seen.bypassed_lookups += st.bypassed_lookups;
    }
    // Every mechanism was exercised.
    EXPECT_GT(wide, 0u);
    EXPECT_GT(deep_hits, 0u);
    EXPECT_GT(seen.inter_hits, 0u);
    EXPECT_GT(seen.collisions_detected, 0u);
    EXPECT_GT(seen.collisions_undetected, 0u);
    EXPECT_GT(seen.injected_collisions, 0u);
    EXPECT_GT(seen.false_hits, 0u);
    EXPECT_GT(seen.bypassed_lookups, 0u);
}

} // namespace
} // namespace vstream
