/**
 * @file
 * Shared-MACH dedup tier tests: the library/poison spec grammars, the
 * Zipf library's determinism, the per-session recorder, the tier's
 * verify-on-hit / breaker / epoch-quarantine mechanics, and the two
 * headline contracts - dedup changes traffic accounting but never
 * pixels, and poisoning one fault domain never leaks into a
 * neighbour.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "serve/arrivals.hh"
#include "serve/chaos.hh"
#include "serve/fleet_report.hh"
#include "serve/placer.hh"
#include "serve/session.hh"
#include "serve/shard.hh"
#include "serve/shared_mach.hh"
#include "sim/json_writer.hh"
#include "sim/random.hh"
#include "sim/stats_snapshot.hh"
#include "video/library.hh"
#include "video/synthetic_video.hh"

namespace vstream
{
namespace
{

// ---------------------------------------------------------------------
// Spec grammars
// ---------------------------------------------------------------------

TEST(LibrarySpec, ParsesWellFormedSpecs)
{
    LibrarySpec s;
    std::string error;
    ASSERT_TRUE(tryParseLibrarySpec("titles=64,skew=0.9,seed=7", s,
                                    error))
        << error;
    EXPECT_EQ(s.titles, 64u);
    EXPECT_DOUBLE_EQ(s.skew, 0.9);
    EXPECT_EQ(s.seed, 7u);

    // titles alone: skew/seed keep their defaults.
    ASSERT_TRUE(tryParseLibrarySpec("titles=1", s, error)) << error;
    EXPECT_EQ(s.titles, 1u);
    EXPECT_DOUBLE_EQ(s.skew, 0.8);

    // Empty fields (stray commas) are tolerated.
    ASSERT_TRUE(tryParseLibrarySpec("titles=4,,skew=0", s, error));
    EXPECT_DOUBLE_EQ(s.skew, 0.0);
}

TEST(LibrarySpec, ParserFailsClosed)
{
    LibrarySpec s;
    s.titles = 99;
    std::string error;
    const auto fails = [&](const std::string &spec) {
        error.clear();
        const bool rejected = !tryParseLibrarySpec(spec, s, error);
        // Rejection always carries a diagnostic.
        return rejected && !error.empty();
    };
    EXPECT_TRUE(fails(""));             // titles=N is required
    EXPECT_TRUE(fails("skew=0.9"));     // ditto
    EXPECT_TRUE(fails("titles=0"));
    EXPECT_TRUE(fails("titles=1048577"));
    EXPECT_TRUE(fails("titles=-4"));
    EXPECT_TRUE(fails("titles=8,skew=nan"));
    EXPECT_TRUE(fails("titles=8,skew=-0.1"));
    EXPECT_TRUE(fails("titles=8,skew=16.5"));
    EXPECT_TRUE(fails("titles=8,seed=12x"));
    EXPECT_TRUE(fails("titles=8,bogus=1"));
    EXPECT_TRUE(fails("titles=8,skew"));
    // Out untouched through every rejection.
    EXPECT_EQ(s.titles, 99u);
}

TEST(DedupPoisonSpec, ParsesAndFailsClosed)
{
    DedupPoisonRule r;
    std::string error;
    ASSERT_TRUE(tryParseDedupPoisonRule("domain=1,rate=0.25,seed=9",
                                        r, error))
        << error;
    EXPECT_EQ(r.domain, 1u);
    EXPECT_DOUBLE_EQ(r.rate, 0.25);
    EXPECT_EQ(r.seed, 9u);

    const auto fails = [&](const std::string &spec) {
        error.clear();
        return !tryParseDedupPoisonRule(spec, r, error) &&
               !error.empty();
    };
    EXPECT_TRUE(fails(""));             // rate=F is required
    EXPECT_TRUE(fails("domain=1"));     // ditto
    EXPECT_TRUE(fails("rate=nan"));
    EXPECT_TRUE(fails("rate=-0.1"));
    EXPECT_TRUE(fails("rate=1.5"));
    EXPECT_TRUE(fails("rate=0.5,domain=4294967296"));
    EXPECT_TRUE(fails("rate=0.5,bogus=1"));
}

// ---------------------------------------------------------------------
// Zipf library
// ---------------------------------------------------------------------

TEST(ZipfLibrary, DrawIsDeterministicAndInRange)
{
    LibrarySpec spec;
    spec.titles = 64;
    spec.skew = 0.9;
    spec.seed = 7;
    const ZipfLibrary a(spec);
    const ZipfLibrary b(spec);
    for (std::uint64_t key = 0; key < 512; ++key) {
        const std::uint32_t t = a.sampleTitle(key);
        EXPECT_LT(t, spec.titles);
        // Pure function of (spec, key): independent instances agree.
        EXPECT_EQ(b.sampleTitle(key), t);
    }
}

TEST(ZipfLibrary, SkewShapesPopularity)
{
    LibrarySpec spec;
    spec.titles = 16;
    spec.skew = 0.0;
    const ZipfLibrary uniform(spec);
    for (std::uint32_t t = 0; t < spec.titles; ++t) {
        EXPECT_NEAR(uniform.weight(t), 1.0 / 16.0, 1e-12);
    }
    spec.skew = 1.2;
    const ZipfLibrary skewed(spec);
    for (std::uint32_t t = 1; t < spec.titles; ++t) {
        EXPECT_GT(skewed.weight(t - 1), skewed.weight(t));
    }
}

TEST(ZipfLibrary, ApplyToMakesTitleContentIdentity)
{
    LibrarySpec spec;
    spec.titles = 8;
    spec.seed = 3;
    const ZipfLibrary lib(spec);

    VideoProfile a, b;
    a.seed = 111;
    b.seed = 222;
    lib.applyTo(a, 5);
    lib.applyTo(b, 5);
    // Same title => same content identity, whatever the sessions'
    // own seeds were.
    EXPECT_EQ(a.key, "T5");
    EXPECT_EQ(a.library_title, 5u);
    EXPECT_EQ(a.key, b.key);
    EXPECT_EQ(a.seed, b.seed);

    lib.applyTo(b, 6);
    EXPECT_NE(a.seed, b.seed);
    EXPECT_NE(a.key, b.key);
}

// ---------------------------------------------------------------------
// DedupRecorder
// ---------------------------------------------------------------------

std::vector<std::uint8_t>
bytes(std::uint8_t fill, std::size_t n = 48)
{
    return std::vector<std::uint8_t>(n, fill);
}

TEST(DedupRecorder, AccumulatesWritesPerIdentity)
{
    DedupRecorder rec;
    rec.observe(0x10, 1, bytes(0xaa));
    rec.observe(0x10, 1, bytes(0xaa));
    rec.observe(0x20, 2, bytes(0xbb));
    const DedupRecord &r = rec.record();
    ASSERT_EQ(r.blocks.size(), 2u);
    EXPECT_EQ(r.blocks[0].writes, 2u);
    EXPECT_EQ(r.blocks[1].writes, 1u);
    EXPECT_EQ(r.totalWrites(), 3u);
    EXPECT_EQ(r.skipped_collisions, 0u);
}

TEST(DedupRecorder, OrganicCollisionsAreExcluded)
{
    DedupRecorder rec;
    rec.observe(0x10, 1, bytes(0xaa));
    // Same (digest, aux), different content: citing either from the
    // shared tier would be a false hit waiting to happen.
    rec.observe(0x10, 1, bytes(0xcc));
    const DedupRecord &r = rec.record();
    ASSERT_EQ(r.blocks.size(), 1u);
    EXPECT_EQ(r.blocks[0].writes, 1u);
    EXPECT_TRUE(std::ranges::equal(r.truth(r.blocks[0]), bytes(0xaa)));
    EXPECT_EQ(r.skipped_collisions, 1u);
}

TEST(DedupRecorder, TakeResetsTheLog)
{
    DedupRecorder rec;
    rec.observe(0x10, 1, bytes(0xaa));
    const DedupRecord first = rec.take();
    EXPECT_TRUE(first.any());
    EXPECT_FALSE(rec.record().any());
    // A fresh identity after take() starts a fresh log.
    rec.observe(0x10, 1, bytes(0xaa));
    EXPECT_EQ(rec.record().blocks.size(), 1u);
}

// ---------------------------------------------------------------------
// SharedMachTier mechanics
// ---------------------------------------------------------------------

/** One block identity for record(): digest, fill byte, writes. */
struct TestBlock
{
    std::uint32_t digest = 0;
    std::uint8_t fill = 0;
    std::uint32_t writes = 1;
};

TestBlock
block(std::uint32_t digest, std::uint8_t fill,
      std::uint32_t writes = 1)
{
    return TestBlock{digest, fill, writes};
}

DedupRecord
record(std::initializer_list<TestBlock> blocks)
{
    DedupRecord r;
    for (const TestBlock &b : blocks) {
        r.append(b.digest, 0, b.writes, bytes(b.fill));
    }
    return r;
}

TEST(SharedMachTier, SharedAndSelfHitsElideWriteBytes)
{
    SharedMachTier tier(DedupConfig{}, 1);

    // First session: publishes one block, repeats it 3 times.
    DedupLease a;
    const DedupSettle sa =
        tier.publish(0, record({block(0x1, 0xaa, 3)}), a);
    EXPECT_EQ(sa.unique_published, 1u);
    EXPECT_EQ(sa.self_hits, 2u);          // repeats vs its own entry
    EXPECT_EQ(sa.shared_hits, 0u);
    EXPECT_EQ(sa.bytes_elided, 2u * 48u);
    EXPECT_EQ(tier.entries(0), 1u);
    EXPECT_EQ(tier.liveRefs(0), 1u);

    // Second session: all 2 writes are shared hits.
    DedupLease b;
    const DedupSettle sb =
        tier.publish(0, record({block(0x1, 0xaa, 2)}), b);
    EXPECT_EQ(sb.shared_hits, 2u);
    EXPECT_EQ(sb.unique_published, 0u);
    EXPECT_EQ(sb.bytes_elided, 2u * 48u);
    EXPECT_EQ(tier.liveRefs(0), 2u);

    // Leases drain; the current-epoch entry stays resident.
    tier.release(a);
    tier.release(b);
    EXPECT_EQ(tier.liveRefs(0), 0u);
    EXPECT_EQ(tier.entries(0), 1u);
    EXPECT_EQ(tier.staleEntries(0), 0u);
}

TEST(SharedMachTier, VerifyOnHitDemotesMismatches)
{
    SharedMachTier tier(DedupConfig{}, 1);
    DedupLease a;
    tier.publish(0, record({block(0x1, 0xaa)}), a);

    // Same identity, different bytes: the byte compare fails closed -
    // no citation, no overwrite, no insert.
    DedupLease b;
    const DedupSettle sb =
        tier.publish(0, record({block(0x1, 0xcc, 5)}), b);
    EXPECT_EQ(sb.false_hits, 1u);
    EXPECT_EQ(sb.shared_hits, 0u);
    EXPECT_EQ(sb.unique_published, 0u);
    EXPECT_TRUE(b.empty());
    EXPECT_EQ(tier.entries(0), 1u);

    // The honest entry is still citeable.
    DedupLease c;
    const DedupSettle sc =
        tier.publish(0, record({block(0x1, 0xaa)}), c);
    EXPECT_EQ(sc.shared_hits, 1u);
}

TEST(SharedMachTier, BreakerTripsIntoEpochQuarantine)
{
    DedupConfig cfg;
    cfg.breaker_false_hits = 2;
    cfg.quarantine_consults = 3;
    SharedMachTier tier(cfg, 1);

    // One honest entry, still referenced by its publisher.
    DedupLease honest;
    tier.publish(0, record({block(0x1, 0xaa)}), honest);
    // One unreferenced entry (lease released immediately).
    DedupLease tmp;
    tier.publish(0, record({block(0x2, 0xbb)}), tmp);
    tier.release(tmp);
    EXPECT_EQ(tier.entries(0), 2u);

    // Two mismatching consults against the same slot trip the
    // breaker: epoch bumps, unreferenced entries reclaim at once,
    // referenced ones become stale.
    DedupLease junk;
    tier.publish(0, record({block(0x1, 0xcc)}), junk);
    const DedupSettle trip =
        tier.publish(0, record({block(0x1, 0xdd)}), junk);
    EXPECT_EQ(trip.false_hits, 1u);
    EXPECT_EQ(tier.domainStats(0).trips, 1u);
    EXPECT_EQ(tier.domainStats(0).epoch, 1u);
    EXPECT_TRUE(tier.quarantined(0));
    EXPECT_EQ(tier.entries(0), 1u);       // 0x2 reclaimed instantly
    EXPECT_EQ(tier.staleEntries(0), 1u);  // 0x1 drains via release

    // While quarantined, consults are blocked writes - no sharing,
    // no stats pollution.
    DedupLease blocked;
    const DedupSettle sq =
        tier.publish(0, record({block(0x3, 0xee, 4)}), blocked);
    EXPECT_EQ(sq.blocked_writes, 4u);
    EXPECT_EQ(sq.unique_published, 0u);
    EXPECT_TRUE(blocked.empty());

    // The stale entry's last ref drains => it reclaims, refcounts
    // reach zero, and the pre-trip epoch is fully gone.
    tier.release(honest);
    EXPECT_EQ(tier.liveRefs(0), 0u);
    EXPECT_EQ(tier.staleEntries(0), 0u);
    EXPECT_EQ(tier.entries(0), 0u);

    // Cooldown drains consult-by-consult (the blocked probe above
    // already consumed one of the three); sharing then resumes in
    // the new epoch.
    DedupLease after;
    tier.publish(0, record({block(0x4, 0x11)}), after);   // 1 left
    EXPECT_TRUE(tier.quarantined(0));
    tier.publish(0, record({block(0x5, 0x22)}), after);   // 0 left
    EXPECT_FALSE(tier.quarantined(0));
    const DedupSettle fresh =
        tier.publish(0, record({block(0x6, 0x33)}), after);
    EXPECT_EQ(fresh.unique_published, 1u);
}

TEST(SharedMachTier, WipeVoidsLeasesAndSurvivesStats)
{
    SharedMachTier tier(DedupConfig{}, 2);
    DedupLease a, neighbour;
    tier.publish(0, record({block(0x1, 0xaa)}), a);
    tier.publish(1, record({block(0x9, 0x99)}), neighbour);
    DedupLease lease0;
    tier.publish(0, record({block(0x2, 0xbb)}), lease0);

    const std::uint64_t published_before =
        tier.domainStats(0).unique_published;
    tier.wipeDomain(0);
    EXPECT_EQ(tier.entries(0), 0u);
    EXPECT_EQ(tier.domainStats(0).epoch, 1u);
    // Cumulative stats survive the wipe; the neighbour domain is
    // untouched.
    EXPECT_EQ(tier.domainStats(0).unique_published,
              published_before);
    EXPECT_EQ(tier.entries(1), 1u);
    EXPECT_EQ(tier.domainStats(1).epoch, 0u);

    // Releasing a lease against wiped entries is a no-op, not an
    // underflow.
    tier.release(lease0);
    EXPECT_EQ(tier.liveRefs(0), 0u);
}

TEST(SharedMachTier, RepublishRebuildsContentWithoutStats)
{
    SharedMachTier tier(DedupConfig{}, 1);
    tier.wipeDomain(0); // epoch 1, as after a crash
    const DedupDomainStats before = tier.domainStats(0);

    DedupRecord rec = record({block(0x1, 0xaa, 3)});
    tier.republish(0, rec);
    tier.republish(0, rec); // idempotent: first entry wins
    EXPECT_EQ(tier.entries(0), 1u);
    EXPECT_EQ(tier.liveRefs(0), 0u);

    // No settle counters moved: replay must not double-count.
    const DedupDomainStats after = tier.domainStats(0);
    EXPECT_EQ(after.unique_published, before.unique_published);
    EXPECT_EQ(after.shared_hits, before.shared_hits);
    EXPECT_EQ(after.consults, before.consults);

    // The rebuilt entry is citeable at the current epoch.
    DedupLease lease;
    const DedupSettle s =
        tier.publish(0, record({block(0x1, 0xaa)}), lease);
    EXPECT_EQ(s.shared_hits, 1u);
}

TEST(SharedMachTier, LengthMismatchFailsVerifyOnHit)
{
    SharedMachTier tier(DedupConfig{}, 1);
    DedupRecord small;
    small.append(0x1, 0, 1, bytes(0xaa, 48));
    DedupLease a;
    tier.publish(0, small, a);

    // Same identity and fill, 768 B instead of 48 B: the byte
    // compare checks sizes first and demotes the consult.
    DedupRecord large;
    large.append(0x1, 0, 1, bytes(0xaa, 768));
    DedupLease b;
    const DedupSettle s = tier.publish(0, large, b);
    EXPECT_EQ(s.false_hits, 1u);
    EXPECT_EQ(s.shared_hits, 0u);
    EXPECT_TRUE(b.empty());
}

TEST(SharedMachTier, ReleaseAfterWipeSkipsTheReusedSlot)
{
    SharedMachTier tier(DedupConfig{}, 1);
    DedupLease before;
    tier.publish(0, record({block(0x1, 0xaa)}), before);
    tier.wipeDomain(0);

    // The same identity publishes again into the same slot, now
    // under epoch 1.
    DedupLease after;
    tier.publish(0, record({block(0x1, 0xaa)}), after);
    ASSERT_EQ(before.keys.size(), 1u);
    ASSERT_EQ(after.keys.size(), 1u);
    EXPECT_EQ(after.keys[0].slot, before.keys[0].slot);
    EXPECT_EQ(after.keys[0].key, before.keys[0].key);
    EXPECT_EQ(tier.liveRefs(0), 1u);

    // The pre-wipe lease cites the slot at epoch 0: a no-op, not a
    // release of the new entry's ref.
    tier.release(before);
    EXPECT_EQ(tier.liveRefs(0), 1u);
    EXPECT_EQ(tier.entries(0), 1u);
    tier.release(after);
    EXPECT_EQ(tier.liveRefs(0), 0u);
    EXPECT_EQ(tier.entries(0), 1u);
}

TEST(SharedMachTier, FreedSlotTakesASmallerThenALargerBlock)
{
    // A freed slot keeps its arena region for a block that fits its
    // cap, and takes a fresh region for one that does not.  Each round
    // stores a block, cites it, and frees its slot with a breaker trip
    // on a consult that differs in the last byte only.
    DedupConfig cfg;
    cfg.breaker_false_hits = 1;
    cfg.quarantine_consults = 0;
    SharedMachTier tier(cfg, 1);
    const auto one = [](std::uint32_t digest, std::vector<std::uint8_t> b) {
        DedupRecord r;
        r.append(digest, 0, 1, b);
        return r;
    };
    std::vector<std::uint32_t> slots;
    for (const std::size_t n : {48U, 16U, 768U}) {
        const auto digest = static_cast<std::uint32_t>(n);
        std::vector<std::uint8_t> truth = bytes(0xa5, n);
        truth.front() = 0x01;
        tier.republish(0, one(digest, truth));
        DedupLease lease;
        const DedupSettle hit = tier.publish(0, one(digest, truth), lease);
        EXPECT_EQ(hit.shared_hits, 1U) << n << " B";
        ASSERT_EQ(lease.keys.size(), 1U);
        slots.push_back(lease.keys[0].slot);
        tier.release(lease);

        truth.back() ^= 0xff;
        DedupLease none;
        const DedupSettle miss = tier.publish(0, one(digest, truth), none);
        EXPECT_EQ(miss.false_hits, 1U) << n << " B";
        EXPECT_EQ(tier.entries(0), 0U) << n << " B";
    }
    EXPECT_EQ(slots, (std::vector<std::uint32_t>{0, 0, 0}));
    EXPECT_EQ(tier.domainStats(0).trips, 3U);
}

// ---------------------------------------------------------------------
// SharedMachTier vs a std::map reference model
// ---------------------------------------------------------------------

/**
 * The tier as one std::map of owned byte vectors per domain, every
 * lease key looked up again at release: the layout the flat tier
 * replaced, kept as the differential oracle.
 */
class MapTier
{
  public:
    struct Lease
    {
        std::uint32_t domain = 0;
        /** (key, epoch) per acquired ref. */
        std::vector<std::pair<std::uint64_t, std::uint64_t>> keys;
    };

    MapTier(const DedupConfig &cfg, std::uint32_t domains)
        : cfg_(cfg), domains_(domains)
    {
        for (const DedupPoisonRule &rule : cfg_.poison) {
            domains_[rule.domain].poison = rule;
        }
    }

    DedupSettle
    publish(std::uint32_t domain, const DedupRecord &rec, Lease &lease)
    {
        Domain &d = domains_[domain];
        lease.domain = domain;
        DedupSettle settle;
        for (const DedupBlock &b : rec.blocks) {
            const std::span<const std::uint8_t> t = rec.truth(b);
            const std::vector<std::uint8_t> truth(t.begin(), t.end());
            const std::uint64_t size = truth.size();
            if (d.cooldown_left > 0) {
                --d.cooldown_left;
                settle.blocked_writes += b.writes;
                d.stats.blocked_writes += b.writes;
                continue;
            }
            ++d.stats.consults;
            if (++d.window_consults > cfg_.breaker_window) {
                d.window_consults = 1;
                d.window_false = 0;
            }
            std::uint64_t key = dedupKey(b.digest, b.aux);
            if (d.poison.rate > 0.0 && d.have_last_insert &&
                d.last_insert != key) {
                const std::uint64_t draw = mixHash(
                    d.poison.seed ^ mixHash(key) ^
                    (d.stats.consults * 0x9e3779b97f4a7c15ULL));
                const double x =
                    static_cast<double>(draw >> 11) * 0x1.0p-53;
                if (x < d.poison.rate) {
                    key = d.last_insert;
                }
            }
            auto it = d.resident.find(key);
            if (it != d.resident.end() &&
                it->second.epoch == d.stats.epoch) {
                if (it->second.truth == truth) {
                    settle.shared_hits += b.writes;
                    settle.bytes_elided += b.writes * size;
                    d.stats.shared_hits += b.writes;
                    d.stats.bytes_elided += b.writes * size;
                    ++it->second.refs;
                    lease.keys.emplace_back(key, it->second.epoch);
                } else {
                    ++settle.false_hits;
                    ++d.stats.false_hits;
                    if (++d.window_false >= cfg_.breaker_false_hits) {
                        trip(d);
                    }
                }
            } else if (it != d.resident.end()) {
                settle.blocked_writes += b.writes;
                d.stats.blocked_writes += b.writes;
            } else {
                d.resident[key] = Entry{truth, d.stats.epoch, 1};
                lease.keys.emplace_back(key, d.stats.epoch);
                ++settle.unique_published;
                ++d.stats.unique_published;
                settle.self_hits += b.writes - 1;
                settle.bytes_elided += (b.writes - 1) * size;
                d.stats.self_hits += b.writes - 1;
                d.stats.bytes_elided += (b.writes - 1) * size;
                d.have_last_insert = true;
                d.last_insert = key;
            }
        }
        return settle;
    }

    void
    release(const Lease &lease)
    {
        Domain &d = domains_[lease.domain];
        for (const auto &[key, epoch] : lease.keys) {
            auto it = d.resident.find(key);
            if (it == d.resident.end() || it->second.epoch != epoch) {
                continue;
            }
            --it->second.refs;
            if (it->second.refs == 0 &&
                it->second.epoch != d.stats.epoch) {
                d.resident.erase(it);
            }
        }
    }

    void
    republish(std::uint32_t domain, const DedupRecord &rec)
    {
        Domain &d = domains_[domain];
        for (const DedupBlock &b : rec.blocks) {
            const std::uint64_t key = dedupKey(b.digest, b.aux);
            if (d.resident.count(key) != 0) {
                continue;
            }
            const std::span<const std::uint8_t> t = rec.truth(b);
            d.resident[key] =
                Entry{{t.begin(), t.end()}, d.stats.epoch, 0};
            d.have_last_insert = true;
            d.last_insert = key;
        }
    }

    void
    wipeDomain(std::uint32_t domain)
    {
        Domain &d = domains_[domain];
        d.resident.clear();
        ++d.stats.epoch;
        d.window_consults = 0;
        d.window_false = 0;
        d.cooldown_left = 0;
        d.have_last_insert = false;
        d.last_insert = 0;
    }

    const DedupDomainStats &
    domainStats(std::uint32_t domain) const
    {
        return domains_[domain].stats;
    }

    std::uint64_t
    entries(std::uint32_t domain) const
    {
        return domains_[domain].resident.size();
    }

    std::uint64_t
    liveRefs(std::uint32_t domain) const
    {
        std::uint64_t refs = 0;
        for (const auto &kv : domains_[domain].resident) {
            refs += kv.second.refs;
        }
        return refs;
    }

    std::uint64_t
    staleEntries(std::uint32_t domain) const
    {
        const Domain &d = domains_[domain];
        std::uint64_t n = 0;
        for (const auto &kv : d.resident) {
            n += kv.second.epoch != d.stats.epoch ? 1 : 0;
        }
        return n;
    }

    bool
    quarantined(std::uint32_t domain) const
    {
        return domains_[domain].cooldown_left > 0;
    }

  private:
    struct Entry
    {
        std::vector<std::uint8_t> truth;
        std::uint64_t epoch = 0;
        std::uint32_t refs = 0;
    };

    struct Domain
    {
        std::map<std::uint64_t, Entry> resident;
        DedupDomainStats stats;
        std::uint64_t window_consults = 0;
        std::uint64_t window_false = 0;
        std::uint64_t cooldown_left = 0;
        std::uint64_t last_insert = 0;
        bool have_last_insert = false;
        DedupPoisonRule poison;
    };

    void
    trip(Domain &d)
    {
        ++d.stats.trips;
        ++d.stats.epoch;
        d.window_consults = 0;
        d.window_false = 0;
        d.cooldown_left = cfg_.quarantine_consults;
        for (auto it = d.resident.begin(); it != d.resident.end();) {
            it = it->second.refs == 0 ? d.resident.erase(it)
                                      : std::next(it);
        }
    }

    DedupConfig cfg_;
    std::vector<Domain> domains_;
};

void
expectSameSettle(const DedupSettle &a, const DedupSettle &b)
{
    EXPECT_EQ(a.shared_hits, b.shared_hits);
    EXPECT_EQ(a.self_hits, b.self_hits);
    EXPECT_EQ(a.bytes_elided, b.bytes_elided);
    EXPECT_EQ(a.unique_published, b.unique_published);
    EXPECT_EQ(a.false_hits, b.false_hits);
    EXPECT_EQ(a.blocked_writes, b.blocked_writes);
}

/** Every observable of every domain agrees; false on the first
 * difference so a failing sequence stops early. */
bool
sameTier(const SharedMachTier &flat, const MapTier &ref)
{
    for (std::uint32_t d = 0; d < flat.domains(); ++d) {
        const DedupDomainStats &a = flat.domainStats(d);
        const DedupDomainStats &b = ref.domainStats(d);
        const bool same =
            a.epoch == b.epoch && a.trips == b.trips &&
            a.consults == b.consults && a.false_hits == b.false_hits &&
            a.shared_hits == b.shared_hits &&
            a.self_hits == b.self_hits &&
            a.bytes_elided == b.bytes_elided &&
            a.unique_published == b.unique_published &&
            a.blocked_writes == b.blocked_writes &&
            flat.entries(d) == ref.entries(d) &&
            flat.liveRefs(d) == ref.liveRefs(d) &&
            flat.staleEntries(d) == ref.staleEntries(d) &&
            flat.quarantined(d) == ref.quarantined(d);
        EXPECT_TRUE(same) << "domain " << d;
        if (!same) {
            return false;
        }
    }
    return true;
}

/** Identity i's honest bytes.  Domain 1 mixes block sizes: odd
 * identities are 768 B (a 16x16 mab), even ones 48 B. */
std::vector<std::uint8_t>
honestBytes(std::uint32_t domain, std::uint32_t i)
{
    const std::size_t len = domain == 1 && i % 2 == 1 ? 768 : 48;
    std::vector<std::uint8_t> b(len, static_cast<std::uint8_t>(i));
    b[len - 1] = static_cast<std::uint8_t>(0x5a ^ i);
    return b;
}

/** A record of distinct identities drawn from a small universe, so
 * sessions collide often; a few blocks carry forged bytes (another
 * fill, or the right fill at the other size). */
DedupRecord
randomRecord(Random &rng, std::uint32_t domain)
{
    constexpr std::uint32_t kIdentities = 24;
    DedupRecord rec;
    std::vector<bool> taken(kIdentities, false);
    const std::uint64_t n = rng.uniformInt(1, 6);
    for (std::uint64_t k = 0; k < n; ++k) {
        const auto i = static_cast<std::uint32_t>(
            rng.uniformInt(0, kIdentities - 1));
        if (taken[i]) {
            continue; // a recorder never logs an identity twice
        }
        taken[i] = true;
        std::vector<std::uint8_t> truth = honestBytes(domain, i);
        if (rng.chance(0.1)) {
            truth.assign(truth.size(), 0xee);
        } else if (rng.chance(0.05)) {
            truth.assign(truth.size() == 48 ? 768 : 48,
                         static_cast<std::uint8_t>(i));
        }
        rec.append(i * 0x9e37u, static_cast<std::uint16_t>(i % 3),
                   static_cast<std::uint32_t>(rng.uniformInt(1, 4)),
                   truth);
    }
    return rec;
}

/** One seeded op sequence against both tiers; false on the first
 * divergence. */
bool
runDifferential(std::uint64_t seed)
{
    Random rng(seed);
    DedupConfig cfg;
    cfg.enabled = true;
    cfg.breaker_window = rng.uniformInt(4, 64);
    cfg.breaker_false_hits = rng.uniformInt(1, 4);
    cfg.quarantine_consults = rng.uniformInt(0, 8);
    const auto domains =
        static_cast<std::uint32_t>(rng.uniformInt(2, 3));
    if (rng.chance(0.6)) {
        DedupPoisonRule poison;
        poison.domain =
            static_cast<std::uint32_t>(rng.uniformInt(0, domains - 1));
        poison.rate = rng.chance(0.5) ? 1.0 : 0.3;
        poison.seed = rng.next();
        cfg.poison.push_back(poison);
    }
    SharedMachTier flat(cfg, domains);
    MapTier ref(cfg, domains);

    struct Held
    {
        DedupLease flat;
        MapTier::Lease ref;
    };
    std::vector<Held> held;

    const auto releaseAt = [&](std::size_t i) {
        flat.release(held[i].flat);
        ref.release(held[i].ref);
        held[i] = std::move(held.back());
        held.pop_back();
    };

    for (int op = 0; op < 160; ++op) {
        const auto domain =
            static_cast<std::uint32_t>(rng.uniformInt(0, domains - 1));
        const std::uint64_t what = rng.uniformInt(0, 96);
        if (what < 50) {
            const DedupRecord rec = randomRecord(rng, domain);
            Held h;
            const DedupSettle a = flat.publish(domain, rec, h.flat);
            const DedupSettle b = ref.publish(domain, rec, h.ref);
            expectSameSettle(a, b);
            EXPECT_EQ(h.flat.keys.size(), h.ref.keys.size());
            for (std::size_t k = 0; k < h.flat.keys.size() &&
                                    k < h.ref.keys.size();
                 ++k) {
                EXPECT_EQ(h.flat.keys[k].key, h.ref.keys[k].first);
                EXPECT_EQ(h.flat.keys[k].epoch, h.ref.keys[k].second);
            }
            held.push_back(std::move(h));
        } else if (what < 85) {
            if (!held.empty()) {
                // Release in shuffled order, not publish order.
                releaseAt(static_cast<std::size_t>(
                    rng.uniformInt(0, held.size() - 1)));
            }
        } else if (what < 92) {
            const DedupRecord rec = randomRecord(rng, domain);
            flat.republish(domain, rec);
            ref.republish(domain, rec);
        } else {
            flat.wipeDomain(domain);
            ref.wipeDomain(domain);
        }
        if (::testing::Test::HasFailure() || !sameTier(flat, ref)) {
            ADD_FAILURE() << "seed " << seed << " diverged at op "
                          << op;
            return false;
        }
    }
    while (!held.empty()) {
        releaseAt(static_cast<std::size_t>(
            rng.uniformInt(0, held.size() - 1)));
        if (!sameTier(flat, ref)) {
            ADD_FAILURE() << "seed " << seed << " diverged draining";
            return false;
        }
    }
    for (std::uint32_t d = 0; d < domains; ++d) {
        EXPECT_EQ(flat.liveRefs(d), 0u);
        EXPECT_EQ(flat.staleEntries(d), 0u);
    }
    return true;
}

TEST(SharedMachTierDifferential, MatchesMapModelOverSeededOps)
{
    for (std::uint64_t seed = 1; seed <= 1200; ++seed) {
        if (!runDifferential(seed)) {
            break;
        }
    }
}

// ---------------------------------------------------------------------
// Traffic, not pixels
// ---------------------------------------------------------------------

TEST(DedupInvariant, RecordingNeverChangesPixelsOrTiming)
{
    SessionConfig cfg;
    cfg.id = 7;
    cfg.pipeline.profile.key = "T";
    cfg.pipeline.profile.width = 96;
    cfg.pipeline.profile.height = 48;
    cfg.pipeline.profile.frame_count = 48;
    cfg.pipeline.profile.seed = 0xbeef;
    // A MACH scheme: kGab materializes unique blocks, which is what
    // the recorder observes.
    cfg.pipeline.scheme = SchemeConfig::make(Scheme::kGab);

    cfg.dedup_record = false;
    const RehearsedSession off = rehearseSession(cfg);
    cfg.dedup_record = true;
    const RehearsedSession on = rehearseSession(cfg);

    // The recorder observes writes; it never changes them.  Pixels,
    // drops, underruns, timing and energy are bit-identical.
    const PipelineResult &ro = off.outcome.result;
    const PipelineResult &rn = on.outcome.result;
    EXPECT_EQ(rn.display.pixel_digest, ro.display.pixel_digest);
    EXPECT_EQ(rn.drops, ro.drops);
    EXPECT_EQ(rn.underruns, ro.underruns);
    EXPECT_EQ(rn.span, ro.span);
    EXPECT_EQ(rn.energy.total(), ro.energy.total());
    EXPECT_EQ(rn.dram_total.bytes_written,
              ro.dram_total.bytes_written);

    // Only the materialization log differs.
    EXPECT_FALSE(off.outcome.dedup.any());
    EXPECT_TRUE(on.outcome.dedup.any());
    EXPECT_GT(on.outcome.dedup.blocks.size(), 0u);
}

// ---------------------------------------------------------------------
// Fleet: poisoning containment
// ---------------------------------------------------------------------

/** Library-bound tiny session; pure in ArrivalEvent as crash replay
 * requires. */
SessionConfig
dedupSession(const ArrivalEvent &a, const ZipfLibrary &library)
{
    SessionConfig s;
    s.id = a.id;
    s.pipeline.profile.key = "T";
    s.pipeline.profile.width = 96;
    s.pipeline.profile.height = 48;
    s.pipeline.profile.frame_count = 48;
    s.pipeline.profile.seed = 4242 + a.id;
    library.applyTo(s.pipeline.profile, library.sampleTitle(a.id));
    s.pipeline.scheme = SchemeConfig::make(Scheme::kGab);
    s.stats_group = a.mix % 2 == 0 ? "even" : "odd";
    return s;
}

ZipfLibrary
testLibrary()
{
    LibrarySpec spec;
    spec.titles = 6;
    spec.skew = 1.0;
    spec.seed = 11;
    return ZipfLibrary(spec);
}

FleetConfig
dedupFleetConfig(std::uint32_t shards, unsigned jobs)
{
    const ZipfLibrary library = testLibrary();
    const SessionConfig probe =
        dedupSession(ArrivalEvent{}, library);
    FleetConfig cfg;
    cfg.serve.bandwidth_budget_mbps =
        Session::demandMBps(probe.pipeline) * 8.5;
    cfg.serve.framebuffer_budget_bytes =
        Session::framebufferBytes(probe.pipeline) * 100;
    cfg.serve.max_active = 8;
    cfg.shards = shards;
    cfg.jobs = jobs;
    cfg.rehearse_block = 16;
    return cfg;
}

std::vector<ArrivalEvent>
dedupArrivals(std::uint64_t count = 40)
{
    PoissonArrivalConfig p;
    p.seed = 0xdedu;
    p.rate_per_s = 25.0;
    p.count = count;
    p.leave_probability = 0.2;
    p.min_watch = 100 * sim_clock::ms;
    p.max_watch = 400 * sim_clock::ms;
    p.num_mixes = 2;
    return poissonArrivals(p);
}

std::string
snapshotJson(const StatsSnapshot &snap)
{
    std::ostringstream os;
    JsonWriter w(os, /*pretty=*/true);
    w.beginObject();
    w.key("stats");
    snap.dumpJson(w);
    w.endObject();
    return os.str();
}

/** Drop `dedup.*` keyed lines so a dedup-on shard snapshot can be
 * compared byte-wise against a dedup-off one.  Works because the
 * dedup counters are never the last key of their object (the
 * state.* counters sort after them). */
std::string
stripDedupKeys(const std::string &json)
{
    std::istringstream is(json);
    std::ostringstream os;
    std::string line;
    while (std::getline(is, line)) {
        if (line.find("\"dedup.") != std::string::npos) {
            continue;
        }
        os << line << "\n";
    }
    return os.str();
}

TEST(DedupFleet, PoisonedDomainNeverLeaksIntoNeighbours)
{
    const ZipfLibrary library = testLibrary();
    const std::vector<ArrivalEvent> arrivals = dedupArrivals();
    const auto factory = [&](const ArrivalEvent &a) {
        return dedupSession(a, library);
    };

    FleetConfig off = dedupFleetConfig(/*shards=*/4, /*jobs=*/2);
    Placer off_placer(off, factory);
    off_placer.run(arrivals);

    FleetConfig on = off;
    on.dedup.enabled = true;
    on.dedup.breaker_false_hits = 2;
    on.dedup.quarantine_consults = 4;
    DedupPoisonRule poison;
    poison.domain = 1;
    poison.rate = 1.0;
    poison.seed = 5;
    on.dedup.poison.push_back(poison);
    Placer on_placer(on, factory);
    on_placer.run(arrivals);

    const SharedMachTier *tier = on_placer.dedupTier();
    ASSERT_NE(tier, nullptr);

    // The poisoned domain saw the storm: verify-on-hit demotions and
    // at least one breaker trip / epoch bump.
    EXPECT_GT(tier->domainStats(1).false_hits, 0u);
    EXPECT_GT(tier->domainStats(1).trips, 0u);
    EXPECT_GT(tier->domainStats(1).epoch, 0u);

    // Blast radius: the neighbours never saw a single false hit,
    // trip, or epoch bump.
    for (const std::uint32_t d : {0u, 2u, 3u}) {
        EXPECT_EQ(tier->domainStats(d).false_hits, 0u) << d;
        EXPECT_EQ(tier->domainStats(d).trips, 0u) << d;
        EXPECT_EQ(tier->domainStats(d).epoch, 0u) << d;
    }

    // Every session finished, so every quarantined epoch drained:
    // zero live refs and zero stale entries everywhere.
    for (std::uint32_t d = 0; d < tier->domains(); ++d) {
        EXPECT_EQ(tier->liveRefs(d), 0u) << d;
        EXPECT_EQ(tier->staleEntries(d), 0u) << d;
    }

    // Traffic, not pixels, fleet-wide: modulo the dedup.* accounting
    // keys, every shard's snapshot - poisoned domain included - is
    // byte-identical to the dedup-off run's.
    ASSERT_EQ(on_placer.shards().size(), off_placer.shards().size());
    for (std::size_t i = 0; i < on_placer.shards().size(); ++i) {
        EXPECT_EQ(
            stripDedupKeys(
                snapshotJson(on_placer.shards()[i].snapshot())),
            snapshotJson(off_placer.shards()[i].snapshot()))
            << "shard " << i;
    }

    // Arrival accounting stays exact under poisoning.
    EXPECT_EQ(on_placer.admitted() + on_placer.rejected() +
                  on_placer.recovery().shed +
                  on_placer.recovery().queue_timeouts,
              arrivals.size());
    EXPECT_EQ(on_placer.admitted(), off_placer.admitted());
    EXPECT_EQ(on_placer.rejected(), off_placer.rejected());
}

// ---------------------------------------------------------------------
// Fleet: determinism under dedup + chaos
// ---------------------------------------------------------------------

std::string
fleetReport(const FleetConfig &cfg,
            const std::vector<ArrivalEvent> &arrivals,
            const ZipfLibrary &library = testLibrary())
{
    Placer placer(cfg, [&](const ArrivalEvent &a) {
        return dedupSession(a, library);
    });
    placer.run(arrivals);
    std::ostringstream os;
    writeFleetReport(os, placer, "test_dedup", arrivals.size(),
                     /*wall_clock_seconds=*/0.0,
                     /*invariant_failures=*/0);
    return os.str();
}

TEST(DedupFleet, CrashRecoveryIsJobInvariantWithDedup)
{
    const std::vector<ArrivalEvent> arrivals = dedupArrivals();

    FleetConfig cfg = dedupFleetConfig(/*shards=*/3, /*jobs=*/1);
    cfg.dedup.enabled = true;
    cfg.chaos.checkpoint_period = 100 * sim_clock::ms;
    FleetFaultRule crash;
    crash.cls = FleetFaultClass::kShardCrash;
    crash.at = 400 * sim_clock::ms;
    crash.shard = 1;
    cfg.chaos.rules.push_back(crash);

    const std::string j1 = fleetReport(cfg, arrivals);
    cfg.jobs = 4;
    const std::string j4 = fleetReport(cfg, arrivals);
    // Crash, journal replay, dedup republish: still byte-identical
    // at any job count.
    EXPECT_EQ(j1, j4);
    // The dedup block is present (tier on) and the crashed domain's
    // epoch advanced (wipe on crash).
    EXPECT_NE(j1.find("\"dedup\":"), std::string::npos);
}

TEST(DedupFleet, WarmContentStoreServesTheLibrary)
{
    // A library's titles recur, so the content store keeps them: a
    // second pass of the same fleet generates almost nothing, and
    // the report does not depend on what the store held.
    LibrarySpec spec;
    spec.titles = 6;
    spec.skew = 1.0;
    spec.seed = 0x5702e; // titles no other test plays: a cold store
    const ZipfLibrary library(spec);
    const std::vector<ArrivalEvent> arrivals = dedupArrivals(120);
    FleetConfig cfg = dedupFleetConfig(/*shards=*/2, /*jobs=*/2);
    cfg.dedup.enabled = true;

    const SyntheticVideo::StoreStats cold = SyntheticVideo::storeStats();
    const std::string first = fleetReport(cfg, arrivals, library);
    const SyntheticVideo::StoreStats warm = SyntheticVideo::storeStats();
    const std::string second = fleetReport(cfg, arrivals, library);
    const SyntheticVideo::StoreStats done = SyntheticVideo::storeStats();

    EXPECT_EQ(first, second);
    EXPECT_GT(warm.misses, cold.misses);
    const std::uint64_t hits = done.hits - warm.hits;
    const std::uint64_t misses = done.misses - warm.misses;
    ASSERT_GT(hits + misses, 0U);
    EXPECT_GE(static_cast<double>(hits) / static_cast<double>(hits + misses),
              0.9)
        << hits << " hits, " << misses << " misses";
    EXPECT_LE(done.kept_bytes, SyntheticVideo::kSharedBudgetBytes);
}

} // namespace
} // namespace vstream
