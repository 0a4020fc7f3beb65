#include "serve/shared_mach.hh"

#include <cstring>

#include "sim/logging.hh"
#include "sim/spec_fields.hh"
#include "video/pixel_kernels.hh"

namespace vstream
{

std::uint64_t
DedupRecord::totalWrites() const
{
    std::uint64_t n = 0;
    for (const DedupBlock &b : blocks) {
        n += b.writes;
    }
    return n;
}

void
DedupRecord::append(std::uint32_t digest, std::uint16_t aux,
                    std::uint32_t writes,
                    std::span<const std::uint8_t> truth)
{
    vs_assert(arena.size() + truth.size() <= UINT32_MAX,
              "dedup record arena exceeds 4 GiB");
    DedupBlock b;
    b.digest = digest;
    b.aux = aux;
    b.writes = writes;
    b.offset = static_cast<std::uint32_t>(arena.size());
    b.len = static_cast<std::uint32_t>(truth.size());
    arena.insert(arena.end(), truth.begin(), truth.end());
    blocks.push_back(b);
}

void
DedupRecorder::observe(std::uint32_t digest, std::uint16_t aux,
                       std::span<const std::uint8_t> truth)
{
    const std::uint64_t key = dedupKey(digest, aux);
    if (const std::uint32_t *idx = index_.find(key)) {
        DedupBlock &b = rec_.blocks[*idx];
        if (!blockEqual(rec_.truth(b), truth)) {
            // Organic collision inside one session: two different
            // blocks share a (digest, aux).  Citing either from the
            // shared tier would be a latent false hit, so neither is
            // offered for dedup.
            ++rec_.skipped_collisions;
            return;
        }
        ++b.writes;
        return;
    }
    index_[key] =
        static_cast<std::uint32_t>(rec_.blocks.size());
    rec_.append(digest, aux, 1, truth);
}

DedupRecord
DedupRecorder::take()
{
    DedupRecord out = std::move(rec_);
    rec_ = DedupRecord{};
    index_.clear();
    return out;
}

namespace
{

constexpr spec_fields::RealField kRate{"rate", 0.0, 1.0, false,
                                       " (need [0, 1])"};

} // namespace

bool
tryParseDedupPoisonRule(const std::string &spec, DedupPoisonRule &out,
                        std::string &error)
{
    DedupPoisonRule rule;
    bool have_rate = false;

    const bool fields_ok = spec_fields::forEachField(
        spec, error,
        [&](const std::string &key, const std::string &value) {
            if (key == "domain") {
                return spec_fields::tryParseU32(value, "domain",
                                                rule.domain, error);
            }
            if (key == "rate") {
                have_rate = true;
                return spec_fields::tryParseReal(value, kRate,
                                                 rule.rate, error);
            }
            if (key == "seed") {
                return spec_fields::tryParseCount(value, rule.seed,
                                                  error);
            }
            return spec_fields::unknownKey(key, error);
        });
    if (!fields_ok) {
        return false;
    }

    if (!have_rate) {
        error = "poison rule needs rate=F";
        return false;
    }
    out = rule;
    return true;
}

bool
DedupSettle::any() const
{
    return shared_hits != 0 || self_hits != 0 || bytes_elided != 0 ||
           unique_published != 0 || false_hits != 0 ||
           blocked_writes != 0;
}

DedupSettle &
DedupSettle::operator+=(const DedupSettle &o)
{
    shared_hits += o.shared_hits;
    self_hits += o.self_hits;
    bytes_elided += o.bytes_elided;
    unique_published += o.unique_published;
    false_hits += o.false_hits;
    blocked_writes += o.blocked_writes;
    return *this;
}

DedupDomainStats &
DedupDomainStats::operator+=(const DedupDomainStats &o)
{
    // Epoch is structural, not additive: totals report the max.
    epoch = epoch > o.epoch ? epoch : o.epoch;
    trips += o.trips;
    consults += o.consults;
    false_hits += o.false_hits;
    shared_hits += o.shared_hits;
    self_hits += o.self_hits;
    bytes_elided += o.bytes_elided;
    unique_published += o.unique_published;
    blocked_writes += o.blocked_writes;
    return *this;
}

SharedMachTier::SharedMachTier(const DedupConfig &cfg,
                               std::uint32_t domains)
    : cfg_(cfg)
{
    vs_assert(domains >= 1, "shared tier needs >= 1 domain");
    vs_assert(cfg_.breaker_window >= 1,
              "dedup breaker window must be >= 1");
    vs_assert(cfg_.breaker_false_hits >= 1,
              "dedup breaker threshold must be >= 1");
    domains_.resize(domains);
    for (const DedupPoisonRule &rule : cfg_.poison) {
        vs_assert(rule.domain < domains,
                  "dedup poison rule targets a missing domain");
        vs_assert(rule.rate >= 0.0 && rule.rate <= 1.0,
                  "dedup poison rate outside [0, 1]");
        domains_[rule.domain].poison = rule;
    }
}

SharedMachTier::Domain &
SharedMachTier::domainAt(std::uint32_t domain)
{
    vs_assert(domain < domains_.size(),
              "dedup domain out of range");
    return domains_[domain];
}

const SharedMachTier::Domain &
SharedMachTier::domainAt(std::uint32_t domain) const
{
    vs_assert(domain < domains_.size(),
              "dedup domain out of range");
    return domains_[domain];
}

std::uint32_t
SharedMachTier::insert(Domain &d, std::uint64_t key,
                       std::span<const std::uint8_t> truth,
                       std::uint32_t refs)
{
    std::uint32_t slot;
    if (!d.free_slots.empty()) {
        slot = d.free_slots.back();
        d.free_slots.pop_back();
    } else {
        slot = static_cast<std::uint32_t>(d.slab.size());
        d.slab.emplace_back();
    }
    Entry &e = d.slab[slot];
    vs_assert(truth.size() <= UINT16_MAX,
              "dedup block exceeds 65,535 bytes");
    vs_assert(d.stats.epoch <= UINT32_MAX, "dedup epoch exceeds 2^32");
    const auto len = static_cast<std::uint16_t>(truth.size());
    if (e.cap < len) {
        // A fresh slot, or one whose old region is too small (only
        // a domain mixing block sizes ever abandons a region).
        vs_assert(d.arena.size() + len <= UINT32_MAX,
                  "dedup arena exceeds 4 GiB");
        e.offset = static_cast<std::uint32_t>(d.arena.size());
        e.cap = len;
        d.arena.resize(d.arena.size() + len);
    }
    if (len > 0) {
        std::memcpy(d.arena.data() + e.offset, truth.data(), len);
    }
    e.key = key;
    e.epoch = static_cast<std::uint32_t>(d.stats.epoch);
    e.refs = refs;
    e.len = len;
    e.used = 1;
    d.index[key] = slot;
    d.have_last_insert = true;
    d.last_insert = key;
    return slot;
}

void
SharedMachTier::freeSlot(Domain &d, std::uint32_t slot)
{
    Entry &e = d.slab[slot];
    d.index.erase(e.key);
    e.used = 0;
    d.free_slots.push_back(slot);
}

void
SharedMachTier::tripBreaker(Domain &d)
{
    ++d.stats.trips;
    ++d.stats.epoch;
    d.window_consults = 0;
    d.window_false = 0;
    d.cooldown_left = cfg_.quarantine_consults;
    // Unreferenced entries reclaim immediately; referenced ones are
    // now stale (unciteable) and drain via release().
    for (std::uint32_t s = 0; s < d.slab.size(); ++s) {
        if (d.slab[s].used && d.slab[s].refs == 0) {
            freeSlot(d, s);
        }
    }
}

DedupSettle
SharedMachTier::publish(std::uint32_t domain, const DedupRecord &rec,
                        DedupLease &lease)
{
    Domain &d = domainAt(domain);
    lease.domain = domain;
    DedupSettle settle;

    for (const DedupBlock &b : rec.blocks) {
        const std::uint64_t size = b.len;
        if (d.cooldown_left > 0) {
            // Quarantined: the domain ignores consults until the
            // cooldown drains; every write stays a real write.
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
            // Deterministic injected collision: forge the key onto
            // the most recently published entry.  If its bytes
            // differ, verify-on-hit must catch it.
            const std::uint64_t draw = mixHash(
                d.poison.seed ^ mixHash(key) ^
                (d.stats.consults * 0x9e3779b97f4a7c15ULL));
            const double x =
                static_cast<double>(draw >> 11) * 0x1.0p-53;
            if (x < d.poison.rate) {
                key = d.last_insert;
            }
        }

        const std::uint32_t *found = d.index.find(key);
        if (found != nullptr &&
            d.slab[*found].epoch == d.stats.epoch) {
            const std::uint32_t slot = *found;
            Entry &e = d.slab[slot];
            const std::span<const std::uint8_t> stored{
                d.arena.data() + e.offset, e.len};
            if (blockEqual(stored, rec.truth(b))) {
                // Verified shared hit: every write of this block is
                // elided from the DRAM accounting.
                settle.shared_hits += b.writes;
                settle.bytes_elided += b.writes * size;
                d.stats.shared_hits += b.writes;
                d.stats.bytes_elided += b.writes * size;
                vs_assert(e.refs < (1U << 31) - 1,
                          "dedup refcount overflows");
                ++e.refs;
                lease.keys.push_back(
                    DedupLeaseKey{key, e.epoch, slot});
            } else {
                // Verify-on-hit byte compare failed: fail closed (no
                // citation, no insert) and feed the breaker.
                ++settle.false_hits;
                ++d.stats.false_hits;
                if (++d.window_false >= cfg_.breaker_false_hits) {
                    tripBreaker(d);
                }
            }
        } else if (found != nullptr) {
            // The slot holds a stale-epoch entry still draining its
            // refs; nothing can publish or cite here until it
            // reclaims.
            settle.blocked_writes += b.writes;
            d.stats.blocked_writes += b.writes;
        } else {
            const std::uint32_t slot =
                insert(d, key, rec.truth(b), /*refs=*/1);
            lease.keys.push_back(
                DedupLeaseKey{key, d.stats.epoch, slot});
            ++settle.unique_published;
            ++d.stats.unique_published;
            // The session's own repeat writes of this block are
            // elided against its fresh entry.
            settle.self_hits += b.writes - 1;
            settle.bytes_elided += (b.writes - 1) * size;
            d.stats.self_hits += b.writes - 1;
            d.stats.bytes_elided += (b.writes - 1) * size;
        }
    }
    return settle;
}

void
SharedMachTier::release(const DedupLease &lease)
{
    Domain &d = domainAt(lease.domain);
    for (const DedupLeaseKey &lk : lease.keys) {
        if (lk.slot >= d.slab.size()) {
            continue; // the slab was wiped and has not regrown
        }
        Entry &e = d.slab[lk.slot];
        if (!e.used || e.key != lk.key || e.epoch != lk.epoch) {
            // Wiped (crash) or replaced under a newer epoch: the
            // lease was voided with the entry.
            continue;
        }
        vs_assert(e.refs > 0, "dedup release underflows a refcount");
        --e.refs;
        if (e.refs == 0 && e.epoch != d.stats.epoch) {
            // Quarantined epoch fully drained: reclaim.
            freeSlot(d, lk.slot);
        }
    }
}

void
SharedMachTier::republish(std::uint32_t domain,
                          const DedupRecord &rec)
{
    Domain &d = domainAt(domain);
    for (const DedupBlock &b : rec.blocks) {
        const std::uint64_t key = dedupKey(b.digest, b.aux);
        if (d.index.find(key) != nullptr) {
            // First journal entry wins; a differing-content later
            // block stays out (fail closed).
            continue;
        }
        insert(d, key, rec.truth(b), /*refs=*/0);
    }
}

void
SharedMachTier::wipeDomain(std::uint32_t domain)
{
    Domain &d = domainAt(domain);
    d.slab.clear();
    d.free_slots.clear();
    d.arena.clear();
    d.index.clear();
    ++d.stats.epoch;
    d.window_consults = 0;
    d.window_false = 0;
    d.cooldown_left = 0;
    d.have_last_insert = false;
    d.last_insert = 0;
}

const DedupDomainStats &
SharedMachTier::domainStats(std::uint32_t domain) const
{
    return domainAt(domain).stats;
}

DedupDomainStats
SharedMachTier::totals() const
{
    DedupDomainStats total;
    for (const Domain &d : domains_) {
        total += d.stats;
    }
    return total;
}

std::uint64_t
SharedMachTier::entries(std::uint32_t domain) const
{
    return domainAt(domain).index.size();
}

std::uint64_t
SharedMachTier::liveRefs(std::uint32_t domain) const
{
    std::uint64_t refs = 0;
    for (const Entry &e : domainAt(domain).slab) {
        if (e.used) {
            refs += e.refs;
        }
    }
    return refs;
}

std::uint64_t
SharedMachTier::staleEntries(std::uint32_t domain) const
{
    const Domain &d = domainAt(domain);
    std::uint64_t n = 0;
    for (const Entry &e : d.slab) {
        if (e.used && e.epoch != d.stats.epoch) {
            ++n;
        }
    }
    return n;
}

bool
SharedMachTier::quarantined(std::uint32_t domain) const
{
    return domainAt(domain).cooldown_left > 0;
}

} // namespace vstream
