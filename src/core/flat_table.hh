/**
 * @file
 * Open-addressing hash containers for integer keys.
 *
 * The MACH hot loops (match counting, frame-buffer block offsets,
 * similarity windows) all map small integer keys to small values and
 * never erase individual entries — they only grow and are dropped
 * wholesale.  std::unordered_map pays a node allocation per insert
 * and a pointer chase per probe for that pattern; these tables keep
 * every slot in one contiguous vector with power-of-two capacity and
 * linear probing, so the common probe touches one cache line and
 * insertion allocates only on growth.
 *
 * Deliberately minimal: no iterators (forEach instead), and keys must
 * be trivially copyable integers.  Iteration order depends on
 * hashing, so callers that feed output must sort — the same rule
 * std::unordered_map already imposed.
 *
 * erase() uses tombstones: probes walk over them, inserts reuse
 * them, and any rehash drops them.  A table that never erases never
 * sees a tombstone, so its probe sequences, growth points and memory
 * layout are bit-for-bit those of the original insert-only table —
 * the determinism contract (byte-identical stats JSON) cannot shift
 * for existing callers.
 */

#ifndef VSTREAM_CORE_FLAT_TABLE_HH
#define VSTREAM_CORE_FLAT_TABLE_HH

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/logging.hh"

namespace vstream
{

/** SplitMix64 finalizer: cheap, well-distributed integer hash. */
constexpr std::uint64_t
mixHash(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Power-of-two slot count (at least 16) that holds @p n entries
 * under a 3/4 load factor. */
constexpr std::size_t
flatCapacityFor(std::size_t n)
{
    std::size_t want = 16;
    while (want * 3 < n * 4) {
        want <<= 1;
    }
    return want;
}

/**
 * Flat open-addressing map from an integer key to a value.
 * Per-entry erase leaves a tombstone; clear() drops everything.
 */
template <typename Key, typename Value>
class FlatMap
{
    static_assert(std::is_integral_v<Key>,
                  "FlatMap keys must be integers");

  public:
    FlatMap() = default;

    /** Entries currently stored. */
    std::size_t size() const { return size_; }

    /** Slots allocated (a power of two, or 0 before first insert).
     * Exposed so tests can pin growth points and tombstone reuse. */
    std::size_t capacity() const { return slots_.size(); }

    bool empty() const { return size_ == 0; }

    /** Drop all entries (and tombstones) but keep the allocation. */
    void
    clear()
    {
        for (Slot &s : slots_) {
            s.used = false;
            s.tomb = false;
        }
        size_ = 0;
        tombs_ = 0;
    }

    /** Pre-size so @p n entries insert without rehashing. */
    void
    reserve(std::size_t n)
    {
        const std::size_t want = flatCapacityFor(n);
        if (want > slots_.size()) {
            rehash(want);
        }
    }

    /** Pointer to the value for @p key, or nullptr if absent. */
    // vstream:hot
    Value *
    find(Key key)
    {
        if (slots_.empty()) {
            return nullptr;
        }
        const std::size_t mask = slots_.size() - 1;
        std::size_t i =
            static_cast<std::size_t>(
                mixHash(static_cast<std::uint64_t>(key))) &
            mask;
        while (slots_[i].used || slots_[i].tomb) {
            if (slots_[i].used && slots_[i].key == key) {
                return &slots_[i].value;
            }
            i = (i + 1) & mask;
        }
        return nullptr;
    }

    const Value *
    find(Key key) const
    {
        return const_cast<FlatMap *>(this)->find(key);
    }

    /**
     * Value for @p key, inserting a value-initialized entry when
     * absent (the ++counts[digest] idiom).
     */
    // vstream:hot
    Value &
    operator[](Key key)
    {
        if (slots_.empty() ||
            (size_ + tombs_ + 1) * 4 > slots_.size() * 3) {
            // Grow only when live entries demand it; a table crossing
            // the load threshold on tombstones alone rehashes at the
            // same capacity, which reclaims every tombstone.
            const std::size_t cap =
                slots_.empty()
                    ? 16
                    : ((size_ + 1) * 4 > slots_.size() * 3
                           ? slots_.size() * 2
                           : slots_.size());
            rehash(cap);
        }
        const std::size_t mask = slots_.size() - 1;
        std::size_t i =
            static_cast<std::size_t>(
                mixHash(static_cast<std::uint64_t>(key))) &
            mask;
        std::size_t first_tomb = kNoSlot;
        while (slots_[i].used || slots_[i].tomb) {
            if (slots_[i].used) {
                if (slots_[i].key == key) {
                    return slots_[i].value;
                }
            } else if (first_tomb == kNoSlot) {
                first_tomb = i;
            }
            i = (i + 1) & mask;
        }
        if (first_tomb != kNoSlot) {
            i = first_tomb;
            slots_[i].tomb = false;
            --tombs_;
        }
        slots_[i].used = true;
        slots_[i].key = key;
        slots_[i].value = Value{};
        ++size_;
        return slots_[i].value;
    }

    /** Remove @p key; true when it was present. */
    bool
    erase(Key key)
    {
        if (slots_.empty()) {
            return false;
        }
        const std::size_t mask = slots_.size() - 1;
        std::size_t i =
            static_cast<std::size_t>(
                mixHash(static_cast<std::uint64_t>(key))) &
            mask;
        while (slots_[i].used || slots_[i].tomb) {
            if (slots_[i].used && slots_[i].key == key) {
                slots_[i].used = false;
                slots_[i].tomb = true;
                slots_[i].value = Value{}; // release held resources
                --size_;
                ++tombs_;
                return true;
            }
            i = (i + 1) & mask;
        }
        return false;
    }

    /** Visit every entry as fn(key, value); unspecified order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const Slot &s : slots_) {
            if (s.used) {
                fn(s.key, s.value);
            }
        }
    }

  private:
    static constexpr std::size_t kNoSlot =
        static_cast<std::size_t>(-1);

    struct Slot
    {
        Key key{};
        Value value{};
        bool used = false;
        bool tomb = false;
    };

    void
    rehash(std::size_t capacity)
    {
        vs_assert((capacity & (capacity - 1)) == 0,
                  "flat table capacity must be a power of two");
        std::vector<Slot> old = std::move(slots_);
        slots_.clear();
        slots_.resize(capacity);
        const std::size_t mask = capacity - 1;
        for (Slot &s : old) {
            if (!s.used) {
                continue; // empty or tombstone: dropped either way
            }
            std::size_t i =
                static_cast<std::size_t>(
                    mixHash(static_cast<std::uint64_t>(s.key))) &
                mask;
            while (slots_[i].used) {
                i = (i + 1) & mask;
            }
            slots_[i] = std::move(s);
        }
        tombs_ = 0;
    }

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
    std::size_t tombs_ = 0;
};

/** Flat open-addressing set of integer keys. */
template <typename Key>
class FlatSet
{
    static_assert(std::is_integral_v<Key>,
                  "FlatSet keys must be integers");

  public:
    FlatSet() = default;

    std::size_t size() const { return map_.size(); }

    std::size_t capacity() const { return map_.capacity(); }

    bool empty() const { return map_.empty(); }

    void clear() { map_.clear(); }

    void reserve(std::size_t n) { map_.reserve(n); }

    bool contains(Key key) const { return map_.find(key) != nullptr; }

    /** Insert @p key; true when it was not present before. */
    // vstream:hot
    bool
    insert(Key key)
    {
        const std::size_t before = map_.size();
        map_[key] = true;
        return map_.size() != before;
    }

    /** Remove @p key; true when it was present. */
    bool erase(Key key) { return map_.erase(key); }

  private:
    FlatMap<Key, bool> map_;
};

/**
 * Flat counter of 32-bit keys: one 8-byte word per slot, the key in
 * its low half and the count in its high half (a zero word is an
 * empty slot), so a table reserved for 16,384 keys takes 256 KB where
 * a FlatMap<std::uint32_t, std::uint64_t> takes 768 KB.  A count that
 * would pass @c carry_at moves that many into a spill map, which
 * stays empty (and allocates nothing) until then: counts are exact
 * however long the run.
 */
class FlatCounter
{
  public:
    /** @param carry_at the most a slot counts before carrying (tests
     *     lower it to reach the spill map). */
    explicit FlatCounter(std::uint32_t carry_at = UINT32_MAX)
        : carry_at_(carry_at)
    {
        vs_assert(carry_at > 0, "flat counter needs a positive carry");
    }

    /** Distinct keys counted. */
    std::size_t size() const { return size_; }

    /** Pre-size so @p n keys insert without rehashing. */
    void
    reserve(std::size_t n)
    {
        const std::size_t want = flatCapacityFor(n);
        if (want > slots_.size()) {
            rehash(want);
        }
    }

    /** Count one more of @p key. */
    // vstream:hot
    void
    add(std::uint32_t key)
    {
        if ((size_ + 1) * 4 > slots_.size() * 3) {
            rehash(slots_.empty() ? 16 : slots_.size() * 2);
        }
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = static_cast<std::size_t>(mixHash(key)) & mask;
        while (slots_[i] != 0) {
            if (static_cast<std::uint32_t>(slots_[i]) == key) {
                if ((slots_[i] >> 32) == carry_at_) {
                    carried_[key] += carry_at_;
                    slots_[i] = kOne | key;
                } else {
                    slots_[i] += kOne;
                }
                return;
            }
            i = (i + 1) & mask;
        }
        slots_[i] = kOne | key;
        ++size_;
    }

    /** Visit every key as fn(key, count); unspecified order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const std::uint64_t w : slots_) {
            if (w == 0) {
                continue;
            }
            const auto key = static_cast<std::uint32_t>(w);
            const std::uint64_t *carried = carried_.find(key);
            fn(key, (w >> 32) + (carried ? *carried : 0));
        }
    }

  private:
    static constexpr std::uint64_t kOne = std::uint64_t{1} << 32;

    // vstream:allow(no-hotpath-alloc) add() grows the table only past
    // what reserve() sized it for
    void
    rehash(std::size_t capacity)
    {
        std::vector<std::uint64_t> old = std::move(slots_);
        slots_.assign(capacity, 0);
        const std::size_t mask = capacity - 1;
        for (const std::uint64_t w : old) {
            if (w == 0) {
                continue;
            }
            std::size_t i = static_cast<std::size_t>(
                                mixHash(static_cast<std::uint32_t>(w))) &
                            mask;
            while (slots_[i] != 0) {
                i = (i + 1) & mask;
            }
            slots_[i] = w;
        }
    }

    std::uint32_t carry_at_;
    std::vector<std::uint64_t> slots_;
    std::size_t size_ = 0;
    FlatMap<std::uint32_t, std::uint64_t> carried_;
};

} // namespace vstream

#endif // VSTREAM_CORE_FLAT_TABLE_HH
