#include "core/mach_table.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "sim/logging.hh"
#include "video/pixel_kernels.hh"

namespace vstream
{

MachTable::MachTable(const MachConfig &cfg, std::uint32_t entries,
                     std::uint32_t slots, bool full_tags)
    : sets_(entries / cfg.ways), ways_(cfg.ways), slots_(slots),
      full_tags_(full_tags), co_mach_(cfg.co_mach),
      set_stride_((slots * cfg.ways + 3) / 4 * 4),
      wide_(slots * cfg.ways > 64),
      way_mask_(cfg.ways >= 64 ? ~std::uint64_t{0}
                               : (std::uint64_t{1} << cfg.ways) - 1),
      digests_(static_cast<std::size_t>(sets_) * set_stride_, 0),
      auxes_(digests_.size(), 0), ptrs_(digests_.size(), 0),
      fill_(static_cast<std::size_t>(sets_) * slots_, 0),
      valid_(wide_ ? 0 : sets_, 0), slot_valid_(slots_, 0),
      stamps_(static_cast<std::size_t>(sets_) * ways_, 0)
{
    vs_assert(slots_ > 0, "a MACH table needs a slot");
    vs_assert(sets_ > 0 && (sets_ & (sets_ - 1)) == 0,
              "MACH set count must be a power of two");
}

// vstream:hot
std::uint64_t
MachTable::matchMask(std::uint32_t set, std::uint32_t digest) const
{
    const std::uint32_t *d = digests_.data() + entryIndex(set, 0, 0);
    std::uint64_t mask = 0;
#if defined(__SSE2__)
    // Four digests per compare; set_stride_ is a multiple of four.
    const __m128i key = _mm_set1_epi32(static_cast<int>(digest));
    for (std::uint32_t i = 0; i < set_stride_; i += 4) {
        const __m128i v =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(d + i));
        const int bits =
            _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(v, key)));
        mask |= static_cast<std::uint64_t>(bits) << i;
    }
#else
    for (std::uint32_t i = 0; i < set_stride_; ++i) {
        mask |= static_cast<std::uint64_t>(d[i] == digest) << i;
    }
#endif
    return mask;
}

// vstream:hot
bool
MachTable::checkEntry(std::uint32_t set, std::uint32_t age,
                      std::uint32_t way, std::uint16_t aux,
                      std::span<const std::uint8_t> truth,
                      MachProbe &probe)
{
    const std::uint32_t slot = slotOfAge(age);
    const std::size_t e = entryIndex(set, slot, way);
    if (auxes_[e] != aux) {
        if (full_tags_) {
            return false;
        }
        if (co_mach_) {
            // Primary digest collided; the CRC16 check caught it.
            probe.collision_detected = true;
            return false;
        }
    }
    probe.hit = true;
    probe.age = age;
    probe.ptr = ptrs_[e];
    if (truth.size() != truth_stride_ ||
        !blockEqual(truth_arena_.data() + truthOffset(set, slot, way),
                    truth.data(), truth.size())) {
        // The (possibly 48-bit) tag matched but the content differs:
        // an undetected collision.
        probe.collision_undetected = true;
    }
    if (age == 0) {
        touch(set, way);
    }
    return true;
}

// vstream:hot
MachProbe
MachTable::lookup(std::uint32_t digest, std::uint16_t aux,
                  std::span<const std::uint8_t> truth)
{
    MachProbe probe;
    // The paper indexes with the low digest bits (all 32 are
    // uniformly distributed).
    const std::uint32_t set = digest & (sets_ - 1);

    if (!wide_) {
        std::uint64_t match = matchMask(set, digest) & valid_[set];
        for (std::uint32_t age = 0; match != 0 && age <= hist_; ++age) {
            const std::uint32_t shift = slotOfAge(age) * ways_;
            std::uint64_t ways = (match >> shift) & way_mask_;
            match &= ~(way_mask_ << shift);
            while (ways != 0) {
                const auto w =
                    static_cast<std::uint32_t>(std::countr_zero(ways));
                ways &= ways - 1;
                if (checkEntry(set, age, w, aux, truth, probe)) {
                    return probe;
                }
            }
        }
        return probe;
    }

    for (std::uint32_t age = 0; age <= hist_; ++age) {
        const std::uint32_t slot = slotOfAge(age);
        const std::size_t e0 = entryIndex(set, slot, 0);
        const std::uint32_t n = fill_[fillIndex(set, slot)];
        for (std::uint32_t w = 0; w < n; ++w) {
            if (digests_[e0 + w] == digest &&
                checkEntry(set, age, w, aux, truth, probe)) {
                return probe;
            }
        }
    }
    return probe;
}

// vstream:hot
void
MachTable::insert(std::uint32_t digest, std::uint16_t aux, Addr ptr,
                  std::span<const std::uint8_t> truth)
{
    const std::size_t slot_bytes =
        static_cast<std::size_t>(sets_) * ways_ * truth.size();
    if (truth_stride_ == 0) {
        truth_stride_ = static_cast<std::uint32_t>(truth.size());
        // vstream:allow(no-hotpath-alloc) once per stream: room for
        // every slot, whose pages are touched only as slots fill
        truth_arena_.reserve(slots_ * slot_bytes);
    }
    vs_assert(truth.size() == truth_stride_,
              "MACH truth size changed between inserts");
    if (truth_arena_.size() < slots_used_ * slot_bytes) {
        // Within the reserved capacity: zero-fills the slot's bytes.
        truth_arena_.resize(slots_used_ * slot_bytes, 0);
    }

    const std::uint32_t set = digest & (sets_ - 1);
    std::uint32_t &fill = fill_[fillIndex(set, cur_)];
    std::uint32_t way;
    if (fill < ways_) {
        way = fill++;
        ++slot_valid_[cur_];
        if (!wide_) {
            valid_[set] |= std::uint64_t{1} << (cur_ * ways_ + way);
        }
    } else {
        way = victim(set);
    }

    const std::size_t e = entryIndex(set, cur_, way);
    digests_[e] = digest;
    auxes_[e] = aux;
    ptrs_[e] = ptr;
    if (!truth.empty()) {
        std::memcpy(truth_arena_.data() + truthOffset(set, cur_, way),
                    truth.data(), truth.size());
    }
    touch(set, way);
}

void
MachTable::advance()
{
    cur_ = cur_ + 1 == slots_ ? 0 : cur_ + 1;
    hist_ = std::min(hist_ + 1, slots_ - 1);
    slots_used_ = std::max(slots_used_, cur_ + 1);
    for (std::uint32_t set = 0; set < sets_; ++set) {
        fill_[fillIndex(set, cur_)] = 0;
        if (!wide_) {
            valid_[set] &= ~(way_mask_ << (cur_ * ways_));
        }
    }
    slot_valid_[cur_] = 0;
    std::fill(stamps_.begin(), stamps_.end(), 0);
    clock_ = 0;
}

void
MachTable::touch(std::uint32_t set, std::uint32_t way)
{
    stamps_[static_cast<std::size_t>(set) * ways_ + way] = ++clock_;
}

std::uint32_t
MachTable::victim(std::uint32_t set) const
{
    const std::uint64_t *s =
        stamps_.data() + static_cast<std::size_t>(set) * ways_;
    std::uint32_t best = 0;
    for (std::uint32_t w = 1; w < ways_; ++w) {
        if (s[w] < s[best]) {
            best = w;
        }
    }
    return best;
}

} // namespace vstream
