/**
 * @file
 * CO-MACH: the collision cache of Sec. 6.3.
 *
 * When two different blocks share a CRC32 digest, the auxiliary CRC16
 * in the MACH entry detects the collision; the colliding block is
 * then inserted here under its full 48-bit (CRC32||CRC16) tag instead
 * of the regular MACH.  CO-MACH only covers the frame currently being
 * decoded and is cleared at each frame boundary.
 */

#ifndef VSTREAM_CORE_CO_MACH_HH
#define VSTREAM_CORE_CO_MACH_HH

#include <memory>

#include "core/mach_cache.hh"

namespace vstream
{

/** Per-frame collision cache with 48-bit tags. */
class CoMach
{
  public:
    explicit CoMach(const MachConfig &cfg);

    /** Clear at a frame boundary. */
    void beginFrame();

    /** Probe with the full 48-bit tag. */
    MachProbe lookup(std::uint32_t digest, std::uint16_t aux,
                     std::span<const std::uint8_t> truth);

    /** Insert a collided block. */
    void insert(std::uint32_t digest, std::uint16_t aux, Addr ptr,
                std::span<const std::uint8_t> truth);

    /** Blocks inserted since construction (collision count proxy). */
    std::uint64_t insertCount() const { return inserts_; }

  private:
    // By value: a reference member dangles when built from a
    // temporary config (ASan stack-use-after-scope).
    MachConfig cfg_;
    std::unique_ptr<MachCache> cache_;
    std::uint64_t inserts_ = 0;
};

} // namespace vstream

#endif // VSTREAM_CORE_CO_MACH_HH
