/**
 * @file
 * Cyclic-redundancy-check digests.
 *
 * CRC32 (IEEE 802.3 reflected polynomial 0xEDB88320) produces the
 * 32-bit macroblock digest used to tag MACH entries; CRC16-CCITT
 * provides the auxiliary 16-bit field of the CO-MACH collision
 * detector (Sec. 6.3 of the paper).
 *
 * Both digests are the hot inner loop of MachWriteback::writeMab.
 * CRC32 picks its kernel once at startup, by CPU feature: x86-64
 * hosts with PCLMULQDQ fold 16 B per carry-less multiply, and every
 * other host walks the byte-at-a-time table (crc32Reference, also the
 * oracle the equivalence tests compare against).  CRC16 always runs
 * slicing-by-2, two bytes per iteration through precomputed tables.
 *
 * Both CRC32 kernels compute the exact same IEEE polynomial, so the
 * digest - and therefore every MACH hit, collision and golden output
 * - is identical no matter which kernel ran.  Note the x86 SSE4.2
 * _mm_crc32 instruction family implements CRC-32C (polynomial
 * 0x1EDC6F41), NOT IEEE, and cannot reproduce the repo's digests;
 * the x86 hardware path therefore folds with PCLMULQDQ instead.
 */

#ifndef VSTREAM_HASH_CRC_HH
#define VSTREAM_HASH_CRC_HH

#include <cstddef>
#include <cstdint>

namespace vstream
{

/**
 * Raw state-in/state-out CRC32 step through the byte-at-a-time table
 * (the test oracle; @p state is the internal pre-inverted form).
 */
std::uint32_t crc32Reference(std::uint32_t state, const void *data,
                             std::size_t len);

/** Raw CRC16 step: the sliced kernel when @p sliced, else reference. */
std::uint16_t crc16Step(bool sliced, std::uint16_t state,
                        const void *data, std::size_t len);

/**
 * Batched CRC32 over @p count equal-length blocks (the whole-frame
 * digest path) with the startup kernel.  The CLMUL fold of one block
 * shares no state with the next, so consecutive blocks' chains
 * overlap in the pipeline.  Each out[i] is bit-identical to
 * Crc32::compute(blocks[i], block_len).
 */
void crc32Batch(const std::uint8_t *const *blocks,
                std::size_t block_len, std::size_t count,
                std::uint32_t *out);

/**
 * Batched CRC16-CCITT: four slicing-by-2 states advance in lockstep,
 * so the per-lookup latency that serialises one short-block CRC hides
 * behind instruction-level parallelism.
 */
void crc16Batch(const std::uint8_t *const *blocks,
                std::size_t block_len, std::size_t count,
                std::uint16_t *out);

/** Incremental CRC32 (IEEE, reflected). */
class Crc32
{
  public:
    Crc32() = default;

    /** Absorb @p len bytes. */
    void update(const void *data, std::size_t len);

    /** Final digest of everything absorbed so far. */
    std::uint32_t digest() const { return ~state_; }

    /** Restart. */
    void reset() { state_ = 0xffffffffu; }

    /** One-shot convenience. */
    static std::uint32_t compute(const void *data, std::size_t len);

  private:
    std::uint32_t state_ = 0xffffffffu;
};

/** Incremental CRC16-CCITT (polynomial 0x1021, init 0xFFFF). */
class Crc16
{
  public:
    Crc16() = default;

    void update(const void *data, std::size_t len);
    std::uint16_t digest() const { return state_; }
    void reset() { state_ = 0xffffu; }

    static std::uint16_t compute(const void *data, std::size_t len);

  private:
    std::uint16_t state_ = 0xffffu;
};

} // namespace vstream

#endif // VSTREAM_HASH_CRC_HH
