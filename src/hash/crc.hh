/**
 * @file
 * Cyclic-redundancy-check digests.
 *
 * CRC32 (IEEE 802.3 reflected polynomial 0xEDB88320) produces the
 * 32-bit macroblock digest used to tag MACH entries; CRC16-CCITT
 * provides the auxiliary 16-bit field of the CO-MACH collision
 * detector (Sec. 6.3 of the paper).
 *
 * Both digests are the hot inner loop of MachWriteback::writeMab, so
 * update() dispatches at startup, by CPU feature alone, to the fastest
 * kernel the host offers:
 *
 *   kReference  byte-at-a-time table walk (the original code; kept
 *               as the oracle the equivalence tests compare against)
 *   kSlice8     slicing-by-8 (CRC32) / slicing-by-2 (CRC16): eight
 *               (two) bytes per iteration through precomputed tables
 *   kHardware   carry-less-multiply folding on x86-64 (PCLMULQDQ)
 *               or the ARMv8 CRC32 instructions on aarch64
 *
 * Every kernel computes the exact same IEEE/CCITT polynomial, so the
 * digest - and therefore every MACH hit, collision and golden output
 * - is identical no matter which kernel ran.  Note the x86 SSE4.2
 * _mm_crc32 instruction family implements CRC-32C (polynomial
 * 0x1EDC6F41), NOT IEEE, and cannot reproduce the repo's digests;
 * the x86 hardware path therefore folds with PCLMULQDQ instead.
 * Each kernel is the only path on some host (or the test oracle);
 * crc32Step and crc32BatchWith run any of them explicitly.
 */

#ifndef VSTREAM_HASH_CRC_HH
#define VSTREAM_HASH_CRC_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace vstream
{

/** One CRC inner-loop implementation; see file comment. */
enum class CrcKernel : std::uint8_t
{
    kReference = 0,
    kSlice8,
    kHardware,
};

/** Human-readable kernel name ("reference", "slice8", "hw"). */
const char *crcKernelName(CrcKernel k);

/** Kernels usable on this host, reference first. */
std::vector<CrcKernel> availableCrc32Kernels();

/** The kernel Crc32::update() dispatched to at startup. */
CrcKernel activeCrc32Kernel();

/**
 * Raw state-in/state-out CRC32 step with an explicit kernel (the
 * test/bench hook; @p state is the internal pre-inverted form).
 */
std::uint32_t crc32Step(CrcKernel k, std::uint32_t state,
                        const void *data, std::size_t len);

/** Raw CRC16 step: the sliced kernel when @p sliced, else reference. */
std::uint16_t crc16Step(bool sliced, std::uint16_t state,
                        const void *data, std::size_t len);

/**
 * Batched CRC32 over @p count equal-length blocks (the whole-frame
 * digest path) with the active kernel.  The hardware kernel folds
 * each short block with CLMUL, whose independent chains overlap
 * across blocks; slicing-by-8 advances four digest states in
 * lockstep, so the per-lookup latency that serialises a single
 * short-block CRC is hidden behind instruction-level parallelism.
 * Each out[i] is bit-identical to Crc32::compute(blocks[i],
 * block_len).
 */
void crc32Batch(const std::uint8_t *const *blocks,
                std::size_t block_len, std::size_t count,
                std::uint32_t *out);

/**
 * crc32Batch with an explicit kernel (the test/bench hook): @p k must
 * be one of availableCrc32Kernels().  kReference digests block by
 * block; kSlice8 runs the four-lane interleave on every block length.
 */
void crc32BatchWith(CrcKernel k, const std::uint8_t *const *blocks,
                    std::size_t block_len, std::size_t count,
                    std::uint32_t *out);

/** Batched CRC16-CCITT: the slicing-by-2 analogue of crc32Batch. */
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
