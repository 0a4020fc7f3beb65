/**
 * @file
 * Microbenchmarks (google-benchmark): throughput of the hot paths -
 * digests, the gradient transform, MACH lookups, DRAM-model accesses,
 * cache accesses, DCC, and synthetic-frame generation.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <thread>
#include <utility>
#include <vector>

#include "cache/set_assoc_cache.hh"
#include "core/dcc.hh"
#include "core/frame_buffer_manager.hh"
#include "core/mach_array.hh"
#include "hash/crc.hh"
#include "hash/hasher.hh"
#include "mem/dram_controller.hh"
#include "mem/memory_system.hh"
#include "sim/parallel.hh"
#include "sim/random.hh"
#include "video/pixel_kernels.hh"
#include "video/synthetic_video.hh"
#include "video/workloads.hh"

namespace
{

using namespace vstream;

/** One 4x4 mab (48 B) of random bytes. */
std::vector<std::uint8_t>
randomMab(Random &rng)
{
    std::vector<std::uint8_t> m(48);
    for (auto &b : m) {
        b = static_cast<std::uint8_t>(rng.next());
    }
    return m;
}

void
BM_Digest(benchmark::State &state, HashKind kind)
{
    Random rng(1);
    const std::vector<std::uint8_t> m = randomMab(rng);
    for (auto _ : state) {
        benchmark::DoNotOptimize(digest32(kind, m.data(), m.size()));
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(
        state.iterations() * m.size()));
}

BENCHMARK_CAPTURE(BM_Digest, crc32, HashKind::kCrc32);
BENCHMARK_CAPTURE(BM_Digest, md5, HashKind::kMd5);
BENCHMARK_CAPTURE(BM_Digest, sha1, HashKind::kSha1);

/** CRC32 throughput over 48 B (one mab) and 4 KB payloads, through
 * the startup-dispatched kernel and through the table-walk reference;
 * state.range(0) is the payload size. */
void
BM_Crc32(benchmark::State &state, bool reference)
{
    const std::size_t len = static_cast<std::size_t>(state.range(0));
    Random rng(5);
    std::vector<std::uint8_t> buf(len);
    for (auto &b : buf) {
        b = static_cast<std::uint8_t>(rng.next());
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            reference ? crc32Reference(0xffffffffu, buf.data(), len)
                      : Crc32::compute(buf.data(), len));
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(
        state.iterations() * buf.size()));
}
BENCHMARK_CAPTURE(BM_Crc32, dispatched, false)->Arg(48)->Arg(4096);
BENCHMARK_CAPTURE(BM_Crc32, reference, true)->Arg(48)->Arg(4096);

void
BM_Crc16Kernel(benchmark::State &state)
{
    const bool sliced = state.range(0) != 0;
    Random rng(6);
    std::vector<std::uint8_t> buf(48);
    for (auto &b : buf) {
        b = static_cast<std::uint8_t>(rng.next());
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(crc16Step(
            sliced, std::uint16_t{0xffff}, buf.data(), buf.size()));
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(
        state.iterations() * buf.size()));
    state.SetLabel(sliced ? "slice2" : "reference");
}
BENCHMARK(BM_Crc16Kernel)->Arg(0)->Arg(1);

/** Gradient transform (the mab -> gab subtract); range(0) is the
 * payload size (48 B = one 4x4 mab, 768 B = one 16x16 mab, 3 KB =
 * four 16x16 mabs). */
void
BM_GradientSub(benchmark::State &state)
{
    const std::size_t len = static_cast<std::size_t>(state.range(0));
    Random rng(8);
    std::vector<std::uint8_t> src(len);
    for (auto &b : src) {
        b = static_cast<std::uint8_t>(rng.next());
    }
    std::vector<std::uint8_t> dst(len);
    const Pixel base{201, 45, 96};
    for (auto _ : state) {
        gradientSub(dst.data(), src.data(), len, base);
        benchmark::DoNotOptimize(dst.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(
        state.iterations() * len));
}
BENCHMARK(BM_GradientSub)->Arg(48)->Arg(768)->Arg(3072);

/** Block-equality probe on identical blocks (the MACH verify-on-hit
 * worst case: every byte is compared). */
void
BM_BlockEqual(benchmark::State &state)
{
    const std::size_t len = static_cast<std::size_t>(state.range(0));
    Random rng(9);
    std::vector<std::uint8_t> a(len);
    for (auto &b : a) {
        b = static_cast<std::uint8_t>(rng.next());
    }
    std::vector<std::uint8_t> b = a;
    for (auto _ : state) {
        benchmark::DoNotOptimize(blockEqual(a.data(), b.data(), len));
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(
        state.iterations() * len));
}
BENCHMARK(BM_BlockEqual)->Arg(48)->Arg(768);

/** One frame of per-mab digests, block by block: the pre-batching
 * whole-frame digest cost BM_FrameDigestBatch is measured against. */
void
BM_FrameDigest(benchmark::State &state)
{
    constexpr std::size_t kMabs = 256;
    constexpr std::size_t kMabBytes = 48;
    Random rng(10);
    std::vector<std::vector<std::uint8_t>> storage(kMabs);
    std::vector<const std::uint8_t *> blocks(kMabs);
    for (std::size_t i = 0; i < kMabs; ++i) {
        storage[i].resize(kMabBytes);
        for (auto &byte : storage[i]) {
            byte = static_cast<std::uint8_t>(rng.next());
        }
        blocks[i] = storage[i].data();
    }
    std::vector<std::uint32_t> digests(kMabs);
    for (auto _ : state) {
        for (std::size_t i = 0; i < kMabs; ++i) {
            digests[i] =
                digest32(HashKind::kCrc32, blocks[i], kMabBytes);
        }
        benchmark::DoNotOptimize(digests.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(
        state.iterations() * kMabs * kMabBytes));
}
BENCHMARK(BM_FrameDigest);

/** The batched path MachWriteback::beginFrame runs: all mabs of a
 * frame through one digest32Batch dispatch (one CLMUL fold per mab on
 * a PCLMUL host). */
void
BM_FrameDigestBatch(benchmark::State &state)
{
    constexpr std::size_t kMabs = 256;
    constexpr std::size_t kMabBytes = 48;
    Random rng(10);
    std::vector<std::vector<std::uint8_t>> storage(kMabs);
    std::vector<const std::uint8_t *> blocks(kMabs);
    for (std::size_t i = 0; i < kMabs; ++i) {
        storage[i].resize(kMabBytes);
        for (auto &byte : storage[i]) {
            byte = static_cast<std::uint8_t>(rng.next());
        }
        blocks[i] = storage[i].data();
    }
    std::vector<std::uint32_t> digests(kMabs);
    for (auto _ : state) {
        digest32Batch(HashKind::kCrc32, blocks.data(), kMabBytes,
                      kMabs, digests.data());
        benchmark::DoNotOptimize(digests.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(
        state.iterations() * kMabs * kMabBytes));
}
BENCHMARK(BM_FrameDigestBatch);

void
BM_MachLookup(benchmark::State &state)
{
    MachConfig cfg;
    MachArray machs(cfg);
    machs.beginFrame();
    Random rng(3);
    std::vector<std::pair<std::uint32_t, std::vector<std::uint8_t>>>
        entries;
    for (int i = 0; i < 2048; ++i) {
        std::vector<std::uint8_t> m = randomMab(rng);
        const std::uint32_t d = digest32(HashKind::kCrc32, m.data(), m.size());
        machs.store(d, 0, i * 48, m, false);
        machs.countInsert(0);
        entries.emplace_back(d, std::move(m));
        if (i % 256 == 255) {
            machs.beginFrame();
        }
    }
    std::size_t i = 0;
    for (auto _ : state) {
        const auto &[d, truth] = entries[i++ % entries.size()];
        const MachLookupResult r = machs.probe(d, 0, truth);
        machs.count(r.bits(), r.digest);
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_MachLookup);

void
BM_DramAccess(benchmark::State &state)
{
    DramController ctrl{DramConfig{}};
    Tick t = 0;
    Addr a = 0;
    for (auto _ : state) {
        const MemResult r = ctrl.access(
            MemRequest{a, 64, MemOp::kRead, Requester::kVideoDecoder},
            t);
        benchmark::DoNotOptimize(r);
        t = r.finish_tick;
        a = (a + 64) % (64ULL << 20);
    }
}
BENCHMARK(BM_DramAccess);

/**
 * The decoder's writeback stream: 64 B posted writes to consecutive
 * lines through MemorySystem::write, each after a compute gap that
 * falls alternately inside and past the row-open timeout (so about
 * half the line pairs find their rows open and half find them closed
 * by the timeout, near the split fig11's writes see).  Items are
 * writes.
 */
void
BM_DramWriteStream(benchmark::State &state)
{
    MemorySystem mem("bm.mem", nullptr, DramConfig{});
    const Tick timeout = mem.config().row_open_timeout;
    const Tick gaps[2] = {timeout / 2, timeout * 2};
    Tick t = 0;
    Addr a = 0;
    std::uint32_t i = 0;
    for (auto _ : state) {
        mem.write(a, 64, Requester::kVideoDecoder, t);
        t += gaps[i++ & 1];
        a = (a + 64) % (64ULL << 20);
    }
    benchmark::DoNotOptimize(mem.requestCount());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DramWriteStream);

/** A dependent chain of range(0) 64 B line reads streaming through
 * DRAM: DramController::readRun against the same lines through
 * access() one at a time (the reference).  Items are lines. */
void
BM_DramReadRun(benchmark::State &state)
{
    const auto n = static_cast<std::uint32_t>(state.range(0));
    DramController ctrl{DramConfig{}};
    Tick t = 0;
    Addr a = 0;
    for (auto _ : state) {
        const MemResult r =
            ctrl.readRun(a, n, 64, Requester::kDisplayController, t);
        benchmark::DoNotOptimize(r);
        t = r.finish_tick;
        a = (a + n * 64ULL) % (64ULL << 20);
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DramReadRun)->Arg(8)->Arg(64);

void
BM_DramReadRunPerLine(benchmark::State &state)
{
    const auto n = static_cast<std::uint32_t>(state.range(0));
    DramController ctrl{DramConfig{}};
    Tick t = 0;
    Addr a = 0;
    for (auto _ : state) {
        for (std::uint32_t i = 0; i < n; ++i) {
            const MemResult r = ctrl.access(
                MemRequest{a, 64, MemOp::kRead,
                           Requester::kDisplayController},
                t);
            benchmark::DoNotOptimize(r);
            t = r.finish_tick;
            a = (a + 64) % (64ULL << 20);
        }
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DramReadRunPerLine)->Arg(8)->Arg(64);

void
BM_CacheAccess(benchmark::State &state)
{
    CacheConfig cfg;
    cfg.size_bytes = 64 * 1024;
    SetAssocCache cache("bm", cfg);
    Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access(a, 48));
        a = (a + 48) % (256 * 1024);
    }
}
BENCHMARK(BM_CacheAccess);

/**
 * The decoder's reads through its region-mode VD cache (64 KB, 4
 * ways, 512 B regions): per 256x144 mab, an encoded-stream read and a
 * motion-compensation read within 8 mabs of the same mab of the
 * previous frame, each widened to whole regions and tried as an MRU
 * hit first; once per frame, the slot being written is invalidated.
 * Items are region reads.
 */
void
BM_VdRegionRead(benchmark::State &state)
{
    CacheConfig cfg;
    cfg.size_bytes = 64 * 1024;
    constexpr Addr kRegion = 512;
    SetAssocCache cache("bm", cfg, kRegion / cfg.line_bytes);
    CacheAccessSummary scratch;
    constexpr std::uint32_t kMabs = 576;
    constexpr std::uint32_t kMabBytes = 192;
    constexpr Addr kRing = 8ULL << 20;
    constexpr Addr kSlotBytes = Addr{kMabs} * kMabBytes;
    const Addr slots[2] = {kRing + 64, kRing + 64 + kSlotBytes + kRegion};
    const auto readRegions = [&](Addr addr, std::uint32_t size) {
        const Addr lo = addr & ~(kRegion - 1);
        const auto widened = static_cast<std::uint32_t>(
            ((addr + size + kRegion - 1) & ~(kRegion - 1)) - lo);
        if (!cache.tryMruReadHit(lo, widened)) {
            cache.accessInto(lo, widened, scratch);
        }
    };
    Addr encoded = 0;
    std::uint32_t mab = 0;
    std::uint32_t frame = 0;
    for (auto _ : state) {
        readRegions(encoded % kRing, 96);
        encoded += 96;
        const std::int64_t ref = std::clamp<std::int64_t>(
            std::int64_t{mab} + (mab * 7) % 17 - 8, 0, kMabs - 1);
        readRegions(
            slots[(frame + 1) & 1] + static_cast<Addr>(ref) * kMabBytes,
            kMabBytes);
        if (++mab == kMabs) {
            mab = 0;
            ++frame;
            cache.invalidateRange(slots[frame & 1], kSlotBytes);
        }
    }
    benchmark::DoNotOptimize(cache.hitCount());
    state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_VdRegionRead);

void
BM_DccCompress(benchmark::State &state)
{
    Random rng(4);
    std::vector<std::vector<std::uint8_t>> mabs;
    for (int i = 0; i < 64; ++i) {
        mabs.push_back(randomMab(rng));
    }
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            dccCompress(mabs[i++ % mabs.size()]));
    }
}
BENCHMARK(BM_DccCompress);

/** The decoder's block-store write path: one frame of 4x4 mabs
 * stored block by block into an acquired slot, then released. */
void
BM_FrameBufferWrite(benchmark::State &state)
{
    MemorySystem mem("bm.mem", nullptr, DramConfig{});
    constexpr std::uint32_t kMabs = 256;
    constexpr std::uint32_t kMabBytes = 48;
    FrameBufferManager fbm(mem, kMabs, kMabBytes, 4096);
    Random rng(7);
    std::vector<std::vector<std::uint8_t>> blocks(kMabs);
    for (auto &b : blocks) {
        b.resize(kMabBytes);
        for (auto &byte : b) {
            byte = static_cast<std::uint8_t>(rng.next());
        }
    }
    std::uint64_t frame = 0;
    for (auto _ : state) {
        BufferSlot &slot = fbm.acquire(frame);
        for (std::uint32_t i = 0; i < kMabs; ++i) {
            fbm.storeBlock(slot, slot.data_base + i * kMabBytes, blocks[i]);
        }
        benchmark::DoNotOptimize(fbm.loadBlock(slot.data_base));
        fbm.release(frame);
        ++frame;
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(
        state.iterations() * kMabs * kMabBytes));
}
BENCHMARK(BM_FrameBufferWrite);

void
BM_SyntheticFrame(benchmark::State &state)
{
    VideoProfile p = workload("V8");
    p.frame_count = 1000000;
    SyntheticVideo video(p);
    for (auto _ : state) {
        benchmark::DoNotOptimize(video.nextFrame());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * p.mabsPerFrame()));
}
BENCHMARK(BM_SyntheticFrame);

/** The zero-alloc generation path the pipeline runs: frame contents
 * land in a reused scratch Frame (compare against BM_SyntheticFrame,
 * which constructs and returns a fresh Frame per call). */
void
BM_SyntheticFrameInto(benchmark::State &state)
{
    VideoProfile p = workload("V8");
    p.frame_count = 1000000;
    SyntheticVideo video(p);
    Frame scratch;
    for (auto _ : state) {
        video.nextFrameInto(scratch);
        benchmark::DoNotOptimize(scratch.mabCount());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * p.mabsPerFrame()));
}
BENCHMARK(BM_SyntheticFrameInto);

/** Fan-out dispatch cost through the persistent pool at range(0)
 * workers (64 trivial units), against BM_ThreadSpawnJoin's
 * spawn-per-call model that parallelFor replaced. */
void
BM_ParallelForDispatch(benchmark::State &state)
{
    const unsigned jobs = static_cast<unsigned>(state.range(0));
    // Warm the pool so spawn cost is not billed to the loop.
    parallelFor(jobs, 64, [](std::size_t) {});
    for (auto _ : state) {
        parallelFor(jobs, 64, [](std::size_t i) {
            benchmark::DoNotOptimize(i);
        });
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * 64));
}
BENCHMARK(BM_ParallelForDispatch)->Arg(1)->Arg(4);

void
BM_ThreadSpawnJoin(benchmark::State &state)
{
    const unsigned jobs = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        std::vector<std::thread> workers;
        for (unsigned w = 0; w < jobs; ++w) {
            workers.emplace_back([] {});
        }
        for (std::thread &t : workers) {
            t.join();
        }
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * jobs));
}
BENCHMARK(BM_ThreadSpawnJoin)->Arg(1)->Arg(4);

} // namespace

BENCHMARK_MAIN();
