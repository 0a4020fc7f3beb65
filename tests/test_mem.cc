/**
 * @file
 * Tests for the LPDDR3 DRAM model: address mapping, bank state,
 * controller timing, energy accounting, and the row-open timeout that
 * underpins the paper's racing argument.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "mem/address_map.hh"
#include "mem/dram_bank.hh"
#include "mem/dram_controller.hh"
#include "mem/memory_system.hh"
#include "sim/fault_injector.hh"
#include "sim/random.hh"

namespace vstream
{
namespace
{

DramConfig
smallConfig()
{
    DramConfig cfg;
    cfg.capacity_bytes = 64ULL << 20;
    return cfg;
}

TEST(DramConfig, DerivedQuantities)
{
    DramConfig cfg;
    EXPECT_EQ(cfg.bytesPerBurst(), 32u);          // x32, BL8
    EXPECT_EQ(cfg.burstTime(), 4u * cfg.t_ck);    // 4 clocks DDR
    EXPECT_GT(cfg.rowsPerBank(), 0u);
    cfg.validate();
}

TEST(DramConfigDeath, BadGeometryFatal)
{
    DramConfig cfg;
    cfg.row_bytes = 1000; // not a power of two
    EXPECT_DEATH(cfg.validate(), "power of two");
}

TEST(DramConfigDeath, CapacityAboveFourGiBFatal)
{
    // Frame-buffer records hold 32-bit simulated addresses.
    DramConfig cfg;
    cfg.capacity_bytes = 4ULL << 30;
    cfg.validate();
    cfg.capacity_bytes += 2048;
    EXPECT_DEATH(cfg.validate(), "above 4 GiB");
}

TEST(AddressMap, RoundTrip)
{
    const DramConfig cfg = smallConfig();
    const AddressMap map(cfg);
    for (Addr a = 0; a < (1u << 20); a += 4096 + 32) {
        const DramCoord c = map.decompose(a);
        EXPECT_EQ(map.compose(c), a / 32 * 32) << "addr " << a;
    }
}

TEST(AddressMap, ChannelInterleavesAtBurstGranularity)
{
    const DramConfig cfg = smallConfig();
    const AddressMap map(cfg);
    // RoRaBaCoCh: adjacent bursts alternate channels.
    EXPECT_EQ(map.decompose(0).channel, 0u);
    EXPECT_EQ(map.decompose(32).channel, 1u);
    EXPECT_EQ(map.decompose(64).channel, 0u);
}

TEST(AddressMap, ColumnThenBankOrdering)
{
    const DramConfig cfg = smallConfig();
    const AddressMap map(cfg);
    // Same row while within row_bytes per channel: 2 KB row x 2
    // channels = 4 KB of contiguous space per (bank,row).
    const DramCoord a = map.decompose(0);
    const DramCoord b = map.decompose(4096 - 32);
    EXPECT_EQ(a.bank, b.bank);
    EXPECT_EQ(a.row, b.row);
    const DramCoord c = map.decompose(4096);
    EXPECT_NE(c.bank, a.bank); // next bank
    EXPECT_EQ(c.row, a.row);
}

TEST(AddressMap, RowAdvancesAfterAllBanks)
{
    const DramConfig cfg = smallConfig();
    const AddressMap map(cfg);
    const std::uint64_t banks_span = 4096ULL * cfg.banks_per_rank;
    EXPECT_EQ(map.decompose(banks_span).row,
              map.decompose(0).row + 1);
}

TEST(AddressMap, ColumnsPerRow)
{
    const DramConfig cfg = smallConfig();
    const AddressMap map(cfg);
    EXPECT_EQ(map.columnsPerRow(), cfg.row_bytes / cfg.bytesPerBurst());
}

TEST(DramBank, ActivateTrackRow)
{
    DramBank bank;
    EXPECT_FALSE(bank.rowOpen());
    bank.activate(7, 100);
    EXPECT_TRUE(bank.rowOpen());
    EXPECT_EQ(bank.openRow(), 7u);
    EXPECT_EQ(bank.openedAt(), 100u);
}

TEST(DramBank, ExpireAfterTimeout)
{
    DramBank bank;
    bank.activate(3, 0);
    bank.touch(1000);
    EXPECT_FALSE(bank.expireRow(1500, 1000)); // gap 500 <= 1000
    EXPECT_TRUE(bank.expireRow(2500, 1000));  // gap 1500 > 1000
    EXPECT_FALSE(bank.rowOpen());
    EXPECT_FALSE(bank.expireRow(9999, 1000)); // already closed
}

TEST(DramBank, PrechargeClosesAndDelays)
{
    DramBank bank;
    bank.activate(1, 0);
    bank.precharge(500);
    EXPECT_FALSE(bank.rowOpen());
    EXPECT_EQ(bank.readyAt(), 500u);
}

TEST(DramController, FirstAccessActivates)
{
    DramController ctrl(smallConfig());
    const MemResult r = ctrl.access(
        MemRequest{0, 32, MemOp::kRead, Requester::kVideoDecoder}, 0);
    EXPECT_EQ(r.bursts, 1u);
    EXPECT_EQ(r.activations, 1u);
    EXPECT_EQ(r.row_hits, 0u);
    // tRCD + tCL + burst.
    const DramConfig &cfg = ctrl.config();
    EXPECT_EQ(r.finish_tick, cfg.t_rcd + cfg.t_cl + cfg.burstTime());
}

TEST(DramController, BackToBackSameRowHits)
{
    DramController ctrl(smallConfig());
    const auto r1 = ctrl.access(
        MemRequest{0, 32, MemOp::kRead, Requester::kVideoDecoder}, 0);
    const auto r2 = ctrl.access(
        MemRequest{64, 32, MemOp::kRead, Requester::kVideoDecoder},
        r1.finish_tick);
    EXPECT_EQ(r2.row_hits, 1u);
    EXPECT_EQ(r2.activations, 0u);
    EXPECT_LT(r2.finish_tick - r1.finish_tick,
              r1.finish_tick); // hit is faster than the cold access
}

TEST(DramController, TimeoutForcesReactivation)
{
    DramConfig cfg = smallConfig();
    cfg.row_open_timeout = 100 * sim_clock::ns;
    DramController ctrl(cfg);
    const auto r1 = ctrl.access(
        MemRequest{0, 32, MemOp::kRead, Requester::kVideoDecoder}, 0);
    // Come back long after the starvation bound.
    const auto r2 = ctrl.access(
        MemRequest{64, 32, MemOp::kRead, Requester::kVideoDecoder},
        r1.finish_tick + 10 * cfg.row_open_timeout);
    EXPECT_EQ(r2.activations, 1u);
    EXPECT_EQ(r2.row_hits, 0u);
    // The timeout precharge was accounted.
    EXPECT_EQ(ctrl.energy().totalCounts().precharges, 1u);
}

TEST(DramController, RowConflictPrechargesAndPaysRas)
{
    DramConfig cfg = smallConfig();
    cfg.row_open_timeout = 1 * sim_clock::s; // effectively off
    DramController ctrl(cfg);
    const auto r1 = ctrl.access(
        MemRequest{0, 32, MemOp::kRead, Requester::kVideoDecoder}, 0);
    // Same bank, different row: banks repeat every 32 KB, row size
    // per (bank,row) across channels is 4 KB -> 32 KB offset is the
    // same bank, next row... actually 32 KB advances the row index.
    const Addr conflict = 32 * 1024;
    const auto r2 = ctrl.access(
        MemRequest{conflict, 32, MemOp::kRead,
                   Requester::kVideoDecoder},
        r1.finish_tick);
    EXPECT_EQ(r2.activations, 1u);
    EXPECT_EQ(ctrl.energy().totalCounts().precharges, 1u);
    // Conflict path pays tRP + tRCD at least.
    EXPECT_GE(r2.finish_tick - r1.finish_tick,
              cfg.t_rp + cfg.t_rcd + cfg.t_cl);
}

TEST(DramController, MultiBurstRequestSplits)
{
    DramController ctrl(smallConfig());
    // 64 B spans two 32 B bursts (on two channels).
    const auto r = ctrl.access(
        MemRequest{0, 64, MemOp::kRead, Requester::kVideoDecoder}, 0);
    EXPECT_EQ(r.bursts, 2u);
    // Unaligned 48 B spanning a burst boundary -> 2 bursts.
    const auto r2 = ctrl.access(
        MemRequest{48, 48, MemOp::kWrite, Requester::kVideoDecoder},
        r.finish_tick);
    EXPECT_EQ(r2.bursts, 2u);
}

TEST(DramController, EnergyPerRequesterIsolated)
{
    DramController ctrl(smallConfig());
    ctrl.access(MemRequest{0, 64, MemOp::kRead,
                           Requester::kVideoDecoder},
                0);
    ctrl.access(MemRequest{1 << 20, 64, MemOp::kWrite,
                           Requester::kDisplayController},
                0);
    const auto &vd = ctrl.energy().counts(Requester::kVideoDecoder);
    const auto &dc =
        ctrl.energy().counts(Requester::kDisplayController);
    EXPECT_EQ(vd.read_bursts, 2u);
    EXPECT_EQ(vd.write_bursts, 0u);
    EXPECT_EQ(dc.write_bursts, 2u);
    EXPECT_EQ(dc.bytes_written, 64u);
    EXPECT_GT(ctrl.energy().actPreEnergy(Requester::kVideoDecoder),
              0.0);
    EXPECT_GT(ctrl.energy().burstEnergyTotal(), 0.0);
}

TEST(DramEnergy, BackgroundScalesWithSpan)
{
    const DramConfig cfg = smallConfig();
    DramEnergy e(cfg);
    const double one_ms = e.backgroundEnergy(sim_clock::ms);
    EXPECT_NEAR(one_ms, cfg.background_watts * 1e-3, 1e-12);
    EXPECT_NEAR(e.backgroundEnergy(10 * sim_clock::ms), 10 * one_ms,
                1e-12);
}

TEST(MemorySystem, AllocateBumpsAndAligns)
{
    MemorySystem mem("mem", nullptr, smallConfig());
    const Addr a = mem.allocate(100, "x");
    const Addr b = mem.allocate(1, "y");
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b % 64, 0u);
    EXPECT_EQ(b, 128u); // 100 rounded to 128
    EXPECT_EQ(mem.allocatedBytes(), 192u);
}

TEST(MemorySystemDeath, ExhaustionIsFatal)
{
    DramConfig cfg = smallConfig();
    MemorySystem mem("mem", nullptr, cfg);
    EXPECT_DEATH(mem.allocate(cfg.capacity_bytes + 64, "huge"),
                 "out of simulated DRAM");
}

TEST(MemorySystem, ReadWriteCountRequests)
{
    MemorySystem mem("mem", nullptr, smallConfig());
    mem.read(0, 64, Requester::kVideoDecoder, 0);
    mem.write(4096, 48, Requester::kDisplayController, 0);
    EXPECT_EQ(mem.requestCount(), 2u);
}

/** Dense streaming should mostly row-hit; scattered access should
 * mostly activate - the contrast behind Figs. 5 and 10. */
TEST(DramController, StreamingBeatsScattered)
{
    DramController dense(smallConfig());
    DramController scattered(smallConfig());

    Tick t = 0;
    for (Addr a = 0; a < 64 * 1024; a += 64) {
        t = dense
                .access(MemRequest{a, 64, MemOp::kRead,
                                   Requester::kDisplayController},
                        t)
                .finish_tick;
    }

    t = 0;
    Addr a = 0;
    for (int i = 0; i < 1024; ++i) {
        a = (a + 37 * 4096) % (32ULL << 20);
        t = scattered
                .access(MemRequest{a, 64, MemOp::kRead,
                                   Requester::kDisplayController},
                        t)
                .finish_tick;
    }

    const auto d = dense.energy().totalCounts();
    const auto s = scattered.energy().totalCounts();
    EXPECT_LT(d.activations * 4, d.row_hits);
    EXPECT_GT(s.activations, s.row_hits);
}

// ---- read runs ------------------------------------------------------

/** First difference between two controllers' observable state, or
 * "" when they agree. */
template <typename A, typename B>
std::string
stateDiff(const A &a, const B &b)
{
    std::ostringstream os;
    for (std::size_t i = 0; i < 4; ++i) {
        const auto r = static_cast<Requester>(i);
        const DramActivityCounts &x = a.energy().counts(r);
        const DramActivityCounts &y = b.energy().counts(r);
        if (x.activations != y.activations ||
            x.precharges != y.precharges ||
            x.read_bursts != y.read_bursts ||
            x.write_bursts != y.write_bursts ||
            x.row_hits != y.row_hits || x.bytes_read != y.bytes_read ||
            x.bytes_written != y.bytes_written) {
            os << "counts of " << requesterName(r) << " differ: act "
               << x.activations << "/" << y.activations << " pre "
               << x.precharges << "/" << y.precharges << " rd "
               << x.read_bursts << "/" << y.read_bursts << " hits "
               << x.row_hits << "/" << y.row_hits;
            return os.str();
        }
    }
    if (a.retryCount() != b.retryCount() ||
        a.abandonedCount() != b.abandonedCount() ||
        a.backoffTicks() != b.backoffTicks() ||
        a.pendingWrites() != b.pendingWrites()) {
        os << "retry/abandon/backoff/pending differ: "
           << a.retryCount() << "/" << b.retryCount() << " "
           << a.abandonedCount() << "/" << b.abandonedCount() << " "
           << a.backoffTicks() << "/" << b.backoffTicks() << " "
           << a.pendingWrites() << "/" << b.pendingWrites();
    }
    return os.str();
}

std::string
resultDiff(const MemResult &a, const MemResult &b)
{
    if (a.finish_tick == b.finish_tick && a.bursts == b.bursts &&
        a.row_hits == b.row_hits && a.activations == b.activations) {
        return "";
    }
    std::ostringstream os;
    os << "finish " << a.finish_tick << "/" << b.finish_tick
       << " bursts " << a.bursts << "/" << b.bursts << " hits "
       << a.row_hits << "/" << b.row_hits << " act " << a.activations
       << "/" << b.activations;
    return os.str();
}

/** The reference readRun: each line through access(), chained. */
MemResult
readRunPerLine(DramController &c, Addr base, std::uint32_t n,
               std::uint32_t line, Requester r, Tick now)
{
    MemResult total;
    total.finish_tick = now;
    for (std::uint32_t i = 0; i < n; ++i) {
        const MemResult res = c.access(
            MemRequest{base + static_cast<Addr>(i) * line, line,
                       MemOp::kRead, r},
            total.finish_tick);
        total.finish_tick = res.finish_tick;
        total.bursts += res.bursts;
        total.row_hits += res.row_hits;
        total.activations += res.activations;
    }
    return total;
}

enum class FaultMode
{
    kNone,
    kFiresInsideRuns,
    kExhausted,
};

/**
 * Differential replay: seeded traces of read runs (n = 0..80, 32 B to
 * 512 B lines, aligned and unaligned bases, crossing column spans and
 * the capacity wrap) interleaved with single reads and (posted) writes
 * to the same banks, against twin controllers.  One serves each run
 * with readRun, the other line by line through access(); after every
 * operation the results and every counter must agree, and a final
 * probe read per bank must see the same bank state.
 */
TEST(DramReadRun, MatchesPerLineAccessOverSeededTraces)
{
    const AddrMapOrder orders[] = {AddrMapOrder::kRoRaBaCoCh,
                                   AddrMapOrder::kRoRaBaChCo,
                                   AddrMapOrder::kRoRaCoBaCh};
    const PagePolicy pages[] = {PagePolicy::kOpenPage,
                                PagePolicy::kClosedPage};
    const FaultMode modes[] = {FaultMode::kNone,
                               FaultMode::kFiresInsideRuns,
                               FaultMode::kExhausted};
    // 64 B and 128 B lines twice as often as 32 B and 512 B ones.
    const std::uint32_t lines[] = {32, 64, 128, 64, 128, 512};
    constexpr int kTracesPerConfig = 14;
    constexpr int kOpsPerTrace = 40;

    int traces = 0;
    std::uint64_t closed_form = 0;
    std::uint64_t closed_form_exhausted = 0;
    std::uint64_t retries_inside = 0;
    std::uint64_t seed = 1;
    for (const AddrMapOrder order : orders) {
    for (const PagePolicy page : pages) {
    for (const std::uint32_t wq : {0u, 4u}) {
    for (const FaultMode mode : modes) {
    for (int k = 0; k < kTracesPerConfig; ++k, ++seed) {
        DramConfig cfg = smallConfig();
        cfg.map_order = order;
        cfg.page_policy = page;
        cfg.write_queue_depth = wq;
        // Every fourth trace: a row timeout shorter than the gaps
        // inside one line, so rows close between lines of a run.
        if (k % 4 == 3) {
            cfg.row_open_timeout = 15 * sim_clock::ns;
        }
        // Odd traces: a capacity that ends mid-span, so runs near the
        // end wrap inside a column span.
        if (k % 2 == 1) {
            cfg.capacity_bytes += 2048;
        }
        SCOPED_TRACE(::testing::Message()
                     << addrMapOrderName(order) << " "
                     << pagePolicyName(page) << " wq=" << wq << " mode="
                     << static_cast<int>(mode) << " timeout="
                     << cfg.row_open_timeout << " capacity="
                     << cfg.capacity_bytes << " seed=" << seed);

        FaultConfig fc;
        fc.seed = seed;
        if (mode == FaultMode::kFiresInsideRuns) {
            fc.rules.push_back(parseFaultRule(
                FaultClass::kDramTimeout, "p=0.05,from=3us,until=15us"));
        } else if (mode == FaultMode::kExhausted) {
            fc.rules.push_back(
                parseFaultRule(FaultClass::kDramTimeout, "p=1,max=2"));
        }
        FaultInjector inj_a("a", fc);
        FaultInjector inj_b("b", fc);
        DramController a(cfg);
        DramController b(cfg);
        if (mode != FaultMode::kNone) {
            a.setFaultInjector(&inj_a);
            b.setFaultInjector(&inj_b);
        }

        Random rng(seed * 0x9e3779b97f4a7c15ULL);
        const Addr space = 256 * 1024;
        Tick t = 0;
        for (int op = 0; op < kOpsPerTrace; ++op) {
            SCOPED_TRACE(::testing::Message() << "op " << op);
            if (rng.uniformInt(0, 3) == 0) {
                // Idle gaps around the row-open timeout.
                t += rng.uniformInt(0, 2 * cfg.row_open_timeout);
            }
            const auto r =
                static_cast<Requester>(rng.uniformInt(0, 3));
            const std::uint64_t kind = rng.uniformInt(0, 9);
            MemResult ra;
            MemResult rb;
            if (kind < 6) {
                const std::uint32_t line =
                    lines[rng.uniformInt(0, std::size(lines) - 1)];
                const auto n =
                    static_cast<std::uint32_t>(rng.uniformInt(0, 80));
                Addr base = rng.uniformInt(0, 7) == 0
                                ? cfg.capacity_bytes -
                                      rng.uniformInt(1, 8192)
                                : rng.uniformInt(0, space - 1);
                if (rng.uniformInt(0, 1) == 0) {
                    base = base / line * line;
                }
                ra = a.readRun(base, n, line, r, t);
                rb = readRunPerLine(b, base, n, line, r, t);
            } else {
                const Addr addr = rng.uniformInt(0, space - 1);
                const bool write = kind >= 8;
                const auto size = static_cast<std::uint32_t>(
                    rng.uniformInt(1, write ? 256 : 128));
                const MemRequest req{addr, size,
                                     write ? MemOp::kWrite
                                           : MemOp::kRead,
                                     r};
                ra = a.access(req, t);
                rb = b.access(req, t);
            }
            ASSERT_EQ(resultDiff(ra, rb), "");
            ASSERT_EQ(stateDiff(a, b), "");
            // Mostly a dependent chain; sometimes the next request
            // issues before this one completes.
            if (rng.uniformInt(0, 3) != 0) {
                t = ra.finish_tick;
            }
        }

        a.flushWrites(t);
        b.flushWrites(t);
        ASSERT_EQ(stateDiff(a, b), "");
        // One probe per bank, each to a row the trace may have left
        // open, sees the same bank and bus state on both.
        const AddressMap &map = a.addressMap();
        for (std::uint32_t ch = 0; ch < cfg.channels; ++ch) {
            for (std::uint32_t bank = 0; bank < cfg.banks_per_rank;
                 ++bank) {
                DramCoord c;
                c.channel = ch;
                c.bank = bank;
                c.row = rng.uniformInt(0, 7);
                const MemRequest probe{map.compose(c), 32, MemOp::kRead,
                                       Requester::kOther};
                ASSERT_EQ(resultDiff(a.access(probe, t),
                                     b.access(probe, t)),
                          "")
                    << "probe ch" << ch << " bank" << bank;
            }
        }
        ASSERT_EQ(stateDiff(a, b), "");

        ++traces;
        closed_form += a.closedFormLines();
        if (mode == FaultMode::kExhausted) {
            closed_form_exhausted += a.closedFormLines();
        }
        if (mode == FaultMode::kFiresInsideRuns) {
            retries_inside += a.retryCount();
        }
        EXPECT_EQ(b.closedFormLines(), 0u);
    }
    }
    }
    }
    }

    // 3 map orders x 2 page policies x 2 queue depths x 3 fault modes.
    EXPECT_EQ(traces, 36 * kTracesPerConfig);
    // The fast path and the faults both engaged.
    EXPECT_GT(closed_form, 10000u);
    EXPECT_GT(closed_form_exhausted, 1000u);
    EXPECT_GT(retries_inside, 100u);
}

TEST(DramReadRun, SteadyStreamIsChargedInClosedForm)
{
    // A default-config 64-line stream stays in one column span: two
    // lines go through access(), the other 62 in closed form.  A
    // silent fallback to per-line charging fails here.
    DramController ctrl{DramConfig{}};
    DramController ref{DramConfig{}};
    const MemResult r =
        ctrl.readRun(0, 64, 64, Requester::kDisplayController, 0);
    const MemResult want =
        readRunPerLine(ref, 0, 64, 64, Requester::kDisplayController, 0);
    EXPECT_GE(ctrl.closedFormLines(), 60u);
    EXPECT_EQ(resultDiff(r, want), "");
    EXPECT_EQ(stateDiff(ctrl, ref), "");
    EXPECT_EQ(r.bursts, 128u);
    EXPECT_EQ(r.row_hits, 126u);
}

TEST(DramReadRun, FaultAtAnySkippedCompletionIsSeen)
{
    // A one-shot timeout at exactly one line's completion tick: the
    // run must retry that line's bursts just as access() would, both
    // at the first line charged in closed form and at the last.
    DramController ref{DramConfig{}};
    std::vector<Tick> finishes;
    Tick t = 0;
    for (Addr i = 0; i < 64; ++i) {
        t = ref.access(MemRequest{i * 64, 64, MemOp::kRead,
                                  Requester::kDisplayController},
                       t)
                .finish_tick;
        finishes.push_back(t);
    }
    for (const Tick at : finishes) {
        SCOPED_TRACE(::testing::Message() << "fault at " << at);
        FaultConfig fc;
        FaultRule rule;
        rule.cls = FaultClass::kDramTimeout;
        rule.probability = 1.0;
        rule.from = at;
        rule.until = at + 1;
        rule.max_count = 1;
        fc.rules.push_back(rule);
        FaultInjector inj_a("a", fc);
        FaultInjector inj_b("b", fc);
        DramController a{DramConfig{}};
        DramController b{DramConfig{}};
        a.setFaultInjector(&inj_a);
        b.setFaultInjector(&inj_b);
        const MemResult ra =
            a.readRun(0, 64, 64, Requester::kDisplayController, 0);
        const MemResult rb = readRunPerLine(
            b, 0, 64, 64, Requester::kDisplayController, 0);
        ASSERT_EQ(resultDiff(ra, rb), "");
        ASSERT_EQ(stateDiff(a, b), "");
        EXPECT_EQ(a.retryCount(), 1u);
    }
}

TEST(DramReadRun, EmptyRunIsFree)
{
    DramController ctrl(smallConfig());
    const MemResult r =
        ctrl.readRun(4096, 0, 64, Requester::kVideoDecoder, 777);
    EXPECT_EQ(r.finish_tick, 777u);
    EXPECT_EQ(r.bursts, 0u);
    EXPECT_EQ(ctrl.energy().totalCounts().read_bursts, 0u);
}

TEST(MemorySystem, ReadLinesMatchesPerLineReads)
{
    MemorySystem a("a", nullptr, smallConfig());
    MemorySystem b("b", nullptr, smallConfig());
    // Three contiguous stretches, one crossing a column span.
    const std::vector<Addr> lines = {0,    64,   128,  192,  1024,
                                     4032, 4096, 4160, 4224, 9000};
    const Tick got =
        a.readLines(lines, 64, Requester::kVideoDecoder, 10);
    Tick want = 10;
    for (Addr l : lines) {
        want = b.read(l, 64, Requester::kVideoDecoder, want).finish_tick;
    }
    EXPECT_EQ(got, want);
    EXPECT_EQ(a.requestCount(), lines.size());
    EXPECT_EQ(b.requestCount(), lines.size());
    EXPECT_EQ(stateDiff(a.controller(), b.controller()), "");
    EXPECT_EQ(a.readLines({}, 64, Requester::kVideoDecoder, 5), 5u);
}

// ---- frozen reference ------------------------------------------------

/**
 * The controller's request path as it stood before requests were
 * served in one pass: every burst decoded on its own, timed through
 * its own copy of accessBurst, retried through its own backoff loop,
 * and every result built in full, writes too.  It shares the bank,
 * channel, map and ledger classes with DramController and nothing of
 * the controller itself.
 */
class ReferenceDram
{
  public:
    explicit ReferenceDram(const DramConfig &cfg)
        : cfg_(cfg), map_(cfg_), energy_(cfg_),
          burst_bytes_(cfg_.bytesPerBurst()),
          burst_time_(cfg_.burstTime())
    {
        for (std::uint32_t c = 0; c < cfg_.channels; ++c) {
            channels_.emplace_back(cfg_.ranks_per_channel,
                                   cfg_.banks_per_rank);
        }
        write_queues_.resize(static_cast<std::size_t>(cfg_.channels) *
                             cfg_.ranks_per_channel *
                             cfg_.banks_per_rank);
    }

    void
    setFaultInjector(FaultInjector *faults)
    {
        faults_ = faults;
        jitter_state_ = faults_ != nullptr
                            ? faults_->config().seed ^ 0xd2a0b0ffULL
                            : 0;
    }

    MemResult
    access(const MemRequest &req, Tick now)
    {
        const Addr align = ~static_cast<Addr>(burst_bytes_ - 1);
        const Addr first = req.addr & align;
        const Addr last = (req.addr + req.size - 1) & align;
        const bool queue_writes =
            cfg_.write_queue_depth > 0 && req.op == MemOp::kWrite;

        MemResult result;
        Tick finish = now;
        for (Addr a = first;; a += burst_bytes_) {
            const DramCoord coord = map_.decompose(a);
            ++result.bursts;
            if (queue_writes) {
                auto &queue = write_queues_[bankIndex(coord)];
                queue.push_back(PendingWrite{coord, req.requester});
                if (queue.size() >= cfg_.write_queue_depth) {
                    drainBank(bankIndex(coord), now);
                }
            } else {
                bool row_hit = false;
                bool activated = false;
                const Tick burst_finish =
                    faults_ == nullptr
                        ? accessBurst(coord, req.op, req.requester, now,
                                      row_hit, activated)
                        : burstWithRetry(coord, req.op, req.requester,
                                         now, row_hit, activated);
                finish = std::max(finish, burst_finish);
                if (row_hit) {
                    ++result.row_hits;
                }
                if (activated) {
                    ++result.activations;
                }
            }
            if (a == last) {
                break;
            }
        }
        result.finish_tick = finish;
        return result;
    }

    void
    flushWrites(Tick now)
    {
        for (std::size_t i = 0; i < write_queues_.size(); ++i) {
            drainBank(i, now);
        }
    }

    std::uint64_t
    pendingWrites() const
    {
        std::uint64_t n = 0;
        for (const auto &q : write_queues_) {
            n += q.size();
        }
        return n;
    }

    std::uint64_t retryCount() const { return retries_; }
    std::uint64_t abandonedCount() const { return abandoned_; }
    Tick backoffTicks() const { return backoff_ticks_; }
    const DramEnergy &energy() const { return energy_; }

  private:
    struct PendingWrite
    {
        DramCoord coord;
        Requester requester;
    };

    std::size_t
    bankIndex(const DramCoord &coord) const
    {
        return (static_cast<std::size_t>(coord.channel) *
                    cfg_.ranks_per_channel +
                coord.rank) *
                   cfg_.banks_per_rank +
               coord.bank;
    }

    Tick
    accessBurst(const DramCoord &coord, MemOp op, Requester r, Tick now,
                bool &row_hit, bool &activated)
    {
        DramChannel &channel = channels_[coord.channel];
        DramBank &bank = channel.bank(coord.rank, coord.bank);
        if (bank.expireRow(now, cfg_.row_open_timeout)) {
            energy_.recordPrecharge(r);
        }
        Tick t = std::max(now, bank.readyAt());
        row_hit = false;
        activated = false;
        if (bank.rowOpen() && bank.openRow() == coord.row) {
            row_hit = true;
        } else {
            if (bank.rowOpen()) {
                const Tick pre_start =
                    std::max(t, bank.openedAt() + cfg_.t_ras);
                t = pre_start + cfg_.t_rp;
                bank.precharge(t);
                energy_.recordPrecharge(r);
            }
            t += cfg_.t_rcd;
            bank.activate(coord.row, t);
            energy_.recordActivation(r);
            activated = true;
        }
        const Tick data_start = t + cfg_.t_cl;
        const Tick finish = channel.occupyBus(data_start, burst_time_);
        bank.touch(finish);
        if (cfg_.page_policy == PagePolicy::kClosedPage) {
            bank.precharge(finish);
        }
        energy_.recordBurst(r, op, burst_bytes_);
        if (row_hit) {
            energy_.recordRowHit(r);
        }
        return finish;
    }

    Tick
    burstWithRetry(const DramCoord &coord, MemOp op, Requester r,
                   Tick now, bool &row_hit, bool &activated)
    {
        Tick finish = accessBurst(coord, op, r, now, row_hit, activated);
        if (faults_ == nullptr) {
            return finish;
        }
        const std::uint32_t limit = faults_->config().dram_retry_limit;
        std::uint32_t attempts = 0;
        while (faults_->shouldInject(FaultClass::kDramTimeout, finish)) {
            if (attempts >= limit) {
                ++abandoned_;
                faults_->noteAbandoned(FaultClass::kDramTimeout);
                break;
            }
            ++attempts;
            ++retries_;
            const Tick delay = backoffDelay(attempts);
            backoff_ticks_ += delay;
            bool retry_hit = false;
            bool retry_act = false;
            finish = accessBurst(coord, op, r, finish + delay, retry_hit,
                                 retry_act);
            faults_->noteRecovered(FaultClass::kDramTimeout);
        }
        return finish;
    }

    Tick
    backoffDelay(std::uint32_t attempt)
    {
        const Tick base = static_cast<Tick>(200) * sim_clock::ns;
        const Tick cap = static_cast<Tick>(10) * sim_clock::us;
        Tick delay = base;
        for (std::uint32_t k = 1; k < attempt; ++k) {
            if (delay >= cap / 2) {
                delay = cap;
                break;
            }
            delay *= 2;
        }
        delay = std::min(delay, cap);
        const double u =
            static_cast<double>(splitMix64(jitter_state_) >> 11) *
            0x1.0p-53;
        delay += static_cast<Tick>(static_cast<double>(delay) * 0.25 * u);
        return delay;
    }

    void
    drainBank(std::size_t bank_idx, Tick now)
    {
        auto &queue = write_queues_[bank_idx];
        if (queue.empty()) {
            return;
        }
        std::stable_sort(queue.begin(), queue.end(),
                         [](const PendingWrite &a, const PendingWrite &b) {
                             return a.coord.row < b.coord.row;
                         });
        bool row_hit = false;
        bool activated = false;
        Tick t = now;
        for (const PendingWrite &w : queue) {
            t = burstWithRetry(w.coord, MemOp::kWrite, w.requester, t,
                               row_hit, activated);
        }
        queue.clear();
    }

    DramConfig cfg_;
    AddressMap map_;
    DramEnergy energy_;
    std::uint32_t burst_bytes_;
    Tick burst_time_;
    std::vector<DramChannel> channels_;
    std::vector<std::vector<PendingWrite>> write_queues_;
    FaultInjector *faults_ = nullptr;
    std::uint64_t retries_ = 0;
    std::uint64_t abandoned_ = 0;
    Tick backoff_ticks_ = 0;
    std::uint64_t jitter_state_ = 0;
};

/** The reference's readRun: each line through its access(). */
MemResult
referenceRun(ReferenceDram &ref, Addr base, std::uint32_t n,
             std::uint32_t line, Requester r, Tick now)
{
    MemResult total;
    total.finish_tick = now;
    for (std::uint32_t i = 0; i < n; ++i) {
        const MemResult res = ref.access(
            MemRequest{base + static_cast<Addr>(i) * line, line,
                       MemOp::kRead, r},
            total.finish_tick);
        total.finish_tick = res.finish_tick;
        total.bursts += res.bursts;
        total.row_hits += res.row_hits;
        total.activations += res.activations;
    }
    return total;
}

/**
 * Seeded traces through the controller and the frozen reference:
 * reads, posted writes of 1..256 B at any alignment (through write()
 * and, now and then, access()), read runs and flushes, over 1, 2 and
 * 4 channels, all three map orders, both page policies, write queue
 * depths 0 and 4, and no injector or an armed kDramTimeout rule.
 * Every read's result and the whole ledger must agree after every
 * operation, and a probe read per bank at the end must see the same
 * bank and bus state.
 */
TEST(DramReference, OnePassMatchesFrozenReferenceOverSeededTraces)
{
    const AddrMapOrder orders[] = {AddrMapOrder::kRoRaBaCoCh,
                                   AddrMapOrder::kRoRaBaChCo,
                                   AddrMapOrder::kRoRaCoBaCh};
    const PagePolicy pages[] = {PagePolicy::kOpenPage,
                                PagePolicy::kClosedPage};
    const std::uint32_t channel_counts[] = {2, 1, 2, 4};
    constexpr int kTracesPerConfig = 8;
    constexpr int kOpsPerTrace = 120;

    int traces = 0;
    std::uint64_t paired_writes = 0;
    std::uint64_t retries = 0;
    std::uint64_t seed = 1000;
    for (const AddrMapOrder order : orders) {
    for (const PagePolicy page : pages) {
    for (const std::uint32_t wq : {0u, 4u}) {
    for (const bool armed : {false, true}) {
    for (int k = 0; k < kTracesPerConfig; ++k, ++seed) {
        DramConfig cfg = smallConfig();
        cfg.map_order = order;
        cfg.page_policy = page;
        cfg.write_queue_depth = wq;
        cfg.channels = channel_counts[k % 4];
        if (k % 3 == 2) {
            // Rows close between the bursts of one request.
            cfg.row_open_timeout = 15 * sim_clock::ns;
        }
        if (k % 2 == 1) {
            // A capacity that ends mid-span: lines at the end wrap.
            cfg.capacity_bytes += 2048 + 32;
        }
        SCOPED_TRACE(::testing::Message()
                     << addrMapOrderName(order) << " "
                     << pagePolicyName(page) << " wq=" << wq
                     << " armed=" << armed << " channels="
                     << cfg.channels << " seed=" << seed);

        FaultConfig fc;
        fc.seed = seed;
        if (armed) {
            fc.rules.push_back(parseFaultRule(FaultClass::kDramTimeout,
                                              "p=0.05,until=40us"));
        }
        FaultInjector inj_a("a", fc);
        FaultInjector inj_b("b", fc);
        DramController dram(cfg);
        ReferenceDram ref(cfg);
        if (armed) {
            dram.setFaultInjector(&inj_a);
            ref.setFaultInjector(&inj_b);
        }

        Random rng(seed * 0x9e3779b97f4a7c15ULL);
        const Addr space = 256 * 1024;
        const auto pick = [&]() -> Addr {
            return rng.uniformInt(0, 7) == 0
                       ? cfg.capacity_bytes - rng.uniformInt(1, 4096)
                       : rng.uniformInt(0, space - 1);
        };
        Tick t = 0;
        for (int op = 0; op < kOpsPerTrace; ++op) {
            SCOPED_TRACE(::testing::Message() << "op " << op);
            if (rng.uniformInt(0, 2) == 0) {
                // Idle gaps on both sides of the row-open timeout.
                t += rng.uniformInt(0, 2 * cfg.row_open_timeout);
            }
            const auto r = static_cast<Requester>(rng.uniformInt(0, 3));
            const std::uint64_t kind = rng.uniformInt(0, 19);
            if (kind < 9) {
                // Posted write, mostly a 64 B line on a line boundary.
                Addr addr = pick();
                std::uint32_t size = 64;
                if (rng.uniformInt(0, 2) == 0) {
                    size = static_cast<std::uint32_t>(
                        rng.uniformInt(1, 256));
                } else {
                    addr &= ~Addr{63};
                }
                if (rng.uniformInt(0, 4) == 0) {
                    const MemRequest req{addr, size, MemOp::kWrite, r};
                    ASSERT_EQ(resultDiff(dram.access(req, t),
                                         ref.access(req, t)),
                              "");
                } else {
                    dram.write(addr, size, r, t);
                    ref.access(MemRequest{addr, size, MemOp::kWrite, r},
                               t);
                }
                paired_writes += size == 64 && addr % 64 == 0 ? 1 : 0;
            } else if (kind < 15) {
                Addr addr = pick();
                std::uint32_t size = 64;
                if (rng.uniformInt(0, 1) == 0) {
                    size = static_cast<std::uint32_t>(
                        rng.uniformInt(1, 128));
                } else {
                    addr &= ~Addr{63};
                }
                const MemRequest req{addr, size, MemOp::kRead, r};
                const MemResult got = dram.access(req, t);
                ASSERT_EQ(resultDiff(got, ref.access(req, t)), "");
                if (rng.uniformInt(0, 3) != 0) {
                    t = got.finish_tick;
                }
            } else if (kind < 19) {
                const std::uint32_t line = rng.uniformInt(0, 1) ? 64 : 128;
                const auto n =
                    static_cast<std::uint32_t>(rng.uniformInt(0, 40));
                const Addr base = pick() / line * line;
                const MemResult got = dram.readRun(base, n, line, r, t);
                ASSERT_EQ(resultDiff(got, referenceRun(ref, base, n, line,
                                                       r, t)),
                          "");
                t = got.finish_tick;
            } else {
                dram.flushWrites(t);
                ref.flushWrites(t);
            }
            ASSERT_EQ(stateDiff(dram, ref), "");
        }

        dram.flushWrites(t);
        ref.flushWrites(t);
        ASSERT_EQ(stateDiff(dram, ref), "");
        const AddressMap &map = dram.addressMap();
        for (std::uint32_t ch = 0; ch < cfg.channels; ++ch) {
            for (std::uint32_t bank = 0; bank < cfg.banks_per_rank;
                 ++bank) {
                DramCoord c;
                c.channel = ch;
                c.bank = bank;
                c.row = rng.uniformInt(0, 7);
                const MemRequest probe{map.compose(c), 32, MemOp::kRead,
                                       Requester::kOther};
                ASSERT_EQ(resultDiff(dram.access(probe, t),
                                     ref.access(probe, t)),
                          "")
                    << "probe ch" << ch << " bank" << bank;
            }
        }
        ASSERT_EQ(stateDiff(dram, ref), "");
        ++traces;
        retries += dram.retryCount();
    }
    }
    }
    }
    }

    // 3 map orders x 2 page policies x 2 queue depths x armed or not.
    EXPECT_EQ(traces, 24 * kTracesPerConfig);
    EXPECT_GT(paired_writes, 5000u);
    EXPECT_GT(retries, 100u);
}

class BankTimeoutSweep : public ::testing::TestWithParam<Tick>
{
};

TEST_P(BankTimeoutSweep, ShorterTimeoutNeverReducesActivations)
{
    DramConfig cfg = smallConfig();
    cfg.row_open_timeout = GetParam();
    DramController ctrl(cfg);

    Tick t = 0;
    for (Addr a = 0; a < 16 * 1024; a += 64) {
        // Spaced accesses: 1 us apart.
        t += sim_clock::us;
        ctrl.access(MemRequest{a, 64, MemOp::kRead,
                               Requester::kVideoDecoder},
                    t);
    }
    const auto counts = ctrl.energy().totalCounts();
    // Store for cross-param comparison via recorded property.
    RecordProperty("activations",
                   static_cast<int>(counts.activations));
    if (GetParam() >= 2 * sim_clock::us) {
        // Generous timeout: rows survive the 1 us spacing.
        EXPECT_LT(counts.activations, 64u);
    } else if (GetParam() <= sim_clock::us / 2) {
        // Tight timeout: every access re-activates.
        EXPECT_EQ(counts.activations, 512u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Timeouts, BankTimeoutSweep,
    ::testing::Values(Tick(100) * sim_clock::ns,
                      Tick(500) * sim_clock::ns,
                      Tick(2) * sim_clock::us,
                      Tick(50) * sim_clock::us));

} // namespace
} // namespace vstream
