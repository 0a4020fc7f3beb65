/**
 * @file
 * LPDDR3 device/controller configuration (paper Table 2).
 *
 * Defaults model the Micron 253-ball dual-channel LPDDR3 part the
 * paper cites: 2 GB, 2 channels, 1 rank/channel, 8 banks/rank,
 * 800 MHz (1.6 GT/s), tCL/tRP/tRCD = 12/18/18 ns, RoRaBaCoCh address
 * interleaving.
 */

#ifndef VSTREAM_MEM_DRAM_CONFIG_HH
#define VSTREAM_MEM_DRAM_CONFIG_HH

#include <cstdint>
#include <string>

#include "sim/ticks.hh"

namespace vstream
{

/**
 * Physical-address interleaving order, named MSB-to-LSB.
 *
 * The paper's platform uses RoRaBaCoCh (channel bits lowest: bursts
 * alternate channels).  The alternatives trade channel parallelism
 * against row locality and bank-level parallelism, and are compared
 * by `bench_ablation_mapping`.
 */
enum class AddrMapOrder
{
    kRoRaBaCoCh, // row:rank:bank:column:channel (paper Table 2)
    kRoRaBaChCo, // channel above column: a whole row per channel
    kRoRaCoBaCh, // bank below column: bursts spread over banks
};

std::string addrMapOrderName(AddrMapOrder order);

/** Row-buffer management policy. */
enum class PagePolicy
{
    /** Keep rows open until a conflict or the starvation bound - the
     * paper's platform; racing exploits exactly this. */
    kOpenPage,
    /** Auto-precharge after every column access: every access pays
     * an activation, but conflicts never pay tRP on the critical
     * path.  Removes the frequency sensitivity racing relies on. */
    kClosedPage,
};

std::string pagePolicyName(PagePolicy policy);

/** Static DRAM organization, timing, and energy parameters. */
struct DramConfig
{
    // --- organization -------------------------------------------------
    std::uint32_t channels = 2;
    std::uint32_t ranks_per_channel = 1;
    std::uint32_t banks_per_rank = 8;
    /** Row size per bank, bytes (open-page granularity). */
    std::uint32_t row_bytes = 2048;
    /** Device data-bus width in bits (LPDDR3 x32). */
    std::uint32_t bus_width_bits = 32;
    /** Burst length in beats. */
    std::uint32_t burst_length = 8;
    /** Total capacity in bytes (2 GB; at most 4 GiB, so every
     * simulated address fits the 32-bit MabRecord::data_addr). */
    std::uint64_t capacity_bytes = 2ULL << 30;
    /** Address interleaving (paper Table 2: RoRaBaCoCh). */
    AddrMapOrder map_order = AddrMapOrder::kRoRaBaCoCh;
    /** Row-buffer policy (the paper's platform is open-page). */
    PagePolicy page_policy = PagePolicy::kOpenPage;

    // --- timing (I/O clock 800 MHz => tCK = 1.25 ns) -------------------
    Tick t_ck = 1250;                       // ps
    Tick t_cl = 12 * sim_clock::ns;         // CAS latency
    Tick t_rp = 18 * sim_clock::ns;         // precharge
    Tick t_rcd = 18 * sim_clock::ns;        // activate-to-CAS
    Tick t_ras = 42 * sim_clock::ns;        // activate-to-precharge min
    Tick t_wr = 15 * sim_clock::ns;         // write recovery
    /**
     * Starvation bound: maximum time a row may stay open without a
     * new access before the controller precharges it to serve other
     * requesters (Sec. 3.2's Act/Pre argument hinges on this).
     */
    Tick row_open_timeout = 280 * sim_clock::ns;

    /**
     * Per-bank write-queue depth, in bursts.  Posted writes are held
     * and drained in row-sorted batches (when the bank's row is
     * reopened, when the queue fills, or on an explicit flush), the
     * way real controllers recover row locality for scattered write
     * streams.  0 = writes issue immediately (the calibrated default
     * used for all paper reproductions; `bench_ablation_write_queue`
     * quantifies the scheduler's effect).
     */
    std::uint32_t write_queue_depth = 0;

    // --- energy -------------------------------------------------------
    /** Energy of one activate+precharge pair, picojoules. */
    double e_act_pre_pj = 4000.0;           // 4 nJ
    /** Energy of one read burst (32 B), picojoules. */
    double e_read_burst_pj = 4200.0;        // ~16 pJ/bit I/O
    /** Energy of one write burst (32 B), picojoules. */
    double e_write_burst_pj = 4500.0;
    /** Background (standby + refresh) power, watts: refresh is not
     * timed, its energy is folded in here. */
    double background_watts = 0.040;

    // --- derived ------------------------------------------------------
    /** Bytes transferred by one burst. */
    std::uint32_t bytesPerBurst() const;
    /** Data-bus occupancy of one burst (DDR: burst_length/2 clocks). */
    Tick burstTime() const;
    /** Rows per bank implied by capacity and geometry. */
    std::uint64_t rowsPerBank() const;

    /** Abort with a message if the configuration is inconsistent. */
    void validate() const;
};

} // namespace vstream

#endif // VSTREAM_MEM_DRAM_CONFIG_HH
