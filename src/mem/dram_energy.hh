/**
 * @file
 * DRAM energy bookkeeping.
 *
 * Splits memory energy into the categories the paper plots in
 * Figs. 5b and 11: Act/Pre, read/write burst, and background
 * (standby + refresh), attributable per requester.
 */

#ifndef VSTREAM_MEM_DRAM_ENERGY_HH
#define VSTREAM_MEM_DRAM_ENERGY_HH

#include <array>
#include <cstdint>
#include <ostream>

#include "mem/dram_config.hh"
#include "mem/mem_request.hh"

namespace vstream
{

class StatsRegistry;

/** Raw command counts for one requester. */
struct DramActivityCounts
{
    std::uint64_t activations = 0;
    std::uint64_t precharges = 0;
    std::uint64_t read_bursts = 0;
    std::uint64_t write_bursts = 0;
    std::uint64_t row_hits = 0;
    std::uint64_t bytes_read = 0;
    std::uint64_t bytes_written = 0;

    DramActivityCounts &operator+=(const DramActivityCounts &o);
};

/** Energy ledger covering all requesters plus background power. */
class DramEnergy
{
  public:
    explicit DramEnergy(const DramConfig &cfg);

    /** Account one activation for @p r. */
    void recordActivation(Requester r) { ++at(r).activations; }
    /** Account one precharge for @p r. */
    void recordPrecharge(Requester r) { ++at(r).precharges; }
    /** Account one data burst for @p r. */
    void
    recordBurst(Requester r, MemOp op, std::uint32_t bytes)
    {
        DramActivityCounts &c = at(r);
        if (op == MemOp::kRead) {
            ++c.read_bursts;
            c.bytes_read += bytes;
        } else {
            ++c.write_bursts;
            c.bytes_written += bytes;
        }
    }
    /** Account one row-buffer hit for @p r. */
    void recordRowHit(Requester r) { ++at(r).row_hits; }
    /** Account @p bursts read bursts of @p bytes each for @p r, every
     * one a row-buffer hit (a closed-form read run). */
    void
    recordReadHits(Requester r, std::uint64_t bursts, std::uint32_t bytes)
    {
        DramActivityCounts &c = at(r);
        c.read_bursts += bursts;
        c.bytes_read += bursts * bytes;
        c.row_hits += bursts;
    }

    /** Counts for one requester. */
    const DramActivityCounts &counts(Requester r) const;
    /** Counts summed over all requesters. */
    DramActivityCounts totalCounts() const;

    /** Act/Pre energy in joules (per requester / total). */
    double actPreEnergy(Requester r) const;
    double actPreEnergyTotal() const;

    /** Burst (data transfer) energy in joules. */
    double burstEnergy(Requester r) const;
    double burstEnergyTotal() const;

    /** Background energy across a window of @p span ticks. */
    double backgroundEnergy(Tick span) const;

    /** Register per-requester counts/energies under @p prefix. */
    void regStats(StatsRegistry &r, const std::string &prefix) const;

  private:
    static std::size_t index(Requester r)
    {
        return static_cast<std::size_t>(r);
    }
    DramActivityCounts &at(Requester r) { return per_requester_[index(r)]; }

    // By value: a reference member dangles when built from a
    // temporary config (ASan stack-use-after-scope).
    DramConfig cfg_;
    std::array<DramActivityCounts, 4> per_requester_{};
};

} // namespace vstream

#endif // VSTREAM_MEM_DRAM_ENERGY_HH
