#include "mem/dram_energy.hh"

#include "sim/logging.hh"
#include "sim/stats_registry.hh"

namespace vstream
{

DramActivityCounts &
DramActivityCounts::operator+=(const DramActivityCounts &o)
{
    activations += o.activations;
    precharges += o.precharges;
    read_bursts += o.read_bursts;
    write_bursts += o.write_bursts;
    row_hits += o.row_hits;
    bytes_read += o.bytes_read;
    bytes_written += o.bytes_written;
    return *this;
}

DramEnergy::DramEnergy(const DramConfig &cfg) : cfg_(cfg) {}

const DramActivityCounts &
DramEnergy::counts(Requester r) const
{
    return per_requester_[index(r)];
}

DramActivityCounts
DramEnergy::totalCounts() const
{
    DramActivityCounts total;
    for (const auto &c : per_requester_) {
        total += c;
    }
    return total;
}

double
DramEnergy::actPreEnergy(Requester r) const
{
    const auto &c = per_requester_[index(r)];
    // Energy is booked per act/pre *pair*; an activation implies a
    // matching (possibly future) precharge, so count activations.
    return static_cast<double>(c.activations) * cfg_.e_act_pre_pj * 1e-12;
}

double
DramEnergy::actPreEnergyTotal() const
{
    double sum = 0.0;
    for (std::size_t i = 0; i < per_requester_.size(); ++i) {
        sum += actPreEnergy(static_cast<Requester>(i));
    }
    return sum;
}

double
DramEnergy::burstEnergy(Requester r) const
{
    const auto &c = per_requester_[index(r)];
    return (static_cast<double>(c.read_bursts) * cfg_.e_read_burst_pj +
            static_cast<double>(c.write_bursts) * cfg_.e_write_burst_pj) *
           1e-12;
}

double
DramEnergy::burstEnergyTotal() const
{
    double sum = 0.0;
    for (std::size_t i = 0; i < per_requester_.size(); ++i) {
        sum += burstEnergy(static_cast<Requester>(i));
    }
    return sum;
}

double
DramEnergy::backgroundEnergy(Tick span) const
{
    return cfg_.background_watts * ticksToSeconds(span);
}

void
DramEnergy::regStats(StatsRegistry &reg, const std::string &prefix) const
{
    for (std::size_t i = 0; i < per_requester_.size(); ++i) {
        const auto r = static_cast<Requester>(i);
        const DramActivityCounts *c = &per_requester_[i];
        const std::string p =
            prefix + "dram." + requesterName(r) + ".";
        reg.addCallback(p + "activations", "row activations", [c] {
            return static_cast<double>(c->activations);
        });
        reg.addCallback(p + "rowHits", "row-buffer hits", [c] {
            return static_cast<double>(c->row_hits);
        });
        reg.addCallback(p + "bytesRead", "data burst bytes read", [c] {
            return static_cast<double>(c->bytes_read);
        });
        reg.addCallback(p + "bytesWritten", "data burst bytes written",
                        [c] {
                            return static_cast<double>(c->bytes_written);
                        });
        reg.addCallback(p + "actPreEnergyJ",
                        "activate/precharge energy, joules",
                        [this, r] { return actPreEnergy(r); });
        reg.addCallback(p + "burstEnergyJ",
                        "data transfer energy, joules",
                        [this, r] { return burstEnergy(r); });
    }
}

} // namespace vstream
