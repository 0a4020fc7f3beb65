#include "mem/memory_system.hh"

#include <utility>

#include "sim/logging.hh"
#include "sim/stats_registry.hh"

namespace vstream
{

MemorySystem::MemorySystem(std::string name, EventQueue *,
                           const DramConfig &cfg)
    : name_(std::move(name)), ctrl_(cfg)
{
}

MemResult
MemorySystem::access(const MemRequest &req, Tick now)
{
    ++request_count_;
    return ctrl_.access(req, now);
}

MemResult
MemorySystem::read(Addr addr, std::uint32_t size, Requester r, Tick now)
{
    return access(MemRequest{addr, size, MemOp::kRead, r}, now);
}

MemResult
MemorySystem::readRun(Addr base, std::uint32_t n, std::uint32_t line_bytes,
                      Requester r, Tick now)
{
    request_count_ += n;
    return ctrl_.readRun(base, n, line_bytes, r, now);
}

// vstream:hot
Tick
MemorySystem::readLines(std::span<const Addr> lines,
                        std::uint32_t line_bytes, Requester r, Tick now)
{
    std::size_t i = 0;
    while (i < lines.size()) {
        std::size_t j = i + 1;
        while (j < lines.size() && lines[j] == lines[j - 1] + line_bytes) {
            ++j;
        }
        now = readRun(lines[i], static_cast<std::uint32_t>(j - i),
                      line_bytes, r, now)
                  .finish_tick;
        i = j;
    }
    return now;
}

Addr
MemorySystem::allocate(std::uint64_t bytes, const std::string &label)
{
    constexpr std::uint64_t kAlign = 64;
    const std::uint64_t aligned = (bytes + kAlign - 1) / kAlign * kAlign;
    if (next_free_ + aligned > config().capacity_bytes) {
        vs_fatal("out of simulated DRAM allocating ", aligned,
                 " bytes for '", label, "' (", next_free_, " of ",
                 config().capacity_bytes, " used)");
    }
    const Addr base = next_free_;
    next_free_ += aligned;
    peak_allocated_ = std::max(peak_allocated_, next_free_);
    return base;
}

double
MemorySystem::backgroundEnergy(Tick span) const
{
    return ctrl_.energy().backgroundEnergy(span);
}

void
MemorySystem::regStats(StatsRegistry &r)
{
    r.addCallback(name_ + ".requests", "requests serviced", [this] {
        return static_cast<double>(request_count_);
    });
    // next_free_ is the bump-allocator watermark, not a counter.
    r.addCallback(name_ + ".allocatedBytes",
                  "bytes handed out by the bump allocator", [this] {
                      return static_cast<double>(next_free_);
                  });
    r.addCallback(name_ + ".dram.retries",
                  "bursts re-issued after an injected timeout", [this] {
                      return static_cast<double>(ctrl_.retryCount());
                  });
    r.addCallback(name_ + ".dram.abandoned",
                  "bursts abandoned after exhausting retries", [this] {
                      return static_cast<double>(
                          ctrl_.abandonedCount());
                  });
    r.addCallback(name_ + ".dram.backoffTicks",
                  "ticks spent backing off before burst re-issues",
                  [this] {
                      return static_cast<double>(
                          ctrl_.backoffTicks());
                  });
    ctrl_.energy().regStats(r, name_ + ".");
}

} // namespace vstream
