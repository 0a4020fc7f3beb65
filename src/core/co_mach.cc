#include "core/co_mach.hh"

namespace vstream
{

CoMach::CoMach(const MachConfig &cfg)
    : cfg_(cfg),
      cache_(std::make_unique<MachCache>(cfg, cfg.co_mach_entries,
                                         /*full_tags=*/true))
{
}

void
CoMach::beginFrame()
{
    // Recycle in place: the entry array and truth arena are reused,
    // so frame boundaries cost no heap traffic.
    cache_->recycle();
}

MachProbe
CoMach::lookup(std::uint32_t digest, std::uint16_t aux,
               std::span<const std::uint8_t> truth)
{
    return cache_->lookup(digest, aux, truth);
}

void
CoMach::insert(std::uint32_t digest, std::uint16_t aux, Addr ptr,
               std::span<const std::uint8_t> truth)
{
    ++inserts_;
    cache_->insert(digest, aux, ptr, truth);
}

} // namespace vstream
