#include "display/display_config.hh"

#include "sim/logging.hh"

namespace vstream
{

void
DisplayConfig::validate() const
{
    display_cache.validate();
    if (use_mach_buffer &&
        (mach_buffer_entries == 0 || mach_buffer_ways == 0 ||
         mach_buffer_entries % mach_buffer_ways != 0)) {
        vs_fatal("bad MACH buffer geometry");
    }
}

} // namespace vstream
