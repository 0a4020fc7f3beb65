#include "core/mach_config.hh"

#include "sim/logging.hh"

namespace vstream
{

void
MachConfig::validate() const
{
    if (num_machs == 0) {
        vs_fatal("num_machs must be >= 1");
    }
    if (ways == 0 || entries % ways != 0) {
        vs_fatal("MACH associativity must divide the entry count");
    }
    const std::uint32_t s = sets();
    if (s == 0 || (s & (s - 1)) != 0) {
        vs_fatal("MACH set count must be a power of two, got ", s);
    }
    if (co_mach && (co_mach_entries == 0 || co_mach_entries % ways != 0)) {
        vs_fatal("CO-MACH entries must be a non-zero multiple of ways");
    }
    if (pointer_bytes == 0 || digest_bytes == 0) {
        vs_fatal("metadata field widths must be non-zero");
    }
}

} // namespace vstream
