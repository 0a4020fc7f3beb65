#include "decoder/decoder_config.hh"

#include "sim/logging.hh"

namespace vstream
{

void
DecoderConfig::validate() const
{
    power.validate();
    cache.validate();
    if (cost.jitter < 0.0 || cost.jitter >= 1.0) {
        vs_fatal("per-mab jitter must be in [0, 1)");
    }
}

} // namespace vstream
