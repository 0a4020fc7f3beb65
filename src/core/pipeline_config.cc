#include "core/pipeline_config.hh"

#include <algorithm>

#include "decoder/decode_cost_model.hh"
#include "sim/logging.hh"

namespace vstream
{

std::string
schemeKey(Scheme s)
{
    switch (s) {
      case Scheme::kBaseline:
        return "L";
      case Scheme::kBatching:
        return "B";
      case Scheme::kRacing:
        return "R";
      case Scheme::kRaceToSleep:
        return "S";
      case Scheme::kMab:
        return "M";
      case Scheme::kGab:
        return "G";
    }
    return "?";
}

std::string
schemeName(Scheme s)
{
    switch (s) {
      case Scheme::kBaseline:
        return "Baseline";
      case Scheme::kBatching:
        return "Batching";
      case Scheme::kRacing:
        return "Racing";
      case Scheme::kRaceToSleep:
        return "Race-to-Sleep";
      case Scheme::kMab:
        return "Race-to-Sleep+MAB";
      case Scheme::kGab:
        return "Race-to-Sleep+GAB";
    }
    return "?";
}

bool
tryParseScheme(const std::string &key, Scheme &out)
{
    for (Scheme s : {Scheme::kBaseline, Scheme::kBatching, Scheme::kRacing,
                     Scheme::kRaceToSleep, Scheme::kMab, Scheme::kGab}) {
        if (schemeKey(s) == key) {
            out = s;
            return true;
        }
    }
    return false;
}

SchemeConfig
SchemeConfig::make(Scheme s, std::uint32_t batch_frames)
{
    SchemeConfig c;
    c.scheme = s;
    switch (s) {
      case Scheme::kBaseline:
        break;
      case Scheme::kBatching:
        c.batch = batch_frames;
        break;
      case Scheme::kRacing:
        c.freq = VdFrequency::kHigh;
        break;
      case Scheme::kRaceToSleep:
        c.batch = batch_frames;
        c.freq = VdFrequency::kHigh;
        break;
      case Scheme::kMab:
      case Scheme::kGab:
        c.batch = batch_frames;
        c.freq = VdFrequency::kHigh;
        c.mach = true;
        c.gradient = (s == Scheme::kGab);
        c.layout = LayoutKind::kPointerDigest;
        c.display_cache = true;
        c.mach_buffer = true;
        break;
    }
    return c;
}

double
PipelineConfig::trafficEnergyScale() const
{
    const double native = 3840.0 * 2160.0;
    const double sim = static_cast<double>(profile.width) *
                       static_cast<double>(profile.height);
    return native / sim;
}

std::uint32_t
PipelineConfig::framebufferSlots() const
{
    return std::max<std::uint32_t>(3, scheme.batch + 2) +
           (scheme.mach ? mach.num_machs - 1 : 0);
}

void
PipelineConfig::finalize()
{
    profile.validate();

    // Display-side features follow the scheme.
    display.use_display_cache = scheme.display_cache;
    display.use_mach_buffer = scheme.mach_buffer;
    display.transaction_elimination = scheme.transaction_elimination;
    if (scheme.mach) {
        display.mach_window = mach.num_machs;
    }

    // MACH representation follows the scheme.
    mach.use_gradient = scheme.gradient;
    mach.co_mach = scheme.co_mach;

    // Row-open timeout: the starvation bound sits between the mab
    // arrival spacing at the high and low VD frequencies, so racing
    // keeps rows open across consecutive accesses while the baseline
    // frequency re-activates them (Sec. 3.2, Fig. 5a).
    const DecodeCostModel cost(profile, decoder.power, decoder.cost);
    const double low_spacing_s = cost.meanMabSeconds(VdFrequency::kLow);
    dram.row_open_timeout = secondsToTicks(0.75 * low_spacing_s);

    validate();
}

void
PipelineConfig::validate() const
{
    profile.validate();
    dram.validate();
    decoder.validate();
    display.validate();
    mach.validate();
    if (scheme.batch == 0) {
        vs_fatal("batch size must be >= 1");
    }
    if (scheme.mach && scheme.layout == LayoutKind::kLinear) {
        vs_fatal("MACH schemes require a pointer-based layout");
    }
    if (scheme.mach_buffer &&
        scheme.layout != LayoutKind::kPointerDigest) {
        vs_fatal("the MACH buffer requires the pointer+digest layout");
    }
    if (preroll_frames == 0) {
        vs_fatal("need at least one pre-rolled frame");
    }
    faults.validate();
    arrival.validate();
}

} // namespace vstream
