#include "display/frame_reconstructor.hh"

#include <algorithm>
#include <cstring>

#include "video/pixel_kernels.hh"

namespace vstream
{

// vstream:hot
void
ShownFrameCrc::flushChunk()
{
    if (fill_ > 0) {
        crc_.update(chunk_, fill_);
        fill_ = 0;
    }
}

// vstream:hot
void
ShownFrameCrc::flushRun()
{
    if (run_len_ > kChunk - fill_) {
        flushChunk();
    }
    if (run_len_ > kChunk) {
        crc_.update(run_, run_len_);
    } else if (run_len_ > 0) {
        std::memcpy(chunk_ + fill_, run_, run_len_);
        fill_ += run_len_;
    }
    run_ = nullptr;
    run_len_ = 0;
}

// vstream:hot
void
ShownFrameCrc::add(std::span<const std::uint8_t> stored,
                   const MabRecord &rec, bool gradient_mode)
{
    if (!gradient_mode) {
        if (run_ != nullptr && run_ + run_len_ == stored.data()) {
            run_len_ += stored.size();
        } else {
            flushRun();
            run_ = stored.data();
            run_len_ = stored.size();
        }
        return;
    }
    flushRun();
    for (std::size_t off = 0; off < stored.size(); off += kChunk) {
        const std::size_t n = std::min(kChunk, stored.size() - off);
        if (n > kChunk - fill_) {
            flushChunk();
        }
        gradientAdd(chunk_ + fill_, stored.data() + off, n, rec.base);
        fill_ += n;
    }
}

std::uint32_t
ShownFrameCrc::digest()
{
    flushRun();
    flushChunk();
    return crc_.digest();
}

} // namespace vstream
