#include "core/coalescing_buffer.hh"

#include "sim/logging.hh"

namespace vstream
{

void
CoalescingBuffer::rebase(Addr region_base)
{
    vs_assert(filled_ == 0, "coalescing buffer rebased with unflushed bytes");
    cursor_ = region_base;
}

void
CoalescingBuffer::issue(std::uint32_t size, Tick now)
{
    mem_.write(cursor_, size, Requester::kVideoDecoder, now);
    ++requests_;
    cursor_ += size;
}

void
CoalescingBuffer::append(std::uint32_t bytes, Tick now)
{
    filled_ += bytes;
    while (filled_ >= kBytes) {
        issue(kBytes, now);
        filled_ -= kBytes;
    }
}

void
CoalescingBuffer::flush(Tick now)
{
    if (filled_ > 0) {
        issue(filled_, now);
        filled_ = 0;
    }
}

} // namespace vstream
