#include "physical_memory.hh"

#include <cstring>

#include "common/logging.hh"
#include "sim/snapshot.hh"

namespace ovl
{

PhysicalMemory::PhysicalMemory(std::string name,
                               std::uint64_t capacity_bytes)
    : SimObject(std::move(name)), capacityBytes_(capacity_bytes),
      framesAllocated_(&statGroup(), "framesAllocated",
                       "4 KB frames allocated"),
      framesFreed_(&statGroup(), "framesFreed", "4 KB frames freed"),
      bytesGauge_(&statGroup(), "bytesInUse", "bytes currently allocated")
{
    refCounts_.resize(64, 0);
    contents_.resize(64);
    refCounts_[kZeroFrame] = 1; // permanently live
}

Addr
PhysicalMemory::allocFrame()
{
    Addr frame;
    if (!freeFrames_.empty()) {
        frame = freeFrames_.back();
        freeFrames_.pop_back();
    } else {
        frame = nextFrame_++;
        if (frame * kPageSize >= capacityBytes_)
            ovl_fatal("physical memory exhausted (%llu bytes)",
                      (unsigned long long)capacityBytes_);
        if (frame >= refCounts_.size()) {
            refCounts_.resize(refCounts_.size() * 2, 0);
            contents_.resize(refCounts_.size());
        }
    }
    refCounts_[frame] = 1;
    ++framesAllocated_;
    ++framesInUse_;
    bytesGauge_.set(std::int64_t(bytesInUse()));
    return frame;
}

void
PhysicalMemory::freeFrame(Addr frame)
{
    // Retire the backing buffer to the pool; the next materializer
    // zero-fills it, so a recycled frame still reads as zero.
    if (contents_[frame])
        pagePool_.push_back(std::move(contents_[frame]));
    freeFrames_.push_back(frame);
    ++framesFreed_;
    --framesInUse_;
    bytesGauge_.set(std::int64_t(bytesInUse()));
}

PageData *
PhysicalMemory::framePtr(Addr frame)
{
    ovl_assert(frame != kZeroFrame, "writing the shared zero frame");
    ovl_assert(frame < contents_.size(), "frame out of range");
    std::unique_ptr<PageData> &slot = contents_[frame];
    if (!slot) {
        if (!pagePool_.empty()) {
            slot = std::move(pagePool_.back());
            pagePool_.pop_back();
        } else {
            slot = std::make_unique<PageData>();
        }
        slot->fill(0);
    }
    return slot.get();
}

void
PhysicalMemory::serialize(snapshot::Writer &w) const
{
    w.beginSection("PMEM");
    w.u64(capacityBytes_);
    w.u64(nextFrame_);
    w.u64(framesInUse_);
    w.u64(freeFrames_.size());
    for (Addr f : freeFrames_)
        w.u64(f);
    w.u64(refCounts_.size());
    for (unsigned rc : refCounts_)
        w.u32(rc);
    // Page contents: only materialized frames carry data; null slots
    // read as zero and must stay null so memory accounting matches.
    std::uint64_t materialized = 0;
    for (const auto &slot : contents_)
        if (slot)
            ++materialized;
    w.u64(materialized);
    for (std::size_t f = 0; f < contents_.size(); ++f) {
        if (contents_[f]) {
            w.u64(f);
            w.blob(contents_[f]->data(), kPageSize);
        }
    }
    w.endSection();
}

void
PhysicalMemory::deserialize(snapshot::Reader &r)
{
    r.expectSection("PMEM");
    std::uint64_t capacity = r.u64();
    if (capacity != capacityBytes_) {
        r.fail("physical memory capacity mismatch: snapshot " +
               std::to_string(capacity) + ", system " +
               std::to_string(capacityBytes_));
    }
    nextFrame_ = r.u64();
    framesInUse_ = r.u64();
    freeFrames_.resize(r.count(8));
    for (Addr &f : freeFrames_)
        f = r.u64();
    std::uint64_t num_frames = r.count(4);
    refCounts_.assign(num_frames, 0);
    for (unsigned &rc : refCounts_)
        rc = r.u32();
    contents_.clear();
    contents_.resize(num_frames);
    pagePool_.clear();
    std::uint64_t materialized = r.count(8 + kPageSize);
    for (std::uint64_t i = 0; i < materialized; ++i) {
        std::uint64_t f = r.u64();
        if (f >= contents_.size())
            r.fail("materialized frame " + std::to_string(f) +
                   " out of range");
        contents_[f] = std::make_unique<PageData>();
        r.blob(contents_[f]->data(), kPageSize);
    }
    r.endSection();
}

void
PhysicalMemory::copyFrame(Addr dst_frame, Addr src_frame)
{
    const PageData *src = framePtrConst(src_frame);
    PageData *dst = framePtr(dst_frame);
    if (src == nullptr)
        dst->fill(0);
    else
        *dst = *src;
}

} // namespace ovl
