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

template <typename Ar>
void
PhysicalMemory::transfer(Ar &ar)
{
    ar.section("PMEM");
    ar.fixedCount(capacityBytes_, "physical memory capacity");
    ar.field(nextFrame_);
    ar.field(framesInUse_);
    ar.size(freeFrames_, 8);
    for (Addr &f : freeFrames_)
        ar.field(f);
    ar.size(refCounts_, 4);
    for (unsigned &rc : refCounts_)
        ar.field(rc);
    if constexpr (Ar::kLoading) {
        contents_.clear();
        contents_.resize(refCounts_.size());
        pagePool_.clear();
    }
    // Page contents: only materialized frames carry data; null slots
    // read as zero and must stay null so memory accounting matches.
    std::vector<std::uint64_t> materialized;
    for (std::size_t f = 0; f < contents_.size(); ++f) {
        if (contents_[f])
            materialized.push_back(f);
    }
    ar.size(materialized, 8 + kPageSize);
    for (std::uint64_t &f : materialized) {
        ar.field(f);
        ar.check(f < contents_.size(), [&] {
            return "materialized frame " + std::to_string(f) +
                   " out of range";
        });
        if (!contents_[f])
            contents_[f] = std::make_unique<PageData>();
        ar.bytes(contents_[f]->data(), kPageSize);
    }
    ar.endSection();
}

OVL_SNAPSHOT_INSTANTIATE(PhysicalMemory);

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
