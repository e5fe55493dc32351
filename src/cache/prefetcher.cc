#include "prefetcher.hh"

#include "common/logging.hh"
#include "sim/snapshot.hh"

namespace ovl
{

StreamPrefetcher::StreamPrefetcher(std::string name, PrefetcherParams params)
    : SimObject(std::move(name)), params_(params),
      streams_(params.numStreams),
      lastLines_(params.numStreams, 0),
      lruSeqs_(params.numStreams, 0),
      trainings_(&statGroup(), "trainings", "stream training events"),
      allocations_(&statGroup(), "allocations", "streams allocated"),
      issued_(&statGroup(), "issued", "prefetches issued")
{
    ovl_assert(params.numStreams > 0, "prefetcher needs stream entries");
    ovl_assert(params.numStreams <= 64,
               "valid mask bounds the table at 64 streams");
}

unsigned
StreamPrefetcher::allocateStream()
{
    std::uint64_t full = params_.numStreams == 64
                             ? ~std::uint64_t(0)
                             : (std::uint64_t(1) << params_.numStreams) - 1;
    std::uint64_t invalid = full & ~validMask_;
    if (invalid != 0)
        return unsigned(__builtin_ctzll(invalid)); // first free in order
    unsigned victim = 0;
    for (unsigned i = 1; i < params_.numStreams; ++i) {
        if (lruSeqs_[i] < lruSeqs_[victim])
            victim = i;
    }
    return victim;
}

template <typename Ar>
void
StreamPrefetcher::transfer(Ar &ar)
{
    ar.section("PREF");
    ar.fixedCount(streams_.size(), "prefetcher stream count");
    for (Stream &s : streams_) {
        ar.field(s.confirmed);
        std::int64_t direction = s.direction;
        ar.field(direction);
        s.direction = int(direction);
        ar.field(s.strikes);
        ar.field(s.prefetchHead);
    }
    for (Addr &last : lastLines_)
        ar.field(last);
    for (std::uint64_t &seq : lruSeqs_)
        ar.field(seq);
    ar.field(validMask_);
    ar.field(lruCounter_);
    ar.endSection();
}

OVL_SNAPSHOT_INSTANTIATE(StreamPrefetcher);

} // namespace ovl
