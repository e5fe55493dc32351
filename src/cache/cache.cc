#include "cache.hh"

#include <algorithm>

#include "common/intmath.hh"
#include "common/logging.hh"
#include "sim/snapshot.hh"

namespace ovl
{

SetAssocCache::SetAssocCache(std::string name, CacheParams params)
    : SimObject(std::move(name)), params_(params),
      numSets_(unsigned(params.sizeBytes / kLineSize / params.associativity)),
      ways_(params.associativity),
      tags_(std::size_t(numSets_) * ways_, kInvalidAddr),
      state_(std::size_t(numSets_) * ways_),
      replLru_(std::size_t(numSets_) * ways_, 0),
      replRrpv_(std::size_t(numSets_) * ways_, 0),
      repl_(params.replPolicy, numSets_),
      hits_(&statGroup(), "hits", "demand hits"),
      misses_(&statGroup(), "misses", "demand misses"),
      writebacks_(&statGroup(), "writebacks", "dirty lines displaced"),
      prefetchFills_(&statGroup(), "prefetchFills", "lines filled by prefetch"),
      prefetchHits_(&statGroup(), "prefetchHits",
                    "demand hits on prefetched lines"),
      retags_(&statGroup(), "retags",
              "lines retagged in place (overlaying writes)")
{
    ovl_assert(params.sizeBytes % (kLineSize * params.associativity) == 0,
               "cache size must be a whole number of sets");
    ovl_assert(isPowerOf2(numSets_), "set count must be a power of two");
}

std::optional<Eviction>
SetAssocCache::invalidate(Addr line_addr)
{
    std::size_t i = findIndex(line_addr);
    if (i == kNotFound)
        return std::nullopt;
    Eviction ev{tags_[i], state_[i].dirty};
    tags_[i] = kInvalidAddr;
    state_[i].dirty = false;
    return ev;
}

void
SetAssocCache::flushAll()
{
    std::fill(tags_.begin(), tags_.end(), kInvalidAddr);
    std::fill(state_.begin(), state_.end(), LineState{});
}

template <typename Ar>
void
SetAssocCache::transfer(Ar &ar)
{
    ar.section("CACH");
    ar.fixedCount(tags_.size(), "cache '" + name() + "' line count");
    for (Addr &tag : tags_)
        ar.field(tag);
    for (LineState &st : state_) {
        ar.field(st.dirty);
        ar.field(st.prefetched);
    }
    // The interleaved {lruSeq, rrpv} pairs of the pre-split layout keep
    // snapshots byte-compatible across the layout change.
    for (std::size_t i = 0; i < replLru_.size(); ++i) {
        ar.field(replLru_[i]);
        ar.field(replRrpv_[i]);
    }
    repl_.transfer(ar);
    ar.endSection();
}

OVL_SNAPSHOT_INSTANTIATE(SetAssocCache);

} // namespace ovl
