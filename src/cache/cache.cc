#include "cache.hh"

#include <algorithm>

#include "common/intmath.hh"
#include "common/logging.hh"

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

void
SetAssocCache::serialize(snapshot::Writer &w) const
{
    w.beginSection("CACH");
    w.u64(tags_.size());
    for (Addr tag : tags_)
        w.u64(tag);
    for (const LineState &st : state_) {
        w.b(st.dirty);
        w.b(st.prefetched);
    }
    // Emit the interleaved {lruSeq, rrpv} pairs of the pre-split layout
    // so snapshots stay byte-compatible across the layout change.
    for (std::size_t i = 0; i < replLru_.size(); ++i) {
        w.u64(replLru_[i]);
        w.u8(replRrpv_[i]);
    }
    repl_.serialize(w);
    w.endSection();
}

void
SetAssocCache::deserialize(snapshot::Reader &r)
{
    r.expectSection("CACH");
    std::uint64_t n = r.u64();
    if (n != tags_.size()) {
        r.fail("cache '" + name() + "' line count mismatch: snapshot " +
               std::to_string(n) + ", configured " +
               std::to_string(tags_.size()));
    }
    for (Addr &tag : tags_)
        tag = r.u64();
    for (LineState &st : state_) {
        st.dirty = r.b();
        st.prefetched = r.b();
    }
    for (std::size_t i = 0; i < replLru_.size(); ++i) {
        replLru_[i] = r.u64();
        replRrpv_[i] = r.u8();
    }
    repl_.deserialize(r);
    r.endSection();
}

} // namespace ovl
