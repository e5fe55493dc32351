#include "replacement.hh"

#include "common/logging.hh"
#include "sim/snapshot.hh"

namespace ovl
{

const char *
replPolicyName(ReplPolicy policy)
{
    switch (policy) {
      case ReplPolicy::LRU: return "LRU";
      case ReplPolicy::Random: return "Random";
      case ReplPolicy::SRRIP: return "SRRIP";
      case ReplPolicy::BRRIP: return "BRRIP";
      case ReplPolicy::DRRIP: return "DRRIP";
    }
    return "unknown";
}

ReplacementEngine::ReplacementEngine(ReplPolicy policy, unsigned num_sets,
                                     std::uint64_t seed)
    : policy_(policy), numSets_(num_sets),
      psel_(512), pselMax_(1023), rng_(seed)
{
    ovl_assert(num_sets > 0, "cache must have at least one set");
}

template <typename Ar>
void
ReplacementEngine::transfer(Ar &ar)
{
    ar.field(lruCounter_);
    ar.field(brripThrottle_);
    ar.field(psel_);
    ar.field(rng_);
}

OVL_SNAPSHOT_INSTANTIATE(ReplacementEngine);

} // namespace ovl
