/**
 * @file
 * Replacement policies for set-associative structures: LRU and Random for
 * the L1/L2 (Table 2 uses LRU there), and the RRIP family — SRRIP, BRRIP,
 * and set-dueling DRRIP [27] — for the last-level cache.
 */

#ifndef OVERLAYSIM_CACHE_REPLACEMENT_HH
#define OVERLAYSIM_CACHE_REPLACEMENT_HH

#include <cstdint>
#include <string>

#include "common/random.hh"

namespace ovl
{

/** Which replacement policy a cache instantiates. */
enum class ReplPolicy
{
    LRU,
    Random,
    SRRIP,
    BRRIP,
    DRRIP,
};

/** Human-readable policy name (for config dumps). */
const char *replPolicyName(ReplPolicy policy);

// Per-line replacement metadata lives in the cache as two parallel dense
// arrays — one std::uint64_t LRU sequence number and one std::uint8_t
// re-reference prediction value per line — instead of a padded 16-byte
// struct. The victim scan only reads the field its policy cares about, so
// the split layout touches 8 (LRU) or 1 (RRIP) byte per way instead of 16.

/**
 * Policy engine shared by all sets of one cache. Stateless per access
 * except for the global LRU sequence counter, the BRRIP throttle and the
 * DRRIP set-dueling PSEL counter.
 */
class ReplacementEngine
{
  public:
    ReplacementEngine(ReplPolicy policy, unsigned num_sets,
                      std::uint64_t seed = 1);

    ReplPolicy policy() const { return policy_; }

    // The per-access hooks are defined inline so the cache's hot path
    // (access/fill/victim-choice on every simulated memory reference)
    // compiles into straight-line code instead of cross-TU calls.

    /** Called when a line is hit. */
    void
    onHit(std::uint64_t &lru_seq, std::uint8_t &rrpv)
    {
        switch (policy_) {
          case ReplPolicy::LRU:
            lru_seq = ++lruCounter_;
            break;
          case ReplPolicy::Random:
            break;
          case ReplPolicy::SRRIP:
          case ReplPolicy::BRRIP:
          case ReplPolicy::DRRIP:
            // Hit promotion: predict near-immediate re-reference [27].
            rrpv = 0;
            break;
        }
    }

    /**
     * Called when a line is inserted. @p set_index selects DRRIP leader
     * sets; @p is_prefetch inserts prefetched lines with distant RRPV so
     * inaccurate prefetches do not pollute the LLC.
     */
    void
    onInsert(std::uint64_t &lru_seq, std::uint8_t &rrpv, unsigned set_index,
             bool is_prefetch)
    {
        switch (policy_) {
          case ReplPolicy::LRU:
            lru_seq = ++lruCounter_;
            break;
          case ReplPolicy::Random:
            break;
          case ReplPolicy::SRRIP:
            insertRrip(rrpv, false);
            break;
          case ReplPolicy::BRRIP:
            insertRrip(rrpv, true);
            break;
          case ReplPolicy::DRRIP:
            if (is_prefetch) {
                // Prefetches always insert with a distant prediction so
                // that useless prefetches are evicted first.
                rrpv = kMaxRrpv;
            } else if (isSrripLeader(set_index)) {
                insertRrip(rrpv, false);
            } else if (isBrripLeader(set_index)) {
                insertRrip(rrpv, true);
            } else {
                insertRrip(rrpv, brripWinning());
            }
            break;
        }
    }

    /**
     * Choose a victim among @p ways lines of a set; invalid lines must be
     * handled by the caller first. For RRIP policies this ages lines
     * in-place until a candidate reaches RRPV=3.
     *
     * @return the way index of the victim.
     */
    unsigned
    selectVictim(const std::uint64_t *lru_seqs, std::uint8_t *rrpvs,
                 unsigned ways)
    {
        switch (policy_) {
          case ReplPolicy::LRU: {
            unsigned victim = 0;
            for (unsigned w = 1; w < ways; ++w) {
                if (lru_seqs[w] < lru_seqs[victim])
                    victim = w;
            }
            return victim;
          }
          case ReplPolicy::Random:
            return unsigned(rng_.below(ways));
          case ReplPolicy::SRRIP:
          case ReplPolicy::BRRIP:
          case ReplPolicy::DRRIP: {
            // Single pass: the victim of round-based aging ("increment
            // every RRPV until one reaches 3") is the first way holding
            // the set's maximum RRPV, and every way ages by exactly
            // 3 - max. Find the first max, then apply the uniform delta.
            unsigned victim = 0;
            std::uint8_t max = rrpvs[0];
            for (unsigned w = 1; w < ways; ++w) {
                if (rrpvs[w] > max) {
                    max = rrpvs[w];
                    victim = w;
                }
            }
            if (max < kMaxRrpv) {
                std::uint8_t delta = std::uint8_t(kMaxRrpv - max);
                for (unsigned w = 0; w < ways; ++w)
                    rrpvs[w] = std::uint8_t(rrpvs[w] + delta);
            }
            return victim;
          }
        }
        return 0;
    }

    /**
     * DRRIP feedback: called on a miss in a leader set [27]; adjusts the
     * policy-selection counter.
     */
    void
    onMiss(unsigned set_index)
    {
        if (policy_ != ReplPolicy::DRRIP)
            return;
        // A miss in a leader set is a vote against that leader's policy.
        if (isSrripLeader(set_index)) {
            if (psel_ < pselMax_)
                ++psel_;
        } else if (isBrripLeader(set_index)) {
            if (psel_ > 0)
                --psel_;
        }
    }

    /** True if @p set_index is an SRRIP (resp. BRRIP) leader set. */
    bool
    isSrripLeader(unsigned set_index) const
    {
        // Simple static leader selection: sets 0, 32, 64, ... lead SRRIP.
        return (set_index % kLeaderSetStride) == 0;
    }

    bool
    isBrripLeader(unsigned set_index) const
    {
        // Sets 16, 48, 80, ... lead BRRIP.
        return (set_index % kLeaderSetStride) == kLeaderSetStride / 2;
    }

    /** Current dynamic winner for DRRIP follower sets. */
    bool brripWinning() const { return psel_ > pselMax_ / 2; }

    /** Snapshot the LRU counter, throttles, PSEL and the RNG stream. */
    template <typename Ar> void transfer(Ar &ar);

  private:
    static constexpr std::uint8_t kMaxRrpv = 3;
    static constexpr unsigned kLeaderSetStride = 32;
    static constexpr unsigned kBrripEpsilonInverse = 32; // 1/32 near inserts

    void
    insertRrip(std::uint8_t &rrpv, bool long_rereference)
    {
        if (long_rereference) {
            // BRRIP: distant prediction (RRPV=3) except 1-in-32 inserts.
            if (++brripThrottle_ >= kBrripEpsilonInverse) {
                brripThrottle_ = 0;
                rrpv = kMaxRrpv - 1;
            } else {
                rrpv = kMaxRrpv;
            }
        } else {
            // SRRIP: long (but not distant) prediction.
            rrpv = kMaxRrpv - 1;
        }
    }

    ReplPolicy policy_;
    unsigned numSets_;
    std::uint64_t lruCounter_ = 0;
    unsigned brripThrottle_ = 0;
    unsigned psel_;
    unsigned pselMax_;
    Rng rng_;
};

} // namespace ovl

#endif // OVERLAYSIM_CACHE_REPLACEMENT_HH
