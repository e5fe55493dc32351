/**
 * @file
 * Deterministic xoshiro256** pseudo-random generator. Every workload
 * generator seeds one of these explicitly so that experiments are exactly
 * reproducible run to run.
 */

#ifndef OVERLAYSIM_COMMON_RANDOM_HH
#define OVERLAYSIM_COMMON_RANDOM_HH

#include <cstdint>

namespace ovl
{

/**
 * xoshiro256** by Blackman & Vigna (public domain reference algorithm),
 * seeded via splitmix64. Small, fast, and good enough for synthetic
 * workload generation; deliberately not std::mt19937 so the streams are
 * stable across standard-library implementations.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull)
    {
        // splitmix64 expansion of the scalar seed into 4 words of state.
        std::uint64_t x = seed;
        for (auto &word : state_) {
            x += 0x9E3779B97F4A7C15ull;
            std::uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
            z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
            word = z ^ (z >> 31);
        }
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound); bound must be non-zero. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        // Lemire's multiply-shift rejection method.
        std::uint64_t x = next();
        __uint128_t m = __uint128_t(x) * __uint128_t(bound);
        std::uint64_t lo = std::uint64_t(m);
        if (lo < bound) {
            std::uint64_t threshold = (0 - bound) % bound;
            while (lo < threshold) {
                x = next();
                m = __uint128_t(x) * __uint128_t(bound);
                lo = std::uint64_t(m);
            }
        }
        return std::uint64_t(m >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    range(std::uint64_t lo, std::uint64_t hi)
    {
        return lo + below(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return double(next() >> 11) * (1.0 / 9007199254740992.0);
    }

    /** Bernoulli trial with probability @p p. */
    bool chance(double p) { return uniform() < p; }

    /** Save or restore the generator state (sim/snapshot.hh). */
    template <typename Ar>
    void
    transfer(Ar &ar)
    {
        for (std::uint64_t &word : state_)
            ar.field(word);
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4];
};

} // namespace ovl

#endif // OVERLAYSIM_COMMON_RANDOM_HH
