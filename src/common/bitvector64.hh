/**
 * @file
 * A fixed 64-bit bit vector. This is the exact shape of the paper's
 * OBitVector (one bit per cache line of a 4 KB page, §3.1), but it is a
 * generic utility: the free-slot vectors of OMS segments (§4.4.1) and the
 * set-dueling monitors use it too.
 */

#ifndef OVERLAYSIM_COMMON_BITVECTOR64_HH
#define OVERLAYSIM_COMMON_BITVECTOR64_HH

#include <bit>
#include <cstdint>

#include "logging.hh"

namespace ovl
{

/**
 * Fixed-width 64-bit bit vector with popcount/scan helpers.
 *
 * All operations are O(1); the class is trivially copyable so that it can
 * be embedded in TLB entries and OMT entries and moved over the (modeled)
 * coherence network by value.
 */
class BitVector64
{
  public:
    constexpr BitVector64() = default;

    constexpr explicit BitVector64(std::uint64_t bits) : bits_(bits) {}

    /** Number of addressable bits. */
    static constexpr unsigned size() { return 64; }

    /** Raw 64-bit value (what travels in coherence messages). */
    constexpr std::uint64_t raw() const { return bits_; }

    /** Save or restore the bits (sim/snapshot.hh). */
    template <typename Ar>
    void
    transfer(Ar &ar)
    {
        ar.field(bits_);
    }

    bool
    test(unsigned idx) const
    {
        ovl_assert(idx < 64, "bit index out of range");
        return (bits_ >> idx) & 1;
    }

    void
    set(unsigned idx)
    {
        ovl_assert(idx < 64, "bit index out of range");
        bits_ |= (std::uint64_t(1) << idx);
    }

    void
    clear(unsigned idx)
    {
        ovl_assert(idx < 64, "bit index out of range");
        bits_ &= ~(std::uint64_t(1) << idx);
    }

    void
    assign(unsigned idx, bool value)
    {
        if (value)
            set(idx);
        else
            clear(idx);
    }

    /** Clear every bit. */
    void reset() { bits_ = 0; }

    /** Set every bit. */
    void fill() { bits_ = ~std::uint64_t(0); }

    /** Number of set bits. */
    unsigned count() const { return unsigned(std::popcount(bits_)); }

    bool none() const { return bits_ == 0; }
    bool any() const { return bits_ != 0; }
    bool all() const { return bits_ == ~std::uint64_t(0); }

    /**
     * Index of the lowest set bit, or 64 if none. Useful for iterating
     * the overlay lines of a page in virtual-address order.
     */
    unsigned
    findFirst() const
    {
        return bits_ ? unsigned(std::countr_zero(bits_)) : 64u;
    }

    /** Index of the lowest set bit strictly greater than @p idx, or 64. */
    unsigned
    findNext(unsigned idx) const
    {
        if (idx >= 63)
            return 64;
        std::uint64_t masked = bits_ & ~((std::uint64_t(2) << idx) - 1);
        return masked ? unsigned(std::countr_zero(masked)) : 64u;
    }

    /** Index of the lowest clear bit, or 64 if all are set. */
    unsigned
    findFirstClear() const
    {
        std::uint64_t inverted = ~bits_;
        return inverted ? unsigned(std::countr_zero(inverted)) : 64u;
    }

    friend constexpr bool
    operator==(const BitVector64 &a, const BitVector64 &b)
    {
        return a.bits_ == b.bits_;
    }

    friend constexpr BitVector64
    operator|(const BitVector64 &a, const BitVector64 &b)
    {
        return BitVector64(a.bits_ | b.bits_);
    }

    friend constexpr BitVector64
    operator&(const BitVector64 &a, const BitVector64 &b)
    {
        return BitVector64(a.bits_ & b.bits_);
    }

    friend constexpr BitVector64
    operator~(const BitVector64 &a)
    {
        return BitVector64(~a.bits_);
    }

  private:
    std::uint64_t bits_ = 0;
};

} // namespace ovl

#endif // OVERLAYSIM_COMMON_BITVECTOR64_HH
