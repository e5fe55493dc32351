/**
 * @file
 * Per-process page table. Functionally a VPN -> PTE map; the four-level
 * radix walk is charged as a flat 1000-cycle cost by the system (Table 2)
 * so no radix layout is modeled here. The PTE carries the two bits the
 * paper adds to the OS/hardware contract: the copy-on-write sharing bit
 * that the OS exposes to hardware (§2.2) and the overlays-enabled bit
 * (the inexpensive opt-in, §3.3).
 *
 * Storage is a two-level structure tuned for the simulator's hot path
 * (translate() on every access): a sorted directory of 512-entry leaf
 * blocks keyed by vpn>>9, binary-searched with a one-entry MRU cache.
 * Workload footprints are contiguous regions, so nearly every lookup
 * hits the cached leaf and costs a shift, a compare and an array index —
 * no hashing, no allocation. fork and teardown work a leaf at a time:
 * forkInto() scans each leaf's present bitmap once and copies the leaf
 * whole, and forEachPresent() visits entries in the ascending-VPN order
 * the teardown relies on for determinism before clear() drops the table.
 */

#ifndef OVERLAYSIM_VM_PAGE_TABLE_HH
#define OVERLAYSIM_VM_PAGE_TABLE_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "sim/snapshot.hh"

namespace ovl
{

/** Page-table entry. */
struct Pte
{
    Addr ppn = 0;
    bool present = false;
    bool writable = false;
    /** Shared copy-on-write page: a write must fault to the OS/hardware. */
    bool cow = false;
    /** The page may have an overlay (OS opt-in through the page tables). */
    bool overlayEnabled = false;
    /**
     * The overlay holds out-of-band metadata (shadow memory, §5.3.4)
     * rather than alternate data: regular loads/stores never redirect to
     * the overlay; only metadata load/store instructions reach it.
     */
    bool metadataMode = false;
};

/** One process's virtual-to-physical mapping. */
class PageTable
{
    static constexpr unsigned kLeafBits = 9;
    static constexpr unsigned kLeafEntries = 1u << kLeafBits;
    static constexpr Addr kLeafMask = kLeafEntries - 1;

    /** 512 PTEs plus a present bitmap; one contiguous allocation. */
    struct Leaf
    {
        std::array<std::uint64_t, kLeafEntries / 64> present{};
        std::array<Pte, kLeafEntries> ptes{};
        unsigned count = 0;

        bool
        test(unsigned i) const
        {
            return (present[i >> 6] >> (i & 63)) & 1;
        }
    };

    struct DirEntry
    {
        Addr chunk; ///< vpn >> kLeafBits
        std::unique_ptr<Leaf> leaf;
    };

  public:
    /** Find the PTE of @p vpn; nullptr if unmapped. */
    Pte *
    find(Addr vpn)
    {
        Leaf *leaf = lookupLeaf(vpn >> kLeafBits);
        if (leaf == nullptr)
            return nullptr;
        unsigned off = unsigned(vpn & kLeafMask);
        return leaf->test(off) ? &leaf->ptes[off] : nullptr;
    }

    const Pte *
    find(Addr vpn) const
    {
        return const_cast<PageTable *>(this)->find(vpn);
    }

    /** Map (or remap) @p vpn. */
    void
    set(Addr vpn, const Pte &pte)
    {
        Addr chunk = vpn >> kLeafBits;
        Leaf *leaf = lookupLeaf(chunk);
        if (leaf == nullptr)
            leaf = insertLeaf(chunk);
        unsigned off = unsigned(vpn & kLeafMask);
        if (!leaf->test(off)) {
            leaf->present[off >> 6] |= std::uint64_t(1) << (off & 63);
            ++leaf->count;
            ++size_;
        }
        leaf->ptes[off] = pte;
    }

    /** Remove the mapping of @p vpn. */
    void
    erase(Addr vpn)
    {
        Addr chunk = vpn >> kLeafBits;
        Leaf *leaf = lookupLeaf(chunk);
        if (leaf == nullptr)
            return;
        unsigned off = unsigned(vpn & kLeafMask);
        if (!leaf->test(off))
            return;
        leaf->present[off >> 6] &= ~(std::uint64_t(1) << (off & 63));
        leaf->ptes[off] = Pte{};
        --leaf->count;
        --size_;
        if (leaf->count == 0)
            removeLeaf(chunk);
    }

    /** Remove every mapping at once (process teardown). */
    void
    clear()
    {
        dir_.clear();
        size_ = 0;
        cachedChunk_ = kNoChunk;
        cachedLeaf_ = nullptr;
    }

    std::size_t size() const { return size_; }

    /**
     * Visit every slot whose present bit is set as fn(vpn, pte&), in
     * ascending-VPN order, a leaf at a time. @p fn must not map or unmap
     * pages.
     */
    template <typename Fn>
    void
    forEachPresent(Fn &&fn)
    {
        for (DirEntry &e : dir_) {
            Addr base = e.chunk << kLeafBits;
            forEachBit(*e.leaf, [&](unsigned off) {
                fn(base | off, e.leaf->ptes[off]);
            });
        }
    }

    /**
     * fork(): copy this table into the empty @p child a leaf at a time.
     * @p share(pte) applies the parent-side change to each PTE that is
     * present (the sharing bits, the frame's extra reference); the leaf
     * is then copied whole and appended to the child's directory in
     * ascending chunk order. The child equals a page-by-page copy of the
     * present PTEs: a slot whose present bit is set but whose PTE is not
     * present (a restored snapshot can hold one) is left empty, and a
     * leaf with no present PTE is not copied.
     */
    template <typename Fn>
    void
    forkInto(PageTable &child, Fn &&share)
    {
        ovl_assert(child.dir_.empty(), "fork into a non-empty page table");
        child.dir_.reserve(dir_.size());
        for (DirEntry &e : dir_) {
            Leaf &from = *e.leaf;
            unsigned copied = 0;
            bool holes = false;
            forEachBit(from, [&](unsigned off) {
                Pte &pte = from.ptes[off];
                if (pte.present) {
                    share(pte);
                    ++copied;
                } else {
                    holes = true;
                }
            });
            if (copied == 0)
                continue;
            // The bulk copy runs after the whole pass, so it never reads
            // a PTE whose flag bytes were just stored.
            auto to = std::make_unique<Leaf>(from);
            to->count = copied;
            if (holes) {
                forEachBit(from, [&](unsigned off) {
                    if (!from.ptes[off].present) {
                        to->present[off >> 6] &=
                            ~(std::uint64_t(1) << (off & 63));
                        to->ptes[off] = Pte{};
                    }
                });
            }
            child.size_ += copied;
            child.dir_.push_back(DirEntry{e.chunk, std::move(to)});
        }
    }

    /** Save or restore the directory, every leaf and the PTE count. */
    template <typename Ar>
    void
    transfer(Ar &ar)
    {
        ar.section("PGTB");
        ar.size(dir_, 8 + kLeafEntries);
        for (std::size_t i = 0; i < dir_.size(); ++i) {
            DirEntry &e = dir_[i];
            ar.field(e.chunk);
            ar.check(i == 0 || e.chunk > dir_[i - 1].chunk,
                     "page-table directory not strictly ascending");
            if (!e.leaf)
                e.leaf = std::make_unique<Leaf>();
            for (std::uint64_t &word : e.leaf->present)
                ar.field(word);
            for (unsigned off = 0; off < kLeafEntries; ++off) {
                Pte &pte = e.leaf->ptes[off];
                ar.field(pte.ppn);
                std::uint8_t flags =
                    (pte.present ? 1 : 0) | (pte.writable ? 2 : 0) |
                    (pte.cow ? 4 : 0) | (pte.overlayEnabled ? 8 : 0) |
                    (pte.metadataMode ? 16 : 0);
                ar.field(flags);
                ar.check(!(flags & ~0x1F), "unknown PTE flag bits");
                // fork copies leaves whole: a slot outside the bitmap
                // must hold nothing for the copy to equal a per-page one.
                ar.check(e.leaf->test(off) || (pte.ppn == 0 && flags == 0),
                         "PTE outside the present bitmap");
                pte.present = flags & 1;
                pte.writable = flags & 2;
                pte.cow = flags & 4;
                pte.overlayEnabled = flags & 8;
                pte.metadataMode = flags & 16;
            }
            ar.field(e.leaf->count);
        }
        ar.field(size_);
        if constexpr (Ar::kLoading) {
            cachedChunk_ = kNoChunk;
            cachedLeaf_ = nullptr;
        }
        ar.endSection();
    }

  private:
    /** Visit the set present bits of @p leaf as fn(offset), ascending. */
    template <typename Fn>
    static void
    forEachBit(const Leaf &leaf, Fn &&fn)
    {
        for (unsigned w = 0; w < leaf.present.size(); ++w) {
            for (std::uint64_t bits = leaf.present[w]; bits != 0;
                 bits &= bits - 1)
                fn(w * 64 + unsigned(std::countr_zero(bits)));
        }
    }

    Leaf *
    lookupLeaf(Addr chunk) const
    {
        if (chunk == cachedChunk_)
            return cachedLeaf_;
        auto it = std::lower_bound(
            dir_.begin(), dir_.end(), chunk,
            [](const DirEntry &e, Addr c) { return e.chunk < c; });
        if (it == dir_.end() || it->chunk != chunk)
            return nullptr;
        cachedChunk_ = chunk;
        cachedLeaf_ = it->leaf.get();
        return cachedLeaf_;
    }

    Leaf *
    insertLeaf(Addr chunk)
    {
        auto it = std::lower_bound(
            dir_.begin(), dir_.end(), chunk,
            [](const DirEntry &e, Addr c) { return e.chunk < c; });
        it = dir_.insert(it, DirEntry{chunk, std::make_unique<Leaf>()});
        cachedChunk_ = chunk;
        cachedLeaf_ = it->leaf.get();
        return cachedLeaf_;
    }

    void
    removeLeaf(Addr chunk)
    {
        auto it = std::lower_bound(
            dir_.begin(), dir_.end(), chunk,
            [](const DirEntry &e, Addr c) { return e.chunk < c; });
        if (it != dir_.end() && it->chunk == chunk)
            dir_.erase(it);
        if (chunk == cachedChunk_) {
            cachedChunk_ = kNoChunk;
            cachedLeaf_ = nullptr;
        }
    }

    static constexpr Addr kNoChunk = ~Addr(0);

    std::vector<DirEntry> dir_; ///< sorted by chunk
    std::size_t size_ = 0;
    mutable Addr cachedChunk_ = kNoChunk;
    mutable Leaf *cachedLeaf_ = nullptr;
};

} // namespace ovl

#endif // OVERLAYSIM_VM_PAGE_TABLE_HH
