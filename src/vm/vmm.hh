/**
 * @file
 * The minimal OS virtual-memory manager: processes, anonymous mappings,
 * fork() with copy-on-write, and the overlay-on-write opt-in (§2.2). The
 * Vmm is purely functional; latency costs of faults, copies and
 * shootdowns are charged by the System, which coordinates the Vmm with
 * the TLBs, caches and the overlay engine.
 */

#ifndef OVERLAYSIM_VM_VMM_HH
#define OVERLAYSIM_VM_VMM_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "sim/sim_object.hh"
#include "vm/page_table.hh"
#include "vm/physical_memory.hh"

namespace ovl
{

/** How fork() marks shared writable pages (§2.2, Figure 3). */
enum class ForkMode
{
    CopyOnWrite,    ///< baseline: fault copies the whole page
    OverlayOnWrite, ///< the paper: fault moves one line to the overlay
};

/** One process: an ASID and a page table. */
struct Process
{
    Asid asid = 0;
    PageTable pageTable;
};

/** The OS memory manager. */
class Vmm : public SimObject
{
  public:
    Vmm(std::string name, PhysicalMemory &phys_mem);

    /** Create an empty process; returns its ASID. */
    Asid createProcess();

    /** Live processes (ASIDs are dense: 0 .. processCount()-1). */
    std::size_t processCount() const { return processes_.size(); }

    // Inline: resolve()/process() run on every functional load and store.
    Process &
    process(Asid asid)
    {
        ovl_assert(asid < processes_.size(), "unknown ASID");
        return *processes_[asid];
    }

    const Process &
    process(Asid asid) const
    {
        ovl_assert(asid < processes_.size(), "unknown ASID");
        return *processes_[asid];
    }

    /**
     * Map [vaddr, vaddr+len) to fresh zeroed private frames.
     * @p vaddr and @p len must be page aligned.
     */
    void mapAnon(Asid asid, Addr vaddr, std::uint64_t len,
                 bool writable = true);

    /**
     * Map [vaddr, vaddr+len) to the shared zero frame in copy-on-write
     * mode. With @p overlay_enabled this is the substrate of the sparse
     * data-structure technique (§5.2): reads return zero, writes go to
     * the page's overlay.
     */
    void mapZeroCow(Asid asid, Addr vaddr, std::uint64_t len,
                    bool overlay_enabled);

    /** Remove mappings and release frames. */
    void unmap(Asid asid, Addr vaddr, std::uint64_t len);

    /**
     * Remove every mapping of @p asid in one ascending-VPN pass over the
     * page table's present bits, a leaf at a time: for each page,
     * @p before_release(vpn, pte) runs and then the frame is released;
     * the page table is dropped whole at the end. The order is
     * that of unmapping page by page; @p before_release must not change
     * the page table.
     */
    template <typename Fn>
    void
    unmapAll(Asid asid, Fn &&before_release)
    {
        PageTable &table = process(asid).pageTable;
        table.forEachPresent([&](Addr vpn, const Pte &pte) {
            before_release(vpn, pte);
            physMem_.release(pte.ppn);
        });
        table.clear();
    }

    /**
     * fork(): duplicate @p parent's address space. Every writable page
     * becomes shared copy-on-write in both processes; with
     * ForkMode::OverlayOnWrite the OS additionally sets the
     * overlay-enabled bit so that hardware resolves write faults with
     * overlays instead of page copies. The copy costs one pass per
     * page-table leaf (PageTable::forkInto).
     *
     * @return the child's ASID.
     */
    Asid fork(Asid parent, ForkMode mode);

    /** PTE of (asid, vpn); nullptr if unmapped. */
    Pte *resolve(Asid asid, Addr vpn)
    {
        return process(asid).pageTable.find(vpn);
    }

    /**
     * Copy-on-write break for (asid, vpn): gives the page a private
     * frame (copying contents) and clears its cow bit. Returns the new
     * PPN. The last sharer keeps its frame without copying.
     *
     * @param copied set to true when a physical copy actually happened.
     */
    Addr breakCow(Asid asid, Addr vpn, bool *copied = nullptr);

    /** Set/clear the writable bit on a mapped range. */
    void protect(Asid asid, Addr vaddr, std::uint64_t len, bool writable);

    PhysicalMemory &physMem() { return physMem_; }

    std::uint64_t forks() const { return forks_.value(); }
    std::uint64_t cowBreaks() const { return cowBreaks_.value(); }

    /** Snapshot the process table (ASIDs + page tables). */
    template <typename Ar> void transfer(Ar &ar);

  private:
    PhysicalMemory &physMem_;
    std::vector<std::unique_ptr<Process>> processes_;

    stats::Counter processesCreated_;
    stats::Counter forks_;
    stats::Counter pagesMapped_;
    stats::Counter cowBreaks_;
    stats::Counter cowCopies_;
};

} // namespace ovl

#endif // OVERLAYSIM_VM_VMM_HH
