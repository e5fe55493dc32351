/**
 * @file
 * Randomized multi-process VM battery: arbitrary interleavings of fork,
 * write (with CoW or overlay divergence), unmap and teardown across a
 * process tree, verified against per-process host shadows; plus frame
 * refcount conservation, and the leaf-at-a-time fork page-table copy
 * checked against a page-by-page reference copy.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <vector>

#include "common/random.hh"
#include "sim/snapshot.hh"
#include "system/system.hh"

namespace ovl
{
namespace
{

constexpr Addr kBase = 0x100000;
constexpr unsigned kPages = 6;

class VmFuzz : public ::testing::TestWithParam<
                   std::tuple<std::uint64_t, ForkMode>>
{
};

TEST_P(VmFuzz, ProcessTreeContentsMatchShadows)
{
    auto [seed, mode] = GetParam();
    Rng rng(seed);
    System sys((SystemConfig()));

    struct Proc
    {
        Asid asid;
        bool alive = true;
        std::vector<std::uint8_t> shadow;
    };
    std::vector<Proc> procs;

    Proc root;
    root.asid = sys.createProcess();
    root.shadow.assign(kPages * kPageSize, 0);
    sys.mapAnon(root.asid, kBase, kPages * kPageSize);
    procs.push_back(std::move(root));

    Tick t = 0;
    for (unsigned step = 0; step < 2500; ++step) {
        // Pick a live process.
        std::vector<std::size_t> live;
        for (std::size_t i = 0; i < procs.size(); ++i) {
            if (procs[i].alive)
                live.push_back(i);
        }
        ASSERT_FALSE(live.empty());
        std::size_t pi = live[rng.below(live.size())];

        switch (rng.below(10)) {
          case 0: { // fork (bounded tree size)
            if (procs.size() >= 6)
                break;
            Asid child = sys.fork(procs[pi].asid, mode, t, &t);
            Proc c;
            c.asid = child;
            c.shadow = procs[pi].shadow; // inherits the parent's view
            procs.push_back(std::move(c));
            break;
          }
          case 1: { // teardown (keep at least one process)
            if (live.size() < 2)
                break;
            sys.destroyProcess(procs[pi].asid, t);
            procs[pi].alive = false;
            break;
          }
          default: { // write or read
            Addr offset = rng.below(kPages * kPageSize - 8);
            if (rng.chance(0.5)) {
                std::uint64_t value = rng.next();
                t = sys.write(procs[pi].asid, kBase + offset, &value, 8,
                              t);
                std::memcpy(procs[pi].shadow.data() + offset, &value, 8);
            } else {
                std::uint64_t got = 0, want = 0;
                sys.peek(procs[pi].asid, kBase + offset, &got, 8);
                std::memcpy(&want, procs[pi].shadow.data() + offset, 8);
                ASSERT_EQ(got, want)
                    << "proc " << pi << " step " << step;
            }
            break;
          }
        }
    }

    // Full sweep: every live process sees exactly its own history.
    for (const Proc &proc : procs) {
        if (!proc.alive)
            continue;
        std::vector<std::uint8_t> got(kPages * kPageSize);
        for (unsigned p = 0; p < kPages; ++p) {
            sys.peek(proc.asid, kBase + p * kPageSize,
                     got.data() + p * kPageSize, kPageSize);
        }
        EXPECT_EQ(got, proc.shadow) << "asid " << proc.asid;
    }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndModes, VmFuzz,
    ::testing::Combine(::testing::Values(3u, 14u, 159u),
                       ::testing::Values(ForkMode::CopyOnWrite,
                                         ForkMode::OverlayOnWrite)));

TEST(VmRefcount, ForkTreeConservesFrames)
{
    System sys((SystemConfig()));
    Asid a = sys.createProcess();
    sys.mapAnon(a, kBase, 4 * kPageSize);
    std::uint64_t base_frames = sys.physMem().framesInUse();

    Tick t = 0;
    Asid b = sys.fork(a, ForkMode::CopyOnWrite, 0, &t);
    Asid c = sys.fork(b, ForkMode::CopyOnWrite, t, &t);
    // Sharing: no new frames yet.
    EXPECT_EQ(sys.physMem().framesInUse(), base_frames);

    // Each divergence adds exactly one frame.
    t = sys.access(b, kBase, true, t);
    EXPECT_EQ(sys.physMem().framesInUse(), base_frames + 1);
    t = sys.access(c, kBase, true, t);
    EXPECT_EQ(sys.physMem().framesInUse(), base_frames + 2);

    // Tearing everything down returns to the baseline of process a.
    sys.destroyProcess(c, t);
    sys.destroyProcess(b, t);
    EXPECT_EQ(sys.physMem().framesInUse(), base_frames);
}

// ------------------- leaf fork vs. per-page reference ------------------

/** One page-table leaf / directory chunk: 512 pages. */
constexpr Addr kLeafPages = 512;
/** The random tables span five leaves, starting mid-leaf. */
constexpr Addr kFirstVpn = 7 * kLeafPages + 300;
constexpr Addr kSpanPages = 5 * kLeafPages;
constexpr std::uint64_t kMemBytes = 64_MiB;

/** The serialized (PGTB) bytes of @p table. */
std::vector<std::uint8_t>
tableBytes(PageTable &table)
{
    snapshot::Writer w;
    table.transfer(w);
    return w.takeBuffer();
}

/**
 * The fork page-table copy done page by page, as a per-PTE walk with one
 * PageTable::set per page: the reference the leaf-at-a-time copy in
 * Vmm::fork must reproduce byte for byte.
 */
void
referenceFork(PageTable &parent, PageTable &child, PhysicalMemory &mem,
              ForkMode mode)
{
    for (Addr vpn = kFirstVpn; vpn < kFirstVpn + kSpanPages; ++vpn) {
        Pte *pte = parent.find(vpn);
        if (pte == nullptr || !pte->present)
            continue;
        if (pte->writable) {
            pte->cow = true;
            if (mode == ForkMode::OverlayOnWrite)
                pte->overlayEnabled = true;
        }
        if (pte->ppn != PhysicalMemory::kZeroFrame)
            mem.addRef(pte->ppn);
        child.set(vpn, *pte);
    }
}

/** A memory manager and its frames, restored from one snapshot. */
struct VmState
{
    PhysicalMemory mem{"mem", kMemBytes};
    Vmm vmm{"vmm", mem};

    explicit VmState(const std::vector<std::uint8_t> &image)
    {
        snapshot::Reader r(image);
        mem.transfer(r);
        vmm.transfer(r);
    }
};

/**
 * A random page table in ASID 1 (ASID 0 is an earlier fork parent that
 * shares frames with it): anonymous runs, read-only runs, zero-backed
 * CoW runs, holes punched across leaf boundaries, a whole leaf emptied,
 * pages already CoW from the earlier fork, and PTEs whose present bit is
 * set while the PTE itself is not present. Returns the snapshot image of
 * the memory manager and its frames.
 */
std::vector<std::uint8_t>
randomTable(std::uint64_t seed)
{
    Rng rng(seed);
    PhysicalMemory mem("mem", kMemBytes);
    Vmm vmm("vmm", mem);
    Asid root = vmm.createProcess();
    auto run = [&](Addr max_pages) {
        Addr pages = 1 + rng.below(max_pages);
        Addr vpn = kFirstVpn + rng.below(kSpanPages - pages + 1);
        return std::pair<Addr, Addr>(vpn << kPageShift, pages * kPageSize);
    };
    for (unsigned i = 0; i < 12; ++i) {
        auto [va, len] = run(400);
        switch (rng.below(3)) {
          case 0:
            vmm.mapAnon(root, va, len, true);
            break;
          case 1:
            vmm.mapAnon(root, va, len, false);
            break;
          default:
            vmm.mapZeroCow(root, va, len, rng.below(2) == 1);
        }
    }
    // Holes: most runs cross a leaf boundary at this length.
    for (unsigned i = 0; i < 6; ++i) {
        auto [va, len] = run(700);
        vmm.unmap(root, va, len);
    }
    // Empty the second leaf except one page, which is made non-present
    // below, so its fork copies no PTE at all.
    Addr leaf2 = (kFirstVpn / kLeafPages + 2) * kLeafPages;
    vmm.unmap(root, leaf2 << kPageShift, kLeafPages * kPageSize);
    vmm.mapAnon(root, (leaf2 + 17) << kPageShift, kPageSize);

    Asid table = vmm.fork(root, ForkMode::CopyOnWrite);
    for (unsigned i = 0; i < 40; ++i) {
        Addr vpn = kFirstVpn + rng.below(kSpanPages);
        const Pte *pte = vmm.resolve(table, vpn);
        if (pte != nullptr && pte->cow && rng.below(2) == 1)
            vmm.breakCow(table, vpn);
    }
    PageTable &pt = vmm.process(table).pageTable;
    pt.find(leaf2 + 17)->present = false;
    for (unsigned i = 0; i < 20; ++i) {
        if (Pte *pte = pt.find(kFirstVpn + rng.below(kSpanPages)))
            pte->present = false;
    }

    snapshot::Writer w;
    mem.transfer(w);
    vmm.transfer(w);
    return w.takeBuffer();
}

class LeafFork : public ::testing::TestWithParam<
                     std::tuple<std::uint64_t, ForkMode>>
{
};

TEST_P(LeafFork, MatchesPerPageCopy)
{
    auto [seed, mode] = GetParam();
    const Asid parent = 1;
    std::vector<std::uint8_t> image = randomTable(seed);
    VmState leaf(image);
    VmState ref(image);

    Asid child = leaf.vmm.fork(parent, mode);
    Asid ref_child = ref.vmm.createProcess();
    ASSERT_EQ(child, ref_child);
    referenceFork(ref.vmm.process(parent).pageTable,
                  ref.vmm.process(ref_child).pageTable, ref.mem, mode);

    PageTable &child_table = leaf.vmm.process(child).pageTable;
    EXPECT_GT(child_table.size(), 0u);
    EXPECT_LT(child_table.size(),
              leaf.vmm.process(parent).pageTable.size());
    EXPECT_EQ(tableBytes(leaf.vmm.process(parent).pageTable),
              tableBytes(ref.vmm.process(parent).pageTable));
    EXPECT_EQ(tableBytes(child_table),
              tableBytes(ref.vmm.process(ref_child).pageTable));
    EXPECT_EQ(leaf.mem.framesInUse(), ref.mem.framesInUse());
    for (Addr frame = 0; frame < kMemBytes / kPageSize; ++frame) {
        ASSERT_EQ(leaf.mem.refCount(frame), ref.mem.refCount(frame))
            << "frame " << frame;
    }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndModes, LeafFork,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 5u, 6u),
                       ::testing::Values(ForkMode::CopyOnWrite,
                                         ForkMode::OverlayOnWrite)));

TEST(PageTableRestore, RejectsEntryOutsideBitmap)
{
    // fork copies leaves whole, so a restored table may hold nothing in a
    // slot whose present bit is clear.
    PageTable pt;
    pt.set(kFirstVpn, Pte{5, true, true});
    std::vector<std::uint8_t> bytes = tableBytes(pt);
    // PGTB tag + length, leaf count, chunk, bitmap; then 9-byte slots
    // (u64 ppn, u8 flags). Give the slot after the mapped one a frame.
    std::size_t slot = (kFirstVpn % kLeafPages) + 1;
    std::size_t ppn_at = 4 + 8 + 8 + 8 + 64 + slot * 9;
    ASSERT_EQ(bytes.at(ppn_at), 0);
    bytes[ppn_at] = 9;
    snapshot::Reader r(bytes);
    PageTable restored;
    EXPECT_THROW(restored.transfer(r), snapshot::SnapshotError);
}

} // namespace
} // namespace ovl
