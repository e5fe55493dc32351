/**
 * @file
 * Process teardown and the fork-time overlay copy, pinned: a traced
 * scenario whose every simulated count, cache/DRAM access order and
 * trace event is fixed by exact golden values, so any rewrite of the
 * teardown or fork walks must reproduce the old order step for step.
 * A long fork/teardown loop checks that a torn-down process leaves no
 * OMT chunk behind while its radix walk lines stay where they were.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "sim/trace.hh"
#include "system/system.hh"

namespace ovl
{
namespace
{

/** One OMT chunk / page-table leaf covers 512 pages (2 MB). */
constexpr Addr kWindow = Addr(512) * kPageSize;
constexpr Addr kHeap = 0x10000000;
/** Three data regions, each in its own 512-page window. */
constexpr Addr kRegions[] = {kHeap, kHeap + kWindow, kHeap + 3 * kWindow};
constexpr unsigned kRegionPages = 8;
/** Zero-backed overlay region (reclaimZeroLine target). */
constexpr Addr kZeroRegion = kHeap + 5 * kWindow;
/** A child's own anonymous region: frames with refCount == 1. */
constexpr Addr kPrivate = kHeap + 8 * kWindow;
constexpr unsigned kPrivatePages = 4;

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

/** Value of counter @p name in a text stats dump (~0 when absent). */
std::uint64_t
statValue(const std::string &dump, const std::string &name)
{
    std::istringstream in(dump);
    std::string key;
    std::string value;
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        if ((fields >> key >> value) && key == name)
            return std::stoull(value);
    }
    return ~std::uint64_t(0);
}

struct TeardownDigest
{
    Tick finalTick = 0;
    std::uint64_t forkOverlayLinesCopied = 0;
    std::uint64_t l1Hits = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t l3Hits = 0;
    std::uint64_t memWritebacks = 0;
    std::uint64_t dramRowHits = 0;
    std::uint64_t dramDrains = 0;
    std::uint64_t framesInUse = 0;
    /** Hash of the full text stats dump. */
    std::uint64_t statsHash = 0;
    /** tlb_shootdown instants, and a hash of their sequence. */
    std::uint64_t shootdowns = 0;
    std::uint64_t shootdownHash = 0;
    /** Hash of every trace event, thread id removed. */
    std::uint64_t traceHash = 0;
    /** The teardowns' tick, and the ticks their TLB shootdown instants
     *  (per page and ASID-wide) carry. */
    Tick teardownTick = 0;
    std::set<Tick> shootdownTicks;
};

/** Write one 8-byte value into every @p stride-th line of a page. */
Tick
writePage(System &sys, Asid asid, Addr page, unsigned first, unsigned stride,
          std::uint64_t value, Tick t)
{
    for (unsigned l = first; l < kLinesPerPage; l += stride)
        t = sys.write(asid, page + Addr(l) * kLineSize, &value, 8, t);
    return t;
}

/**
 * The scenario: a parent whose overlays span three OMT chunks plus one
 * entry emptied by reclaimZeroLine forks an OoW grandchild (the fork
 * overlay copy); CoW and OoW children that own private frames are then
 * torn down, together with the grandchild, while a trace sink is open.
 * @p functional selects destroyProcessFunctional for the teardowns.
 */
TeardownDigest
runScenario(bool functional)
{
    std::string path = testing::TempDir() + "/ovl_teardown_" +
                       (functional ? "func" : "timed") + ".json";
    TeardownDigest d;
    SystemConfig cfg;
    cfg.numTlbs = 2;
    System sys(cfg);
    Tick t = 0;

    Asid root = sys.createProcess();
    for (Addr base : kRegions) {
        sys.mapAnon(root, base, kRegionPages * kPageSize);
        for (unsigned p = 0; p < kRegionPages; ++p)
            t = writePage(sys, root, base + p * kPageSize, p % 4, 16,
                          base + p, t);
    }
    sys.mapZeroOverlay(root, kZeroRegion, 2 * kPageSize);

    // mid: overlays in all three windows plus the zero region; the
    // all-zero line empties (and erases) its page's OMT entry.
    Asid mid = sys.fork(root, ForkMode::OverlayOnWrite, t, &t);
    for (Addr base : kRegions) {
        for (unsigned p = 1; p < kRegionPages; p += 2)
            t = writePage(sys, mid, base + p * kPageSize, p, 9,
                          ~(base + p), t);
    }
    std::uint64_t zero = 0;
    std::uint64_t one = 1;
    t = sys.write(mid, kZeroRegion + 3 * kLineSize, &zero, 8, t);
    t = sys.write(mid, kZeroRegion + kPageSize + 5 * kLineSize, &one, 8, t);
    EXPECT_TRUE(sys.reclaimZeroLine(mid, kZeroRegion + 3 * kLineSize, t));

    // Precondition: mid's overlays span four OMT chunks (three data
    // windows and the zero region) besides root's none.
    EXPECT_EQ(sys.overlayManager().omt().chunkCount(), 4u);

    // The grandchild fork copies mid's overlays (§4.1).
    Asid grand = sys.fork(mid, ForkMode::OverlayOnWrite, t, &t);
    t = writePage(sys, grand, kRegions[2] + 2 * kPageSize, 0, 7, 0x77, t);

    // A CoW child of a process that never overlays: its writes copy
    // pages into private frames; it also maps private memory.
    Asid cow_root = sys.createProcess();
    sys.mapAnon(cow_root, kRegions[0], kRegionPages * kPageSize);
    for (unsigned p = 0; p < kRegionPages; ++p)
        t = writePage(sys, cow_root, kRegions[0] + p * kPageSize, 0, 32,
                      p, t);
    Asid cow_kid = sys.fork(cow_root, ForkMode::CopyOnWrite, t, &t);
    for (unsigned p = 0; p < kRegionPages; p += 3)
        t = writePage(sys, cow_kid, kRegions[0] + p * kPageSize, 2, 21,
                      0xC0 + p, t);

    // An OoW child with overlays in every window and private frames.
    Asid oow_kid = sys.fork(mid, ForkMode::OverlayOnWrite, t, &t);
    for (Addr base : kRegions)
        t = writePage(sys, oow_kid, base + 4 * kPageSize, 3, 13, 0x0, t);
    for (Asid kid : {cow_kid, oow_kid}) {
        sys.mapAnon(kid, kPrivate, kPrivatePages * kPageSize);
        for (unsigned p = 0; p < kPrivatePages; ++p)
            t = writePage(sys, kid, kPrivate + p * kPageSize, p, 11, kid, t);
    }

    d.teardownTick = t;
    trace::start(path);
    for (Asid kid : {cow_kid, oow_kid, grand}) {
        if (functional)
            sys.destroyProcessFunctional(kid);
        else
            sys.destroyProcess(kid, t);
    }
    trace::stop();

    // Later accesses see the DRAM and cache state teardown left behind.
    for (Addr base : kRegions) {
        for (unsigned p = 0; p < kRegionPages; ++p) {
            std::uint64_t got = 0;
            t = sys.read(mid, base + p * kPageSize + 9 * kLineSize, &got,
                         8, t);
            t = sys.read(root, base + p * kPageSize, &got, 8, t);
        }
    }
    sys.caches().flushAll(t);

    d.finalTick = t;
    d.l1Hits = sys.caches().l1().hits();
    d.l1Misses = sys.caches().l1().misses();
    d.l2Hits = sys.caches().l2().hits();
    d.l3Hits = sys.caches().l3().hits();
    d.dramRowHits = sys.dramController().dram().rowHits();
    d.dramDrains = sys.dramController().drains();
    d.framesInUse = sys.physMem().framesInUse();
    std::ostringstream stats;
    sys.dumpAllStats(stats);
    d.statsHash = fnv1a(stats.str());
    d.forkOverlayLinesCopied =
        statValue(stats.str(), "system.forkOverlayLinesCopied");
    d.memWritebacks = statValue(stats.str(), "system.caches.memWritebacks");

    std::ifstream in(path);
    std::string line;
    std::string events;
    std::string shootdowns;
    while (std::getline(in, line)) {
        if (line.find("\"ph\":") == std::string::npos)
            continue;
        if (!line.empty() && line.back() == ',')
            line.pop_back();
        std::size_t tid = line.find(",\"tid\":");
        if (tid != std::string::npos) {
            std::size_t end = line.find_first_not_of("0123456789", tid + 7);
            line.erase(tid, end - tid);
        }
        events += line + '\n';
        if (line.find("\"name\":\"tlb_shootdown\"") != std::string::npos) {
            ++d.shootdowns;
            shootdowns += line + '\n';
        }
        std::size_t ts = line.find("\"ts\":");
        if (line.find("\"name\":\"tlb_shootdown") != std::string::npos &&
            ts != std::string::npos) {
            d.shootdownTicks.insert(std::stoull(line.substr(ts + 5)));
        }
    }
    std::remove(path.c_str());
    d.shootdownHash = fnv1a(shootdowns);
    d.traceHash = fnv1a(events);
    return d;
}

TEST(TeardownOrder, TimedTeardownIsPinned)
{
    TeardownDigest d = runScenario(false);
    EXPECT_EQ(d.finalTick, 256683u);
    EXPECT_EQ(d.forkOverlayLinesCopied, 170u);
    EXPECT_EQ(d.l1Hits, 177u);
    EXPECT_EQ(d.l1Misses, 977u);
    EXPECT_EQ(d.l2Hits, 125u);
    EXPECT_EQ(d.l3Hits, 312u);
    EXPECT_EQ(d.memWritebacks, 624u);
    EXPECT_EQ(d.dramRowHits, 1372u);
    EXPECT_EQ(d.dramDrains, 12u);
    EXPECT_EQ(d.framesInUse, 117u);
    EXPECT_EQ(d.statsHash, 0xf88529be5dbf25bbull);
    // 68 torn-down pages x 2 TLBs, in ascending-VPN order per process.
    EXPECT_EQ(d.shootdowns, 136u);
    EXPECT_EQ(d.shootdownHash, 0x19ff6c400c82aff3ull);
    EXPECT_EQ(d.traceHash, 0x25467efa06939cf7ull);
    // Every shootdown instant of a timed teardown carries its tick.
    EXPECT_EQ(d.shootdownTicks, std::set<Tick>{d.teardownTick});
}

TEST(TeardownOrder, FunctionalTeardownIsPinned)
{
    TeardownDigest d = runScenario(true);
    EXPECT_EQ(d.finalTick, 232696u);
    EXPECT_EQ(d.forkOverlayLinesCopied, 170u);
    EXPECT_EQ(d.l1Hits, 177u);
    EXPECT_EQ(d.l1Misses, 977u);
    EXPECT_EQ(d.l2Hits, 125u);
    EXPECT_EQ(d.l3Hits, 312u);
    EXPECT_EQ(d.memWritebacks, 189u);
    EXPECT_EQ(d.dramRowHits, 1098u);
    EXPECT_EQ(d.dramDrains, 8u);
    EXPECT_EQ(d.framesInUse, 117u);
    EXPECT_EQ(d.statsHash, 0xf0415644e85d460full);
    EXPECT_EQ(d.shootdowns, 136u);
    EXPECT_EQ(d.shootdownHash, 0xa7cdd287f6e85f43ull);
    EXPECT_EQ(d.traceHash, 0xb79b59020e66a5ebull);
    // The functional teardown has no tick: its instants stay at 0.
    EXPECT_EQ(d.shootdownTicks, std::set<Tick>{0});
}

TEST(TeardownLoop, ForkDestroyRoundsLeaveNoChunks)
{
    // Well below the 2^15 ASID limit: ASIDs are not recycled.
    constexpr unsigned kRounds = 2000;
    System sys((SystemConfig()));
    Tick t = 0;
    Asid parent = sys.createProcess();
    for (Addr base : kRegions)
        sys.mapAnon(parent, base, kRegionPages * kPageSize);
    sys.mapZeroOverlay(parent, kZeroRegion, kPageSize);
    std::uint64_t seed = 5;
    t = sys.write(parent, kZeroRegion, &seed, 8, t);

    const Omt &omt = sys.overlayManager().omt();
    const std::size_t parent_chunks = omt.chunkCount();
    // Memory outside the OMT's radix nodes (which outlive a torn-down
    // process, see above): data frames plus OMS segments in use.
    auto held = [&] { return sys.additionalMemoryBytes() - omt.nodeBytes(); };
    const std::uint64_t parent_held = held();
    ASSERT_EQ(parent_chunks, 1u);
    Opn first_dead = kInvalidAddr;
    Addr first_dead_walk = kInvalidAddr;
    for (unsigned round = 0; round < kRounds; ++round) {
        Asid child = sys.fork(parent, ForkMode::OverlayOnWrite, t, &t);
        for (unsigned i = 0; i < 3; ++i) {
            Addr line = kRegions[i] +
                        Addr((round + i) % kRegionPages) * kPageSize +
                        Addr((round * 7 + i) % kLinesPerPage) * kLineSize;
            std::uint64_t value = round;
            t = sys.write(child, line, &value, 8, t);
        }
        // The copied zero-region overlay plus one chunk per window.
        ASSERT_EQ(omt.chunkCount(), parent_chunks + 4) << "round " << round;
        Opn opn = overlay_addr::pageFromVirtual(
            child, pageNumber(kRegions[1]) + 3);
        Addr walk = omt.walkLastAddr(opn);
        ASSERT_NE(walk, kInvalidAddr);

        sys.destroyProcess(child, t);
        ASSERT_EQ(sys.vmm().process(child).pageTable.size(), 0u);
        ASSERT_EQ(omt.chunkCount(), parent_chunks) << "round " << round;
        // The chunk is gone, but its radix nodes stay: the same walk.
        ASSERT_EQ(omt.walkLastAddr(opn), walk) << "round " << round;
        // Every frame reference the fork took is returned by the
        // teardown, and the child's overlays free what they held.
        ASSERT_EQ(held(), parent_held) << "round " << round;
        for (Addr base : kRegions) {
            for (unsigned p = 0; p < kRegionPages; ++p) {
                const Pte *pte =
                    sys.vmm().resolve(parent, pageNumber(base) + p);
                ASSERT_NE(pte, nullptr);
                ASSERT_EQ(sys.physMem().refCount(pte->ppn), 1u)
                    << "round " << round << " page " << p;
            }
        }
        if (round == 0) {
            first_dead = opn;
            first_dead_walk = walk;
        }
    }
    EXPECT_EQ(omt.walkLastAddr(first_dead), first_dead_walk);
    std::uint64_t got = 0;
    sys.peek(parent, kZeroRegion, &got, 8);
    EXPECT_EQ(got, seed);
}

} // namespace
} // namespace ovl
