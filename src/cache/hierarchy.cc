#include "hierarchy.hh"

#include "common/logging.hh"
#include "sim/snapshot.hh"

namespace ovl
{

CacheHierarchy::CacheHierarchy(std::string name, HierarchyParams params,
                               MemBackend &backend)
    : SimObject(std::move(name)), params_(params), backend_(backend),
      l1_(this->name() + ".l1", params.l1),
      l2_(this->name() + ".l2", params.l2),
      l3_(this->name() + ".l3", params.l3),
      prefetcher_(this->name() + ".pf", params.prefetcher),
      accesses_(&statGroup(), "accesses", "demand accesses"),
      memReads_(&statGroup(), "memReads", "lines read from memory"),
      memWritebacks_(&statGroup(), "memWritebacks",
                     "dirty lines written back to memory"),
      prefetchReads_(&statGroup(), "prefetchReads",
                     "prefetch fills serviced (best-effort bandwidth)"),
      prefetchDrops_(&statGroup(), "prefetchDrops",
                     "prefetches dropped by the bandwidth limiter"),
      hitsL1_(&statGroup(), "hitsL1", "accesses serviced by L1"),
      hitsL2_(&statGroup(), "hitsL2", "accesses serviced by L2"),
      hitsL3_(&statGroup(), "hitsL3", "accesses serviced by L3")
{
}

void
CacheHierarchy::prefetchLine(Addr line_addr, Tick when)
{
    tryPrefetchFill<Timed>(line_addr, when);
}

bool
CacheHierarchy::retagLine(Addr old_addr, Addr new_addr, Tick when)
{
    auto mv1 = l1_.moveLine(old_addr, new_addr);
    if (mv1.eviction)
        handleL1Victim<Timed>(*mv1.eviction, when);
    auto mv2 = l2_.moveLine(old_addr, new_addr);
    if (mv2.eviction)
        handleL2Victim<Timed>(*mv2.eviction, when);
    auto mv3 = l3_.moveLine(old_addr, new_addr);
    if (mv3.eviction)
        handleL3Victim<Timed>(*mv3.eviction, when);
    return mv1.found || mv2.found || mv3.found;
}

void
CacheHierarchy::flushAll(Tick when)
{
    auto sink = [&](Addr addr) {
        handleL3Victim<Timed>(Eviction{addr, true}, when);
    };
    l1_.writebackAll(sink);
    l2_.writebackAll(sink);
    l3_.writebackAll(sink);
}

void
CacheHierarchy::resetStats()
{
    SimObject::resetStats();
    l1_.resetStats();
    l2_.resetStats();
    l3_.resetStats();
    prefetcher_.resetStats();
}

template <typename Ar>
void
CacheHierarchy::transfer(Ar &ar)
{
    ar.section("HIER");
    l1_.transfer(ar);
    l2_.transfer(ar);
    l3_.transfer(ar);
    prefetcher_.transfer(ar);
    ar.field(prefetchBusyUntil_);
    ar.endSection();
}

OVL_SNAPSHOT_INSTANTIATE(CacheHierarchy);

} // namespace ovl
