/**
 * @file
 * The access engine's compile-time timing policy (DESIGN.md §5b). Each
 * architectural step — translate, CoW break, overlaying write, cache
 * access with its victim/prefetch cascade, invalidate, fork, teardown —
 * is written once as a template over one of these two types:
 *
 *  - Timed: the detailed path. Latencies are charged, statistics
 *    counted, trace events and profiler zones opened.
 *  - Functional: the sampled-simulation fast-forward (DESIGN.md §10.2).
 *    The same architectural transitions and the same cache tag and
 *    replacement-state movement, with no tick, no timing statistic and
 *    no trace or profiler output.
 *
 * The few steps that differ in kind (retag vs drop on an overlaying
 * write, writeback vs drop on invalidate, the prefetch bandwidth gate,
 * the re-translate after an overlaying write, the OMT-cache access on a
 * walk, DRAM traffic) branch on kTimed with `if constexpr`. The type is
 * fixed at compile time, so the timed path carries neither a branch on
 * it nor a virtual call.
 */

#ifndef OVERLAYSIM_SIM_TIMING_POLICY_HH
#define OVERLAYSIM_SIM_TIMING_POLICY_HH

#include "common/types.hh"
#include "sim/trace.hh"

namespace ovl
{

struct Timed
{
    static constexpr bool kTimed = true;

    /** @p t advanced by @p latency. */
    static Tick charge(Tick t, Tick latency) { return t + latency; }

    /** Count one event on @p counter. */
    template <typename Counter>
    static void
    count(Counter &counter)
    {
        ++counter;
    }

    /** True while a trace sink records this step's events. */
    static bool tracing() { return trace::active(); }
};

struct Functional
{
    static constexpr bool kTimed = false;

    static Tick charge(Tick t, Tick) { return t; }

    template <typename Counter>
    static void
    count(Counter &)
    {
    }

    static bool tracing() { return false; }
};

} // namespace ovl

#endif // OVERLAYSIM_SIM_TIMING_POLICY_HH
