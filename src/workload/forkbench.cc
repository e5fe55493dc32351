#include "forkbench.hh"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>

#include "common/logging.hh"
#include "common/random.hh"
#include "cpu/ooo_core.hh"
#include "sim/snapshot.hh"
#include "sim/stats_sampler.hh"
#include "system/system.hh"

namespace ovl
{

namespace
{

constexpr Addr kHeapBase = 0x1000'0000;

/** Precomputed post-fork write schedule: line-granular virtual addrs. */
struct WriteSchedule
{
    std::vector<Addr> addrs;
    std::size_t next = 0;

    bool exhausted() const { return next >= addrs.size(); }

    Addr
    take()
    {
        return addrs[next++];
    }
};

} // namespace

std::vector<Addr>
buildWriteSchedule(const ForkBenchParams &p, Rng &rng)
{
    // Choose the dirty pages. Streaming sweeps dirty a contiguous
    // region (a grid pass); the other patterns dirty pages scattered
    // over the footprint.
    std::vector<std::uint64_t> pages;
    if (p.pattern == WritePattern::Streaming) {
        std::uint64_t start = p.footprintPages > p.dirtyPages
                                  ? rng.below(p.footprintPages -
                                              p.dirtyPages)
                                  : 0;
        for (std::uint64_t i = 0; i < p.dirtyPages; ++i)
            pages.push_back(start + i);
    } else {
        pages.resize(p.footprintPages);
        for (std::uint64_t i = 0; i < p.footprintPages; ++i)
            pages[i] = i;
        for (std::uint64_t i = 0; i < p.dirtyPages; ++i) {
            std::uint64_t j = i + rng.below(p.footprintPages - i);
            std::swap(pages[i], pages[j]);
        }
        pages.resize(p.dirtyPages);
    }

    // Per page, the lines that will be written: an ascending prefix for
    // the streaming sweep, a random subset otherwise.
    std::vector<std::vector<unsigned>> lines(p.dirtyPages);
    unsigned count = std::min<unsigned>(p.linesPerDirtyPage, kLinesPerPage);
    for (auto &page_lines : lines) {
        if (p.pattern == WritePattern::Streaming) {
            for (unsigned l = 0; l < count; ++l)
                page_lines.push_back(l);
            continue;
        }
        unsigned all[kLinesPerPage];
        for (unsigned l = 0; l < kLinesPerPage; ++l)
            all[l] = l;
        for (unsigned l = 0; l < count; ++l) {
            unsigned j = l + unsigned(rng.below(kLinesPerPage - l));
            std::swap(all[l], all[j]);
        }
        page_lines.assign(all, all + count);
    }

    std::vector<Addr> schedule;
    schedule.reserve(p.dirtyPages * count);
    switch (p.pattern) {
      case WritePattern::Streaming:
      case WritePattern::Clustered:
        // Page by page; Streaming is fully sequential (ascending pages
        // and lines), Clustered hops to random pages but writes each
        // page's (random-order) lines back to back.
        for (std::size_t pg = 0; pg < lines.size(); ++pg) {
            for (unsigned l : lines[pg]) {
                schedule.push_back(kHeapBase + pages[pg] * kPageSize +
                                   Addr(l) * kLineSize);
            }
        }
        break;
      case WritePattern::Windowed: {
        // Writes rotate over a bounded window of active pages (like a
        // SPEC working set): a given page's successive line writes are
        // ~window writes apart ("well separated in time", §5.1), while
        // the active footprint stays TLB-resident.
        constexpr std::size_t kWindow = 24;
        std::vector<std::size_t> active;       // page indices in window
        std::vector<std::size_t> next_line(p.dirtyPages, 0);
        std::size_t next_page = 0;
        while (active.size() < kWindow && next_page < lines.size())
            active.push_back(next_page++);
        std::size_t cursor = 0;
        while (!active.empty()) {
            cursor = cursor % active.size();
            std::size_t pg = active[cursor];
            schedule.push_back(kHeapBase + pages[pg] * kPageSize +
                               Addr(lines[pg][next_line[pg]]) *
                                   kLineSize);
            if (++next_line[pg] >= lines[pg].size()) {
                // Page exhausted: replace it in the window.
                if (next_page < lines.size()) {
                    active[cursor] = next_page++;
                } else {
                    active.erase(active.begin() +
                                 std::ptrdiff_t(cursor));
                }
            }
            ++cursor;
        }
        break;
      }
    }
    return schedule;
}

namespace
{

/**
 * The complete between-iteration state of the steady-state generator
 * loop, lifted out of streamPhaseGenResumable's locals so a checkpoint
 * can capture it mid-phase and a restore can continue the loop with the
 * exact remaining op stream (same RNG draws, same order).
 */
struct StreamPhaseState
{
    /** Recent-reuse window (the register/stack/L1-resident share). */
    static constexpr std::uint32_t kRecent = 64;

    std::uint64_t budget = 0; ///< instructions left in the phase
    WriteSchedule schedule;
    bool hasSchedule = false;
    std::vector<Addr> rewritePool; ///< lines already written (re-writes)
    std::uint32_t burstRemaining = 0; ///< clustered-pattern page burst
    std::array<Addr, kRecent> recent{};
    std::uint32_t recentCount = 0;
    std::uint32_t recentHead = 0;
    Addr streamLine = 0; ///< sequential stream cursor (line index)
    /**
     * Fresh-write pacing so the schedule spans the whole epoch (a SPEC
     * process dirties pages steadily, not in an initial burst). Fixed at
     * phase start from the full schedule size.
     */
    double freshFraction = 1.0;

    template <typename Ar> void transfer(Ar &ar);
};

template <typename Ar>
void
StreamPhaseState::transfer(Ar &ar)
{
    ar.section("PHST");
    ar.field(budget);
    ar.field(hasSchedule);
    if (hasSchedule) {
        ar.size(schedule.addrs, 8);
        for (Addr &a : schedule.addrs)
            ar.field(a);
        ar.field(schedule.next);
        ar.check(schedule.next <= schedule.addrs.size(), [&] {
            return "write-schedule cursor " + std::to_string(schedule.next) +
                   " past its " + std::to_string(schedule.addrs.size()) +
                   " entries";
        });
    }
    ar.size(rewritePool, 8);
    for (Addr &a : rewritePool)
        ar.field(a);
    ar.field(burstRemaining);
    for (Addr &a : recent)
        ar.field(a);
    ar.field(recentCount);
    ar.field(recentHead);
    ar.check(recentCount <= kRecent && recentHead < kRecent, [&] {
        return "recent-window cursor out of range (count " +
               std::to_string(recentCount) + ", head " +
               std::to_string(recentHead) + ")";
    });
    ar.field(streamLine);
    ar.field(freshFraction);
    ar.endSection();
}

/** Phase-start state: full budget, cursors at zero, pacing computed. */
StreamPhaseState
makePhaseState(const ForkBenchParams &p, std::uint64_t num_instructions,
               WriteSchedule schedule, bool has_schedule)
{
    StreamPhaseState st;
    st.budget = num_instructions;
    st.schedule = std::move(schedule);
    st.hasSchedule = has_schedule;
    if (has_schedule) {
        double expected_writes = double(num_instructions) *
                                 p.memOpFraction * p.writeFraction;
        st.freshFraction = expected_writes > 0
                               ? double(st.schedule.addrs.size()) /
                                     expected_writes
                               : 1.0;
        st.freshFraction = std::min(1.0, st.freshFraction);
    }
    return st;
}

/**
 * Emit the benchmark's steady-state mix until @p st.budget runs out. The
 * read stream mimics SPEC-class locality: most accesses re-touch
 * recently used lines (L1 hits), a share streams sequentially through
 * the footprint (prefetch-friendly), and a tail jumps randomly within
 * the hot set — overall miss rates in the few-percent range rather than
 * the cache-hostile uniform-random extreme.
 *
 * The generator is a template over the execution sink so the same
 * op stream (same RNG draws, same order) can drive the detailed core or
 * a sampled-simulation sink that switches between detailed execution and
 * functional fast-forward per window (DESIGN.md §10).
 *
 * @p stop is polled between loop iterations (checkpoint boundaries):
 * returning true suspends the phase with @p st and the RNG holding
 * exactly the state a later call needs to continue the identical stream.
 */
template <typename Exec, typename Stop>
void
streamPhaseGenResumable(Exec &&execute, const ForkBenchParams &p, Rng &rng,
                        StreamPhaseState &st, Stop &&stop)
{
    WriteSchedule *schedule = st.hasSchedule ? &st.schedule : nullptr;
    auto touch = [&](Addr a) {
        st.recent[st.recentHead] = a;
        st.recentHead = (st.recentHead + 1) % StreamPhaseState::kRecent;
        st.recentCount = std::min<std::uint32_t>(st.recentCount + 1,
                                                 StreamPhaseState::kRecent);
    };

    Addr footprint_lines = p.footprintPages * kLinesPerPage;

    while (st.budget > 0) {
        // Non-memory instructions between memory ops.
        double per_mem = 1.0 / p.memOpFraction - 1.0;
        std::uint32_t compute = std::uint32_t(per_mem);
        if (rng.chance(per_mem - compute))
            ++compute;
        if (compute > 0) {
            execute(TraceOp::compute(compute));
            st.budget -= std::min<std::uint64_t>(st.budget, compute);
        }
        if (st.budget == 0)
            break;

        bool is_write = rng.chance(p.writeFraction);
        if (is_write && schedule != nullptr) {
            Addr addr;
            bool take_fresh;
            if (p.pattern == WritePattern::Clustered) {
                // Whole-page bursts: once a page's rewrite starts, its
                // lines are written back to back ("close in time").
                if (st.burstRemaining == 0 && !schedule->exhausted() &&
                    (st.rewritePool.empty() ||
                     rng.chance(st.freshFraction / p.linesPerDirtyPage))) {
                    st.burstRemaining = p.linesPerDirtyPage;
                }
                take_fresh = st.burstRemaining > 0 &&
                             !schedule->exhausted();
                if (take_fresh)
                    --st.burstRemaining;
            } else {
                take_fresh = !schedule->exhausted() &&
                             (st.rewritePool.empty() ||
                              rng.chance(st.freshFraction));
            }
            if (take_fresh) {
                addr = schedule->take();
                st.rewritePool.push_back(addr);
                if (p.readModifyWrite) {
                    // Real update streams read the data they modify
                    // (read-modify-write); the load brings the line into
                    // the cache in both mechanisms' worlds.
                    execute(TraceOp::load(addr));
                    if (st.budget > 1)
                        --st.budget;
                }
            } else if (!st.rewritePool.empty()) {
                // Re-writes favour recently dirtied lines (temporal
                // locality of real write streams).
                std::size_t window = std::min<std::size_t>(
                    st.rewritePool.size(), 512);
                std::size_t idx = st.rewritePool.size() - 1 -
                                  rng.below(window);
                addr = st.rewritePool[idx];
            } else {
                addr = kHeapBase; // degenerate tiny schedule
            }
            execute(TraceOp::store(addr));
            touch(addr);
        } else if (is_write) {
            // Warmup writes: anywhere in the footprint.
            std::uint64_t page = rng.below(p.footprintPages);
            Addr addr = kHeapBase + page * kPageSize +
                        rng.below(kLinesPerPage) * kLineSize;
            execute(TraceOp::store(addr));
            touch(addr);
        } else {
            Addr addr;
            double dice = rng.uniform();
            if (dice < p.recentReadShare && st.recentCount > 0) {
                // Re-use a recently touched line: an L1 hit.
                addr = st.recent[rng.below(st.recentCount)];
            } else if (dice < p.recentReadShare + p.streamReadShare) {
                // Sequential streaming through the footprint.
                st.streamLine = (st.streamLine + 1) % footprint_lines;
                addr = kHeapBase + st.streamLine * kLineSize;
            } else {
                // Random within the hot set.
                std::uint64_t page = rng.below(p.hotPages);
                addr = kHeapBase + page * kPageSize +
                       rng.below(kLinesPerPage) * kLineSize;
            }
            execute(TraceOp::load(addr));
            touch(addr);
        }
        --st.budget;
        if (st.budget > 0 && stop())
            return;
    }
}

/** @p config named after the benchmark (the stats-dump prefix). */
SystemConfig
namedConfig(SystemConfig config, const std::string &name)
{
    config.name = name;
    return config;
}

/**
 * One fork-bench run, staged (DESIGN.md §11.3): warmUp() → fork() →
 * phase() → finish(). Every public entry point is a path through these
 * steps; warm starts and checkpoints cut the path between two of them
 * and resume it on a fresh run through load().
 */
struct ForkBenchRun
{
    const ForkBenchParams &params;
    System system;
    OooCore core;
    Rng rng;
    StatsSampler *sampler;
    ForkMode mode = ForkMode::CopyOnWrite;
    Asid parent = 0;
    Tick forkStart = 0; ///< warm-up epoch close; fork() issues here
    Tick forkDone = 0;  ///< fork() completes; the post-fork epoch opens
    Tick end = 0;       ///< post-fork epoch close

    /**
     * A fresh machine. When @p s is non-null it is attached for the
     * whole run (warmup included) and finished/detached by finish().
     */
    ForkBenchRun(const ForkBenchParams &p, const SystemConfig &config,
                 StatsSampler *s = nullptr)
        : params(p), system(namedConfig(config, p.name)),
          core(p.name + ".core", system), rng(p.seed), sampler(s)
    {
        if (sampler != nullptr)
            system.attachStatsSampler(sampler, 0);
    }

    /** Create and map the parent, then run the warm-up epoch. */
    void
    warmUp()
    {
        parent = system.createProcess();
        system.mapAnon(parent, kHeapBase, params.footprintPages * kPageSize);
        // Warmup: populate caches/TLBs and dirty the address space so the
        // fork has real pages to share.
        StreamPhaseState st = makePhaseState(
            params, params.warmupInstructions, WriteSchedule{}, false);
        core.beginEpoch(0);
        phase(st);
        forkStart = core.finishEpoch();
    }

    /**
     * fork(): the child idles (as in §5.1); the parent keeps running.
     * Rebases memory and stats at the fork, opens the post-fork epoch and
     * returns the post-fork phase state with its write schedule.
     */
    StreamPhaseState
    fork(ForkMode m)
    {
        mode = m;
        forkDone = forkStart;
        system.fork(parent, mode, forkStart, &forkDone);
        system.markMemoryBaseline();
        system.resetStats();
        StreamPhaseState st = makePhaseState(
            params, params.postForkInstructions,
            WriteSchedule{buildWriteSchedule(params, rng)}, true);
        core.beginEpoch(forkDone);
        return st;
    }

    /** Run @p st, feeding every op to @p exec, until done or @p stop. */
    template <typename Exec, typename Stop>
    void
    phase(StreamPhaseState &st, Exec &&exec, Stop &&stop)
    {
        streamPhaseGenResumable(exec, params, rng, st, stop);
    }

    /** Run @p st to its end on the detailed core. */
    void
    phase(StreamPhaseState &st)
    {
        phase(
            st, [this](const TraceOp &op) { core.executeOp(parent, op); },
            [] { return false; });
    }

    /** Close the post-fork epoch and measure at the epoch's CPI. */
    ForkBenchResult
    finish()
    {
        end = core.finishEpoch();
        // Memory accounting happens at steady state: dirty overlay lines
        // still in the caches get their OMS slots on eviction (§4.3.3),
        // so force the writebacks before measuring (the flush is
        // excluded from the measured epoch).
        system.caches().flushAll(end);
        if (sampler != nullptr) {
            sampler->finish(end);
            system.detachStatsSampler();
        }
        return measure(core.epochCpi());
    }

    /** The run's figures, with @p cpi as Figure 9's CPI. */
    ForkBenchResult
    measure(double cpi) const
    {
        ForkBenchResult res;
        res.name = params.name;
        res.type = params.type;
        res.mode = mode;
        res.additionalMemoryMB =
            double(system.additionalMemoryBytes()) / double(1_MiB);
        res.cpi = cpi;
        res.cowFaults = system.cowFaults();
        res.overlayingWrites = system.overlayingWrites();
        res.forkLatency = forkDone - forkStart;
        return res;
    }

    /** Post-fork stats: text (System + core) and/or dumpAllStatsJson. */
    void
    dumpStats(std::ostream *text, std::ostream *json = nullptr)
    {
        if (text != nullptr) {
            system.dumpAllStats(*text);
            core.dumpStats(*text);
        }
        if (json != nullptr)
            system.dumpAllStatsJson(*json);
    }

    /**
     * The machine record, one order for the WARM payload and the FKCP
     * checkpoint: RNG state, core, system.
     */
    template <typename Ar>
    void
    transfer(Ar &ar)
    {
        ar.field(rng);
        ar.field(core);
        if constexpr (Ar::kLoading)
            system.deserialize(ar);
        else
            system.serialize(ar);
    }
};

} // namespace

const std::vector<ForkBenchParams> &
forkBenchSuite()
{
    auto make = [](std::string name, unsigned type, std::uint64_t footprint,
                   std::uint64_t hot, std::uint64_t dirty, unsigned lines,
                   WritePattern pattern, double write_frac,
                   std::uint64_t seed) {
        ForkBenchParams p;
        p.name = std::move(name);
        p.type = type;
        p.footprintPages = footprint;
        p.hotPages = hot;
        p.dirtyPages = dirty;
        p.linesPerDirtyPage = lines;
        p.pattern = pattern;
        p.writeFraction = write_frac;
        p.seed = seed;
        if (pattern == WritePattern::Streaming) {
            // Bandwidth-bound streaming codes: more memory traffic,
            // stream-dominated reads.
            p.memOpFraction = 0.45;
            p.recentReadShare = 0.40;
            p.streamReadShare = 0.50;
        }
        if (pattern == WritePattern::Clustered) {
            // cactus rewrites whole pages wholesale, in dense bursts.
            p.readModifyWrite = false;
        }
        return p;
    };

    constexpr auto kWin = WritePattern::Windowed;
    constexpr auto kStream = WritePattern::Streaming;
    constexpr auto kClust = WritePattern::Clustered;
    static const std::vector<ForkBenchParams> suite = {
        // Type 1: low write working set.
        make("bwaves", 1, 2560, 192, 24, 6, kWin, 0.20, 11),
        make("hmmer", 1, 1536, 128, 40, 10, kWin, 0.25, 12),
        make("libq", 1, 1024, 96, 16, 4, kWin, 0.18, 13),
        make("sphinx3", 1, 2048, 160, 56, 12, kWin, 0.22, 14),
        make("tonto", 1, 1792, 128, 32, 8, kWin, 0.24, 15),
        // Type 2: almost all lines of each dirtied page are written.
        // All but cactus are streaming sweeps (bandwidth-bound).
        make("bzip2", 2, 3072, 256, 700, 60, kStream, 0.40, 21),
        make("cactus", 2, 2560, 224, 520, 64, kClust, 0.42, 22),
        make("lbm", 2, 4096, 320, 900, 62, kStream, 0.45, 23),
        make("leslie3d", 2, 3584, 288, 650, 58, kStream, 0.40, 24),
        make("soplex", 2, 2816, 224, 540, 56, kStream, 0.38, 25),
        // Type 3: only a few lines of each dirtied page are written.
        make("astar", 3, 4096, 320, 640, 5, kWin, 0.35, 31),
        make("Gems", 3, 5120, 384, 800, 7, kWin, 0.38, 32),
        make("mcf", 3, 6144, 448, 1000, 4, kWin, 0.40, 33),
        make("milc", 3, 3584, 288, 640, 6, kWin, 0.34, 34),
        make("omnet", 3, 3072, 256, 520, 8, kWin, 0.33, 35),
    };
    return suite;
}

const ForkBenchParams &
forkBenchByName(const std::string &name)
{
    for (const ForkBenchParams &p : forkBenchSuite()) {
        if (p.name == name)
            return p;
    }
    ovl_fatal("unknown fork benchmark: %s", name.c_str());
}

ForkBenchResult
runForkBench(const ForkBenchParams &params, ForkMode mode,
             SystemConfig config, std::ostream *dump_stats,
             std::vector<TraceOp> *record, StatsSampler *sampler,
             std::ostream *dump_stats_json)
{
    ForkBenchRun run(params, config, sampler);
    run.warmUp();
    StreamPhaseState st = run.fork(mode);
    run.phase(
        st,
        [&](const TraceOp &op) {
            run.core.executeOp(run.parent, op);
            if (record != nullptr)
                record->push_back(op);
        },
        [] { return false; });
    ForkBenchResult res = run.finish();
    run.dumpStats(dump_stats, dump_stats_json);
    return res;
}

ForkBenchSampledResult
runForkBenchSampled(const ForkBenchParams &params, ForkMode mode,
                    SystemConfig config, const SampledSimParams &sampled,
                    StatsSampler *sampler)
{
    ovl_assert(sampled.intervalInstructions > 0,
               "sampled simulation needs a window size");
    std::uint64_t detail =
        sampled.detailedInstructions != 0
            ? sampled.detailedInstructions
            : std::max<std::uint64_t>(1, sampled.intervalInstructions / 10);
    ovl_assert(detail <= sampled.intervalInstructions,
               "detailed prefix larger than the window");
    ovl_assert(config.promoteThresholdLines >= kLinesPerPage,
               "sampled simulation requires promotion disabled");

    ForkBenchSampledResult out;

    // ------------------------- sampled run ----------------------------
    {
        ForkBenchRun run(params, config, sampler);
        run.warmUp();
        StreamPhaseState st = run.fork(mode);
        OooCore &core = run.core;

        // Windowed sink: a detailed prefix measured as its own core
        // epoch, then functional fast-forward to the window boundary.
        // Simulated time only advances inside detailed prefixes.
        Tick cursor = run.forkDone;
        Tick detail_start = cursor;
        std::uint64_t win_instr = 0;
        bool in_detail = true;
        // The first post-fork window always runs fully detailed: CoW
        // faults and overlaying writes are densest right after the fork,
        // so extrapolating a prefix of that transient 10x overestimates
        // it badly. Sampling applies to the steady state that follows.
        bool first_window = true;
        SampledWindow win;

        // Host-time split: one steady_clock stamp per segment boundary
        // (detailed→functional, window close), charged to the segment
        // that just ended. Boundary-only cost, never touches sim state.
        using host_clock = std::chrono::steady_clock;
        host_clock::time_point seg_start = host_clock::now();
        auto charge_segment = [&](double &bucket) {
            host_clock::time_point now = host_clock::now();
            bucket +=
                std::chrono::duration<double>(now - seg_start).count();
            seg_start = now;
        };

        auto close_detail = [&]() {
            cursor = core.finishEpoch();
            win.detailedCycles = cursor - detail_start;
            win.detailedInstructions = win_instr;
            charge_segment(win.detailedHostSeconds);
        };
        auto close_window = [&]() {
            if (in_detail)
                close_detail(); // window never left its detailed prefix
            else
                charge_segment(win.functionalHostSeconds);
            win.instructions = win_instr;
            win.estimatedCycles =
                win.detailedInstructions != 0
                    ? double(win.detailedCycles) *
                          (double(win.instructions) /
                           double(win.detailedInstructions))
                    : 0.0;
            out.windows.push_back(win);
            win = SampledWindow{};
            win_instr = 0;
            in_detail = true;
            first_window = false;
            detail_start = cursor;
            core.beginEpoch(cursor);
        };

        run.phase(
            st,
            [&](const TraceOp &op) {
                if (in_detail) {
                    core.executeOp(run.parent, op);
                } else if (op.kind != TraceOp::Kind::Compute) {
                    run.system.accessFunctional(
                        run.parent, op.vaddr,
                        op.kind == TraceOp::Kind::Store,
                        core.coreIndex());
                }
                win_instr += op.kind == TraceOp::Kind::Compute
                                 ? op.count
                                 : 1;
                std::uint64_t cur_detail =
                    first_window ? sampled.intervalInstructions : detail;
                if (in_detail && win_instr >= cur_detail &&
                    cur_detail < sampled.intervalInstructions) {
                    close_detail();
                    in_detail = false;
                }
                if (win_instr >= sampled.intervalInstructions)
                    close_window();
            },
            [] { return false; });
        if (win_instr > 0)
            close_window();
        run.finish(); // retires the epoch close_window armed

        double est_cycles = 0.0;
        for (const SampledWindow &w : out.windows) {
            est_cycles += w.estimatedCycles;
            out.totalInstructions += w.instructions;
            out.detailedInstructions += w.detailedInstructions;
            out.detailedHostSeconds += w.detailedHostSeconds;
            out.functionalHostSeconds += w.functionalHostSeconds;
        }
        out.sampled = run.measure(
            out.totalInstructions != 0
                ? est_cycles / double(out.totalInstructions)
                : 0.0);
    }

    if (!sampled.compareFull)
        return out;

    // ----------------------- full-detail twin -------------------------
    // One monolithic epoch over the identical op stream — byte-identical
    // to runForkBench — with issue-cursor snapshots at the same window
    // boundaries the sampled run used.
    {
        ForkBenchRun twin(params, config);
        twin.warmUp();
        StreamPhaseState st = twin.fork(mode);
        std::size_t wi = 0;
        std::uint64_t win_instr = 0;
        Tick last_mark = twin.forkDone;
        twin.phase(
            st,
            [&](const TraceOp &op) {
                twin.core.executeOp(twin.parent, op);
                win_instr += op.kind == TraceOp::Kind::Compute
                                 ? op.count
                                 : 1;
                if (win_instr >= sampled.intervalInstructions) {
                    Tick now = twin.core.currentCycle();
                    if (wi < out.windows.size())
                        out.windows[wi].fullCycles = now - last_mark;
                    last_mark = now;
                    ++wi;
                    win_instr = 0;
                }
            },
            [] { return false; });
        out.fullCpi = twin.finish().cpi;
        if (win_instr > 0 && wi < out.windows.size())
            out.windows[wi].fullCycles = twin.end - last_mark;
    }

    double err_sum = 0.0;
    unsigned err_count = 0;
    for (const SampledWindow &w : out.windows) {
        if (w.fullCycles == 0)
            continue;
        double err = 100.0 *
                     std::abs(w.estimatedCycles - double(w.fullCycles)) /
                     double(w.fullCycles);
        err_sum += err;
        out.maxWindowErrorPct = std::max(out.maxWindowErrorPct, err);
        ++err_count;
    }
    out.meanWindowErrorPct = err_count != 0 ? err_sum / err_count : 0.0;
    out.cpiErrorPct =
        out.fullCpi != 0.0
            ? 100.0 * std::abs(out.sampled.cpi - out.fullCpi) / out.fullCpi
            : 0.0;
    return out;
}

ForkBenchWarmState
prepareForkBenchWarmState(const ForkBenchParams &params, SystemConfig config)
{
    ForkBenchRun run(params, config);
    run.warmUp();

    ForkBenchWarmState warm;
    warm.params = params;
    warm.config = run.system.config();
    warm.warmupEnd = run.forkStart;
    warm.parent = run.parent;
    snapshot::Writer w;
    w.section("WARM");
    run.transfer(w);
    w.endSection();
    warm.machine = w.takeBuffer();
    return warm;
}

ForkBenchResult
runForkBenchFromWarmState(const ForkBenchWarmState &warm, ForkMode mode,
                          const SystemConfig *config_override,
                          std::ostream *dump_stats)
{
    ForkBenchRun run(warm.params, config_override != nullptr
                                      ? *config_override
                                      : warm.config);
    snapshot::Reader r(warm.machine);
    r.section("WARM");
    run.transfer(r);
    r.endSection();
    if (!r.atEnd())
        r.fail("trailing bytes after warm-state payload");
    run.parent = warm.parent;
    run.forkStart = warm.warmupEnd;

    // From here on the run is instruction-for-instruction the tail of
    // runForkBench: fork, rebase the stats, measure the post-fork epoch.
    StreamPhaseState st = run.fork(mode);
    run.phase(st);
    ForkBenchResult res = run.finish();
    run.dumpStats(dump_stats);
    return res;
}

std::optional<ForkBenchResult>
runForkBenchCheckpointed(const ForkBenchParams &params, ForkMode mode,
                         SystemConfig config,
                         const ForkBenchCheckpointOptions &ckpt)
{
    ovl_assert(!ckpt.path.empty(), "checkpointing needs an output path");
    ovl_assert(ckpt.everyTicks != 0 || ckpt.atTick != 0,
               "checkpointing needs --checkpoint-every or --at-tick");

    ForkBenchRun run(params, config);
    run.warmUp();
    StreamPhaseState st = run.fork(mode);

    // Serializing observes the machine without touching it, so the
    // executed run is op-for-op the uninterrupted run.
    auto write_checkpoint = [&]() {
        snapshot::Writer w;
        w.section("FKCP");
        w.field(params.name);
        w.field(std::uint8_t(mode == ForkMode::CopyOnWrite ? 0 : 1));
        w.field(params.postForkInstructions);
        w.field(run.parent);
        w.field(run.forkStart);
        w.field(run.forkDone);
        w.field(st);
        run.transfer(w);
        w.endSection();
        snapshot::writeSnapshotFile(ckpt.path, w.buffer());
    };

    Tick next_periodic =
        ckpt.everyTicks != 0 ? run.forkDone + ckpt.everyTicks : 0;
    bool stopped = false;
    auto stop = [&]() -> bool {
        Tick now = run.core.currentCycle();
        if (ckpt.everyTicks != 0 && now >= next_periodic) {
            write_checkpoint();
            while (next_periodic <= now)
                next_periodic += ckpt.everyTicks;
        }
        if (ckpt.atTick != 0 && now >= ckpt.atTick) {
            write_checkpoint();
            stopped = true;
            return true;
        }
        return false;
    };

    run.phase(
        st, [&](const TraceOp &op) { run.core.executeOp(run.parent, op); },
        stop);
    if (stopped)
        return std::nullopt;
    return run.finish();
}

ForkBenchResult
resumeForkBenchCheckpoint(const std::string &path)
{
    std::vector<std::uint8_t> payload = snapshot::readSnapshotFile(path);
    snapshot::Reader r(payload);
    r.section("FKCP");

    std::string name;
    r.field(name);
    ForkBenchParams params;
    bool known = false;
    for (const ForkBenchParams &p : forkBenchSuite()) {
        if (p.name == name) {
            params = p;
            known = true;
            break;
        }
    }
    if (!known)
        r.fail("checkpoint names unknown benchmark '" + name + "'");

    std::uint8_t mode_raw = 0;
    r.field(mode_raw);
    if (mode_raw > 1)
        r.fail("invalid fork mode " + std::to_string(mode_raw));
    r.field(params.postForkInstructions);

    // `overlaysim forkbench` runs the default machine configuration;
    // structural mismatches between it and the checkpointed machine are
    // caught by the per-component checks in transfer().
    ForkBenchRun run(params, SystemConfig{});
    run.mode = mode_raw == 0 ? ForkMode::CopyOnWrite
                             : ForkMode::OverlayOnWrite;
    r.field(run.parent);
    r.field(run.forkStart);
    r.field(run.forkDone);
    StreamPhaseState st;
    r.field(st);
    run.transfer(r);
    r.endSection();
    if (!r.atEnd())
        r.fail("trailing bytes after checkpoint payload");
    if (run.parent >= run.system.vmm().processCount()) {
        r.fail("checkpoint parent ASID " + std::to_string(run.parent) +
               " not among the " +
               std::to_string(run.system.vmm().processCount()) +
               " restored processes");
    }

    run.phase(st);
    return run.finish();
}

} // namespace ovl
