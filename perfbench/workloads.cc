/**
 * @file
 * Workload runner of the benchmark (see README.md in this directory).
 * It runs one workload against the simulator's public API for a given
 * time and prints one JSON object of raw measurements: per-row host
 * latencies, set-up times, simulated figures over a fixed prefix of rows
 * and, in the traced mode, per-call host times and component statistics.
 * run.py turns that object into the benchmark's metrics.
 *
 * Every host time is taken here, around calls into the simulator;
 * nothing inside src/ is instrumented.
 *
 *   perfbench_workloads --workload random_rw|fork_overlay|sweep_warm
 *                       --seed N --seconds S [--trace 0|1] [--bad-row R]
 */

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.hh"
#include "common/types.hh"
#include "sim/parallel.hh"
#include "system/system.hh"
#include "workload/forkbench.hh"

namespace
{

using namespace ovl;
using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** The process's resident set now, in KB. */
double
currentRssKb()
{
    std::ifstream statm("/proc/self/statm");
    std::uint64_t size = 0, resident = 0;
    statm >> size >> resident;
    return double(resident) * double(sysconf(_SC_PAGESIZE)) / 1024.0;
}

/** splitmix64 finalizer: independent values from (seed, index) pairs. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

/** FNV-1a over the generated inputs: tells which stream a seed made. */
struct Fingerprint
{
    std::uint64_t hash = 14695981039346656037ull;

    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            hash ^= (v >> (8 * i)) & 0xff;
            hash *= 1099511628211ull;
        }
    }
};

/** Host time of one kind of call, summed over the traced rows. */
struct CallTimer
{
    std::uint64_t calls = 0;
    double seconds = 0;
};

/** The calls the traced rows time. */
struct Timers
{
    CallTimer accessBatch; ///< System::accessBatch
    CallTimer access;      ///< System::write / System::read (one access)
    CallTimer fork;        ///< System::fork
    CallTimer destroy;     ///< System::destroyProcess
    CallTimer job;         ///< runForkBenchFromWarmState, in the workers
    CallTimer parallel;    ///< parallelMap, wall time of the whole map

    Timers &
    operator+=(const Timers &o)
    {
        for (auto [into, from] :
             {std::pair{&accessBatch, &o.accessBatch}, {&access, &o.access},
              {&fork, &o.fork}, {&destroy, &o.destroy}, {&job, &o.job},
              {&parallel, &o.parallel}}) {
            into->calls += from->calls;
            into->seconds += from->seconds;
        }
        return *this;
    }
};

/** Times one call into the simulator when @p on; does nothing else. */
class Span
{
  public:
    Span(CallTimer &timer, bool on) : timer_(on ? &timer : nullptr)
    {
        if (timer_ != nullptr)
            start_ = Clock::now();
    }

    ~Span()
    {
        if (timer_ != nullptr) {
            ++timer_->calls;
            timer_->seconds += since(start_);
        }
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    CallTimer *timer_;
    Clock::time_point start_{};
};

/** Simulated-domain totals over the fixed prefix of rows. */
struct SimFigures
{
    double ticks = 0;
    std::uint64_t accesses = 0;
    double cpi = 0; ///< mean over sweep jobs; 0 where no core runs
};

/** Simulated figures of one sweep job's post-fork epoch. */
struct JobFigures
{
    double cpi = 0;
    std::uint64_t instructions = 0;
    std::uint64_t accesses = 0;
};

/**
 * One workload. The runner builds it several times (set-up is timed each
 * time); after each build it runs the warm-up rows, then its share of the
 * timed rows.
 */
class Workload
{
  public:
    explicit Workload(std::uint64_t seed) : seed_(seed) {}
    virtual ~Workload() = default;

    /** Everything a user pays for before the first row. */
    virtual void setUp() = 0;
    /** Untimed rows after set-up; returns a fingerprint of the simulated
     *  counts they produced, which must agree across set-ups. */
    virtual std::uint64_t warmUp() = 0;
    /** One row; returns whether its outputs passed the check. */
    virtual bool row(bool traced, bool falsify) = 0;
    /** Untimed upkeep the runner runs between rows. */
    virtual void betweenRows() {}

    /** Simulated accesses issued by the rows run so far. */
    virtual std::uint64_t accesses() const = 0;
    /** Start of the window of simulated figures and statistics. */
    virtual void markSim() = 0;
    virtual SimFigures simSinceMark() const = 0;
    /** Component statistics of the window, as JSON values. */
    virtual std::vector<std::string> statsJson() = 0;

    /** Rows whose simulated figures are reported (a fixed prefix). */
    virtual std::uint64_t simRows() const = 0;
    /** Jobs one row completes (a sweep request holds several). */
    virtual std::size_t jobsPerRow() const { return 1; }
    /** Threads a row runs on. */
    virtual unsigned workers() const { return 1; }

    std::uint64_t fingerprint() const { return stream_.hash; }
    const Timers &timers() const { return timers_; }
    double vmSetupSeconds() const { return vmSetupS_; }
    double warmPrepareSeconds() const { return warmPrepareS_; }
    virtual double snapshotBytesPerJob() const { return 0; }
    /** Host seconds of a job's fixed part (restore, fork, flush): a
     *  zero-length job's time, mean over the jobs of a row. */
    virtual double restoreSecondsPerJob() const { return 0; }
    /** Host memory each row keeps after it ends, in KB. */
    virtual double retainedKbPerRow() const { return 0; }
    virtual std::vector<JobFigures> jobFigures() const { return {}; }

  protected:
    std::uint64_t seed_;
    Fingerprint stream_;
    Timers timers_;
    double vmSetupS_ = 0;
    double warmPrepareS_ = 0;
};

constexpr Addr kBase = 0x1000'0000;

/** Address of line @p line_index of a footprint starting at kBase. */
Addr
lineAddr(std::uint64_t line_index)
{
    return kBase + line_index * kLineSize;
}

/** Folds a System's key counters into a drift fingerprint. */
std::uint64_t
countsFingerprint(System &sys, Tick now)
{
    Fingerprint f;
    f.add(now);
    sys.forEachStatsGroup([&](const stats::Group *group) {
        for (const stats::Info *info : group->infos())
            info->eachScalar([&](const char *, double v, bool) {
                std::uint64_t bits = 0;
                std::memcpy(&bits, &v, sizeof bits);
                f.add(bits);
            });
    });
    return f.hash;
}

/** Shared part of the two workloads that drive one System directly. */
class SystemWorkload : public Workload
{
  public:
    std::uint64_t accesses() const override { return accesses_; }

    void
    markSim() override
    {
        markTick_ = now_;
        markAccesses_ = accesses_;
        sys_->resetStats();
    }

    SimFigures
    simSinceMark() const override
    {
        return {double(now_ - markTick_), accesses_ - markAccesses_, 0};
    }

    std::vector<std::string>
    statsJson() override
    {
        std::ostringstream os;
        sys_->dumpAllStatsJson(os);
        return {os.str()};
    }

    using Workload::Workload;

  protected:
    std::unique_ptr<System> sys_;
    Tick now_ = 0;
    std::uint64_t accesses_ = 0;
    std::uint64_t row_ = 0;
    Tick markTick_ = 0;
    std::uint64_t markAccesses_ = 0;
};

// ----- random_rw ------------------------------------------------------

/**
 * Uniform-random 64 B accesses, 2 reads to 1 write, over a footprint of
 * 32x the 2 MB L3 and far beyond the L2-TLB reach, in rows of
 * kRowAccesses through System::accessBatch. Each row then stores values
 * on a few lines with System::write and reads them back with peek, along
 * with the lines the previous row stored.
 */
class RandomRw : public SystemWorkload
{
  public:
    static constexpr std::uint64_t kPages = 16384; // 64 MB
    static constexpr std::size_t kRowAccesses = 8192;
    static constexpr std::size_t kPoolRows = 64;
    static constexpr unsigned kChecks = 4;

    using SystemWorkload::SystemWorkload;

    void
    setUp() override
    {
        sys_ = std::make_unique<System>();
        asid_ = sys_->createProcess();
        auto t0 = Clock::now();
        sys_->mapAnon(asid_, kBase, kPages * kPageSize);
        for (std::uint64_t l = 0; l < kPages * kLinesPerPage; ++l) {
            std::uint64_t v = mix(seed_ ^ l);
            now_ = sys_->write(asid_, lineAddr(l), &v, sizeof v, now_);
        }
        vmSetupS_ = since(t0);

        Rng rng(mix(seed_));
        pool_.resize(kPoolRows * kRowAccesses);
        for (AccessRequest &r : pool_) {
            r.vaddr = lineAddr(rng.below(kPages * kLinesPerPage));
            r.isWrite = rng.below(3) == 0;
            stream_.add(r.vaddr | Addr(r.isWrite));
        }
        sys_->quiesce();
        now_ = 0;
    }

    std::uint64_t
    warmUp() override
    {
        for (int i = 0; i < 8; ++i)
            row(false, false);
        return countsFingerprint(*sys_, now_);
    }

    bool
    row(bool traced, bool falsify) override
    {
        std::span<const AccessRequest> reqs(
            pool_.data() + (row_ % kPoolRows) * kRowAccesses, kRowAccesses);
        {
            Span s(timers_.accessBatch, traced);
            now_ = sys_->accessBatch(asid_, reqs, now_);
        }
        accesses_ += kRowAccesses;

        std::array<Check, kChecks> mine;
        for (unsigned k = 0; k < kChecks; ++k) {
            std::uint64_t key = mix(seed_ * 31 + row_ * kChecks + k);
            mine[k] = {lineAddr(key % (kPages * kLinesPerPage)), key | 1};
            Span s(timers_.access, traced);
            now_ = sys_->write(asid_, mine[k].addr, &mine[k].value,
                               sizeof(std::uint64_t), now_);
        }
        accesses_ += kChecks;

        bool ok = true;
        auto expect = [&](const Check &c) {
            std::uint64_t got = 0;
            sys_->peek(asid_, c.addr, &got, sizeof got);
            ok &= got == c.value;
        };
        // The previous row's lines went through a whole batch since.
        for (const Check &c : previous_) {
            bool overwritten = row_ == 0 || std::any_of(
                mine.begin(), mine.end(),
                [&](const Check &m) { return m.addr == c.addr; });
            if (!overwritten)
                expect(c);
        }
        for (const Check &c : mine)
            expect(c);
        if (falsify)
            expect({mine[0].addr, mine[0].value ^ 2});
        previous_ = mine;
        ++row_;
        return ok;
    }

    std::uint64_t simRows() const override { return 100; }

  private:
    struct Check
    {
        Addr addr = 0;
        std::uint64_t value = 0;
    };

    Asid asid_ = 0;
    std::vector<AccessRequest> pool_;
    std::array<Check, kChecks> previous_{};
};

// ----- fork_overlay ---------------------------------------------------

/**
 * A parent with a first-touched footprint; each row forks a child with
 * OverlayOnWrite, the child writes a few lines on each of a set of pages
 * (paper Type 3, sparse divergence), reads back its written lines and
 * some lines it did not write, and is destroyed.
 */
class ForkOverlay : public SystemWorkload
{
  public:
    static constexpr std::uint64_t kPages = 8192; // 32 MB parent
    static constexpr unsigned kDirtyPages = 64;
    static constexpr unsigned kLinesWritten = 4;
    static constexpr unsigned kLinesRead = 4; ///< unwritten lines read
    static constexpr std::size_t kSpecPool = 256;
    static constexpr std::uint64_t kEpochRows = 512;
    static constexpr std::uint64_t kAccessesPerRow =
        kDirtyPages * (2 * kLinesWritten + kLinesRead);

    using SystemWorkload::SystemWorkload;

    void
    setUp() override
    {
        buildMachine();

        Rng rng(mix(seed_));
        specs_.resize(kSpecPool);
        std::vector<std::uint32_t> pages(kPages);
        for (RowSpec &spec : specs_) {
            for (std::uint32_t p = 0; p < kPages; ++p)
                pages[p] = p;
            for (unsigned i = 0; i < kDirtyPages; ++i) {
                std::swap(pages[i], pages[i + rng.below(kPages - i)]);
                spec.page[i] = pages[i];
                spec.written[i] = randomLines(rng, kLinesWritten, 0);
                spec.read[i] =
                    randomLines(rng, kLinesRead, spec.written[i]);
                stream_.add(spec.page[i]);
                stream_.add(spec.written[i]);
                stream_.add(spec.read[i]);
            }
        }
    }

    std::uint64_t
    warmUp() override
    {
        for (int i = 0; i < 4; ++i)
            row(false, false);
        return countsFingerprint(*sys_, now_);
    }

    bool
    row(bool traced, bool falsify) override
    {
        const RowSpec &spec = specs_[row_ % kSpecPool];
        Tick t = now_;
        Asid child;
        {
            Span s(timers_.fork, traced);
            child = sys_->fork(parent_, ForkMode::OverlayOnWrite, now_, &t);
        }
        for (unsigned i = 0; i < kDirtyPages; ++i) {
            forEachLine(spec.written[i], [&](unsigned l) {
                Addr a = pageAddr(spec.page[i]) + l * kLineSize;
                std::uint64_t v = written(a);
                Span s(timers_.access, traced);
                t = sys_->write(child, a, &v, sizeof v, t);
            });
        }

        bool ok = true;
        for (unsigned i = 0; i < kDirtyPages; ++i) {
            Addr page = pageAddr(spec.page[i]);
            forEachLine(spec.written[i], [&](unsigned l) {
                Addr a = page + l * kLineSize;
                std::uint64_t got = 0;
                {
                    Span s(timers_.access, traced);
                    t = sys_->read(child, a, &got, sizeof got, t);
                }
                ok &= got == written(a);
                sys_->peek(parent_, a, &got, sizeof got);
                ok &= got == original(a);
            });
            forEachLine(spec.read[i], [&](unsigned l) {
                Addr a = page + l * kLineSize;
                std::uint64_t got = 0;
                {
                    Span s(timers_.access, traced);
                    t = sys_->read(child, a, &got, sizeof got, t);
                }
                ok &= got == original(a);
            });
            std::uint64_t want = spec.written[i] ^ (falsify && i == 0);
            ok &= sys_->pageObv(child, page).raw() == want;
            ok &= sys_->pageObv(parent_, page).raw() == 0;
        }
        {
            Span s(timers_.destroy, traced);
            sys_->destroyProcess(child, t);
        }
        now_ = t;
        accesses_ += kAccessesPerRow;
        ++row_;
        return ok;
    }

    void
    markSim() override
    {
        SystemWorkload::markSim();
        markRssKb_ = currentRssKb();
        markRow_ = row_;
    }

    /**
     * Defect of the simulator: it never reuses an ASID and never frees
     * what a destroyed child held (physical frames, OMT node pages), so
     * host memory and row cost grow with every fork. A run would then
     * measure how many rows it managed rather than their cost, so every
     * kEpochRows rows the machine is rebuilt as set-up built it, outside
     * the row timer. Rows and peak RSS still carry one epoch of the leak.
     */
    void
    betweenRows() override
    {
        if (row_ % kEpochRows == 0) {
            if (retainedKb_ < 0)
                retainedKb_ = retainedKbPerRow();
            buildMachine();
        }
    }

    /** Host memory growth per row over the first epoch of timed rows. */
    double
    retainedKbPerRow() const override
    {
        if (retainedKb_ >= 0)
            return retainedKb_;
        return row_ > markRow_ ? (currentRssKb() - markRssKb_) /
                                     double(row_ - markRow_)
                               : 0;
    }

    std::uint64_t simRows() const override { return 100; }

  private:
    struct RowSpec
    {
        std::array<std::uint32_t, kDirtyPages> page{};
        std::array<std::uint64_t, kDirtyPages> written{}; ///< line masks
        std::array<std::uint64_t, kDirtyPages> read{};
    };

    static Addr pageAddr(std::uint32_t page) { return kBase + page * kPageSize; }

    /** The parent's machine: mapped and written line by line. The old
     *  machine goes first, so one machine is alive at a time. */
    void
    buildMachine()
    {
        sys_.reset();
        sys_ = std::make_unique<System>();
        parent_ = sys_->createProcess();
        auto t0 = Clock::now();
        sys_->mapAnon(parent_, kBase, kPages * kPageSize);
        now_ = 0;
        for (std::uint64_t l = 0; l < kPages * kLinesPerPage; ++l) {
            std::uint64_t v = original(lineAddr(l));
            now_ = sys_->write(parent_, lineAddr(l), &v, sizeof v, now_);
        }
        vmSetupS_ = since(t0);
        sys_->quiesce();
        now_ = 0;
    }

    /** @p n distinct random lines of a page, avoiding @p taken. */
    static std::uint64_t
    randomLines(Rng &rng, unsigned n, std::uint64_t taken)
    {
        std::uint64_t mask = 0;
        while (unsigned(__builtin_popcountll(mask)) < n) {
            std::uint64_t bit = std::uint64_t(1) << rng.below(kLinesPerPage);
            if ((taken & bit) == 0)
                mask |= bit;
        }
        return mask;
    }

    /** Calls @p fn with each line set in @p mask, ascending. */
    template <typename Fn>
    static void
    forEachLine(std::uint64_t mask, Fn &&fn)
    {
        for (; mask != 0; mask &= mask - 1)
            fn(unsigned(__builtin_ctzll(mask)));
    }

    /** The parent's value of a line (even); a child writes odd values. */
    std::uint64_t original(Addr a) const { return mix(seed_ ^ a) & ~1ull; }
    std::uint64_t written(Addr a) const { return mix(row_ ^ a) | 1; }

    Asid parent_ = 0;
    std::vector<RowSpec> specs_;
    double markRssKb_ = 0;
    std::uint64_t markRow_ = 0;
    double retainedKb_ = -1; ///< set when the first epoch ends
};

// ----- sweep_warm -----------------------------------------------------

/**
 * A policy sweep shaped like a service request. Set-up warms one suite
 * benchmark of each write-working-set type once; each row is one request
 * that runs every (benchmark x fork mode x promote threshold) job from
 * the warm states on kWorkers parallelMap workers. Every row holds every
 * job class, so row latencies form one population, not a mix of classes.
 */
class SweepWarm : public Workload
{
  public:
    static constexpr std::array<const char *, 3> kBenches = {
        "libq", "cactus", "omnet"};
    static constexpr std::array<unsigned, 2> kThresholds = {kLinesPerPage,
                                                            16};
    /**
     * A twentieth of the 2M the repository's ablation sweeps run, so a
     * 9-job request stays short enough for a run to hold 200 of them;
     * the job's fixed part weighs more (workload.restore_share, README).
     */
    static constexpr std::uint64_t kPostForkInstructions = 100'000;
    static constexpr unsigned kWorkers = 2;
    /** Runs of the empty jobs; their median is the fixed part's time. */
    static constexpr int kEmptyReps = 5;

    explicit SweepWarm(std::uint64_t seed) : Workload(seed)
    {
        for (std::size_t b = 0; b < kBenches.size(); ++b) {
            // Copy-on-write never promotes, so it runs at one threshold.
            jobs_.push_back({b, ForkMode::CopyOnWrite, SystemConfig{}});
            for (unsigned threshold : kThresholds) {
                Job job{b, ForkMode::OverlayOnWrite, SystemConfig{}};
                job.config.promoteThresholdLines = threshold;
                jobs_.push_back(job);
            }
        }
        jobSeconds_.resize(jobs_.size());
    }

    void
    setUp() override
    {
        warm_.clear();
        auto t0 = Clock::now();
        for (std::size_t b = 0; b < kBenches.size(); ++b) {
            ForkBenchParams params = forkBenchByName(kBenches[b]);
            params.seed = mix(seed_ * kBenches.size() + b);
            params.postForkInstructions = kPostForkInstructions;
            stream_.add(params.seed);
            warm_.push_back(prepareForkBenchWarmState(params, SystemConfig{}));
        }
        warmPrepareS_ = since(t0);
    }

    /**
     * The first request: every later one must reproduce its results.
     * Also runs each job once with no post-fork instructions. The
     * restored core counts the warm-up's instructions too, so a job's
     * epoch is its instruction count less the empty job's; and the empty
     * job's host time is the job's fixed part (restore, fork, flush).
     */
    std::uint64_t
    warmUp() override
    {
        struct Out
        {
            ForkBenchResult res;
            std::string stats;
            double seconds = 0;
        };
        auto runAll = [&] {
            return parallelMap(
                jobs_.size(),
                [&](std::size_t j) {
                    std::ostringstream os;
                    Out o;
                    auto t0 = Clock::now();
                    o.res = runForkBenchFromWarmState(warm_[jobs_[j].bench],
                                                      jobs_[j].mode,
                                                      &jobs_[j].config, &os);
                    o.seconds = since(t0);
                    o.stats = os.str();
                    return o;
                },
                kWorkers);
        };
        auto outs = runAll();

        for (ForkBenchWarmState &w : warm_)
            w.params.postForkInstructions = 0;
        std::vector<std::vector<double>> emptyS(jobs_.size());
        std::vector<Out> empty;
        for (int rep = 0; rep < kEmptyReps; ++rep) {
            empty = runAll();
            for (std::size_t j = 0; j < jobs_.size(); ++j)
                emptyS[j].push_back(empty[j].seconds);
        }
        for (ForkBenchWarmState &w : warm_)
            w.params.postForkInstructions = kPostForkInstructions;
        restoreS_ = 0;
        for (std::vector<double> &v : emptyS) {
            std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
            restoreS_ += v[v.size() / 2] / double(jobs_.size());
        }

        Fingerprint f;
        reference_.clear();
        refJobs_.clear();
        refSim_ = {};
        for (std::size_t j = 0; j < jobs_.size(); ++j) {
            const ForkBenchResult &r = outs[j].res;
            const std::string core = warm_[jobs_[j].bench].params.name +
                                     ".core.instructions";
            JobFigures job;
            job.cpi = r.cpi;
            job.instructions = statValue(outs[j].stats, core) -
                               statValue(empty[j].stats, core);
            job.accesses = statValue(outs[j].stats,
                                     warm_[jobs_[j].bench].params.name +
                                         ".accesses");
            reference_.push_back(r);
            refJobs_.push_back(job);
            refSim_.ticks += r.cpi * double(job.instructions);
            refSim_.accesses += job.accesses;
            refSim_.cpi += r.cpi / double(jobs_.size());
            f.add(job.accesses);
            f.add(job.instructions);
            f.add(r.cowFaults);
            f.add(r.overlayingWrites);
            f.add(r.forkLatency);
        }
        return f.hash;
    }

    bool
    row(bool traced, bool falsify) override
    {
        std::vector<ForkBenchResult> results;
        {
            Span s(timers_.parallel, traced);
            results = parallelMap(
                jobs_.size(),
                [&](std::size_t j) {
                    CallTimer one;
                    ForkBenchResult r;
                    {
                        Span js(one, traced);
                        r = runForkBenchFromWarmState(warm_[jobs_[j].bench],
                                                      jobs_[j].mode,
                                                      &jobs_[j].config);
                    }
                    jobSeconds_[j] = one.seconds;
                    return r;
                },
                kWorkers);
        }
        if (traced)
            for (double s : jobSeconds_) {
                ++timers_.job.calls;
                timers_.job.seconds += s;
            }
        bool ok = true;
        for (std::size_t j = 0; j < jobs_.size(); ++j)
            ok &= same(results[j], reference_[j]);
        if (falsify)
            ok &= results[0].cpi == reference_[0].cpi + 1;
        accesses_ += refSim_.accesses;
        return ok;
    }

    std::uint64_t accesses() const override { return accesses_; }
    void markSim() override {}
    SimFigures simSinceMark() const override { return refSim_; }
    std::uint64_t simRows() const override { return 1; }
    std::size_t jobsPerRow() const override { return jobs_.size(); }
    unsigned workers() const override { return kWorkers; }

    /**
     * The statistics a sweep job produced, from its cold twin:
     * runForkBench on the same parameters and config yields a result
     * byte-identical to the warm-started job (checked here) and dumps
     * every component group, which the text dump of a warm-started job
     * does not. Throws when a twin disagrees with its warm job.
     */
    std::vector<std::string>
    statsJson() override
    {
        auto outs = parallelMap(
            jobs_.size(),
            [&](std::size_t j) {
                std::ostringstream os;
                ForkBenchResult r = runForkBench(
                    warm_[jobs_[j].bench].params, jobs_[j].mode,
                    jobs_[j].config, nullptr, nullptr, nullptr, &os);
                return same(r, reference_[j]) ? os.str() : std::string();
            },
            kWorkers);
        for (const std::string &s : outs)
            if (s.empty())
                throw std::runtime_error(
                    "cold-started sweep job differs from its warm start");
        return outs;
    }

    double restoreSecondsPerJob() const override { return restoreS_; }
    std::vector<JobFigures> jobFigures() const override { return refJobs_; }

    double
    snapshotBytesPerJob() const override
    {
        double bytes = 0;
        for (const Job &job : jobs_)
            bytes += double(warm_[job.bench].machine.size());
        return bytes / double(jobs_.size());
    }

  private:
    struct Job
    {
        std::size_t bench;
        ForkMode mode;
        SystemConfig config;
    };

    static bool
    same(const ForkBenchResult &a, const ForkBenchResult &b)
    {
        return a.cpi == b.cpi && a.cowFaults == b.cowFaults &&
               a.overlayingWrites == b.overlayingWrites &&
               a.forkLatency == b.forkLatency &&
               a.additionalMemoryMB == b.additionalMemoryMB;
    }

    /** Value of `name value # desc` in a text stats dump. */
    static std::uint64_t
    statValue(const std::string &dump, const std::string &name)
    {
        std::istringstream is(dump);
        std::string key;
        std::string rest;
        while (is >> key) {
            if (key == name) {
                std::uint64_t v = 0;
                is >> v;
                return v;
            }
            std::getline(is, rest);
        }
        throw std::runtime_error("stat " + name + " missing from dump");
    }

    std::vector<Job> jobs_;
    std::vector<ForkBenchWarmState> warm_;
    std::vector<ForkBenchResult> reference_;
    std::vector<JobFigures> refJobs_;
    SimFigures refSim_;
    double restoreS_ = 0;
    std::uint64_t accesses_ = 0;
    /** Host seconds of each job of the last traced request. */
    std::vector<double> jobSeconds_;
};

// ----- runner ---------------------------------------------------------

/**
 * Set-ups per run, each followed by an equal share of the timed rows on
 * the machine it built. Spread over the run, the set-ups meet the host in
 * as many states as the rows (run.py reports their median of means).
 */
constexpr int kSetUps = 12;
/** Rows a run makes at least, so that p90 has >= 10 rows beyond it. */
constexpr std::uint64_t kMinRows = 200;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Row whose check is deliberately falsified (self-test); -1 = none. */
    long long badRow = -1;
};

std::unique_ptr<Workload>
makeWorkload(const Options &opt)
{
    if (opt.workload == "random_rw")
        return std::make_unique<RandomRw>(opt.seed);
    if (opt.workload == "fork_overlay")
        return std::make_unique<ForkOverlay>(opt.seed);
    if (opt.workload == "sweep_warm")
        return std::make_unique<SweepWarm>(opt.seed);
    return nullptr;
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc) {
            std::cerr << "missing value for " << arg << "\n";
            std::exit(2);
        }
        std::string val = argv[++i];
        if (arg == "--workload")
            opt.workload = val;
        else if (arg == "--seed")
            opt.seed = std::stoull(val);
        else if (arg == "--seconds")
            opt.seconds = std::stod(val);
        else if (arg == "--trace")
            opt.trace = val == "1";
        else if (arg == "--bad-row")
            opt.badRow = std::stoll(val);
        else {
            std::cerr << "unknown argument " << arg << "\n";
            std::exit(2);
        }
    }
    return opt;
}

void
printList(std::ostream &os, const char *key, const std::vector<double> &v)
{
    os << "\"" << key << "\": [";
    for (std::size_t i = 0; i < v.size(); ++i)
        os << (i ? ", " : "") << v[i];
    os << "],\n";
}

void
printTimer(std::ostream &os, const char *key, const CallTimer &t)
{
    os << "\"" << key << "\": {\"calls\": " << t.calls
       << ", \"seconds\": " << t.seconds << "}";
}

int
run(const Options &opt)
{
    std::unique_ptr<Workload> w;
    std::vector<double> setupS, vmSetupS, warmPrepareS;
    std::vector<double> plainS, tracedS;
    std::uint64_t attempted = 0, failed = 0, accesses = 0, probe = 0;
    SimFigures sim;
    std::vector<std::string> stats;
    Timers timers;
    double retainedKb = 0;
    const std::uint64_t segRows = (kMinRows + kSetUps - 1) / kSetUps;
    std::uint64_t i = 0; // row index over the whole run
    for (int seg = 0; seg < kSetUps; ++seg) {
        // One machine alive at a time, and the last one's memory handed
        // back, so that peak RSS is one machine's and not the heap's.
        w.reset();
        malloc_trim(0);
        w = makeWorkload(opt);
        auto t0 = Clock::now();
        w->setUp();
        setupS.push_back(since(t0));
        vmSetupS.push_back(w->vmSetupSeconds());
        warmPrepareS.push_back(w->warmPrepareSeconds());
        std::uint64_t p = w->warmUp();
        if (seg > 0 && p != probe) {
            std::cerr << "simulated counts drift between set-ups of "
                      << opt.workload << "\n";
            return 3;
        }
        probe = p;

        std::uint64_t accesses0 = w->accesses();
        std::uint64_t minRows =
            seg == 0 ? std::max(segRows, w->simRows()) : segRows;
        w->markSim();
        auto start = Clock::now();
        for (std::uint64_t r = 0;; ++r, ++i) {
            bool traced = opt.trace && i % 2 == 1;
            auto t1 = Clock::now();
            bool ok = w->row(traced, (long long)i == opt.badRow);
            (traced ? tracedS : plainS).push_back(since(t1));
            ++attempted;
            failed += !ok;
            if (seg == 0 && r + 1 == w->simRows()) {
                sim = w->simSinceMark();
                if (opt.trace)
                    stats = w->statsJson();
            }
            if (r + 1 >= minRows && since(start) >= opt.seconds / kSetUps) {
                ++i;
                break;
            }
            w->betweenRows();
        }
        accesses += w->accesses() - accesses0;
        timers += w->timers();
        if (seg == 0)
            retainedKb = w->retainedKbPerRow();
    }

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);

    std::ostream &os = std::cout;
    os << std::setprecision(17) << "{\n";
    os << "\"workload\": \"" << opt.workload << "\",\n";
    os << "\"seed\": " << opt.seed << ",\n";
    os << "\"trace\": " << (opt.trace ? 1 : 0) << ",\n";
    os << "\"stream_fingerprint\": \"" << std::hex << w->fingerprint()
       << std::dec << "\",\n";
    printList(os, "setup_s", setupS);
    printList(os, "vm_setup_s", vmSetupS);
    printList(os, "warm_prepare_s", warmPrepareS);
    printList(os, "row_s", plainS);
    printList(os, "traced_row_s", tracedS);
    os << "\"rows_attempted\": " << attempted << ",\n";
    os << "\"rows_failed\": " << failed << ",\n";
    os << "\"accesses\": " << accesses << ",\n";
    os << "\"jobs_per_row\": " << w->jobsPerRow() << ",\n";
    os << "\"sim_ticks\": " << sim.ticks << ",\n";
    os << "\"sim_accesses\": " << sim.accesses << ",\n";
    os << "\"sim_cpi\": " << sim.cpi << ",\n";
    os << "\"peak_rss_kb\": " << ru.ru_maxrss << ",\n";
    os << "\"snapshot_bytes\": " << w->snapshotBytesPerJob() << ",\n";
    os << "\"workers\": " << w->workers() << ",\n";
    os << "\"restore_s\": " << w->restoreSecondsPerJob() << ",\n";
    os << "\"retained_kb_per_row\": " << retainedKb << ",\n";
    os << "\"jobs\": [";
    std::vector<JobFigures> jobs = w->jobFigures();
    for (std::size_t i = 0; i < jobs.size(); ++i)
        os << (i ? ", " : "") << "{\"cpi\": " << jobs[i].cpi
           << ", \"instructions\": " << jobs[i].instructions
           << ", \"accesses\": " << jobs[i].accesses << "}";
    os << "],\n";
    const Timers &t = timers;
    os << "\"timers\": {";
    printTimer(os, "access_batch", t.accessBatch);
    os << ", ";
    printTimer(os, "access", t.access);
    os << ", ";
    printTimer(os, "fork", t.fork);
    os << ", ";
    printTimer(os, "destroy", t.destroy);
    os << ", ";
    printTimer(os, "job", t.job);
    os << ", ";
    printTimer(os, "parallel", t.parallel);
    os << "},\n";
    os << "\"stats\": [";
    for (std::size_t i = 0; i < stats.size(); ++i)
        os << (i ? ",\n" : "\n") << stats[i];
    os << "]\n}\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        Options opt = parseArgs(argc, argv);
        if (!makeWorkload(opt)) {
            std::cerr << "unknown workload '" << opt.workload << "'\n";
            return 2;
        }
        return run(opt);
    } catch (const std::exception &e) {
        std::cerr << "perfbench_workloads: " << e.what() << "\n";
        return 3;
    }
}
