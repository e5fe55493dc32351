/**
 * @file
 * DDR3-1066 main-memory timing model (Table 2): one channel, one rank,
 * eight banks, 8 KB row buffer per bank, burst length 8 over an 8 B bus,
 * open-row policy, FR-FCFS-style controller with a 64-entry write buffer
 * that drains when full [34].
 *
 * The model sits on the full-hierarchy-miss path of every simulated
 * access, so the per-access work is precomputed to the bone: bank/row
 * decode is two shifts and a mask (the constructor caches the shift
 * amounts of the power-of-two geometry), the row-hit / row-closed /
 * row-conflict classification indexes precomputed CPU-tick latency and
 * counter tables instead of re-deriving DRAM-clock sums, and access()
 * plus the controller fast paths are defined inline at the bottom of
 * this header so the miss cascade compiles into straight-line code.
 */

#ifndef OVERLAYSIM_DRAM_DRAM_HH
#define OVERLAYSIM_DRAM_DRAM_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "sim/profile.hh"
#include "sim/sim_object.hh"
#include "sim/trace.hh"

namespace ovl
{

/**
 * DDR3-1066 timing parameters expressed in DRAM command clocks, plus the
 * CPU-clock multiplier. Defaults correspond to DDR3-1066 CL7 parts
 * (JESD79-3F [28]) driven by a 2.67 GHz core: 2666 MHz / 533 MHz = 5 CPU
 * cycles per DRAM clock.
 */
struct DramTimingParams
{
    unsigned cpuCyclesPerDramClock = 5;

    unsigned tCL = 7;   ///< CAS latency (clocks)
    unsigned tRCD = 7;  ///< RAS-to-CAS delay
    unsigned tRP = 7;   ///< Row precharge
    unsigned tRAS = 20; ///< Row active time (min open duration)
    unsigned tWR = 8;   ///< Write recovery
    unsigned burstLength = 8; ///< Beats per access; 8 beats x 8 B bus = 64 B

    unsigned numBanks = 8;
    Addr rowBufferBytes = 8 * 1024;

    /** Fixed controller decode/queue overhead per request (CPU cycles). */
    Tick controllerOverhead = 10;

    /** Data-transfer clocks for one 64 B line: BL / 2 (double data rate). */
    unsigned burstClocks() const { return burstLength / 2; }

    Tick toCpu(unsigned dram_clocks) const
    {
        return Tick(dram_clocks) * cpuCyclesPerDramClock;
    }
};

/**
 * Per-bank state and row-buffer timing. Access categories follow the
 * standard taxonomy: row hit (open row matches), row closed (bank idle,
 * activate needed), row conflict (different row open: precharge then
 * activate).
 */
class DramModel : public SimObject
{
  public:
    DramModel(std::string name, DramTimingParams params);

    /**
     * Perform one 64 B access.
     *
     * @param line_addr physical (or overlay-store) address of the line.
     * @param is_write true for a write burst.
     * @param when earliest CPU cycle the command can issue.
     * @return the CPU cycle at which the burst completes.
     */
    Tick access(Addr line_addr, bool is_write, Tick when);

    /**
     * Issue @p n buffered writes at drain start @p start and return the
     * completion of the last burst — the batched body of a write-buffer
     * drain. Tick-for-tick and counter-for-counter identical to calling
     * access(addr, true, start) per entry and folding the max, but with
     * the statistics accumulated in registers and added once; callers
     * with an active trace sink use the per-entry path instead so each
     * write still emits its own row event.
     */
    Tick drainBatch(const Addr *addrs, std::size_t n, Tick start);

    /** Latency-only convenience: completion minus request time. */
    Tick
    accessLatency(Addr line_addr, bool is_write, Tick when)
    {
        return access(line_addr, is_write, when) - when;
    }

    const DramTimingParams &params() const { return params_; }

    /**
     * Forget in-flight timing state (banks/bus become idle). Used when an
     * experiment phase boundary lets the machine go quiescent and the
     * clock restarts from zero. Open-row state is kept.
     */
    void resetTiming();

    /** Bank index of a line address (interleaved below the row bits). */
    unsigned
    bankOf(Addr line_addr) const
    {
        // Interleave banks on the bits just above the row-buffer column
        // bits so sequential streams spread across banks row by row.
        return unsigned((line_addr >> kLineShift) >> bankShift_) & bankMask_;
    }

    /** Row index of a line address within its bank. */
    Addr
    rowOf(Addr line_addr) const
    {
        return (line_addr >> kLineShift) >> rowShift_;
    }

    std::uint64_t rowHits() const { return rowHits_.value(); }
    std::uint64_t rowClosed() const { return rowClosed_.value(); }
    std::uint64_t rowConflicts() const { return rowConflicts_.value(); }

    /** Snapshot bank open-row/timing state and the bus cursor. */
    template <typename Ar> void transfer(Ar &ar);

  private:
    struct Bank
    {
        Addr openRow = kInvalidAddr;
        Tick readyAt = 0;       ///< earliest next command issue time
        Tick activatedAt = 0;   ///< for tRAS enforcement
    };

    /** Row outcome of one access; doubles as an index into the
     *  latency/counter/trace-name tables. */
    enum RowOutcome : unsigned
    {
        kRowHit = 0,
        kRowActivate = 1,
        kRowConflict = 2,
    };

    /**
     * The classification + bank/bus timing update shared by access()
     * and drainBatch(). Advances @p bank and busReadyAt_, returns the
     * burst completion time and reports the outcome for the caller's
     * statistics/trace handling.
     */
    Tick timeAccess(Bank &bank, Addr row, bool is_write, Tick when,
                    RowOutcome &outcome, Tick &start);

    DramTimingParams params_;
    std::vector<Bank> banks_;
    Tick busReadyAt_ = 0;

    // ----- decode/latency constants (derived from params_ once) -------
    unsigned bankShift_ = 0; ///< log2(row-buffer lines): line -> bank bits
    unsigned rowShift_ = 0;  ///< bankShift_ + log2(numBanks): line -> row
    unsigned bankMask_ = 0;  ///< numBanks - 1
    /** Column-access latency per outcome, CPU ticks (incl. burst). */
    Tick outcomeLatency_[3] = {0, 0, 0};
    Tick burstTicks_ = 0; ///< toCpu(burstClocks())
    Tick wrTicks_ = 0;    ///< toCpu(tWR)
    Tick rasTicks_ = 0;   ///< toCpu(tRAS)
    Tick rpTicks_ = 0;    ///< toCpu(tRP)

    stats::Counter reads_;
    stats::Counter writes_;
    stats::Counter rowHits_;
    stats::Counter rowClosed_;
    stats::Counter rowConflicts_;
    /** Outcome-indexed views of the three row counters. */
    stats::Counter *outcomeCounter_[3];
};

/**
 * The write-buffer + scheduling front end of the memory controller
 * (Table 2: "FR-FCFS drain when full, 64-entry write buffer"). Reads are
 * serviced immediately unless a drain is in progress; writebacks are
 * absorbed into the buffer and streamed to DRAM when it fills.
 */
class DramController : public SimObject
{
  public:
    DramController(std::string name, DramTimingParams params,
                   unsigned write_buffer_entries = 64);

    /** Read one line; returns completion time. Inline: this is the
     *  full-hierarchy-miss path of every regular-space access. */
    Tick read(Addr line_addr, Tick when);

    /**
     * Accept a writeback. Returns the (small) acceptance latency; the
     * actual DRAM write happens during a later drain.
     */
    Tick enqueueWrite(Addr line_addr, Tick when);

    /** Force all buffered writes to DRAM (checkpoint flushes use this). */
    Tick drainWrites(Tick when);

    /** Drain pending writes and reset all timing state (phase boundary). */
    void resetTiming();

    DramModel &dram() { return dram_; }

    unsigned writeBufferOccupancy() const { return unsigned(writeBuffer_.size()); }
    std::uint64_t drains() const { return drains_.value(); }

    /** Snapshot the write buffer, drain state and the DRAM model. */
    template <typename Ar> void transfer(Ar &ar);

  private:
    DramModel dram_;
    unsigned writeBufferEntries_;
    std::vector<Addr> writeBuffer_;
    Tick drainBusyUntil_ = 0;

    stats::Counter readRequests_;
    stats::Counter writeRequests_;
    stats::Counter drains_;
    stats::Counter readDrainStallCycles_;
    stats::Histogram readLatency_;
};

// ------------------------ inline hot path ------------------------------

inline Tick
DramModel::timeAccess(Bank &bank, Addr row, bool is_write, Tick when,
                      RowOutcome &outcome, Tick &start)
{
    start = std::max(when, bank.readyAt);

    // Branch-lean classification: hit/activate resolve to a table index
    // without control flow; only the conflict case (precharge + tRAS
    // enforcement) takes a branch, because it alone re-derives start.
    outcome = bank.openRow == row
                  ? kRowHit
                  : (bank.openRow == kInvalidAddr ? kRowActivate
                                                  : kRowConflict);
    Tick access_lat = outcomeLatency_[outcome];
    if (outcome != kRowHit) {
        if (outcome == kRowConflict) {
            // Precharge may not cut the previous activation shorter
            // than tRAS.
            start = std::max(start, bank.activatedAt + rasTicks_);
            bank.activatedAt = start + rpTicks_;
        } else {
            bank.activatedAt = start;
        }
    }
    bank.openRow = row;

    // Serialize bursts on the shared data bus.
    Tick data_start = std::max(start + access_lat - burstTicks_,
                               busReadyAt_);
    Tick done = data_start + burstTicks_;
    busReadyAt_ = done;

    // The bank can accept a new column command after the burst; writes
    // add write-recovery time before a precharge/activate could follow.
    bank.readyAt = done + (is_write ? wrTicks_ : 0);
    return done;
}

inline Tick
DramModel::access(Addr line_addr, bool is_write, Tick when)
{
    Addr line = line_addr >> kLineShift;
    unsigned bank_idx = unsigned(line >> bankShift_) & bankMask_;
    Addr row = line >> rowShift_;

    RowOutcome outcome;
    Tick start;
    Tick done = timeAccess(banks_[bank_idx], row, is_write, when, outcome,
                           start);

    ++*outcomeCounter_[outcome];
    if (is_write)
        ++writes_;
    else
        ++reads_;
    if (trace::active()) {
        static constexpr const char *kOutcomeNames[3] = {
            "row_hit", "row_activate", "row_conflict"};
        trace::complete("dram", kOutcomeNames[outcome], start, done - start,
                        {{"bank", bank_idx},
                         {"row", row},
                         {"write", is_write ? 1u : 0u}});
    }
    return done;
}

inline Tick
DramModel::drainBatch(const Addr *addrs, std::size_t n, Tick start)
{
    // Statistics accumulate in registers and post once: nothing can
    // observe the counters mid-drain (stats are only read between
    // accesses), so the deferral is invisible.
    std::uint64_t outcomes[3] = {0, 0, 0};
    Tick done = start;
    for (std::size_t i = 0; i < n; ++i) {
        Addr line = addrs[i] >> kLineShift;
        RowOutcome outcome;
        Tick cmd_start;
        Tick wr_done = timeAccess(banks_[unsigned(line >> bankShift_) &
                                         bankMask_],
                                  line >> rowShift_, true, start, outcome,
                                  cmd_start);
        done = std::max(done, wr_done);
        ++outcomes[outcome];
    }
    rowHits_ += outcomes[kRowHit];
    rowClosed_ += outcomes[kRowActivate];
    rowConflicts_ += outcomes[kRowConflict];
    writes_ += n;
    return done;
}

inline Tick
DramController::read(Addr line_addr, Tick when)
{
    ++readRequests_;
    OVL_PROF_SCOPE(Dram);
    Tick start = when + dram_.params().controllerOverhead;
    if (drainBusyUntil_ > start) {
        readDrainStallCycles_ += drainBusyUntil_ - start;
        start = drainBusyUntil_;
    }
    Tick done = dram_.access(line_addr, false, start);
    readLatency_.sample(done - when);
    return done;
}

inline Tick
DramController::enqueueWrite(Addr line_addr, Tick when)
{
    ++writeRequests_;
    OVL_PROF_SCOPE(Dram);
    writeBuffer_.push_back(line_addr);
    Tick accept = when + dram_.params().controllerOverhead;
    if (writeBuffer_.size() >= writeBufferEntries_)
        drainWrites(accept);
    return accept;
}

} // namespace ovl

#endif // OVERLAYSIM_DRAM_DRAM_HH
