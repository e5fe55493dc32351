#include "ooo_core.hh"

#include <algorithm>

#include "common/logging.hh"
#include "sim/snapshot.hh"

namespace ovl
{

OooCore::OooCore(std::string name, System &system, unsigned core)
    : SimObject(std::move(name)), system_(system), core_(core),
      windowSize_(system.config().instructionWindow),
      issueWidth_(system.config().issueWidth),
      instructions_(&statGroup(), "instructions", "instructions executed"),
      loads_(&statGroup(), "loads", "load instructions"),
      stores_(&statGroup(), "stores", "store instructions"),
      faults_(&statGroup(), "faults", "pipeline-flushing page faults"),
      windowStallCycles_(&statGroup(), "windowStallCycles",
                         "cycles issue stalled on a full window"),
      loadLatency_(&statGroup(), "loadLatency",
                   "load completion latency (cycles)", 25, 40)
{
    ovl_assert(windowSize_ > 0, "instruction window must be non-empty");
}

void
OooCore::consumeIssueSlot()
{
    if (++slotsThisCycle_ >= issueWidth_) {
        slotsThisCycle_ = 0;
        ++issueCycle_;
    }
}

void
OooCore::beginEpoch(Tick start)
{
    window_.clear();
    slotsThisCycle_ = 0;
    issueCycle_ = start;
    lastCompletion_ = start;
    maxCompletion_ = start;
    epochStart_ = start;
    epochInstructions_ = 0;
    epochCycles_ = 0;
}

Tick
OooCore::reserveSlot(Tick ready)
{
    Tick issue = std::max(issueCycle_, ready);
    if (window_.size() >= windowSize_) {
        // In-order retirement: the oldest instruction must complete
        // before a new one can enter the window.
        Tick oldest_done = window_.front();
        window_.pop_front();
        if (oldest_done > issue) {
            windowStallCycles_ += oldest_done - issue;
            issue = oldest_done;
        }
    }
    return issue;
}

void
OooCore::executeOp(Asid asid, const TraceOp &op)
{
    switch (op.kind) {
      case TraceOp::Kind::Compute: {
        // `count` independent single-cycle instructions. They complete
        // one cycle after issue, so they can never clog the window;
        // advancing the issue cursor models their occupancy exactly.
        Tick issue = issueCycle_;
        if (op.dependsOnPrev)
            issue = std::max(issue, lastCompletion_);
        issueCycle_ = issue + (op.count + slotsThisCycle_) / issueWidth_;
        slotsThisCycle_ = (op.count + slotsThisCycle_) % issueWidth_;
        lastCompletion_ = issueCycle_;
        maxCompletion_ = std::max(maxCompletion_, issueCycle_);
        epochInstructions_ += op.count;
        instructions_ += op.count;
        break;
      }
      case TraceOp::Kind::Load:
      case TraceOp::Kind::Store: {
        Tick ready = op.dependsOnPrev ? lastCompletion_ : 0;
        Tick issue = reserveSlot(ready);
        bool is_write = op.kind == TraceOp::Kind::Store;
        AccessOutcome outcome;
        Tick done = system_.access(asid, op.vaddr, is_write, issue,
                                   &outcome, core_);
        if (outcome.cowFault) {
            // A page fault is a precise exception: the pipeline drains,
            // the OS handler runs, and issue restarts afterwards. (The
            // overlaying write needs none of this — it is handled in
            // hardware without faulting, §4.3.3.)
            ++faults_;
            window_.clear();
            slotsThisCycle_ = 0;
            issueCycle_ = done;
            lastCompletion_ = done;
        } else {
            window_.push_back(done);
            lastCompletion_ = done;
            if (issue > issueCycle_) {
                issueCycle_ = issue;
                slotsThisCycle_ = 0;
            }
            consumeIssueSlot();
        }
        maxCompletion_ = std::max(maxCompletion_, done);
        ++epochInstructions_;
        ++instructions_;
        if (is_write) {
            ++stores_;
        } else {
            ++loads_;
            loadLatency_.sample(done - issue);
        }
        break;
      }
    }
}

Tick
OooCore::finishEpoch()
{
    Tick finish = std::max(issueCycle_, maxCompletion_);
    epochCycles_ = finish - epochStart_;
    window_.clear();
    return finish;
}

Tick
OooCore::run(Asid asid, const Trace &trace, Tick start)
{
    beginEpoch(start);
    for (const TraceOp &op : trace)
        executeOp(asid, op);
    return finishEpoch();
}

template <typename Ar>
void
OooCore::transfer(Ar &ar)
{
    ar.section("CORE");
    ar.size(window_, 8);
    ar.check(window_.size() <= windowSize_, [&] {
        return "core window occupancy " + std::to_string(window_.size()) +
               " exceeds configured window of " +
               std::to_string(windowSize_);
    });
    for (Tick &done : window_)
        ar.field(done);
    ar.field(slotsThisCycle_);
    ar.field(issueCycle_);
    ar.field(lastCompletion_);
    ar.field(maxCompletion_);
    ar.field(epochStart_);
    ar.field(epochCycles_);
    ar.field(epochInstructions_);
    statGroup().transfer(ar);
    ar.endSection();
}

OVL_SNAPSHOT_INSTANTIATE(OooCore);

} // namespace ovl
