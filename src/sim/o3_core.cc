#include "sim/o3_core.hh"

#include <algorithm>
#include <deque>
#include <optional>
#include <queue>
#include <utility>

#include "common/logging.hh"
#include "memory/timing_memory.hh"

namespace concorde
{

/**
 * Internal simulator plumbing shared by the fast engine and SimScratch.
 * Named (not anonymous) so SimScratch::Impl -- an externally visible type
 * -- may hold these as members without internal-linkage subobjects.
 */
namespace simdetail
{

/** Frontend refill penalty after a branch redirect (cycles). */
constexpr uint64_t kRedirectPenalty = 6;
/** Decode-to-rename pipeline latency. */
constexpr uint64_t kDecodeLat = 1;
/** Capacity of the decode and rename queues. */
constexpr size_t kDecodeQCap = 48;
constexpr size_t kRenameQCap = 32;
/** Store-to-load forwarding latency. */
constexpr uint64_t kForwardLat = 1;
/** Runaway guard: no region should take this many cycles per instruction. */
constexpr uint64_t kMaxCpi = 2000;

constexpr uint64_t kNever = ~0ULL;

/** A run of consecutive instructions sharing one I-cache line. */
struct LineRun
{
    uint32_t begin;
    uint32_t end;       // exclusive
    uint64_t line;
};

/** A fetch buffer holding a requested line run. */
struct ActiveRun
{
    uint32_t runIdx;
    uint64_t ready;
};

/**
 * Fixed-capacity ring buffer over a reused backing vector. Capacity is
 * enforced by the engine's own occupancy guards (queue caps, ROB size,
 * fetch buffers), so push never checks; the backing store only ever
 * grows, and reset() is O(1).
 */
template <typename T>
class RingBuf
{
  public:
    void
    reset(size_t cap)
    {
        if (buf.size() < cap)
            buf.resize(cap);
        head = 0;
        count = 0;
    }

    bool empty() const { return count == 0; }
    size_t size() const { return count; }
    const T &front() const { return buf[head]; }
    const T &back() const { return buf[wrap(head + count - 1)]; }
    void push_back(const T &v) { buf[wrap(head + count)] = v; ++count; }

    void
    pop_front()
    {
        head = wrap(head + 1);
        --count;
    }

    void pop_back() { --count; }

  private:
    size_t
    wrap(size_t i) const
    {
        // Occupancy never exceeds buf.size(), so one conditional subtract
        // replaces a modulo.
        return i >= buf.size() ? i - buf.size() : i;
    }

    std::vector<T> buf;
    size_t head = 0;
    size_t count = 0;
};

/**
 * Min-heap over a reused vector. std::priority_queue is specified in
 * terms of push_heap/pop_heap, so the pop/push order here is identical
 * to std::priority_queue<T, std::vector<T>, std::greater<T>> -- only the
 * backing allocation is reused across runs.
 */
template <typename T>
class MinHeap
{
  public:
    void clear() { v.clear(); }
    bool empty() const { return v.empty(); }
    size_t size() const { return v.size(); }
    const T &top() const { return v.front(); }

    void
    push(const T &x)
    {
        v.push_back(x);
        std::push_heap(v.begin(), v.end(), std::greater<T>());
    }

    void
    pop()
    {
        std::pop_heap(v.begin(), v.end(), std::greater<T>());
        v.pop_back();
    }

  private:
    std::vector<T> v;
};

} // namespace simdetail

/**
 * The fast engine's entire working set: per-instruction arrays, wakeup
 * edges, frontend geometry, rings, heaps, staging buffers for the
 * rebased trace, and the timing memory itself (reset in place between
 * runs). Every container is resized/assigned at run start and reused,
 * so a warm scratch makes a simulation allocation-free.
 */
struct SimScratch::Impl
{
    // Staging for simulateTrace's warmup+region rebase (the cached-trace
    // entry points bypass these entirely).
    TraceColumns stagedAll;
    std::vector<uint8_t> stagedFlags;

    // Per-instruction dynamic state.
    std::vector<uint64_t> readyCycle;
    std::vector<uint8_t> finished;
    std::vector<uint8_t> committedFlag;
    std::vector<int8_t> depCount;
    std::vector<int32_t> waiterHead;
    std::vector<int32_t> edgeWaiter;
    std::vector<int32_t> edgeNext;
    std::vector<uint8_t> dispatched;
    std::vector<uint64_t> dispatchCycle;

    // Frontend geometry.
    std::vector<simdetail::LineRun> runs;
    std::vector<uint32_t> runOf;
    std::vector<uint32_t> horizonEvents;

    // Queues and heaps.
    simdetail::RingBuf<simdetail::ActiveRun> activeRuns;
    simdetail::RingBuf<std::pair<uint64_t, uint32_t>> decodeQ;
    simdetail::RingBuf<std::pair<uint64_t, uint32_t>> renameQ;
    simdetail::RingBuf<uint32_t> rob;
    simdetail::MinHeap<uint64_t> fillHeap;
    simdetail::MinHeap<uint32_t> readyAlu;
    simdetail::MinHeap<uint32_t> readyFp;
    simdetail::MinHeap<uint32_t> readyLs;
    std::vector<uint32_t> deferred;
    simdetail::MinHeap<std::pair<uint64_t, uint32_t>> events;

    /** Constructed on first run, reset in place on every later run. */
    std::optional<TimingMemory> mem;
};

SimScratch::SimScratch() : impl(std::make_unique<Impl>()) {}
SimScratch::~SimScratch() = default;

namespace
{

using namespace simdetail;

/**
 * The original reference engine, kept verbatim: every container is
 * freshly constructed per call. Bitwise oracle for FastEngine.
 */
struct Engine
{
    const UarchParams &p;
    const std::vector<Instruction> &instrs;   // warmup + region
    const std::vector<uint8_t> &mispredict;   // aligned with instrs
    const size_t warmupCount;

    TimingMemory mem;

    // ---- per-instruction dynamic state ----
    std::vector<uint64_t> readyCycle;   // kNever until finished
    std::vector<uint8_t> finished;
    std::vector<uint8_t> committedFlag;
    std::vector<int8_t> depCount;
    std::vector<uint64_t> issuedAt;

    // Wakeup edges: per producer, an intrusive chain of waiting consumers.
    std::vector<int32_t> waiterHead;    // producer -> first edge (-1)
    std::vector<int32_t> edgeWaiter;    // edge -> consumer index
    std::vector<int32_t> edgeNext;      // edge -> next edge
    int32_t edgeCount = 0;

    // ---- frontend ----
    std::vector<LineRun> runs;
    std::vector<uint32_t> runOf;        // instruction -> run index
    std::vector<uint32_t> horizonEvents; // mispredicted branches and ISBs
    size_t horizonPtr = 0;

    std::deque<ActiveRun> activeRuns;   // fetch buffers in flight
    uint32_t nextRunToRequest = 0;
    std::priority_queue<uint64_t, std::vector<uint64_t>,
                        std::greater<uint64_t>> fillHeap;

    uint32_t deliverPtr = 0;            // next instruction to fetch-deliver
    int64_t blockedBranch = -1;         // mispredicted branch awaiting exec
    uint64_t branchResumeCycle = kNever;
    int64_t blockedIsb = -1;            // ISB awaiting commit

    std::deque<std::pair<uint64_t, uint32_t>> decodeQ; // (readyAt, idx)
    std::deque<std::pair<uint64_t, uint32_t>> renameQ;

    // ---- backend ----
    std::deque<uint32_t> rob;           // dispatched, not committed
    uint32_t lqOcc = 0;
    uint32_t sqOcc = 0;

    // Age-ordered ready queues per issue class.
    using ReadyQ = std::priority_queue<uint32_t, std::vector<uint32_t>,
                                       std::greater<uint32_t>>;
    ReadyQ readyAlu, readyFp, readyLs;

    std::vector<uint8_t> dispatched;
    std::vector<uint64_t> dispatchCycle;

    // Completion events (cycle, instruction).
    using Event = std::pair<uint64_t, uint32_t>;
    std::priority_queue<Event, std::vector<Event>, std::greater<Event>>
        events;

    uint32_t committed = 0;
    uint64_t cycle = 0;
    int windowK = 0;

    // ---- statistics ----
    bool inRegion = false;              // all warmup committed
    uint64_t regionStartCycle = 0;
    uint64_t occSamples = 0;
    uint64_t robOccSum = 0;
    uint64_t renameOccSum = 0;
    uint64_t lqOccSum = 0;
    SimResult result;

    Engine(const UarchParams &params,
           const std::vector<Instruction> &all,
           const std::vector<uint8_t> &flags, size_t warmup_count)
        : p(params), instrs(all), mispredict(flags),
          warmupCount(warmup_count), mem(params.memory)
    {
        const size_t n = instrs.size();
        readyCycle.assign(n, kNever);
        finished.assign(n, 0);
        committedFlag.assign(n, 0);
        depCount.assign(n, 0);
        issuedAt.assign(n, 0);
        waiterHead.assign(n, -1);
        edgeWaiter.resize((kMaxSrcDeps + 1) * n);
        edgeNext.resize((kMaxSrcDeps + 1) * n);
        dispatched.assign(n, 0);
        dispatchCycle.assign(n, 0);
        buildRuns();
        buildHorizon();
        if (warmupCount == 0) {
            inRegion = true;
            regionStartCycle = 0;
        }
    }

    void
    buildRuns()
    {
        runOf.resize(instrs.size());
        uint64_t cur_line = ~0ULL;
        for (uint32_t i = 0; i < instrs.size(); ++i) {
            const uint64_t line = instrs[i].instLine();
            if (line != cur_line) {
                runs.push_back({i, i + 1, line});
                cur_line = line;
            } else {
                runs.back().end = i + 1;
            }
            runOf[i] = static_cast<uint32_t>(runs.size() - 1);
        }
    }

    void
    buildHorizon()
    {
        for (uint32_t i = 0; i < instrs.size(); ++i) {
            if (mispredict[i] || instrs[i].isIsb())
                horizonEvents.push_back(i);
        }
    }

    /** Highest instruction index fetch may request lines for (inclusive). */
    uint32_t
    fetchHorizon()
    {
        while (horizonPtr < horizonEvents.size()
               && horizonEvents[horizonPtr] < deliverPtr) {
            ++horizonPtr;
        }
        // Unresolved control event: cannot fetch past it. The event's own
        // run is allowed.
        if (horizonPtr < horizonEvents.size()) {
            const uint32_t ev = horizonEvents[horizonPtr];
            if (ev < instrs.size() && !resolvedControl(ev))
                return ev;
        }
        return static_cast<uint32_t>(instrs.size() - 1);
    }

    bool
    resolvedControl(uint32_t i)
    {
        if (instrs[i].isIsb())
            return committedFlag[i];
        return finished[i];
    }

    size_t
    outstandingFills()
    {
        while (!fillHeap.empty() && fillHeap.top() <= cycle)
            fillHeap.pop();
        return fillHeap.size();
    }

    // ------------------------------------------------------------------
    // Pipeline stages (called newest-to-oldest each cycle).
    // ------------------------------------------------------------------

    bool
    commitStage()
    {
        bool any = false;
        for (int w = 0; w < p.commitWidth && !rob.empty(); ++w) {
            const uint32_t head = rob.front();
            if (!finished[head] || readyCycle[head] > cycle)
                break;
            rob.pop_front();
            committedFlag[head] = 1;
            ++committed;
            any = true;
            const Instruction &instr = instrs[head];
            if (instr.isLoad()) {
                --lqOcc;
            } else if (instr.isStore()) {
                --sqOcc;
                mem.store(instr.pc, instr.memAddr, cycle);
            }
            if (!inRegion && committed == warmupCount) {
                inRegion = true;
                regionStartCycle = cycle;
            }
            if (windowK > 0 && committed > warmupCount
                && (committed - warmupCount)
                    % static_cast<uint32_t>(windowK) == 0) {
                result.windowCommitCycles.push_back(
                    cycle - regionStartCycle);
            }
        }
        return any;
    }

    bool
    writebackStage()
    {
        bool any = false;
        while (!events.empty() && events.top().first <= cycle) {
            const uint32_t i = events.top().second;
            events.pop();
            finished[i] = 1;
            any = true;
            // Wake waiters.
            for (int32_t e = waiterHead[i]; e >= 0; e = edgeNext[e]) {
                const int32_t w = edgeWaiter[e];
                if (--depCount[w] == 0 && dispatched[w])
                    pushReady(static_cast<uint32_t>(w));
            }
            waiterHead[i] = -1;
        }
        return any;
    }

    void
    pushReady(uint32_t i)
    {
        switch (issueClassOf(instrs[i].type)) {
          case IssueClass::Alu: readyAlu.push(i); break;
          case IssueClass::Fp: readyFp.push(i); break;
          case IssueClass::LoadStore: readyLs.push(i); break;
        }
    }

    void
    execute(uint32_t i)
    {
        const Instruction &instr = instrs[i];
        issuedAt[i] = cycle;
        uint64_t done;
        if (instr.isLoad()) {
            if (instr.memDep >= 0 && !committedFlag[instr.memDep]) {
                // Store-to-load forwarding from the store buffer.
                done = cycle + kForwardLat;
            } else {
                done = mem.load(instr.pc, instr.memAddr, cycle).readyCycle;
            }
            if (inRegion) {
                result.actualLoadLatencySum += done - cycle;
                ++result.loadCount;
            }
        } else {
            done = cycle + static_cast<uint64_t>(fixedLatency(instr.type));
        }
        readyCycle[i] = done;
        if (done <= cycle) {
            finished[i] = 1;
        } else {
            events.emplace(done, i);
        }
    }

    bool
    issueStage()
    {
        bool any = false;
        auto drain = [&](ReadyQ &q, int width) {
            int issued = 0;
            while (issued < width && !q.empty()) {
                const uint32_t i = q.top();
                if (dispatchCycle[i] >= cycle)
                    break;      // dispatched this cycle; issue next cycle
                q.pop();
                execute(i);
                ++issued;
                any = true;
            }
            return issued;
        };

        drain(readyAlu, p.aluWidth);
        drain(readyFp, p.fpWidth);

        // Load-store class: issue width plus pipe constraints. Stores may
        // only use load-store pipes; loads prefer load pipes.
        {
            int issued = 0;
            int ls_pipes_used = 0;
            int load_pipes_used = 0;
            std::vector<uint32_t> deferred;
            while (issued < p.lsWidth && !readyLs.empty()) {
                const uint32_t i = readyLs.top();
                if (dispatchCycle[i] >= cycle)
                    break;
                const bool is_store = instrs[i].isStore();
                bool can_issue;
                if (is_store) {
                    can_issue = ls_pipes_used < p.lsPipes;
                } else {
                    can_issue = load_pipes_used < p.loadPipes
                        || ls_pipes_used < p.lsPipes;
                }
                if (!can_issue) {
                    // Pipe-starved; skip this op and look for one of the
                    // other kind (out-of-order selection).
                    deferred.push_back(i);
                    readyLs.pop();
                    continue;
                }
                readyLs.pop();
                if (is_store) {
                    ++ls_pipes_used;
                } else if (load_pipes_used < p.loadPipes) {
                    ++load_pipes_used;
                } else {
                    ++ls_pipes_used;
                }
                execute(i);
                ++issued;
                any = true;
            }
            for (uint32_t i : deferred)
                readyLs.push(i);
        }
        return any;
    }

    bool
    renameStage()
    {
        bool any = false;
        for (int w = 0; w < p.renameWidth && !renameQ.empty(); ++w) {
            const auto [ready_at, i] = renameQ.front();
            if (ready_at > cycle)
                break;
            const Instruction &instr = instrs[i];
            if (rob.size() >= static_cast<size_t>(p.robSize))
                break;
            if (instr.isLoad() && lqOcc >= static_cast<uint32_t>(p.lqSize))
                break;
            if (instr.isStore() && sqOcc >= static_cast<uint32_t>(p.sqSize))
                break;
            renameQ.pop_front();
            rob.push_back(i);
            if (instr.isLoad())
                ++lqOcc;
            if (instr.isStore())
                ++sqOcc;
            dispatched[i] = 1;
            dispatchCycle[i] = cycle;

            // Register dependency edges for unfinished producers.
            int deps = 0;
            auto add_dep = [&](int32_t d) {
                if (d >= 0 && !finished[d]) {
                    edgeWaiter[edgeCount] = static_cast<int32_t>(i);
                    edgeNext[edgeCount] = waiterHead[d];
                    waiterHead[d] = edgeCount;
                    ++edgeCount;
                    ++deps;
                }
            };
            for (int s = 0; s < kMaxSrcDeps; ++s)
                add_dep(instr.srcDeps[s]);
            if (instr.memDep >= 0)
                add_dep(instr.memDep);
            depCount[i] = static_cast<int8_t>(deps);
            if (deps == 0)
                pushReady(i);
            any = true;
        }
        return any;
    }

    bool
    decodeStage()
    {
        bool any = false;
        for (int w = 0; w < p.decodeWidth && !decodeQ.empty(); ++w) {
            const auto [fetched_at, i] = decodeQ.front();
            if (fetched_at > cycle || renameQ.size() >= kRenameQCap)
                break;
            decodeQ.pop_front();
            renameQ.emplace_back(cycle + kDecodeLat, i);
            any = true;
        }
        return any;
    }

    bool
    fetchStage()
    {
        bool any = false;

        // Resolve frontend blocks.
        if (blockedBranch >= 0) {
            if (branchResumeCycle == kNever && finished[blockedBranch]) {
                branchResumeCycle =
                    std::max(readyCycle[blockedBranch] + kRedirectPenalty,
                             cycle);
            }
            if (branchResumeCycle != kNever && cycle >= branchResumeCycle) {
                blockedBranch = -1;
                branchResumeCycle = kNever;
            }
        }
        if (blockedIsb >= 0 && committedFlag[blockedIsb])
            blockedIsb = -1;
        const bool blocked = blockedBranch >= 0 || blockedIsb >= 0;

        // Request line fetches ahead of delivery.
        if (!blocked) {
            const uint32_t horizon = fetchHorizon();
            while (nextRunToRequest < runs.size()
                   && runs[nextRunToRequest].begin <= horizon
                   && activeRuns.size()
                      < static_cast<size_t>(p.fetchBuffers)) {
                const LineRun &run = runs[nextRunToRequest];
                if (mem.instLineNeedsFill(run.line, cycle)
                    && outstandingFills()
                       >= static_cast<size_t>(p.maxIcacheFills)) {
                    break;
                }
                const MemResponse resp = mem.fetchLine(run.line, cycle);
                if (resp.isFill)
                    fillHeap.push(resp.readyCycle);
                activeRuns.push_back({nextRunToRequest, resp.readyCycle});
                ++nextRunToRequest;
                any = true;
            }
        }

        // Deliver instructions in order.
        if (!blocked) {
            for (int w = 0; w < p.fetchWidth; ++w) {
                if (deliverPtr >= instrs.size()
                    || decodeQ.size() >= kDecodeQCap) {
                    break;
                }
                if (activeRuns.empty()
                    || runs[activeRuns.front().runIdx].begin > deliverPtr) {
                    break;  // line not requested yet
                }
                const ActiveRun &front = activeRuns.front();
                panic_if(runOf[deliverPtr] != front.runIdx,
                         "fetch run desync");
                if (front.ready > cycle)
                    break;  // line still in flight

                const uint32_t i = deliverPtr;
                decodeQ.emplace_back(cycle + 1, i);
                ++deliverPtr;
                any = true;
                if (deliverPtr >= runs[front.runIdx].end)
                    activeRuns.pop_front();

                if (mispredict[i]) {
                    if (i >= warmupCount)
                        ++result.branchMispredicts;
                    blockedBranch = i;
                    branchResumeCycle = kNever;
                    squashFetchAhead();
                    break;
                }
                if (instrs[i].isIsb()) {
                    blockedIsb = i;
                    squashFetchAhead();
                    break;
                }
            }
        }
        return any;
    }

    /**
     * Drop fetched-ahead lines past the current delivery point (redirect /
     * drain): wholly undelivered runs give their fetch buffers back and
     * will be re-requested after the frontend resumes.
     */
    void
    squashFetchAhead()
    {
        while (!activeRuns.empty()
               && runs[activeRuns.back().runIdx].begin >= deliverPtr) {
            activeRuns.pop_back();
        }
        if (!activeRuns.empty())
            nextRunToRequest = activeRuns.back().runIdx + 1;
        else if (deliverPtr < instrs.size())
            nextRunToRequest = runOf[deliverPtr];
    }

    /** Earliest future cycle at which anything can happen. */
    uint64_t
    nextInterestingCycle()
    {
        uint64_t next = kNever;
        if (!events.empty())
            next = std::min(next, events.top().first);
        if (!activeRuns.empty())
            next = std::min(next, activeRuns.front().ready);
        if (!fillHeap.empty())
            next = std::min(next, fillHeap.top());
        if (blockedBranch >= 0 && branchResumeCycle != kNever)
            next = std::min(next, branchResumeCycle);
        if (!renameQ.empty())
            next = std::min(next, renameQ.front().first);
        if (!decodeQ.empty())
            next = std::min(next, decodeQ.front().first);
        return next == kNever ? cycle + 1 : std::max(next, cycle + 1);
    }

    SimResult
    run()
    {
        const uint64_t limit =
            static_cast<uint64_t>(instrs.size()) * kMaxCpi + 100000;
        while (committed < instrs.size()) {
            panic_if(cycle > limit, "simulator runaway at cycle %llu "
                     "(%u/%zu committed)",
                     static_cast<unsigned long long>(cycle), committed,
                     instrs.size());
            bool any = false;
            any |= commitStage();
            any |= writebackStage();
            any |= issueStage();
            any |= renameStage();
            any |= decodeStage();
            any |= fetchStage();

            if (inRegion) {
                ++occSamples;
                robOccSum += rob.size();
                renameOccSum += renameQ.size();
                lqOccSum += lqOcc;
            }

            if (any) {
                ++cycle;
            } else {
                cycle = nextInterestingCycle();
            }
        }

        result.instructions = instrs.size() - warmupCount;
        result.cycles = cycle - regionStartCycle;
        if (occSamples > 0) {
            const double samples = static_cast<double>(occSamples);
            result.avgRobOccupancy =
                100.0 * static_cast<double>(robOccSum) / samples / p.robSize;
            result.avgRenameQOccupancy =
                100.0 * static_cast<double>(renameOccSum) / samples
                / static_cast<double>(kRenameQCap);
            result.avgLqOccupancy =
                100.0 * static_cast<double>(lqOccSum) / samples / p.lqSize;
        }
        return result;
    }
};

/**
 * The scratch-backed engine: stage-for-stage the same state machine as
 * Engine above (same iteration order, same comparators, same tie-breaks,
 * so results are bitwise-identical), reading the trace as TraceColumns
 * instead of Instruction rows, with every container replaced by a
 * reused member of SimScratch::Impl -- rings instead of deques, reused
 * heap vectors instead of priority_queues, and an in-place TimingMemory
 * reset instead of reconstruction. The write-only issuedAt array of the
 * reference is dropped (unobservable).
 */
struct FastEngine
{
    const UarchParams &p;
    const TraceColumns &instrs;               // warmup + region
    const std::vector<uint8_t> &mispredict;   // aligned with instrs
    const size_t warmupCount;

    TimingMemory &mem;

    // ---- per-instruction dynamic state (scratch-backed) ----
    std::vector<uint64_t> &readyCycle;  // kNever until finished
    std::vector<uint8_t> &finished;
    std::vector<uint8_t> &committedFlag;
    std::vector<int8_t> &depCount;

    // Wakeup edges: per producer, an intrusive chain of waiting consumers.
    std::vector<int32_t> &waiterHead;   // producer -> first edge (-1)
    std::vector<int32_t> &edgeWaiter;   // edge -> consumer index
    std::vector<int32_t> &edgeNext;     // edge -> next edge
    int32_t edgeCount = 0;

    // ---- frontend ----
    std::vector<LineRun> &runs;
    std::vector<uint32_t> &runOf;       // instruction -> run index
    std::vector<uint32_t> &horizonEvents; // mispredicted branches and ISBs
    size_t horizonPtr = 0;

    RingBuf<ActiveRun> &activeRuns;     // fetch buffers in flight
    uint32_t nextRunToRequest = 0;
    MinHeap<uint64_t> &fillHeap;

    uint32_t deliverPtr = 0;            // next instruction to fetch-deliver
    int64_t blockedBranch = -1;         // mispredicted branch awaiting exec
    uint64_t branchResumeCycle = kNever;
    int64_t blockedIsb = -1;            // ISB awaiting commit

    RingBuf<std::pair<uint64_t, uint32_t>> &decodeQ; // (readyAt, idx)
    RingBuf<std::pair<uint64_t, uint32_t>> &renameQ;

    // ---- backend ----
    RingBuf<uint32_t> &rob;             // dispatched, not committed
    uint32_t lqOcc = 0;
    uint32_t sqOcc = 0;

    // Age-ordered ready queues per issue class.
    MinHeap<uint32_t> &readyAlu;
    MinHeap<uint32_t> &readyFp;
    MinHeap<uint32_t> &readyLs;

    std::vector<uint8_t> &dispatched;
    std::vector<uint64_t> &dispatchCycle;
    std::vector<uint32_t> &deferred;    // issueStage pipe-starved ops

    // Completion events (cycle, instruction).
    MinHeap<std::pair<uint64_t, uint32_t>> &events;

    uint32_t committed = 0;
    uint64_t cycle = 0;
    int windowK = 0;

    // ---- statistics ----
    bool inRegion = false;              // all warmup committed
    uint64_t regionStartCycle = 0;
    uint64_t occSamples = 0;
    uint64_t robOccSum = 0;
    uint64_t renameOccSum = 0;
    uint64_t lqOccSum = 0;
    SimResult result;

    static TimingMemory &
    ensureMem(SimScratch::Impl &sc, const MemoryConfig &config)
    {
        if (!sc.mem)
            sc.mem.emplace(config);
        else
            sc.mem->reset(config);
        return *sc.mem;
    }

    FastEngine(const UarchParams &params, const TraceColumns &all,
               const std::vector<uint8_t> &flags, size_t warmup_count,
               SimScratch::Impl &sc)
        : p(params), instrs(all), mispredict(flags),
          warmupCount(warmup_count), mem(ensureMem(sc, params.memory)),
          readyCycle(sc.readyCycle), finished(sc.finished),
          committedFlag(sc.committedFlag), depCount(sc.depCount),
          waiterHead(sc.waiterHead), edgeWaiter(sc.edgeWaiter),
          edgeNext(sc.edgeNext), runs(sc.runs), runOf(sc.runOf),
          horizonEvents(sc.horizonEvents), activeRuns(sc.activeRuns),
          fillHeap(sc.fillHeap), decodeQ(sc.decodeQ), renameQ(sc.renameQ),
          rob(sc.rob), readyAlu(sc.readyAlu), readyFp(sc.readyFp),
          readyLs(sc.readyLs), dispatched(sc.dispatched),
          dispatchCycle(sc.dispatchCycle), deferred(sc.deferred),
          events(sc.events)
    {
        const size_t n = instrs.size();
        readyCycle.assign(n, kNever);
        finished.assign(n, 0);
        committedFlag.assign(n, 0);
        depCount.assign(n, 0);
        waiterHead.assign(n, -1);
        edgeWaiter.resize((kMaxSrcDeps + 1) * n);
        edgeNext.resize((kMaxSrcDeps + 1) * n);
        dispatched.assign(n, 0);
        dispatchCycle.assign(n, 0);
        buildRuns();
        buildHorizon();
        activeRuns.reset(static_cast<size_t>(p.fetchBuffers));
        decodeQ.reset(kDecodeQCap);
        renameQ.reset(kRenameQCap);
        rob.reset(static_cast<size_t>(p.robSize));
        fillHeap.clear();
        readyAlu.clear();
        readyFp.clear();
        readyLs.clear();
        deferred.clear();
        events.clear();
        if (warmupCount == 0) {
            inRegion = true;
            regionStartCycle = 0;
        }
    }

    void
    buildRuns()
    {
        runs.clear();
        runOf.resize(instrs.size());
        uint64_t cur_line = ~0ULL;
        for (uint32_t i = 0; i < instrs.size(); ++i) {
            const uint64_t line = instrs.instLine[i];
            if (line != cur_line) {
                runs.push_back({i, i + 1, line});
                cur_line = line;
            } else {
                runs.back().end = i + 1;
            }
            runOf[i] = static_cast<uint32_t>(runs.size() - 1);
        }
    }

    void
    buildHorizon()
    {
        horizonEvents.clear();
        for (uint32_t i = 0; i < instrs.size(); ++i) {
            if (mispredict[i] || instrs.isIsb(i))
                horizonEvents.push_back(i);
        }
    }

    /** Highest instruction index fetch may request lines for (inclusive). */
    uint32_t
    fetchHorizon()
    {
        while (horizonPtr < horizonEvents.size()
               && horizonEvents[horizonPtr] < deliverPtr) {
            ++horizonPtr;
        }
        // Unresolved control event: cannot fetch past it. The event's own
        // run is allowed.
        if (horizonPtr < horizonEvents.size()) {
            const uint32_t ev = horizonEvents[horizonPtr];
            if (ev < instrs.size() && !resolvedControl(ev))
                return ev;
        }
        return static_cast<uint32_t>(instrs.size() - 1);
    }

    bool
    resolvedControl(uint32_t i)
    {
        if (instrs.isIsb(i))
            return committedFlag[i];
        return finished[i];
    }

    size_t
    outstandingFills()
    {
        while (!fillHeap.empty() && fillHeap.top() <= cycle)
            fillHeap.pop();
        return fillHeap.size();
    }

    // ------------------------------------------------------------------
    // Pipeline stages (called newest-to-oldest each cycle).
    // ------------------------------------------------------------------

    bool
    commitStage()
    {
        bool any = false;
        for (int w = 0; w < p.commitWidth && !rob.empty(); ++w) {
            const uint32_t head = rob.front();
            if (!finished[head] || readyCycle[head] > cycle)
                break;
            rob.pop_front();
            committedFlag[head] = 1;
            ++committed;
            any = true;
            if (instrs.isLoad(head)) {
                --lqOcc;
            } else if (instrs.isStore(head)) {
                --sqOcc;
                mem.store(instrs.pc[head], instrs.memAddr[head], cycle);
            }
            if (!inRegion && committed == warmupCount) {
                inRegion = true;
                regionStartCycle = cycle;
            }
            if (windowK > 0 && committed > warmupCount
                && (committed - warmupCount)
                    % static_cast<uint32_t>(windowK) == 0) {
                result.windowCommitCycles.push_back(
                    cycle - regionStartCycle);
            }
        }
        return any;
    }

    bool
    writebackStage()
    {
        bool any = false;
        while (!events.empty() && events.top().first <= cycle) {
            const uint32_t i = events.top().second;
            events.pop();
            finished[i] = 1;
            any = true;
            // Wake waiters.
            for (int32_t e = waiterHead[i]; e >= 0; e = edgeNext[e]) {
                const int32_t w = edgeWaiter[e];
                if (--depCount[w] == 0 && dispatched[w])
                    pushReady(static_cast<uint32_t>(w));
            }
            waiterHead[i] = -1;
        }
        return any;
    }

    void
    pushReady(uint32_t i)
    {
        switch (issueClassOf(instrs.type[i])) {
          case IssueClass::Alu: readyAlu.push(i); break;
          case IssueClass::Fp: readyFp.push(i); break;
          case IssueClass::LoadStore: readyLs.push(i); break;
        }
    }

    void
    execute(uint32_t i)
    {
        const InstrType type = instrs.type[i];
        uint64_t done;
        if (type == InstrType::Load) {
            const int32_t mem_dep = instrs.memDep[i];
            if (mem_dep >= 0 && !committedFlag[mem_dep]) {
                // Store-to-load forwarding from the store buffer.
                done = cycle + kForwardLat;
            } else {
                done = mem.load(instrs.pc[i], instrs.memAddr[i], cycle)
                           .readyCycle;
            }
            if (inRegion) {
                result.actualLoadLatencySum += done - cycle;
                ++result.loadCount;
            }
        } else {
            done = cycle + static_cast<uint64_t>(fixedLatency(type));
        }
        readyCycle[i] = done;
        if (done <= cycle) {
            finished[i] = 1;
        } else {
            events.push({done, i});
        }
    }

    bool
    issueStage()
    {
        bool any = false;
        auto drain = [&](MinHeap<uint32_t> &q, int width) {
            int issued = 0;
            while (issued < width && !q.empty()) {
                const uint32_t i = q.top();
                if (dispatchCycle[i] >= cycle)
                    break;      // dispatched this cycle; issue next cycle
                q.pop();
                execute(i);
                ++issued;
                any = true;
            }
            return issued;
        };

        drain(readyAlu, p.aluWidth);
        drain(readyFp, p.fpWidth);

        // Load-store class: issue width plus pipe constraints. Stores may
        // only use load-store pipes; loads prefer load pipes.
        {
            int issued = 0;
            int ls_pipes_used = 0;
            int load_pipes_used = 0;
            deferred.clear();
            while (issued < p.lsWidth && !readyLs.empty()) {
                const uint32_t i = readyLs.top();
                if (dispatchCycle[i] >= cycle)
                    break;
                const bool is_store = instrs.isStore(i);
                bool can_issue;
                if (is_store) {
                    can_issue = ls_pipes_used < p.lsPipes;
                } else {
                    can_issue = load_pipes_used < p.loadPipes
                        || ls_pipes_used < p.lsPipes;
                }
                if (!can_issue) {
                    // Pipe-starved; skip this op and look for one of the
                    // other kind (out-of-order selection).
                    deferred.push_back(i);
                    readyLs.pop();
                    continue;
                }
                readyLs.pop();
                if (is_store) {
                    ++ls_pipes_used;
                } else if (load_pipes_used < p.loadPipes) {
                    ++load_pipes_used;
                } else {
                    ++ls_pipes_used;
                }
                execute(i);
                ++issued;
                any = true;
            }
            for (uint32_t i : deferred)
                readyLs.push(i);
        }
        return any;
    }

    bool
    renameStage()
    {
        bool any = false;
        for (int w = 0; w < p.renameWidth && !renameQ.empty(); ++w) {
            const auto [ready_at, i] = renameQ.front();
            if (ready_at > cycle)
                break;
            const bool is_load = instrs.isLoad(i);
            const bool is_store = instrs.isStore(i);
            if (rob.size() >= static_cast<size_t>(p.robSize))
                break;
            if (is_load && lqOcc >= static_cast<uint32_t>(p.lqSize))
                break;
            if (is_store && sqOcc >= static_cast<uint32_t>(p.sqSize))
                break;
            renameQ.pop_front();
            rob.push_back(i);
            if (is_load)
                ++lqOcc;
            if (is_store)
                ++sqOcc;
            dispatched[i] = 1;
            dispatchCycle[i] = cycle;

            // Register dependency edges for unfinished producers.
            int deps = 0;
            auto add_dep = [&](int32_t d) {
                if (d >= 0 && !finished[d]) {
                    edgeWaiter[edgeCount] = static_cast<int32_t>(i);
                    edgeNext[edgeCount] = waiterHead[d];
                    waiterHead[d] = edgeCount;
                    ++edgeCount;
                    ++deps;
                }
            };
            add_dep(instrs.srcDep0[i]);
            add_dep(instrs.srcDep1[i]);
            add_dep(instrs.memDep[i]);
            depCount[i] = static_cast<int8_t>(deps);
            if (deps == 0)
                pushReady(i);
            any = true;
        }
        return any;
    }

    bool
    decodeStage()
    {
        bool any = false;
        for (int w = 0; w < p.decodeWidth && !decodeQ.empty(); ++w) {
            const auto [fetched_at, i] = decodeQ.front();
            if (fetched_at > cycle || renameQ.size() >= kRenameQCap)
                break;
            decodeQ.pop_front();
            renameQ.push_back({cycle + kDecodeLat, i});
            any = true;
        }
        return any;
    }

    bool
    fetchStage()
    {
        bool any = false;

        // Resolve frontend blocks.
        if (blockedBranch >= 0) {
            if (branchResumeCycle == kNever && finished[blockedBranch]) {
                branchResumeCycle =
                    std::max(readyCycle[blockedBranch] + kRedirectPenalty,
                             cycle);
            }
            if (branchResumeCycle != kNever && cycle >= branchResumeCycle) {
                blockedBranch = -1;
                branchResumeCycle = kNever;
            }
        }
        if (blockedIsb >= 0 && committedFlag[blockedIsb])
            blockedIsb = -1;
        const bool blocked = blockedBranch >= 0 || blockedIsb >= 0;

        // Request line fetches ahead of delivery.
        if (!blocked) {
            const uint32_t horizon = fetchHorizon();
            while (nextRunToRequest < runs.size()
                   && runs[nextRunToRequest].begin <= horizon
                   && activeRuns.size()
                      < static_cast<size_t>(p.fetchBuffers)) {
                const LineRun &run = runs[nextRunToRequest];
                if (mem.instLineNeedsFill(run.line, cycle)
                    && outstandingFills()
                       >= static_cast<size_t>(p.maxIcacheFills)) {
                    break;
                }
                const MemResponse resp = mem.fetchLine(run.line, cycle);
                if (resp.isFill)
                    fillHeap.push(resp.readyCycle);
                activeRuns.push_back({nextRunToRequest, resp.readyCycle});
                ++nextRunToRequest;
                any = true;
            }
        }

        // Deliver instructions in order.
        if (!blocked) {
            for (int w = 0; w < p.fetchWidth; ++w) {
                if (deliverPtr >= instrs.size()
                    || decodeQ.size() >= kDecodeQCap) {
                    break;
                }
                if (activeRuns.empty()
                    || runs[activeRuns.front().runIdx].begin > deliverPtr) {
                    break;  // line not requested yet
                }
                const ActiveRun &front = activeRuns.front();
                panic_if(runOf[deliverPtr] != front.runIdx,
                         "fetch run desync");
                if (front.ready > cycle)
                    break;  // line still in flight

                const uint32_t i = deliverPtr;
                decodeQ.push_back({cycle + 1, i});
                ++deliverPtr;
                any = true;
                if (deliverPtr >= runs[front.runIdx].end)
                    activeRuns.pop_front();

                if (mispredict[i]) {
                    if (i >= warmupCount)
                        ++result.branchMispredicts;
                    blockedBranch = i;
                    branchResumeCycle = kNever;
                    squashFetchAhead();
                    break;
                }
                if (instrs.isIsb(i)) {
                    blockedIsb = i;
                    squashFetchAhead();
                    break;
                }
            }
        }
        return any;
    }

    /**
     * Drop fetched-ahead lines past the current delivery point (redirect /
     * drain): wholly undelivered runs give their fetch buffers back and
     * will be re-requested after the frontend resumes.
     */
    void
    squashFetchAhead()
    {
        while (!activeRuns.empty()
               && runs[activeRuns.back().runIdx].begin >= deliverPtr) {
            activeRuns.pop_back();
        }
        if (!activeRuns.empty())
            nextRunToRequest = activeRuns.back().runIdx + 1;
        else if (deliverPtr < instrs.size())
            nextRunToRequest = runOf[deliverPtr];
    }

    /**
     * Idle advance after a no-op iteration, batched where the reference
     * crawls.
     *
     * The reference nextInterestingCycle() includes queue fronts whose
     * ready cycle is already in the past (an instruction ready to rename
     * behind a full ROB, a fetched line behind a full decode queue, a
     * satisfied fill still sitting in fillHeap), which clamps the advance
     * to cycle+1: a stalled machine re-runs the whole stage ladder once
     * per cycle, each iteration a provable no-op that only samples the
     * frozen occupancies. No stage condition besides those past-ready
     * comparisons depends on the cycle number, so the machine state
     * cannot change before the earliest FUTURE trigger (completion
     * event, line arrival, fill landing, redirect resume, queue-front
     * ready cycle). This jumps there in one step and accumulates the
     * k skipped per-iteration samples in closed form -- the occupancy
     * accumulators are integer sums, so the multiply is exact and the
     * final averages are bitwise-identical to the crawl.
     *
     * When no past-ready front exists, the reference takes a single
     * un-sampled jump to the same future minimum; that case is
     * reproduced verbatim (no synthetic samples).
     */
    uint64_t
    idleAdvance(uint64_t limit)
    {
        // A satisfied fill entry still sitting under fillHeap.top() is a
        // past source too: the reference only pops them lazily inside
        // outstandingFills(), so a stale top keeps clamping its advance.
        // fillHeap must NOT be popped here -- the pops must stay on the
        // shared fetchStage path so both engines' heaps (and therefore
        // their crawl decisions) remain in lockstep. A stale top also
        // hides any future entries beneath it, but those can only act
        // through the fetch-request gate, which is unreachable until one
        // of the tracked triggers fires first (and which pops the stale
        // entries identically in both engines once reached).
        const bool has_past =
            (!renameQ.empty() && renameQ.front().first <= cycle)
            || (!decodeQ.empty() && decodeQ.front().first <= cycle)
            || (!activeRuns.empty() && activeRuns.front().ready <= cycle)
            || (!fillHeap.empty() && fillHeap.top() <= cycle);

        uint64_t next = kNever;
        if (!events.empty())
            next = std::min(next, events.top().first);
        if (!activeRuns.empty() && activeRuns.front().ready > cycle)
            next = std::min(next, activeRuns.front().ready);
        if (!fillHeap.empty() && fillHeap.top() > cycle)
            next = std::min(next, fillHeap.top());
        if (blockedBranch >= 0 && branchResumeCycle != kNever)
            next = std::min(next, branchResumeCycle);
        if (!renameQ.empty() && renameQ.front().first > cycle)
            next = std::min(next, renameQ.front().first);
        if (!decodeQ.empty() && decodeQ.front().first > cycle)
            next = std::min(next, decodeQ.front().first);

        if (!has_past)
            return next == kNever ? cycle + 1 : std::max(next, cycle + 1);

        // Crawl batching. Clamp to limit+1 so the runaway guard fires at
        // the same cycle the reference's one-per-cycle crawl reaches it.
        const uint64_t target =
            std::max(std::min(next, limit + 1), cycle + 1);
        if (inRegion) {
            const uint64_t k = target - cycle - 1;
            occSamples += k;
            robOccSum += k * rob.size();
            renameOccSum += k * renameQ.size();
            lqOccSum += k * lqOcc;
        }
        return target;
    }

    SimResult
    run()
    {
        const uint64_t limit =
            static_cast<uint64_t>(instrs.size()) * kMaxCpi + 100000;
        while (committed < instrs.size()) {
            panic_if(cycle > limit, "simulator runaway at cycle %llu "
                     "(%u/%zu committed)",
                     static_cast<unsigned long long>(cycle), committed,
                     instrs.size());
            bool any = false;
            any |= commitStage();
            any |= writebackStage();
            any |= issueStage();
            any |= renameStage();
            any |= decodeStage();
            any |= fetchStage();

            if (inRegion) {
                ++occSamples;
                robOccSum += rob.size();
                renameOccSum += renameQ.size();
                lqOccSum += lqOcc;
            }

            if (any) {
                ++cycle;
            } else {
                cycle = idleAdvance(limit);
            }
        }

        result.instructions = instrs.size() - warmupCount;
        result.cycles = cycle - regionStartCycle;
        if (occSamples > 0) {
            const double samples = static_cast<double>(occSamples);
            result.avgRobOccupancy =
                100.0 * static_cast<double>(robOccSum) / samples / p.robSize;
            result.avgRenameQOccupancy =
                100.0 * static_cast<double>(renameOccSum) / samples
                / static_cast<double>(kRenameQCap);
            result.avgLqOccupancy =
                100.0 * static_cast<double>(lqOccSum) / samples / p.lqSize;
        }
        return result;
    }
};

} // anonymous namespace

SimResult
simulateCombined(const UarchParams &params, const TraceColumns &all,
                 const std::vector<uint8_t> &flags, size_t warmup_count,
                 int window_k, SimScratch &scratch)
{
    panic_if(flags.size() != all.size(),
             "flags (%zu) != combined trace size (%zu)",
             flags.size(), all.size());
    panic_if(warmup_count > all.size(),
             "warmup count (%zu) > combined trace size (%zu)",
             warmup_count, all.size());
    FastEngine engine(params, all, flags, warmup_count, *scratch.impl);
    engine.windowK = window_k;
    return engine.run();
}

SimResult
simulateTrace(const UarchParams &params, const TraceColumns &warmup,
              const TraceColumns &region,
              const std::vector<uint8_t> &mispredict_flags, int window_k,
              SimScratch *scratch)
{
    panic_if(mispredict_flags.size() != region.size(),
             "mispredict flags (%zu) != region size (%zu)",
             mispredict_flags.size(), region.size());
    if (!scratch) {
        SimScratch local;
        return simulateTrace(params, warmup, region, mispredict_flags,
                             window_k, &local);
    }

    // Concatenate warmup + region with zero flags for warmup, reusing the
    // scratch staging buffers (warmup only exists to fill timing state).
    SimScratch::Impl &sc = *scratch->impl;
    sc.stagedAll.assignConcat(warmup, region);
    sc.stagedFlags.assign(sc.stagedAll.size(), 0);
    std::copy(mispredict_flags.begin(), mispredict_flags.end(),
              sc.stagedFlags.begin()
                  + static_cast<std::ptrdiff_t>(warmup.size()));

    return simulateCombined(params, sc.stagedAll, sc.stagedFlags,
                            warmup.size(), window_k, *scratch);
}

SimResult
simulateRegion(const UarchParams &params, RegionAnalysis &analysis,
               int window_k, SimScratch *scratch)
{
    // The combined trace and flags layout are cached on the analysis, so
    // every design point over a region shares one rebased concatenation.
    const TraceColumns &all = analysis.combinedColumns();
    const std::vector<uint8_t> &flags =
        analysis.combinedFlags(params.branch);
    if (scratch) {
        return simulateCombined(params, all, flags, analysis.warmupSize(),
                                window_k, *scratch);
    }
    SimScratch local;
    return simulateCombined(params, all, flags, analysis.warmupSize(),
                            window_k, local);
}

SimResult
simulateTraceReference(const UarchParams &params,
                       const std::vector<Instruction> &warmup,
                       const std::vector<Instruction> &region,
                       const std::vector<uint8_t> &mispredict_flags,
                       int window_k)
{
    panic_if(mispredict_flags.size() != region.size(),
             "mispredict flags (%zu) != region size (%zu)",
             mispredict_flags.size(), region.size());

    // Concatenate warmup + region with zero flags for warmup: warmup only
    // exists to fill caches and timing state.
    std::vector<Instruction> all;
    all.reserve(warmup.size() + region.size());
    all.insert(all.end(), warmup.begin(), warmup.end());
    const int32_t offset = static_cast<int32_t>(warmup.size());
    for (Instruction instr : region) {
        for (int d = 0; d < kMaxSrcDeps; ++d) {
            if (instr.srcDeps[d] >= 0)
                instr.srcDeps[d] += offset;
        }
        if (instr.memDep >= 0)
            instr.memDep += offset;
        all.push_back(instr);
    }
    std::vector<uint8_t> flags(all.size(), 0);
    std::copy(mispredict_flags.begin(), mispredict_flags.end(),
              flags.begin() + offset);

    Engine engine(params, all, flags, warmup.size());
    engine.windowK = window_k;
    return engine.run();
}

} // namespace concorde
