#include "analytical/rob_model.hh"

#include <algorithm>

#include "analytical/rob_kernels.hh"
#include "analytical/windows.hh"
#include "common/cpu.hh"
#include "common/logging.hh"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define CONCORDE_ROB_LOCKSTEP 1
#include <immintrin.h>
#endif

namespace concorde
{

namespace
{

/** Smallest power of two >= x. */
size_t
ceilPow2(size_t x)
{
    size_t p = 1;
    while (p < x)
        p <<= 1;
    return p;
}

/** Empty the histograms a request asked for. */
void
clearRequested(const RobRunRequest &request, RobStageLatencies &latencies)
{
    if (request.latencies) {
        latencies.issue.clear();
        latencies.commit.clear();
    }
    if (request.execLatency)
        latencies.exec.clear();
}

/** Eq. (5) windows and n / c_n from a run's boundary and final cycles. */
void
finishResult(const std::vector<uint64_t> &boundaries, uint64_t c_last,
             size_t n, int window_k, RobModelResult &result)
{
    result.windowThroughput = throughputFromBoundaries(boundaries, window_k);
    result.overallIpc = c_last > 0
        ? static_cast<double>(n) / static_cast<double>(c_last)
        : kMaxThroughput;
}

} // anonymous namespace

robkernel::RegionBounds
robkernel::RegionBounds::of(const TraceColumns &region,
                            const std::vector<int32_t> &exec_lat)
{
    const int32_t n = static_cast<int32_t>(region.size());
    panic_if(region.size() > INT32_MAX, "region too long for int32 deps");
    // Branch-free passes, one per column, that the compiler vectorizes:
    // a missing dependency (-1) counts as distance 1, and a dependency
    // on the instruction itself or a later one as distance <= 0.
    int32_t max_distance = 0;
    int32_t min_distance = 1;
    for (const std::vector<int32_t> *deps :
         {&region.srcDep0, &region.srcDep1, &region.memDep}) {
        const int32_t *dep = deps->data();
        for (int32_t i = 0; i < n; ++i) {
            const int32_t distance = dep[i] >= 0 ? i - dep[i] : 1;
            max_distance = std::max(max_distance, distance);
            min_distance = std::min(min_distance, distance);
        }
    }
    panic_if(min_distance <= 0, "an instruction depends on a later one");

    // A negative latency wraps in the 64-bit recurrence; leave such a
    // region to the portable kernel, which wraps it as before.
    uint64_t cycle_bound = 0;
    int32_t min_latency = 0;
    for (int32_t i = 0; i < n; ++i) {
        cycle_bound += static_cast<uint32_t>(exec_lat[i]);
        min_latency = std::min(min_latency, exec_lat[i]);
    }
    const bool negative_latency = min_latency < 0;

    RegionBounds bounds;
    bounds.maxDepDistance = static_cast<size_t>(max_distance);
    bounds.cycleBound = negative_latency ? UINT64_MAX : cycle_bound;
    return bounds;
}

void
robkernel::runPortable(const TraceColumns &region, const LoadLineIndex &index,
                       const std::vector<int32_t> &exec_lat,
                       const RegionBounds &bounds,
                       const RobRunRequest &request, int window_k,
                       RobModelResult &result, RobStageLatencies &latencies,
                       Workspace &work)
{
    panic_if(request.robSize < 1, "ROB size must be >= 1");
    const size_t n = region.size();
    result = RobModelResult{};
    clearRequested(request, latencies);
    if (n == 0)
        return;

    MemoryStateMachine memory(index, exec_lat);

    // Commit ring: c_{i-ROB} with c_i = 0 for i <= 0. A ROB of n or more
    // entries never fills, so it is clamped to n. Finish ring: a
    // dependency reaches back at most maxDepDistance instructions.
    const size_t rob = std::min(static_cast<size_t>(request.robSize), n);
    const size_t finish_size = ceilPow2(bounds.maxDepDistance + 1);
    const size_t finish_mask = finish_size - 1;
    work.ring.assign(rob + finish_size, 0);
    uint64_t *commit_ring = work.ring.data();
    uint64_t *finish = commit_ring + rob;
    uint64_t c_prev = 0;
    uint64_t max_finish = 0;        // for ISB pipeline drains
    uint64_t barrier_finish = 0;    // ISBs gate later instructions

    std::vector<uint64_t> &boundaries = work.boundaries;
    boundaries.clear();

    // i % rob and (i + 1) % window_k as rotating counters: the two
    // runtime-divisor modulos per instruction cost more than the rest of
    // the recurrence for small ROB sizes.
    size_t slot = 0;
    int until_boundary = window_k;

    for (size_t i = 0; i < n; ++i) {
        // Eq. (1): arrival waits for the instruction ROB slots earlier to
        // commit.
        const uint64_t a = commit_ring[slot];

        // Eq. (2): dependencies.
        uint64_t s = std::max(a, barrier_finish);
        if (region.srcDep0[i] >= 0)
            s = std::max(s, finish[region.srcDep0[i] & finish_mask]);
        if (region.srcDep1[i] >= 0)
            s = std::max(s, finish[region.srcDep1[i] & finish_mask]);
        if (region.memDep[i] >= 0)
            s = std::max(s, finish[region.memDep[i] & finish_mask]);
        const bool isb = region.isIsb(i);
        if (isb)
            s = std::max(s, max_finish);

        // Eq. (3): memory state machine.
        const uint64_t f = memory.respCycleInOrder(s, i, region.isLoad(i));

        // Eq. (4): in-order commit.
        const uint64_t c = std::max(f, c_prev);

        finish[i & finish_mask] = f;
        max_finish = std::max(max_finish, f);
        if (isb)
            barrier_finish = std::max(barrier_finish, f);
        commit_ring[slot] = c;
        if (++slot == rob)
            slot = 0;
        c_prev = c;

        if (request.latencies) {
            latencies.issue.add(s - a);
            latencies.commit.add(c - f);
        }
        if (request.execLatency)
            latencies.exec.add(f - s);

        if (--until_boundary == 0) {
            boundaries.push_back(c);
            until_boundary = window_k;
        }
    }
    finishResult(boundaries, c_prev, n, window_k, result);
}

#ifdef CONCORDE_ROB_LOCKSTEP

namespace
{

/** Instructions whose latency rows are buffered before counting. */
constexpr size_t kLatencyChunk = 64;

/** One lane's column of a buffered latency row block, and its histogram. */
struct LatencyColumn
{
    const uint32_t *rows;
    IntegerHistogram *hist;
};

/**
 * Count `count` buffered 16-lane rows into every column's histogram.
 * Row-major, so that consecutive adds go to different histograms: a
 * run of equal values in one lane (zero latencies are common) then no
 * longer chains each increment on the one before.
 */
void
countRows(const LatencyColumn *columns, size_t num_columns, size_t count)
{
    for (size_t r = 0; r < count; ++r) {
        for (size_t k = 0; k < num_columns; ++k)
            columns[k].hist->add(columns[k].rows[r * robkernel::kLanes]);
    }
}

/**
 * Lane-wise unsigned max. GCC 12's _mm512_max_epu32 passes an undefined
 * merge source that -Wmaybe-uninitialized flags; merging into `a` under
 * a full mask is the same instruction without it.
 */
__attribute__((target("avx512f"))) inline __m512i
maxU32(__m512i a, __m512i b)
{
    return _mm512_mask_max_epu32(a, static_cast<__mmask16>(0xFFFF), a, b);
}

} // anonymous namespace

__attribute__((target("avx512f"))) void
robkernel::runLockstep(const TraceColumns &region, const LoadLineIndex &index,
                       const std::vector<int32_t> &exec_lat,
                       const RegionBounds &bounds,
                       const RobRunRequest *requests, size_t count,
                       int window_k, RobModelResult *results,
                       RobStageLatencies *latencies, Workspace &work)
{
    panic_if(count == 0 || count > kLanes, "lockstep run of %zu sizes",
             count);
    panic_if(!bounds.fitsLanes(), "region cycles exceed 32-bit lanes");
    const size_t n = region.size();
    for (size_t l = 0; l < count; ++l) {
        panic_if(requests[l].robSize < 1, "ROB size must be >= 1");
        results[l] = RobModelResult{};
        clearRequested(requests[l], latencies[l]);
    }
    if (n == 0)
        return;

    // Lane sizes, clamped to n as in runPortable. The commit ring keeps
    // the last commit_rows commit rows; lane l reads c_{i - rob[l]}
    // from slot (i - rob[l]) mod commit_rows, which for i < rob[l] is
    // a slot not yet written, so it reads the ring's initial zero.
    alignas(64) uint32_t ring_at[kLanes];
    size_t max_rob = 1;
    __mmask16 rob_one = 0;
    uint32_t rob[kLanes];
    for (size_t l = 0; l < kLanes; ++l) {
        rob[l] = static_cast<uint32_t>(std::min(
            static_cast<size_t>(requests[l < count ? l : 0].robSize), n));
        max_rob = std::max<size_t>(max_rob, rob[l]);
        if (rob[l] == 1)
            rob_one |= static_cast<__mmask16>(1u << l);
    }
    const size_t commit_rows = ceilPow2(max_rob + 1);
    const size_t finish_rows = ceilPow2(bounds.maxDepDistance + 1);
    for (size_t l = 0; l < kLanes; ++l) {
        ring_at[l] = static_cast<uint32_t>(
            ((commit_rows - rob[l]) & (commit_rows - 1)) * kLanes + l);
    }

    // Only lines loaded more than once carry request/response state: a
    // line's lone load sees zero state, so its response is s + lat.
    std::vector<int32_t> &line_slot = work.lineSlot;
    line_slot.resize(index.numLines);
    size_t slots = 0;
    for (uint32_t lid = 0; lid < index.numLines; ++lid) {
        line_slot[lid] = index.lineStart[lid + 1] - index.lineStart[lid] >= 2
            ? static_cast<int32_t>(slots++) : -1;
    }

    // One 64-byte aligned block of 16-lane rows.
    const size_t windows = numWindows(n, window_k);
    const size_t row_count = commit_rows + finish_rows + 2 * slots
        + windows + 3 * kLatencyChunk;
    work.rows.resize((row_count + 1) * kLanes);
    uint32_t *block = work.rows.data();
    block += (kLanes - reinterpret_cast<uintptr_t>(block) / sizeof(uint32_t)
              % kLanes) % kLanes;
    uint32_t *commit_ring = block;
    uint32_t *finish = commit_ring + commit_rows * kLanes;
    uint32_t *line_state = finish + finish_rows * kLanes;
    uint32_t *boundary_rows = line_state + 2 * slots * kLanes;
    uint32_t *issue_rows = boundary_rows + windows * kLanes;
    uint32_t *exec_rows = issue_rows + kLatencyChunk * kLanes;
    uint32_t *commit_lat_rows = exec_rows + kLatencyChunk * kLanes;
    std::fill(commit_ring, commit_ring + commit_rows * kLanes, 0u);
    std::fill(line_state, line_state + 2 * slots * kLanes, 0u);

    const size_t commit_mask = commit_rows - 1;
    const size_t finish_mask = finish_rows - 1;
    const __m512i ring_step = _mm512_set1_epi32(kLanes);
    const __m512i ring_wrap =
        _mm512_set1_epi32(static_cast<int>(commit_rows * kLanes - 1));
    __m512i ring_idx = _mm512_load_si512(ring_at);
    __m512i c_prev = _mm512_setzero_si512();
    __m512i max_finish = _mm512_setzero_si512();
    __m512i barrier_finish = _mm512_setzero_si512();
    LatencyColumn columns[3 * kLanes];
    size_t num_columns = 0;
    for (size_t l = 0; l < count; ++l) {
        if (requests[l].latencies) {
            columns[num_columns++] = {issue_rows + l, &latencies[l].issue};
            columns[num_columns++] =
                {commit_lat_rows + l, &latencies[l].commit};
        }
        if (requests[l].execLatency)
            columns[num_columns++] = {exec_rows + l, &latencies[l].exec};
    }
    size_t buffered = 0;
    size_t window = 0;
    int until_boundary = window_k;

    for (size_t i = 0; i < n; ++i) {
        // Eq. (1). A lane of ROB size 1 takes c_{i-1} from the register
        // instead of a gather of the row stored one step ago.
        const __m512i a = _mm512_mask_i32gather_epi32(
            c_prev, static_cast<__mmask16>(~rob_one), ring_idx, commit_ring,
            4);
        ring_idx = _mm512_and_si512(_mm512_add_epi32(ring_idx, ring_step),
                                    ring_wrap);

        // Eq. (2): a dependency is the same instruction in every lane,
        // so its finish cycles are one row.
        __m512i s = maxU32(a, barrier_finish);
        const int32_t dep0 = region.srcDep0[i];
        const int32_t dep1 = region.srcDep1[i];
        const int32_t mdep = region.memDep[i];
        if (dep0 >= 0) {
            s = maxU32(s, _mm512_load_si512(
                finish + (dep0 & finish_mask) * kLanes));
        }
        if (dep1 >= 0) {
            s = maxU32(s, _mm512_load_si512(
                finish + (dep1 & finish_mask) * kLanes));
        }
        if (mdep >= 0) {
            s = maxU32(s, _mm512_load_si512(
                finish + (mdep & finish_mask) * kLanes));
        }
        const bool isb = region.isIsb(i);
        if (isb)
            s = maxU32(s, max_finish);

        // Eq. (3): MemoryStateMachine::respCycleInOrder, per lane.
        const __m512i lat = _mm512_set1_epi32(exec_lat[i]);
        __m512i f;
        const int32_t slot =
            region.isLoad(i) ? line_slot[index.lineIdOf[i]] : -1;
        if (slot >= 0) {
            uint32_t *req_row = line_state + 2 * slot * kLanes;
            uint32_t *resp_row = req_row + kLanes;
            const __m512i req = maxU32(s, _mm512_load_si512(req_row));
            _mm512_store_si512(req_row, req);
            f = maxU32(_mm512_add_epi32(req, lat),
                       _mm512_load_si512(resp_row));
            _mm512_store_si512(resp_row, f);
        } else {
            f = _mm512_add_epi32(s, lat);
        }

        // Eq. (4).
        const __m512i c = maxU32(f, c_prev);

        _mm512_store_si512(finish + (i & finish_mask) * kLanes, f);
        max_finish = maxU32(max_finish, f);
        if (isb)
            barrier_finish = maxU32(barrier_finish, f);
        _mm512_store_si512(commit_ring + (i & commit_mask) * kLanes, c);
        c_prev = c;

        if (num_columns != 0) {
            const size_t at = buffered * kLanes;
            _mm512_store_si512(issue_rows + at, _mm512_sub_epi32(s, a));
            _mm512_store_si512(exec_rows + at, _mm512_sub_epi32(f, s));
            _mm512_store_si512(commit_lat_rows + at, _mm512_sub_epi32(c, f));
            if (++buffered == kLatencyChunk) {
                countRows(columns, num_columns, buffered);
                buffered = 0;
            }
        }

        if (--until_boundary == 0) {
            _mm512_store_si512(boundary_rows + window++ * kLanes, c);
            until_boundary = window_k;
        }
    }
    countRows(columns, num_columns, buffered);

    alignas(64) uint32_t c_last[kLanes];
    _mm512_store_si512(c_last, c_prev);
    std::vector<uint64_t> &boundaries = work.boundaries;
    for (size_t l = 0; l < count; ++l) {
        boundaries.resize(windows);
        for (size_t w = 0; w < windows; ++w)
            boundaries[w] = boundary_rows[w * kLanes + l];
        finishResult(boundaries, c_last[l], n, window_k, results[l]);
    }
}

#else // no lockstep kernel on this platform

void
robkernel::runLockstep(const TraceColumns &, const LoadLineIndex &,
                       const std::vector<int32_t> &, const RegionBounds &,
                       const RobRunRequest *, size_t, int, RobModelResult *,
                       RobStageLatencies *, Workspace &)
{
    panic("lockstep ROB kernel called on a build without it");
}

#endif

void
runRobModels(const TraceColumns &region, const LoadLineIndex &index,
             const std::vector<int32_t> &exec_lat,
             const std::vector<RobRunRequest> &requests, int window_k,
             std::vector<RobModelResult> &results,
             std::vector<RobStageLatencies> &latencies)
{
    const size_t count = requests.size();
    results.resize(count);
    latencies.resize(count);
    robkernel::Workspace work;
    const auto bounds = robkernel::RegionBounds::of(region, exec_lat);
    if (count >= 2 && avx512fSupported() && bounds.fitsLanes()) {
        for (size_t k = 0; k < count; k += robkernel::kLanes) {
            robkernel::runLockstep(
                region, index, exec_lat, bounds, requests.data() + k,
                std::min(robkernel::kLanes, count - k), window_k,
                results.data() + k, latencies.data() + k, work);
        }
        return;
    }
    for (size_t k = 0; k < count; ++k) {
        robkernel::runPortable(region, index, exec_lat, bounds, requests[k],
                               window_k, results[k], latencies[k], work);
    }
}

RobModelResult
runRobModel(const TraceColumns &region, const LoadLineIndex &index,
            const std::vector<int32_t> &exec_lat, int rob_size, int window_k)
{
    robkernel::Workspace work;
    RobStageLatencies unused;
    RobModelResult result;
    robkernel::runPortable(region, index, exec_lat,
                           robkernel::RegionBounds::of(region, exec_lat),
                           RobRunRequest{rob_size, false, false}, window_k,
                           result, unused, work);
    return result;
}

const char *
robKernelName()
{
    return avx512fSupported() ? "avx512f" : "portable";
}

} // namespace concorde
