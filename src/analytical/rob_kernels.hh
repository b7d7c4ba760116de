/**
 * @file
 * Internal to src/analytical: the two kernels behind runRobModels().
 * Exposed so tests can run each directly, the portable one included on
 * hosts that would never pick it; not part of the library's API.
 *
 * Both kernels compute every cycle of Eqs. 1-4 as an integer max or
 * add, so their windows, overall IPC and latency histograms are
 * bitwise equal.
 */

#ifndef CONCORDE_ANALYTICAL_ROB_KERNELS_HH
#define CONCORDE_ANALYTICAL_ROB_KERNELS_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "analytical/rob_model.hh"

namespace concorde
{
namespace robkernel
{

/** ROB sizes per lockstep pass: one 32-bit lane of a zmm register. */
constexpr size_t kLanes = 16;

/** Working buffers of the kernels, reused across the passes of a call. */
struct Workspace
{
    std::vector<uint64_t> ring;         ///< runPortable's commit/finish rings
    std::vector<uint64_t> boundaries;   ///< one size's window boundaries
    std::vector<uint32_t> rows;         ///< runLockstep's 16-lane rows
    std::vector<int32_t> lineSlot;      ///< runLockstep's per-line state slot
};

/** Region facts that size the kernels' rings and pick the kernel. */
struct RegionBounds
{
    /** Largest i - d over every dependency d of every instruction i. */
    size_t maxDepDistance = 0;
    /**
     * No cycle of any run exceeds this: every a, s, f and c of
     * instruction i is at most the sum of exec_lat[0..i].
     */
    uint64_t cycleBound = 0;

    static RegionBounds of(const TraceColumns &region,
                           const std::vector<int32_t> &exec_lat);

    /** May the lockstep kernel run the region in 32-bit lanes? */
    bool fitsLanes() const { return cycleBound <= UINT32_MAX; }
};

/**
 * One ROB size with 64-bit cycles: the recurrence of Eqs. 1-4 over a
 * commit ring of rob_size entries and a finish ring sized from the
 * region's dependency distance. Runs on any host and any region.
 */
void runPortable(const TraceColumns &region, const LoadLineIndex &index,
                 const std::vector<int32_t> &exec_lat,
                 const RegionBounds &bounds, const RobRunRequest &request,
                 int window_k, RobModelResult &result,
                 RobStageLatencies &latencies, Workspace &work);

/**
 * Up to kLanes sizes in one pass, AVX-512F, 32-bit cycles: lane l runs
 * requests[l]; padding lanes repeat requests[0]'s size and are dropped.
 * Call only when avx512fSupported() and bounds.fitsLanes().
 */
void runLockstep(const TraceColumns &region, const LoadLineIndex &index,
                 const std::vector<int32_t> &exec_lat,
                 const RegionBounds &bounds, const RobRunRequest *requests,
                 size_t count, int window_k, RobModelResult *results,
                 RobStageLatencies *latencies, Workspace &work);

} // namespace robkernel
} // namespace concorde

#endif // CONCORDE_ANALYTICAL_ROB_KERNELS_HH
