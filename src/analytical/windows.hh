/**
 * @file
 * Windowed-throughput utilities shared by the per-resource analytical
 * models (Section 3.2.1): Eq. (5)'s boundary-cycle-to-throughput
 * conversion and per-window instruction-mix counts.
 */

#ifndef CONCORDE_ANALYTICAL_WINDOWS_HH
#define CONCORDE_ANALYTICAL_WINDOWS_HH

#include <cstdint>
#include <vector>

#include "analysis/trace_analyzer.hh"
#include "trace/instruction.hh"

namespace concorde
{

/** Default window length k (paper Section 4). */
constexpr int kDefaultWindowK = 400;

/**
 * Throughput bounds are capped here: a window whose constraint never binds
 * (e.g. zero cycles elapsed) is "unboundedly fast" for that resource.
 */
constexpr double kMaxThroughput = 64.0;

/** Number of complete k-instruction windows in a region of n instructions. */
inline size_t
numWindows(size_t n, int k)
{
    return n / static_cast<size_t>(k);
}

/**
 * Eq. (5): thr_j = k / (c_{kj} - c_{k(j-1)}), with c_0 = 0. The input is
 * the completion cycle at the end of each window.
 */
std::vector<double> throughputFromBoundaries(
    const std::vector<uint64_t> &boundary_cycles, int k);

/** Per-window instruction-mix counts (parameter independent). */
struct WindowCounts
{
    int k = kDefaultWindowK;
    std::vector<uint32_t> nAlu;         ///< IssueClass::Alu instructions
    std::vector<uint32_t> nFp;
    std::vector<uint32_t> nLs;          ///< loads + stores
    std::vector<uint32_t> nLoad;
    std::vector<uint32_t> nStore;
    std::vector<uint32_t> nIsb;
    std::vector<uint32_t> nCondBr;
    std::vector<uint32_t> nUncondBr;
    std::vector<uint32_t> nIndirectBr;

    size_t windows() const { return nAlu.size(); }

    static WindowCounts build(const TraceColumns &region, int k);
};

} // namespace concorde

#endif // CONCORDE_ANALYTICAL_WINDOWS_HH
