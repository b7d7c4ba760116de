#include "analytical/windows.hh"

#include <algorithm>

namespace concorde
{

std::vector<double>
throughputFromBoundaries(const std::vector<uint64_t> &boundary_cycles, int k)
{
    std::vector<double> thr(boundary_cycles.size());
    uint64_t prev = 0;
    for (size_t j = 0; j < boundary_cycles.size(); ++j) {
        const uint64_t cur = boundary_cycles[j];
        const uint64_t delta = cur > prev ? cur - prev : 0;
        thr[j] = delta == 0
            ? kMaxThroughput
            : std::min(kMaxThroughput,
                       static_cast<double>(k) / static_cast<double>(delta));
        prev = cur;
    }
    return thr;
}

WindowCounts
WindowCounts::build(const TraceColumns &region, int k)
{
    WindowCounts counts;
    counts.k = k;
    const size_t windows = numWindows(region.size(), k);
    counts.nAlu.assign(windows, 0);
    counts.nFp.assign(windows, 0);
    counts.nLs.assign(windows, 0);
    counts.nLoad.assign(windows, 0);
    counts.nStore.assign(windows, 0);
    counts.nIsb.assign(windows, 0);
    counts.nCondBr.assign(windows, 0);
    counts.nUncondBr.assign(windows, 0);
    counts.nIndirectBr.assign(windows, 0);

    for (size_t j = 0; j < windows; ++j) {
        const size_t begin = j * static_cast<size_t>(k);
        const size_t end = begin + static_cast<size_t>(k);
        for (size_t i = begin; i < end; ++i) {
            const InstrType type = region.type[i];
            switch (issueClassOf(type)) {
              case IssueClass::Alu: ++counts.nAlu[j]; break;
              case IssueClass::Fp: ++counts.nFp[j]; break;
              case IssueClass::LoadStore: ++counts.nLs[j]; break;
            }
            if (type == InstrType::Load)
                ++counts.nLoad[j];
            if (type == InstrType::Store)
                ++counts.nStore[j];
            if (type == InstrType::Isb)
                ++counts.nIsb[j];
            switch (region.branchKind[i]) {
              case BranchKind::DirectCond: ++counts.nCondBr[j]; break;
              case BranchKind::DirectUncond: ++counts.nUncondBr[j]; break;
              case BranchKind::Indirect: ++counts.nIndirectBr[j]; break;
              default: break;
            }
        }
    }
    return counts;
}

} // namespace concorde
