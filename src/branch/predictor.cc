#include "branch/predictor.hh"

#include "branch/simple_bp.hh"
#include "branch/tage.hh"
#include "common/logging.hh"

namespace concorde
{

bool
BranchPredictor::predictIndirect(uint64_t pc, uint16_t target)
{
    IndirectEntry &e = indirectTable[(pc >> 2) & (indirectTable.size() - 1)];
    const bool correct = (e.pc == pc && e.target == target);
    e.pc = pc;
    e.target = target;
    return correct;
}

std::unique_ptr<BranchPredictor>
makePredictor(const BranchConfig &config, uint64_t seed)
{
    if (config.type == BranchConfig::Type::Simple)
        return std::make_unique<SimpleBp>(config.simpleMispredictPct, seed);
    return std::make_unique<Tage>();
}

void
runPredictor(BranchPredictor &predictor,
             const std::vector<Instruction> &instrs,
             std::vector<uint8_t> *flags)
{
    const bool record = flags != nullptr;
    if (record)
        flags->assign(instrs.size(), 0);

    for (size_t i = 0; i < instrs.size(); ++i) {
        const Instruction &instr = instrs[i];
        if (!instr.isBranch())
            continue;
        const uint8_t miss = predictorStep(predictor, instr.pc,
                                           instr.branchKind, instr.taken,
                                           instr.targetId);
        if (record)
            (*flags)[i] = miss;
    }
}

void
runPredictor(BranchPredictor &predictor, const TraceColumns &instrs,
             std::vector<uint8_t> *flags)
{
    const bool record = flags != nullptr;
    if (record)
        flags->assign(instrs.size(), 0);

    for (size_t i = 0; i < instrs.size(); ++i) {
        if (!instrs.isBranch(i))
            continue;
        const uint8_t miss = predictorStep(predictor, instrs.pc[i],
                                           instrs.branchKind[i],
                                           instrs.taken[i] != 0,
                                           instrs.targetId[i]);
        if (record)
            (*flags)[i] = miss;
    }
}

std::vector<uint8_t>
computeMispredicts(const TraceColumns &warmup, const TraceColumns &region,
                   const BranchConfig &config, uint64_t seed)
{
    auto predictor = makePredictor(config, seed);
    runPredictor(*predictor, warmup, nullptr);
    std::vector<uint8_t> flags;
    runPredictor(*predictor, region, &flags);
    return flags;
}

} // namespace concorde
