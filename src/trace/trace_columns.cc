#include "trace/trace_columns.hh"

namespace concorde
{

void
TraceColumns::clear()
{
    pc.clear();
    memAddr.clear();
    instLine.clear();
    srcDep0.clear();
    srcDep1.clear();
    memDep.clear();
    type.clear();
    branchKind.clear();
    taken.clear();
    targetId.clear();
}

void
TraceColumns::reserve(size_t n)
{
    pc.reserve(n);
    memAddr.reserve(n);
    instLine.reserve(n);
    srcDep0.reserve(n);
    srcDep1.reserve(n);
    memDep.reserve(n);
    type.reserve(n);
    branchKind.reserve(n);
    taken.reserve(n);
    targetId.reserve(n);
}

void
TraceColumns::resize(size_t n)
{
    const Instruction blank;
    pc.resize(n, blank.pc);
    memAddr.resize(n, blank.memAddr);
    instLine.resize(n, blank.instLine());
    srcDep0.resize(n, blank.srcDeps[0]);
    srcDep1.resize(n, blank.srcDeps[1]);
    memDep.resize(n, blank.memDep);
    type.resize(n, blank.type);
    branchKind.resize(n, blank.branchKind);
    taken.resize(n, blank.taken ? 1 : 0);
    targetId.resize(n, blank.targetId);
}

void
TraceColumns::append(const Instruction &instr)
{
    pc.push_back(instr.pc);
    memAddr.push_back(instr.memAddr);
    instLine.push_back(instr.instLine());
    srcDep0.push_back(instr.srcDeps[0]);
    srcDep1.push_back(instr.srcDeps[1]);
    memDep.push_back(instr.memDep);
    type.push_back(instr.type);
    branchKind.push_back(instr.branchKind);
    taken.push_back(instr.taken ? 1 : 0);
    targetId.push_back(instr.targetId);
}

void
TraceColumns::appendSlice(const TraceColumns &other, size_t begin,
                          size_t end)
{
    auto slice = [begin, end](auto &dst, const auto &src) {
        dst.insert(dst.end(), src.begin() + begin, src.begin() + end);
    };
    slice(pc, other.pc);
    slice(memAddr, other.memAddr);
    slice(instLine, other.instLine);
    slice(srcDep0, other.srcDep0);
    slice(srcDep1, other.srcDep1);
    slice(memDep, other.memDep);
    slice(type, other.type);
    slice(branchKind, other.branchKind);
    slice(taken, other.taken);
    slice(targetId, other.targetId);
}

Instruction
TraceColumns::get(size_t i) const
{
    Instruction instr;
    instr.pc = pc[i];
    instr.memAddr = memAddr[i];
    instr.srcDeps[0] = srcDep0[i];
    instr.srcDeps[1] = srcDep1[i];
    instr.memDep = memDep[i];
    instr.type = type[i];
    instr.branchKind = branchKind[i];
    instr.taken = taken[i] != 0;
    instr.targetId = targetId[i];
    return instr;
}

std::vector<Instruction>
TraceColumns::toInstructions() const
{
    std::vector<Instruction> out;
    out.reserve(size());
    for (size_t i = 0; i < size(); ++i)
        out.push_back(get(i));
    return out;
}

void
TraceColumns::assignConcat(const TraceColumns &head, const TraceColumns &tail)
{
    clear();
    reserve(head.size() + tail.size());
    appendSlice(head, 0, head.size());
    appendSlice(tail, 0, tail.size());
    const int32_t offset = static_cast<int32_t>(head.size());
    for (size_t i = head.size(); i < size(); ++i) {
        if (srcDep0[i] >= 0)
            srcDep0[i] += offset;
        if (srcDep1[i] >= 0)
            srcDep1[i] += offset;
        if (memDep[i] >= 0)
            memDep[i] += offset;
    }
}

} // namespace concorde
