/**
 * @file
 * The per-instruction trace record and the enums that classify it.
 *
 * This is the repo's analogue of a post-processed DynamoRIO drmemtrace
 * record (paper Section 3.1): program counter, effective address, register
 * and memory dependencies, instruction class, and branch metadata.
 * Traces are stored in one layout, TraceColumns (one column per field
 * below); an Instruction is the unit the generator emits into it
 * (TraceColumns::append). Only the two reference oracles read traces as
 * rows of this record: simulateTraceReference and AnalyzerCarryState's
 * per-side analyses, both fed TraceColumns::toInstructions().
 */

#ifndef CONCORDE_TRACE_INSTRUCTION_HH
#define CONCORDE_TRACE_INSTRUCTION_HH

#include <cstdint>

namespace concorde
{

/** Coarse opcode classes; enough to drive latency and issue-port modeling. */
enum class InstrType : uint8_t
{
    IntAlu = 0,
    IntMul,
    IntDiv,
    FpAlu,
    FpDiv,
    Load,
    Store,
    Branch,
    Isb,        ///< instruction synchronization barrier (pipeline drain)
    NumTypes,
};

/** Branch categories from Section 3.1. */
enum class BranchKind : uint8_t
{
    None = 0,
    DirectUncond,
    DirectCond,
    Indirect,
};

/** Issue-port class: which issue-width / pipe parameters constrain a type. */
enum class IssueClass : uint8_t
{
    Alu = 0,    ///< integer ALU + branches + barriers
    Fp,
    LoadStore,
};

/** Maximum register source dependencies tracked per instruction. */
constexpr int kMaxSrcDeps = 2;

/**
 * One dynamic instruction. Dependency fields hold absolute indices into the
 * enclosing region's trace (-1 when absent); region generation guarantees
 * dep < own index.
 */
struct Instruction
{
    uint64_t pc = 0;                ///< byte address (4-byte instructions)
    uint64_t memAddr = 0;           ///< effective address for Load/Store
    int32_t srcDeps[kMaxSrcDeps] = {-1, -1};
    int32_t memDep = -1;            ///< producing Store for this Load, if any
    InstrType type = InstrType::IntAlu;
    BranchKind branchKind = BranchKind::None;
    bool taken = false;             ///< branch outcome
    uint16_t targetId = 0;          ///< indirect-branch target selector

    bool isLoad() const { return type == InstrType::Load; }
    bool isStore() const { return type == InstrType::Store; }
    bool isMem() const { return isLoad() || isStore(); }
    bool isBranch() const { return type == InstrType::Branch; }
    bool isIsb() const { return type == InstrType::Isb; }

    /** Data-cache line index for memory instructions. */
    uint64_t dataLine() const { return memAddr >> 6; }
    /** Instruction-cache line index. */
    uint64_t instLine() const { return pc >> 6; }
};

/**
 * Fixed execution latency (cycles) for non-load types; loads take their
 * latency from the cache level (Section 3.1).
 */
inline int
fixedLatency(InstrType type)
{
    switch (type) {
      case InstrType::IntAlu: return 1;
      case InstrType::IntMul: return 3;
      case InstrType::IntDiv: return 18;
      case InstrType::FpAlu: return 3;
      case InstrType::FpDiv: return 20;
      case InstrType::Store: return 2;   // write-back with store forwarding
      case InstrType::Branch: return 1;
      case InstrType::Isb: return 1;
      case InstrType::Load: return 4;    // placeholder: L1 hit
      default: return 1;
    }
}

/** Cache-level → load latency map (paper Section 3.1 example values). */
enum class CacheLevel : uint8_t { L1 = 0, L2, LLC, Ram, NumLevels };

inline int
loadLatency(CacheLevel level)
{
    switch (level) {
      case CacheLevel::L1: return 4;
      case CacheLevel::L2: return 10;
      case CacheLevel::LLC: return 30;
      case CacheLevel::Ram: return 200;
      default: return 4;
    }
}

inline IssueClass
issueClassOf(InstrType type)
{
    switch (type) {
      case InstrType::FpAlu:
      case InstrType::FpDiv:
        return IssueClass::Fp;
      case InstrType::Load:
      case InstrType::Store:
        return IssueClass::LoadStore;
      default:
        return IssueClass::Alu;
    }
}

/** True for types whose result can be a register source of a later instr. */
inline bool
producesValue(InstrType type)
{
    switch (type) {
      case InstrType::IntAlu:
      case InstrType::IntMul:
      case InstrType::IntDiv:
      case InstrType::FpAlu:
      case InstrType::FpDiv:
      case InstrType::Load:
        return true;
      default:
        return false;
    }
}

} // namespace concorde

#endif // CONCORDE_TRACE_INSTRUCTION_HH
