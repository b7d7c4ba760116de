/**
 * @file
 * The one trace layout: columnar (structure-of-arrays) storage for
 * every production path -- trace generation, trace analysis, the
 * analytical models, the TAO baseline, and the fast cycle-level
 * simulator.
 *
 * The per-instruction sweeps each touch only a few Instruction fields, so
 * an array-of-structs layout would drag ~40 bytes per instruction through
 * the cache per pass. TraceColumns stores each field in its own parallel
 * array: pc, memAddr (plus the derived instruction-cache line index),
 * dependency indices, type, and branch metadata, so a pass streams only
 * the columns it reads. Element i of every column describes dynamic
 * instruction i. get()/toInstructions() reconstruct the row record
 * bitwise; only the two row-based reference oracles read rows
 * (simulateTraceReference and AnalyzerCarryState's per-side analyses).
 */

#ifndef CONCORDE_TRACE_TRACE_COLUMNS_HH
#define CONCORDE_TRACE_TRACE_COLUMNS_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace/instruction.hh"

namespace concorde
{

/** One vector per Instruction field; entry i of each is instruction i. */
struct TraceColumns
{
    std::vector<uint64_t> pc;
    std::vector<uint64_t> memAddr;
    /** Instruction-cache line index (pc >> 6), precomputed per entry. */
    std::vector<uint64_t> instLine;
    std::vector<int32_t> srcDep0;
    std::vector<int32_t> srcDep1;
    std::vector<int32_t> memDep;
    std::vector<InstrType> type;
    std::vector<BranchKind> branchKind;
    std::vector<uint8_t> taken;
    std::vector<uint16_t> targetId;

    size_t size() const { return type.size(); }
    bool empty() const { return type.empty(); }

    void clear();
    void reserve(size_t n);
    /** Grow or shrink to n entries; new entries are Instruction{}. */
    void resize(size_t n);

    void append(const Instruction &instr);
    /** Append entries [begin, end) of another column set. */
    void appendSlice(const TraceColumns &other, size_t begin, size_t end);

    /**
     * Replace the contents with `head` followed by `tail`, shifting the
     * tail's dependency indices by head.size() so they index the
     * concatenation (the warmup + region trace the simulator runs).
     * Reuses this instance's capacity.
     */
    void assignConcat(const TraceColumns &head, const TraceColumns &tail);

    /** Reconstruct the row record of entry i (bitwise round trip). */
    Instruction get(size_t i) const;

    /** All entries as rows, for the row-based reference oracles. */
    std::vector<Instruction> toInstructions() const;

    bool isLoad(size_t i) const { return type[i] == InstrType::Load; }
    bool isStore(size_t i) const { return type[i] == InstrType::Store; }
    bool isMem(size_t i) const { return isLoad(i) || isStore(i); }
    bool isBranch(size_t i) const { return type[i] == InstrType::Branch; }
    bool isIsb(size_t i) const { return type[i] == InstrType::Isb; }

    /** Data-cache line index of a memory entry. */
    uint64_t dataLine(size_t i) const { return memAddr[i] >> 6; }
};

} // namespace concorde

#endif // CONCORDE_TRACE_TRACE_COLUMNS_HH
