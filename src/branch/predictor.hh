/**
 * @file
 * Branch predictors (Section 3.1): `Simple`, which mispredicts randomly at
 * a pre-specified rate, and `TAGE`. Conditional branches are predicted by
 * direction; indirect branches by a last-target table; direct unconditional
 * branches never mispredict.
 *
 * Trace analysis computes per-branch mispredict flags once per region;
 * both the analytical features and the reference simulator consume the
 * same flags, exactly as the paper's pipeline shares its trace analysis.
 */

#ifndef CONCORDE_BRANCH_PREDICTOR_HH
#define CONCORDE_BRANCH_PREDICTOR_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "trace/instruction.hh"
#include "trace/trace_columns.hh"

namespace concorde
{

/** Branch-predictor design point (two Table-1 parameters). */
struct BranchConfig
{
    enum class Type : uint8_t { Simple = 0, Tage = 1 };

    Type type = Type::Tage;
    int simpleMispredictPct = 5;    ///< 0..100, used when type == Simple

    bool operator==(const BranchConfig &o) const
    {
        return type == o.type
            && (type == Type::Tage
                || simpleMispredictPct == o.simpleMispredictPct);
    }

    /** Dense key for memoization. */
    uint32_t key() const
    {
        return type == Type::Tage ? 1000u
            : static_cast<uint32_t>(simpleMispredictPct);
    }
};

/** Direction + indirect-target predictor interface. */
class BranchPredictor
{
  public:
    virtual ~BranchPredictor() = default;

    /**
     * Predict the direction of a conditional branch, then train on the
     * actual outcome. @return predicted direction.
     */
    virtual bool predictAndUpdate(uint64_t pc, bool taken) = 0;

    /**
     * Predict an indirect branch's target, then train.
     * @return true if the target was predicted correctly.
     */
    virtual bool predictIndirect(uint64_t pc, uint16_t target);

  private:
    /** Shared last-target indirect predictor (1k entries). */
    struct IndirectEntry { uint64_t pc = ~0ULL; uint16_t target = 0; };
    std::vector<IndirectEntry> indirectTable =
        std::vector<IndirectEntry>(1024);
};

/** Instantiate a predictor per config. @param seed for Simple's draws. */
std::unique_ptr<BranchPredictor> makePredictor(const BranchConfig &config,
                                               uint64_t seed);

/**
 * Predict-and-train one branch; @return 1 on mispredict. Direct
 * unconditional branches never mispredict. The single per-branch step
 * shared by runPredictor and the columnar branch sweep, so every caller
 * trains the predictor in exactly the same way.
 */
inline uint8_t
predictorStep(BranchPredictor &predictor, uint64_t pc, BranchKind kind,
              bool taken, uint16_t target)
{
    switch (kind) {
      case BranchKind::DirectCond: {
        const bool pred = predictor.predictAndUpdate(pc, taken);
        return pred != taken ? 1 : 0;
      }
      case BranchKind::Indirect:
        return predictor.predictIndirect(pc, target) ? 0 : 1;
      default:
        return 0;
    }
}

/**
 * Run a live predictor over `instrs` in trace order. When `flags` is
 * non-null it receives one entry per instruction (1 = mispredicted
 * branch); a null `flags` trains without recording (warmup). Predictor
 * state carries across calls, which is how the stitched pipeline splits
 * a trace at shard boundaries without changing any outcome.
 */
void runPredictor(BranchPredictor &predictor, const TraceColumns &instrs,
                  std::vector<uint8_t> *flags);

/**
 * Row variant (identical outcomes and training), called only by the
 * row-based reference analyses of AnalyzerCarryState.
 */
void runPredictor(BranchPredictor &predictor,
                  const std::vector<Instruction> &instrs,
                  std::vector<uint8_t> *flags);

/**
 * Run the configured predictor over `warmup + region` and return one flag
 * per region instruction (1 = mispredicted branch). Non-branches get 0.
 */
std::vector<uint8_t> computeMispredicts(const TraceColumns &warmup,
                                        const TraceColumns &region,
                                        const BranchConfig &config,
                                        uint64_t seed);

} // namespace concorde

#endif // CONCORDE_BRANCH_PREDICTOR_HH
