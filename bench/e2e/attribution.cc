/**
 * @file
 * attribution: call i attributes the CPI difference between ARM N1 and
 * the big core on a fresh seed-drawn region to the 17 Figure-16
 * components, with batched Monte Carlo Shapley (64 permutations,
 * 1,089 evaluations) through predictCpiBatch on one provider per
 * region -- the paper's Figure 16 use. Few distinct analytical-model
 * runs, many rows: the GEMM dominates.
 */

#include <cmath>
#include <set>
#include <tuple>

#include "core/shapley.hh"
#include "e2e.hh"

namespace concorde
{
namespace e2e
{

namespace
{

constexpr uint64_t kRegionStream = 0xA770;
constexpr uint64_t kCheckStream = 0xA771;
constexpr int kPermutations = 64;

class Attribution : public SequentialWorkload
{
  public:
    explicit Attribution(uint64_t seed) : seed(seed) {}

    void
    setup() override
    {
        predictor = std::make_unique<ConcordePredictor>(makePredictor());
        touchAllPrograms();
        LayerCounts unused;
        uint64_t ops = 0;
        (void)attribute(drawRegion(kWarmupSeed, kRegionStream, 0),
                        kWarmupSeed, 0, unused, ops);
    }

    CheckResult
    check(const RunOutput &base) override
    {
        CheckResult result;
        const size_t d = attributionComponents().size();
        // Efficiency on every call: the values telescope per sampled
        // permutation, so they sum to cpi(target) - cpi(base) up to
        // rounding.
        for (const CallOutput &call : base.calls) {
            ++result.attempted;
            if (call.values.size() != d + 2) {
                ++result.failed;
                continue;
            }
            double sum = 0.0;
            for (size_t c = 0; c < d; ++c)
                sum += call.values[c];
            const double b = call.values[d];
            const double t = call.values[d + 1];
            if (std::abs(sum - (t - b)) > 1e-9 * (std::abs(b) + std::abs(t)))
                ++result.failed;
        }
        // The base and target CPIs of 16 seed-chosen calls, one-shot.
        for (size_t i :
             pickIndices(seed, kCheckStream, base.calls.size(), 16)) {
            const auto &values = base.calls[i].values;
            if (values.size() != d + 2)
                continue;   // already failed above
            const RegionSpec region = drawRegion(seed, kRegionStream, i);
            result.attempted += 2;
            result.failed +=
                (predictor->predictCpi(region, UarchParams::armN1())
                 != values[d])
                + (predictor->predictCpi(region, UarchParams::bigCore())
                   != values[d + 1]);
        }
        return result;
    }

    const char *opName() const override { return "evaluations"; }

  protected:
    CallOutput
    call(size_t i, bool traced, LayerCounts &counts, uint64_t &ops) override
    {
        return attribute(drawRegion(seed, kRegionStream, i),
                         hashMix(seed, kRegionStream + 2, i),
                         traced ? i + 1 : 0, counts, ops);
    }

  private:
    /**
     * Attribute one region; `request` != 0 replays it one public layer
     * call at a time, with spans tagged `request`.
     */
    CallOutput
    attribute(const RegionSpec &region, uint64_t permutation_seed,
              uint64_t request, LayerCounts &counts, uint64_t &ops)
    {
        const auto &components = attributionComponents();
        ShapleyConfig config;
        config.numPermutations = kPermutations;
        config.seed = permutation_seed;

        // One batch holds the base and then every prefix of every
        // sampled order, so entry d -- the last prefix of the first
        // order -- is the target design.
        double base_cpi = 0.0;
        double target_cpi = 0.0;
        auto record = [&](const std::vector<double> &values) {
            base_cpi = values.front();
            target_cpi = values.at(components.size());
            ops += values.size();
        };

        std::vector<double> phi;
        if (request == 0) {
            FeatureProvider provider(region, predictor->featureConfig());
            const BatchEval eval = [&](const std::vector<UarchParams> &pts) {
                auto values =
                    predictor->predictCpiBatch(provider, pts, kThreads);
                record(values);
                return values;
            };
            phi = shapleyAttribution(UarchParams::armN1(),
                                     UarchParams::bigCore(), components,
                                     eval, config);
        } else {
            // predictCpiBatch, one public layer call at a time.
            Span root("attribution", request);
            std::unique_ptr<FeatureProvider> provider;
            {
                Span span("trace");
                provider = std::make_unique<FeatureProvider>(
                    region, predictor->featureConfig());
            }
            const size_t dim = predictor->layout().dim();
            const BatchEval eval = [&](const std::vector<UarchParams> &pts) {
                std::set<std::tuple<uint32_t, uint32_t, uint32_t>> sides;
                for (const UarchParams &p : pts) {
                    if (!sides.insert({p.memory.dSideKey(),
                                       p.memory.iSideKey(), p.branch.key()})
                             .second)
                        continue;
                    Span span("analysis");
                    provider->analysis().analyzeAll(p.memory, p.branch);
                }
                // Reserved up front as predictCpiBatch does: assemble()
                // reserves only one more row, so appending to an
                // unreserved matrix would copy it quadratically.
                std::vector<float> rows;
                rows.reserve(pts.size() * dim);
                for (const UarchParams &p : pts) {
                    Span span("analytical");
                    provider->assemble(p, rows);
                }
                Span span("ml");
                auto values = predictor->predictCpiFromFeatures(
                    rows, pts.size(), kThreads);
                record(values);
                counts.mlRows += pts.size();
                counts.mlCalls += 1;
                return values;
            };
            {
                Span span("core");
                phi = shapleyAttribution(UarchParams::armN1(),
                                         UarchParams::bigCore(), components,
                                         eval, config);
            }
            RegionAnalysis &analysis = provider->analysis();
            const HierarchyStats &d =
                analysis.dside(UarchParams::armN1().memory).stats;
            counts.traceInstructions +=
                analysis.regionSize() + analysis.warmupSize();
            counts.sidesBuilt += sidesHeld(analysis);
            counts.l1dHits += d.l1Hits;
            counts.dAccesses += d.accesses();
            counts.modelRuns += provider->modelRuns();
        }

        CallOutput out;
        out.values = std::move(phi);
        out.values.push_back(base_cpi);
        out.values.push_back(target_cpi);
        return out;
    }

    const uint64_t seed;
    std::unique_ptr<ConcordePredictor> predictor;
};

} // anonymous namespace

std::unique_ptr<Workload>
makeAttribution(uint64_t seed)
{
    return std::make_unique<Attribution>(seed);
}

} // namespace e2e
} // namespace concorde
