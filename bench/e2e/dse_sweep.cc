/**
 * @file
 * dse_sweep: call i sweeps a fresh seed-drawn region over the full
 * quantized one-at-a-time grid around ARM N1 (171 points covering all
 * 20 Table-1 parameters) with predictSweep and a fresh AnalysisStore.
 * Every call pays trace generation, the per-side analyses, feature
 * assembly for 171 rows and one GEMM; assembly dominates and the
 * simulator is idle.
 */

#include <numeric>
#include <tuple>

#include "e2e.hh"

namespace concorde
{
namespace e2e
{

namespace
{

constexpr uint64_t kRegionStream = 0xD5E0;
constexpr uint64_t kCheckStream = 0xD5E1;

std::vector<UarchParams>
gridAroundN1()
{
    std::vector<UarchParams> points;
    const UarchParams base = UarchParams::armN1();
    for (const ParamInfo &info : paramTable()) {
        for (int64_t value : sweepValues(info.id, /*quantized=*/true)) {
            UarchParams point = base;
            point.set(info.id, value);
            points.push_back(point);
        }
    }
    return points;
}

std::tuple<uint32_t, uint32_t, uint32_t>
sideKey(const UarchParams &p)
{
    return {p.memory.dSideKey(), p.memory.iSideKey(), p.branch.key()};
}

class DseSweep : public SequentialWorkload
{
  public:
    explicit DseSweep(uint64_t seed) : seed(seed) {}

    void
    setup() override
    {
        predictor = std::make_unique<ConcordePredictor>(makePredictor());
        points = gridAroundN1();
        touchAllPrograms();
        AnalysisStore store;
        (void)predictor->predictSweep(
            drawRegion(kWarmupSeed, kRegionStream, 0), points, kThreads,
            &store);
    }

    CheckResult
    check(const RunOutput &base) override
    {
        // Two seed-chosen points of 16 seed-chosen sweeps, re-predicted
        // one at a time through a fresh provider.
        CheckResult result;
        const auto calls =
            pickIndices(seed, kCheckStream, base.calls.size(), 16);
        const auto pts =
            pickIndices(seed, kCheckStream + 1, points.size(), 2 * 16);
        for (size_t k = 0; k < calls.size(); ++k) {
            const auto &values = base.calls[calls[k]].values;
            if (values.size() != points.size()) {
                ++result.attempted;
                ++result.failed;
                continue;
            }
            const RegionSpec region =
                drawRegion(seed, kRegionStream, calls[k]);
            for (size_t j : {pts[2 * k], pts[2 * k + 1]}) {
                ++result.attempted;
                if (predictor->predictCpi(region, points[j]) != values[j])
                    ++result.failed;
            }
        }
        return result;
    }

    const char *opName() const override { return "predictions"; }

  protected:
    CallOutput
    call(size_t i, bool traced, LayerCounts &counts, uint64_t &ops) override
    {
        const RegionSpec region = drawRegion(seed, kRegionStream, i);
        CallOutput out;
        ops += points.size();
        if (!traced) {
            AnalysisStore store;
            out.values =
                predictor->predictSweep(region, points, kThreads, &store);
            return out;
        }

        // predictSweep, one public layer call at a time.
        Span root("dse_sweep", i + 1);
        AnalysisStore store;
        std::shared_ptr<RegionAnalysis> analysis;
        {
            Span span("trace");
            analysis = store.acquire(region);
        }
        FeatureProvider provider(analysis, predictor->featureConfig());
        std::vector<size_t> order(points.size());
        std::iota(order.begin(), order.end(), size_t{0});
        std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
            return sideKey(points[a]) < sideKey(points[b]);
        });
        const size_t dim = predictor->layout().dim();
        std::vector<float> rows(points.size() * dim, 0.0f);
        std::vector<float> row;
        row.reserve(dim);
        for (size_t k = 0; k < order.size(); ++k) {
            const UarchParams &p = points[order[k]];
            if (k == 0 || sideKey(p) != sideKey(points[order[k - 1]])) {
                Span span("analysis");
                analysis->analyzeAll(p.memory, p.branch);
            }
            Span span("analytical");
            row.clear();
            provider.assemble(p, row);
            std::copy(row.begin(), row.end(),
                      rows.begin() + order[k] * dim);
        }
        {
            Span span("ml");
            out.values = predictor->predictCpiFromFeatures(
                rows, points.size(), kThreads);
        }

        const HierarchyStats &d =
            analysis->dside(UarchParams::armN1().memory).stats;
        counts.traceInstructions +=
            analysis->regionSize() + analysis->warmupSize();
        counts.sidesBuilt += sidesHeld(*analysis);
        counts.l1dHits += d.l1Hits;
        counts.dAccesses += d.accesses();
        counts.modelRuns += provider.modelRuns();
        counts.mlRows += points.size();
        counts.mlCalls += 1;
        return out;
    }

  private:
    const uint64_t seed;
    std::unique_ptr<ConcordePredictor> predictor;
    std::vector<UarchParams> points;
};

} // anonymous namespace

std::unique_ptr<Workload>
makeDseSweep(uint64_t seed)
{
    return std::make_unique<DseSweep>(seed);
}

} // namespace e2e
} // namespace concorde
