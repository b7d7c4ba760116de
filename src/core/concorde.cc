#include "core/concorde.hh"

#include <algorithm>
#include <atomic>
#include <memory>
#include <numeric>
#include <tuple>
#include <utility>

#include "common/logging.hh"
#include "common/thread_pool.hh"

namespace concorde
{

namespace
{

/**
 * The feature rows of `n` design points in caller order (n x dim floats):
 * the shared assembly of predictCpiBatch and predictSweep.
 *
 * The points are sorted by their (d, i, branch) side keys, so that
 * consecutive assembles share sides: within a run of equal dSideKey only
 * the i-side/branch analyses change, so analyzeAll() re-analyzes just
 * the side whose parameters actually differ. Runs of equal dSideKey
 * share no ROB/LQ memo entries, so each is a unit of work. `lead` keeps
 * every run whose first point's ROB run it already memoizes (a warm
 * batch runs no model) and takes the largest cold run; the other cold
 * runs are handed out largest first to up to `threads` workers (0 =
 * hardware), the lead's worker included. The other workers assemble
 * through worker-local providers over the lead's analysis, whose
 * per-side latches make concurrent analyzeAll() calls build each side
 * once, each by its own sweep, so one worker's d-side never waits
 * behind another's i-side or branch sweep; `lead` absorbs their memos
 * afterwards. Every memoized value is order-independent, so the rows
 * match a per-point assemble bitwise for every `threads`.
 */
std::vector<float>
assembleRuns(FeatureProvider &lead, const UarchParams *params, size_t n,
             size_t threads)
{
    std::vector<size_t> order(n);
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t a, size_t b) {
                         return std::make_tuple(params[a].memory.dSideKey(),
                                                params[a].memory.iSideKey(),
                                                params[a].branch.key())
                             < std::make_tuple(params[b].memory.dSideKey(),
                                               params[b].memory.iSideKey(),
                                               params[b].branch.key());
                     });

    using Run = std::pair<size_t, size_t>;  // [begin, end) of order
    std::vector<Run> lead_runs;
    std::vector<Run> cold_runs;
    for (size_t begin = 0; begin < n;) {
        const UarchParams &first = params[order[begin]];
        const uint32_t dkey = first.memory.dSideKey();
        size_t end = begin + 1;
        while (end < n && params[order[end]].memory.dSideKey() == dkey)
            ++end;
        (lead.hasRobRun(first.robSize, first.memory) ? lead_runs
                                                     : cold_runs)
            .emplace_back(begin, end);
        begin = end;
    }
    std::stable_sort(cold_runs.begin(), cold_runs.end(),
                     [](const Run &a, const Run &b) {
                         return a.second - a.first > b.second - b.first;
                     });
    if (!cold_runs.empty()) {
        lead_runs.push_back(cold_runs.front());
        cold_runs.erase(cold_runs.begin());
    }

    // Worker 0 assembles through `lead`; workers write disjoint rows. A
    // batch with no cold run beyond the lead's stays on this thread.
    const size_t dim = lead.layout().dim();
    std::vector<float> features(n * dim);
    const size_t workers = std::min(
        threads == 0 ? defaultThreads() : threads, 1 + cold_runs.size());
    std::vector<std::unique_ptr<FeatureProvider>> locals(workers);
    std::atomic<size_t> next_run{0};
    parallelFor(workers, [&](size_t w) {
        std::vector<float> row;
        row.reserve(dim);
        auto assemble_run = [&](FeatureProvider &provider, const Run &run) {
            for (size_t k = run.first; k < run.second; ++k) {
                const size_t idx = order[k];
                row.clear();
                provider.assemble(params[idx], row);
                panic_if(row.size() != dim, "assembled %zu features, dim %zu",
                         row.size(), dim);
                std::copy(row.begin(), row.end(),
                          features.begin() + idx * dim);
            }
        };
        if (w == 0) {
            for (const Run &run : lead_runs)
                assemble_run(lead, run);
        }
        for (size_t r; (r = next_run.fetch_add(1)) < cold_runs.size();) {
            if (w > 0 && !locals[w]) {
                locals[w] = std::make_unique<FeatureProvider>(
                    lead.analysisPtr(), lead.config());
            }
            assemble_run(w == 0 ? lead : *locals[w], cold_runs[r]);
        }
    }, workers);
    for (auto &local : locals) {
        if (local)
            lead.absorb(std::move(*local));
    }
    return features;
}

} // anonymous namespace

ConcordePredictor::ConcordePredictor(TrainedModel model,
                                     FeatureConfig feature_config)
    : trainedModel(std::move(model)), featureCfg(std::move(feature_config)),
      featureLayout(featureCfg)
{
    panic_if(trainedModel.valid()
             && trainedModel.inputDim() != featureLayout.dim(),
             "model input dim %zu != feature layout dim %zu",
             trainedModel.inputDim(), featureLayout.dim());
}

double
ConcordePredictor::predictCpi(FeatureProvider &provider,
                              const UarchParams &params) const
{
    thread_local std::vector<float> features;
    features.clear();
    provider.assemble(params, features);
    return trainedModel.predict(features.data());
}

double
ConcordePredictor::predictCpi(const RegionSpec &region,
                              const UarchParams &params) const
{
    FeatureProvider provider(region, featureCfg);
    return predictCpi(provider, params);
}

std::vector<double>
ConcordePredictor::predictCpiBatch(FeatureProvider &provider,
                                   const UarchParams *params, size_t n,
                                   size_t threads) const
{
    if (n == 0)
        return {};
    return predictCpiFromFeatures(assembleRuns(provider, params, n, threads),
                                  n, threads);
}

std::vector<double>
ConcordePredictor::predictCpiBatch(FeatureProvider &provider,
                                   const std::vector<UarchParams> &pts,
                                   size_t threads) const
{
    return predictCpiBatch(provider, pts.data(), pts.size(), threads);
}

std::vector<double>
ConcordePredictor::predictSweep(const RegionSpec &region,
                                const UarchParams *params, size_t n,
                                size_t threads, AnalysisStore *store) const
{
    if (n == 0)
        return {};
    if (!store)
        store = &AnalysisStore::global();
    FeatureProvider lead(store->acquire(region), featureCfg);
    return predictCpiFromFeatures(assembleRuns(lead, params, n, threads), n,
                                  threads);
}

std::vector<double>
ConcordePredictor::predictSweep(const RegionSpec &region,
                                const std::vector<UarchParams> &pts,
                                size_t threads, AnalysisStore *store) const
{
    return predictSweep(region, pts.data(), pts.size(), threads, store);
}

std::vector<double>
ConcordePredictor::predictCpiFromFeatures(const std::vector<float> &rows,
                                          size_t n, size_t threads) const
{
    std::vector<double> out(n);
    if (n == 0)
        return out;
    panic_if(rows.size() != n * trainedModel.inputDim(),
             "feature rows hold %zu floats, expected %zu x %zu",
             rows.size(), n, trainedModel.inputDim());
    const auto preds =
        trainedModel.predictBatch(rows, trainedModel.inputDim(), threads);
    for (size_t i = 0; i < n; ++i)
        out[i] = preds[i];
    return out;
}

double
ConcordePredictor::predictLongProgram(const UarchParams &params,
                                      int program_id, int trace_id,
                                      uint64_t trace_chunks,
                                      int num_samples,
                                      uint32_t region_chunks,
                                      uint64_t seed) const
{
    panic_if(num_samples < 1, "need at least one sample");
    Rng rng(hashMix(seed, 0x10060ULL));
    // The long program's CPI prediction is the mean of region predictions
    // over uniformly sampled region offsets (Section 5.1). Offsets are
    // drawn with replacement, so revisited regions hit the shared
    // analysis store instead of re-analyzing the trace.
    AnalysisStore &store = AnalysisStore::global();
    double acc = 0.0;
    for (int s = 0; s < num_samples; ++s) {
        RegionSpec spec;
        spec.programId = program_id;
        spec.traceId = trace_id;
        spec.numChunks = region_chunks;
        const uint64_t max_start = trace_chunks > region_chunks
            ? trace_chunks - region_chunks : 0;
        spec.startChunk =
            max_start > 0 ? rng.nextBounded(max_start + 1) : 0;
        FeatureProvider provider(store.acquire(spec), featureCfg);
        acc += predictCpi(provider, params);
    }
    return acc / num_samples;
}

} // namespace concorde
