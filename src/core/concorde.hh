/**
 * @file
 * The public Concorde API: CPI prediction for (program region,
 * microarchitecture) pairs via the compositional analytical-ML pipeline
 * (Figure 3): trace analysis -> per-resource analytical models ->
 * performance distributions -> lightweight MLP.
 *
 * A predictor has no file format of its own: a trained model travels
 * as a ModelArtifact (core/model_artifact.hh), which bundles the model
 * with the FeatureConfig it was trained against, and
 * ModelArtifact::predictor() rebuilds this class from it.
 */

#ifndef CONCORDE_CORE_CONCORDE_HH
#define CONCORDE_CORE_CONCORDE_HH

#include <memory>
#include <string>

#include "analysis/analysis_store.hh"
#include "analytical/feature_provider.hh"
#include "ml/trainer.hh"
#include "trace/workloads.hh"
#include "uarch/params.hh"

namespace concorde
{

/** A trained Concorde CPI predictor. */
class ConcordePredictor
{
  public:
    ConcordePredictor(TrainedModel model, FeatureConfig feature_config);

    const TrainedModel &model() const { return trainedModel; }
    const FeatureConfig &featureConfig() const { return featureCfg; }
    const FeatureLayout &layout() const { return featureLayout; }

    /**
     * Predict CPI for a region on a design point, reusing a caller-owned
     * FeatureProvider (the fast path: analytical features are memoized in
     * the provider, so repeated predictions on the same region cost one
     * MLP evaluation each).
     */
    double predictCpi(FeatureProvider &provider,
                      const UarchParams &params) const;

    /** One-shot convenience: builds a fresh provider for the region. */
    double predictCpi(const RegionSpec &region,
                      const UarchParams &params) const;

    /**
     * Batched prediction for one region across many design points: all
     * feature rows are assembled into one contiguous matrix, then
     * evaluated in a single thread-parallel blocked-GEMM pass. Matches
     * predictCpi per element, bitwise, for every `threads`. Assembly
     * runs as predictSweep's does, with `provider` as the lead: it
     * keeps every run of equal d-side config whose ROB run it already
     * memoizes and takes the largest cold run, up to `threads` - 1
     * worker-local providers over its analysis assemble the other cold
     * runs, and `provider` absorbs their memos afterwards. So the
     * caller's provider ends warm for every point of the batch, and a
     * repeated batch runs no analytical model.
     *
     * @param params pointer to `n` design points
     * @param threads workers for assembly and the MLP pass (0 = hardware)
     */
    std::vector<double> predictCpiBatch(FeatureProvider &provider,
                                        const UarchParams *params, size_t n,
                                        size_t threads = 0) const;

    /** Convenience overload over a vector of design points. */
    std::vector<double> predictCpiBatch(FeatureProvider &provider,
                                        const std::vector<UarchParams> &pts,
                                        size_t threads = 0) const;

    /**
     * Design-space-sweep fast path (Section 5.2.3): acquire the region's
     * analysis from the shared AnalysisStore (so repeated sweeps -- and
     * any other layer touching the region -- reuse one trace analysis),
     * assemble every design point's row, and evaluate all rows in a
     * single batched GEMM. The points are cut into runs of equal d-side
     * memory config; runs share no ROB/LQ model runs, so up to `threads`
     * workers assemble them in parallel, each through its own
     * FeatureProvider over the one shared analysis (within a provider
     * each analytical-model run and encoded block is computed at most
     * once). A sweep with a single d-side run is assembled serially on
     * the calling thread. predictCpiBatch shares this assembly. Matches
     * a per-config predictCpi(region, params) loop bitwise for every
     * `threads`; the bench_sweep_dse gate pins the equality and the
     * single-thread speedup.
     *
     * @param threads workers for assembly and the MLP pass (0 = hardware)
     * @param store analysis cache to share (default: the global store)
     */
    std::vector<double> predictSweep(const RegionSpec &region,
                                     const UarchParams *params, size_t n,
                                     size_t threads = 0,
                                     AnalysisStore *store = nullptr) const;

    /** Convenience overload over a vector of design points. */
    std::vector<double> predictSweep(const RegionSpec &region,
                                     const std::vector<UarchParams> &pts,
                                     size_t threads = 0,
                                     AnalysisStore *store = nullptr) const;

    /**
     * Batched prediction from `n` pre-assembled raw feature rows
     * (layout().dim() floats each). The serve layer assembles rows per
     * region under its own locking, mixes rows from different regions
     * into one batch, and evaluates them here in a single GEMM pass.
     * Matches predictCpi for rows produced by FeatureProvider::assemble.
     */
    std::vector<double> predictCpiFromFeatures(
        const std::vector<float> &rows, size_t n, size_t threads = 0) const;

    /**
     * Estimate the CPI of a long program by averaging predictions over
     * `num_samples` randomly sampled regions (Section 5.1, Figure 9).
     * Regions are sampled with replacement, so their analyses go through
     * the shared AnalysisStore: a revisited region costs one MLP
     * evaluation instead of a fresh trace analysis.
     */
    double predictLongProgram(const UarchParams &params, int program_id,
                              int trace_id, uint64_t trace_chunks,
                              int num_samples, uint32_t region_chunks,
                              uint64_t seed) const;

  private:
    TrainedModel trainedModel;
    FeatureConfig featureCfg;
    FeatureLayout featureLayout;
};

} // namespace concorde

#endif // CONCORDE_CORE_CONCORDE_HH
