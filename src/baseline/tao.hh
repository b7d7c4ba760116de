/**
 * @file
 * TAO-style sequence baseline (paper Section 5.1, Figure 8): an O(L)
 * learned model that maps a window of per-instruction feature vectors to
 * CPI, trained for a single fixed microarchitecture (ARM N1). Implemented
 * as a from-scratch GRU with BPTT; see DESIGN.md for the substitution
 * rationale (the published TAO uses Transformers and per-instruction
 * embeddings, but the comparison's structure -- sequence model specialized
 * to one design point vs O(1) Concorde generalizing across designs -- is
 * preserved).
 */

#ifndef CONCORDE_BASELINE_TAO_HH
#define CONCORDE_BASELINE_TAO_HH

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/trace_analyzer.hh"
#include "trace/workloads.hh"
#include "uarch/params.hh"

namespace concorde
{

/** Per-instruction input features for the sequence model. */
constexpr size_t kTaoInstrDim = 17;

/** GRU hyperparameters. */
struct TaoConfig
{
    size_t hidden = 24;
    size_t seqLen = 384;        ///< instructions per training window
    size_t windowsPerRegion = 4;///< inference averages this many windows
    double learningRate = 3e-3;
    size_t epochs = 40;
    size_t batchSize = 64;
    uint64_t seed = 77;
    size_t threads = 0;
};

/** Trained TAO baseline for one fixed microarchitecture. */
class TaoModel
{
  public:
    TaoModel() = default;
    TaoModel(TaoConfig config, UarchParams target);

    const TaoConfig &config() const { return cfg; }

    /**
     * Encode `seq_len` instructions starting at `offset` into a flat
     * [seqLen x kTaoInstrDim] feature block. Uses the fixed target
     * microarchitecture's trace analysis (cache levels, mispredicts).
     */
    void encodeWindow(RegionAnalysis &analysis, size_t offset,
                      std::vector<float> &out) const;

    /** Predict CPI for a region (averages windowsPerRegion windows). */
    double predictCpi(RegionAnalysis &analysis) const;

    /**
     * Train on regions: each sample contributes `windowsPerRegion`
     * training windows labeled with the region's CPI.
     * @return final training mean relative error.
     */
    double train(const std::vector<RegionSpec> &regions,
                 const std::vector<float> &labels);

    void save(const std::string &path) const;
    /**
     * Throws std::runtime_error when the stored weights do not have the
     * sizes the header's hidden width implies, or seqLen is zero.
     */
    static TaoModel load(const std::string &path);

    bool valid() const { return !wx.empty(); }

  private:
    double forwardWindow(const float *x, std::vector<float> &h_scratch)
        const;
    TaoConfig cfg;
    UarchParams targetUarch;

    // GRU parameters: gates z, r, candidate h. wx: [3][hidden x input],
    // wh: [3][hidden x hidden], b: [3][hidden]; readout: wo: [hidden], bo.
    std::vector<std::vector<float>> wx, wh, b;
    std::vector<float> wo;
    float bo = 0.0f;

    friend struct TaoTrainer;
};

} // namespace concorde

#endif // CONCORDE_BASELINE_TAO_HH
