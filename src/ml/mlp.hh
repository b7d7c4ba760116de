/**
 * @file
 * Minimal dense MLP with ReLU activations and a scalar output -- the
 * paper's lightweight ML model (Section 3.3). Implemented from scratch
 * (forward, backward, AdamW) so the repository is self-contained.
 */

#ifndef CONCORDE_ML_MLP_HH
#define CONCORDE_ML_MLP_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "common/serialize.hh"

namespace concorde
{

/** Per-thread workspace for forward/backward passes. */
struct MlpScratch
{
    std::vector<std::vector<float>> acts;   ///< activations per layer
    std::vector<std::vector<float>> deltas; ///< gradients per layer
};

/**
 * Per-thread workspace for batched forward passes: two ping-pong
 * activation matrices, grown on demand to [batch x widest layer].
 */
struct MlpBatchScratch
{
    std::vector<float> in;      ///< current layer activations, row-major
    std::vector<float> out;     ///< next layer activations, row-major
    std::vector<float> xt;      ///< transposed row block (GEMM kernels)
};

/** Gradient accumulator with the same shape as the parameters. */
struct GradBuffer
{
    std::vector<std::vector<float>> weightGrads;
    std::vector<std::vector<float>> biasGrads;
    size_t samples = 0;

    void zero();
    void add(const GradBuffer &other);
};

/** Fully-connected ReLU network with linear scalar output. */
class Mlp
{
  public:
    /** Empty (invalid) network; assign or load before use. */
    Mlp() = default;

    /**
     * @param layer_sizes {input, hidden..., 1}
     * @param seed He-style weight initialization seed
     */
    Mlp(std::vector<size_t> layer_sizes, uint64_t seed);

    /** Deserialize. */
    explicit Mlp(BinaryReader &in);

    size_t inputDim() const { return layerSizes.front(); }
    size_t numLayers() const { return weights.size(); }
    size_t parameterCount() const;

    /** Forward pass (thread-safe with caller-owned scratch). */
    float forward(const float *x, MlpScratch &scratch) const;

    /**
     * Batched forward pass: evaluates `n` inputs (row-major, n x inputDim)
     * and writes `n` scalar outputs to `out`. Each layer is computed as a
     * blocked GEMM, so the weight matrix is traversed once per 16-row
     * block instead of once per sample. The kernel is chosen at run time:
     * an AVX-512F kernel where the CPU has it (and the batch has at least
     * two rows), else a portable scalar-code one. Every kernel multiplies
     * and adds in forward()'s order, with no fused multiply-add, so each
     * output is bitwise equal to forward()'s.
     * Thread-safe with caller-owned scratch.
     */
    void forwardBatch(const float *xs, size_t n, float *out,
                      MlpBatchScratch &scratch) const;

    /**
     * The kernel forwardBatch() runs for multi-row batches on this host:
     * "avx512f" or "portable".
     */
    static const char *batchKernelName();

    /**
     * Forward + backward with the paper's relative-error loss
     * Loss = |yhat - y| / y (Eq. 7). Accumulates into `grads`.
     * @return the prediction.
     */
    float forwardBackward(const float *x, float target, MlpScratch &scratch,
                          GradBuffer &grads, double &loss_out) const;

    /** One AdamW step over all parameters with mean gradients. */
    void adamwStep(const GradBuffer &grads, double lr, double beta1,
                   double beta2, double eps, double weight_decay);

    GradBuffer makeGradBuffer() const;
    MlpScratch makeScratch() const;

    /** Serialize the weights (inference artifact; resets Adam on load). */
    void save(BinaryWriter &out) const;

    /**
     * Checkpoint the full training state -- weights plus the AdamW
     * moments and step counter -- so training resumed from a checkpoint
     * is bitwise-identical to a run that never stopped.
     */
    void saveCheckpoint(BinaryWriter &out) const;
    static Mlp loadCheckpoint(BinaryReader &in);

  private:
    void initAdamState();
    /** fatal() unless every loaded vector has the size the layers imply. */
    void checkShapes(const char *what) const;

    std::vector<size_t> layerSizes;
    /** weights[l]: [out x in] row-major; biases[l]: [out]. */
    std::vector<std::vector<float>> weights;
    std::vector<std::vector<float>> biases;

    // AdamW state.
    std::vector<std::vector<float>> mW, vW, mB, vB;
    uint64_t adamStep = 0;
};

} // namespace concorde

#endif // CONCORDE_ML_MLP_HH
