/**
 * @file
 * Internal to src/ml: the dense-layer kernels behind Mlp::forwardBatch.
 * Exposed so tests can run each kernel directly and so
 * TrainedModel::predictBatch can shard on row-block boundaries; not part
 * of the library's API.
 *
 * Every kernel computes each (row, output) exactly as Mlp::forward does:
 * start from the bias, then one rounded multiply and one rounded add per
 * input, in input order, then ReLU as `v < 0 ? 0 : v`. No multiply-add
 * is ever fused, so every kernel is bitwise equal to Mlp::forward,
 * signed zeros and NaNs included.
 */

#ifndef CONCORDE_ML_MLP_GEMM_HH
#define CONCORDE_ML_MLP_GEMM_HH

#include <cstddef>
#include <vector>

#include "ml/mlp.hh"

namespace concorde
{
namespace gemm
{

/** Batch rows per block: one 512-bit vector of floats. */
constexpr size_t kRowBlock = 16;

/**
 * One dense layer over a batch: Y[n x od] = relu?(X[n x in] * W^T + b),
 * W row-major [od x in]. `xt` is a 64-byte aligned [in x kRowBlock]
 * workspace.
 */
using LayerKernel = void (*)(const float *X, const float *w, const float *b,
                             float *Y, float *xt, size_t n, size_t in,
                             size_t od, bool relu);

/** Scalar-code kernel; runs on any host. */
void layerPortable(const float *X, const float *w, const float *b, float *Y,
                   float *xt, size_t n, size_t in, size_t od, bool relu);

/**
 * AVX-512F kernel: 16 rows per zmm lane vector, 8 output accumulators
 * held in registers across the pass over the inputs; a partial last
 * block is zero-padded and only its valid rows are stored. Call only
 * when avx512fSupported() (common/cpu.hh).
 */
void layerAvx512(const float *X, const float *w, const float *b, float *Y,
                 float *xt, size_t n, size_t in, size_t od, bool relu);

/** The kernel Mlp::forwardBatch runs for an n-row batch on this host. */
LayerKernel kernelFor(size_t n);

/**
 * Whole-network batched forward pass, every layer through `kernel`:
 * `n` row-major inputs in `xs`, `n` scalar outputs to `out`.
 */
void forwardBatch(LayerKernel kernel, const std::vector<size_t> &layer_sizes,
                  const std::vector<std::vector<float>> &weights,
                  const std::vector<std::vector<float>> &biases,
                  const float *xs, size_t n, float *out,
                  MlpBatchScratch &scratch);

} // namespace gemm
} // namespace concorde

#endif // CONCORDE_ML_MLP_GEMM_HH
