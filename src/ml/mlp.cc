#include "ml/mlp.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define CONCORDE_AVX512_KERNEL 1
#include <immintrin.h>
#endif

#include "common/cpu.hh"
#include "common/logging.hh"
#include "ml/mlp_gemm.hh"

namespace concorde
{

void
GradBuffer::zero()
{
    for (auto &g : weightGrads)
        std::fill(g.begin(), g.end(), 0.0f);
    for (auto &g : biasGrads)
        std::fill(g.begin(), g.end(), 0.0f);
    samples = 0;
}

void
GradBuffer::add(const GradBuffer &other)
{
    for (size_t l = 0; l < weightGrads.size(); ++l) {
        for (size_t i = 0; i < weightGrads[l].size(); ++i)
            weightGrads[l][i] += other.weightGrads[l][i];
        for (size_t i = 0; i < biasGrads[l].size(); ++i)
            biasGrads[l][i] += other.biasGrads[l][i];
    }
    samples += other.samples;
}

Mlp::Mlp(std::vector<size_t> layer_sizes, uint64_t seed)
    : layerSizes(std::move(layer_sizes))
{
    fatal_if(layerSizes.size() < 2, "need at least input and output layers");
    fatal_if(layerSizes.back() != 1, "scalar output expected");

    Rng rng(seed);
    for (size_t l = 0; l + 1 < layerSizes.size(); ++l) {
        const size_t in = layerSizes[l];
        const size_t out = layerSizes[l + 1];
        weights.emplace_back(in * out);
        biases.emplace_back(out, 0.0f);
        // He initialization for ReLU layers.
        const double scale = std::sqrt(2.0 / static_cast<double>(in));
        for (auto &w : weights.back())
            w = static_cast<float>(rng.nextGaussian() * scale);
    }
    initAdamState();
}

Mlp::Mlp(BinaryReader &in)
{
    layerSizes = in.getVector<size_t>();
    fatal_if(layerSizes.size() < 2, "malformed MLP: %zu layer sizes",
             layerSizes.size());
    const size_t layers = layerSizes.size() - 1;
    for (size_t l = 0; l < layers; ++l) {
        weights.push_back(in.getVector<float>());
        biases.push_back(in.getVector<float>());
    }
    checkShapes("MLP");
    initAdamState();
}

void
Mlp::checkShapes(const char *what) const
{
    fatal_if(layerSizes.size() < 2 || layerSizes.back() != 1,
             "malformed %s: need {input, hidden..., 1} layer sizes", what);
    for (size_t l = 0; l + 1 < layerSizes.size(); ++l) {
        const size_t in = layerSizes[l];
        const size_t out = layerSizes[l + 1];
        // Divide rather than multiply: in * out could wrap.
        const size_t w = weights[l].size();
        fatal_if(in == 0 || w % in != 0 || w / in != out,
                 "malformed %s: layer %zu has %zu weights for %zu x %zu",
                 what, l, w, out, in);
        fatal_if(biases[l].size() != out,
                 "malformed %s: layer %zu has %zu biases for %zu outputs",
                 what, l, biases[l].size(), out);
    }
}

void
Mlp::save(BinaryWriter &out) const
{
    out.putVector(layerSizes);
    for (size_t l = 0; l < weights.size(); ++l) {
        out.putVector(weights[l]);
        out.putVector(biases[l]);
    }
}

void
Mlp::saveCheckpoint(BinaryWriter &out) const
{
    out.putVector(layerSizes);
    for (size_t l = 0; l < weights.size(); ++l) {
        out.putVector(weights[l]);
        out.putVector(biases[l]);
        out.putVector(mW[l]);
        out.putVector(vW[l]);
        out.putVector(mB[l]);
        out.putVector(vB[l]);
    }
    out.put<uint64_t>(adamStep);
}

Mlp
Mlp::loadCheckpoint(BinaryReader &in)
{
    Mlp mlp;
    mlp.layerSizes = in.getVector<size_t>();
    fatal_if(mlp.layerSizes.size() < 2, "malformed MLP checkpoint");
    const size_t layers = mlp.layerSizes.size() - 1;
    for (size_t l = 0; l < layers; ++l) {
        mlp.weights.push_back(in.getVector<float>());
        mlp.biases.push_back(in.getVector<float>());
        mlp.mW.push_back(in.getVector<float>());
        mlp.vW.push_back(in.getVector<float>());
        mlp.mB.push_back(in.getVector<float>());
        mlp.vB.push_back(in.getVector<float>());
    }
    mlp.checkShapes("MLP checkpoint");
    for (size_t l = 0; l < layers; ++l) {
        fatal_if(mlp.mW[l].size() != mlp.weights[l].size() ||
                     mlp.vW[l].size() != mlp.weights[l].size() ||
                     mlp.mB[l].size() != mlp.biases[l].size() ||
                     mlp.vB[l].size() != mlp.biases[l].size(),
                 "malformed MLP checkpoint: layer %zu optimizer state does "
                 "not match its parameters", l);
    }
    mlp.adamStep = in.get<uint64_t>();
    return mlp;
}

void
Mlp::initAdamState()
{
    mW.clear(); vW.clear(); mB.clear(); vB.clear();
    for (size_t l = 0; l < weights.size(); ++l) {
        mW.emplace_back(weights[l].size(), 0.0f);
        vW.emplace_back(weights[l].size(), 0.0f);
        mB.emplace_back(biases[l].size(), 0.0f);
        vB.emplace_back(biases[l].size(), 0.0f);
    }
    adamStep = 0;
}

size_t
Mlp::parameterCount() const
{
    size_t count = 0;
    for (size_t l = 0; l < weights.size(); ++l)
        count += weights[l].size() + biases[l].size();
    return count;
}

MlpScratch
Mlp::makeScratch() const
{
    MlpScratch scratch;
    scratch.acts.resize(layerSizes.size());
    scratch.deltas.resize(layerSizes.size());
    for (size_t l = 0; l < layerSizes.size(); ++l) {
        scratch.acts[l].resize(layerSizes[l]);
        scratch.deltas[l].resize(layerSizes[l]);
    }
    return scratch;
}

GradBuffer
Mlp::makeGradBuffer() const
{
    GradBuffer grads;
    for (size_t l = 0; l < weights.size(); ++l) {
        grads.weightGrads.emplace_back(weights[l].size(), 0.0f);
        grads.biasGrads.emplace_back(biases[l].size(), 0.0f);
    }
    return grads;
}

float
Mlp::forward(const float *x, MlpScratch &scratch) const
{
    const size_t layers = weights.size();
    std::copy(x, x + layerSizes[0], scratch.acts[0].begin());
    for (size_t l = 0; l < layers; ++l) {
        const size_t in = layerSizes[l];
        const size_t out = layerSizes[l + 1];
        const float *src = scratch.acts[l].data();
        float *dst = scratch.acts[l + 1].data();
        const float *w = weights[l].data();
        const bool relu = l + 1 < layers;
        for (size_t o = 0; o < out; ++o) {
            const float *row = w + o * in;
            float acc = biases[l][o];
            for (size_t i = 0; i < in; ++i)
                acc += row[i] * src[i];
            dst[o] = relu && acc < 0.0f ? 0.0f : acc;
        }
    }
    return scratch.acts.back()[0];
}

namespace
{

/**
 * Fallback tile: dot-product accumulation for a ragged [rows x outs]
 * corner of the batch GEMM. Accumulation order per output matches the
 * 4x4 kernel and Mlp::forward.
 */
void
gemmCorner(const float *X, const float *w, const float *b, float *Y,
           size_t in, size_t od, size_t r0, size_t rows, size_t o0,
           size_t outs, bool relu)
{
    for (size_t r = r0; r < r0 + rows; ++r) {
        const float *x = X + r * in;
        float *y = Y + r * od;
        size_t o = o0;
        // Four output units per sweep: four independent accumulator
        // chains instead of one latency-bound one. Each (row, output)
        // chain still walks i in order, exactly as Mlp::forward, so
        // results match the scalar path. This matters beyond the block
        // remainder: batches smaller than kRowBlock (e.g. one span's
        // regions) are evaluated entirely here.
        for (; o + 4 <= o0 + outs; o += 4) {
            const float *w0 = w + (o + 0) * in;
            const float *w1 = w + (o + 1) * in;
            const float *w2 = w + (o + 2) * in;
            const float *w3 = w + (o + 3) * in;
            float a0 = b[o + 0];
            float a1 = b[o + 1];
            float a2 = b[o + 2];
            float a3 = b[o + 3];
            for (size_t i = 0; i < in; ++i) {
                const float x_i = x[i];
                a0 += w0[i] * x_i;
                a1 += w1[i] * x_i;
                a2 += w2[i] * x_i;
                a3 += w3[i] * x_i;
            }
            y[o + 0] = relu && a0 < 0.0f ? 0.0f : a0;
            y[o + 1] = relu && a1 < 0.0f ? 0.0f : a1;
            y[o + 2] = relu && a2 < 0.0f ? 0.0f : a2;
            y[o + 3] = relu && a3 < 0.0f ? 0.0f : a3;
        }
        for (; o < o0 + outs; ++o) {
            const float *row = w + o * in;
            float acc = b[o];
            for (size_t i = 0; i < in; ++i)
                acc += row[i] * x[i];
            y[o] = relu && acc < 0.0f ? 0.0f : acc;
        }
    }
}

#if defined(__GNUC__) || defined(__clang__)
#define CONCORDE_RESTRICT __restrict
#else
#define CONCORDE_RESTRICT
#endif

} // anonymous namespace

/**
 * Rows are processed in blocks of kRowBlock: the block is transposed
 * once so the batch dimension is contiguous, then every output unit
 * accumulates a kRowBlock-wide multiply-add per weight element. The weight
 * matrix is streamed n/kRowBlock times instead of n times, the
 * transposed block stays in L1, and the contiguous independent lanes
 * vectorize. Per (row, output) the accumulation order over inputs is
 * identical to Mlp::forward, so results match the scalar path.
 */
void
gemm::layerPortable(const float *CONCORDE_RESTRICT X,
                    const float *CONCORDE_RESTRICT w,
                    const float *CONCORDE_RESTRICT b,
                    float *CONCORDE_RESTRICT Y, float *CONCORDE_RESTRICT xt,
                    size_t n, size_t in, size_t od, bool relu)
{
    constexpr size_t RB = kRowBlock;
    auto act = [relu](float v) { return relu && v < 0.0f ? 0.0f : v; };
    size_t r0 = 0;
    for (; r0 + RB <= n; r0 += RB) {
        // Transpose the block: xt[i * RB + r] = X[(r0 + r) * in + i].
        for (size_t r = 0; r < RB; ++r) {
            const float *CONCORDE_RESTRICT x = X + (r0 + r) * in;
            for (size_t i = 0; i < in; ++i)
                xt[i * RB + r] = x[i];
        }
        // 4-output x RB-row register tile: four weight rows stream per
        // sweep and each transposed input column is reused fourfold,
        // with 4*RB independent accumulator chains for ILP. Per
        // (row, output) the accumulation walks i in order, exactly as
        // Mlp::forward does, so results match the scalar path.
        size_t o = 0;
        for (; o + 4 <= od; o += 4) {
            const float *CONCORDE_RESTRICT w0 = w + (o + 0) * in;
            const float *CONCORDE_RESTRICT w1 = w + (o + 1) * in;
            const float *CONCORDE_RESTRICT w2 = w + (o + 2) * in;
            const float *CONCORDE_RESTRICT w3 = w + (o + 3) * in;
            float a0[RB], a1[RB], a2[RB], a3[RB];
            for (size_t r = 0; r < RB; ++r) {
                a0[r] = b[o + 0];
                a1[r] = b[o + 1];
                a2[r] = b[o + 2];
                a3[r] = b[o + 3];
            }
            for (size_t i = 0; i < in; ++i) {
                const float v0 = w0[i], v1 = w1[i], v2 = w2[i],
                            v3 = w3[i];
                const float *CONCORDE_RESTRICT xv = xt + i * RB;
                for (size_t r = 0; r < RB; ++r) {
                    const float x = xv[r];
                    a0[r] += v0 * x;
                    a1[r] += v1 * x;
                    a2[r] += v2 * x;
                    a3[r] += v3 * x;
                }
            }
            for (size_t r = 0; r < RB; ++r) {
                float *CONCORDE_RESTRICT y = Y + (r0 + r) * od + o;
                y[0] = act(a0[r]);
                y[1] = act(a1[r]);
                y[2] = act(a2[r]);
                y[3] = act(a3[r]);
            }
        }
        // Leftover outputs: one weight row at a time.
        for (; o < od; ++o) {
            const float *CONCORDE_RESTRICT row = w + o * in;
            float acc[RB];
            for (size_t r = 0; r < RB; ++r)
                acc[r] = b[o];
            for (size_t i = 0; i < in; ++i) {
                const float wv = row[i];
                const float *CONCORDE_RESTRICT xv = xt + i * RB;
                for (size_t r = 0; r < RB; ++r)
                    acc[r] += wv * xv[r];
            }
            for (size_t r = 0; r < RB; ++r)
                Y[(r0 + r) * od + o] = act(acc[r]);
        }
    }
    if (r0 < n)
        gemmCorner(X, w, b, Y, in, od, r0, n - r0, 0, od, relu);
}

#ifdef CONCORDE_AVX512_KERNEL

// The AVX-512 kernel is compiled for avx512f whatever the build flags
// (the dispatcher below runs it only where the CPU has it). That target
// also has FMA, and GCC contracts `acc + w * x` into one fused
// multiply-add -- intrinsics included, even under -std=c++17 -- which
// rounds once instead of twice and breaks bitwise equality with
// Mlp::forward. Contraction is therefore switched off in the source, so
// that every build of this file gets it, whatever flags compile it:
// GCC's optimize attribute here, clang's pragma inside each function.
// GCC also has to be told to unroll the per-output loops, or it keeps
// the accumulators on the stack; clang unrolls them unasked.
#ifdef __clang__
#define CONCORDE_AVX512 __attribute__((target("avx512f")))
#define CONCORDE_NO_FP_CONTRACT _Pragma("clang fp contract(off)")
#define CONCORDE_UNROLL_TILE
#else
#define CONCORDE_AVX512                                                     \
    __attribute__((target("avx512f"), optimize("fp-contract=off")))
#define CONCORDE_NO_FP_CONTRACT
#define CONCORDE_UNROLL_TILE _Pragma("GCC unroll 8")
#endif

namespace
{

/**
 * K output units x one kRowBlock-row block. The K accumulators stay in
 * zmm registers for the whole pass over the inputs; lane r of
 * accumulator k is (row r0 + r, output o + k). Each step is one rounded
 * multiply and one rounded add, in input order, exactly as
 * Mlp::forward. Only the block's first `rows` rows are stored.
 */
template <size_t K>
CONCORDE_AVX512 void
avx512Tile(const float *xt, const float *w, const float *b, float *Y,
           size_t r0, size_t rows, size_t in, size_t od, size_t o,
           bool relu)
{
    CONCORDE_NO_FP_CONTRACT
    const float *wk[K];
    __m512 acc[K];
    CONCORDE_UNROLL_TILE
    for (size_t k = 0; k < K; ++k) {
        wk[k] = w + (o + k) * in;
        acc[k] = _mm512_set1_ps(b[o + k]);
    }
    for (size_t i = 0; i < in; ++i) {
        const __m512 x = _mm512_load_ps(xt + i * gemm::kRowBlock);
        CONCORDE_UNROLL_TILE
        for (size_t k = 0; k < K; ++k) {
            const __m512 p = _mm512_mul_ps(_mm512_set1_ps(wk[k][i]), x);
            acc[k] = _mm512_add_ps(acc[k], p);
        }
    }
    // ReLU as Mlp::forward's `v < 0 ? 0 : v`: an ordered less-than
    // leaves -0.0 and NaN as they are (max_ps would not).
    const __m512 zero = _mm512_setzero_ps();
    alignas(64) float tile[K][gemm::kRowBlock];
    for (size_t k = 0; k < K; ++k) {
        __m512 v = acc[k];
        if (relu)
            v = _mm512_mask_mov_ps(
                v, _mm512_cmp_ps_mask(v, zero, _CMP_LT_OQ), zero);
        _mm512_store_ps(tile[k], v);
    }
    for (size_t r = 0; r < rows; ++r) {
        float *y = Y + (r0 + r) * od + o;
        for (size_t k = 0; k < K; ++k)
            y[k] = tile[k][r];
    }
}

} // anonymous namespace

/**
 * A partial last block is zero-padded, so small batches and ragged
 * corners take the same vector path.
 */
CONCORDE_AVX512 void
gemm::layerAvx512(const float *X, const float *w, const float *b, float *Y,
                  float *xt, size_t n, size_t in, size_t od, bool relu)
{
    CONCORDE_NO_FP_CONTRACT
    constexpr size_t RB = kRowBlock;
    for (size_t r0 = 0; r0 < n; r0 += RB) {
        const size_t rows = n - r0 < RB ? n - r0 : RB;
        for (size_t r = 0; r < rows; ++r) {
            const float *x = X + (r0 + r) * in;
            for (size_t i = 0; i < in; ++i)
                xt[i * RB + r] = x[i];
        }
        for (size_t r = rows; r < RB; ++r) {
            for (size_t i = 0; i < in; ++i)
                xt[i * RB + r] = 0.0f;
        }
        size_t o = 0;
        for (; o + 8 <= od; o += 8)
            avx512Tile<8>(xt, w, b, Y, r0, rows, in, od, o, relu);
        if (o + 4 <= od) {
            avx512Tile<4>(xt, w, b, Y, r0, rows, in, od, o, relu);
            o += 4;
        }
        if (o + 2 <= od) {
            avx512Tile<2>(xt, w, b, Y, r0, rows, in, od, o, relu);
            o += 2;
        }
        if (o < od)
            avx512Tile<1>(xt, w, b, Y, r0, rows, in, od, o, relu);
    }
}

#else // no AVX-512 kernel on this platform

void
gemm::layerAvx512(const float *, const float *, const float *, float *,
                  float *, size_t, size_t, size_t, bool)
{
    panic("AVX-512 GEMM kernel called on a build without it");
}

#endif

gemm::LayerKernel
gemm::kernelFor(size_t n)
{
    // Below this many rows the scalar corner kernel wins: a lone row
    // would pay for fifteen padded lanes.
    constexpr size_t kAvx512MinRows = 2;
    return avx512fSupported() && n >= kAvx512MinRows ? layerAvx512
                                                     : layerPortable;
}

void
gemm::forwardBatch(LayerKernel kernel, const std::vector<size_t> &layer_sizes,
                   const std::vector<std::vector<float>> &weights,
                   const std::vector<std::vector<float>> &biases,
                   const float *xs, size_t n, float *out,
                   MlpBatchScratch &scratch)
{
    if (n == 0)
        return;
    const size_t layers = weights.size();
    // The ping-pong buffers only ever hold layer *outputs*; the input
    // matrix is read in place from `xs`.
    size_t widest_out = 1, widest_in = 1;
    for (size_t l = 0; l < layer_sizes.size(); ++l) {
        if (l > 0)
            widest_out = std::max(widest_out, layer_sizes[l]);
        if (l + 1 < layer_sizes.size())
            widest_in = std::max(widest_in, layer_sizes[l]);
    }
    scratch.in.resize(n * widest_out);
    scratch.out.resize(n * widest_out);
    // The transposed block is 64-byte aligned (one zmm per input).
    constexpr size_t kAlignFloats = 64 / sizeof(float);
    scratch.xt.resize(widest_in * kRowBlock + kAlignFloats);
    float *xt = scratch.xt.data();
    xt += (kAlignFloats - reinterpret_cast<uintptr_t>(xt) / sizeof(float) %
                              kAlignFloats) % kAlignFloats;

    const float *X = xs;
    float *cur = scratch.in.data();
    float *nxt = scratch.out.data();
    for (size_t l = 0; l < layers; ++l) {
        const size_t in = layer_sizes[l];
        const size_t od = layer_sizes[l + 1];
        const bool relu = l + 1 < layers;
        kernel(X, weights[l].data(), biases[l].data(), nxt, xt, n, in, od,
               relu);
        X = nxt;
        std::swap(cur, nxt);
    }
    // The output layer is scalar, so the final activation matrix is
    // [n x 1] contiguous.
    std::copy(X, X + n, out);
}

void
Mlp::forwardBatch(const float *xs, size_t n, float *out,
                  MlpBatchScratch &scratch) const
{
    gemm::forwardBatch(gemm::kernelFor(n), layerSizes, weights, biases, xs,
                       n, out, scratch);
}

const char *
Mlp::batchKernelName()
{
    return avx512fSupported() ? "avx512f" : "portable";
}

float
Mlp::forwardBackward(const float *x, float target, MlpScratch &scratch,
                     GradBuffer &grads, double &loss_out) const
{
    const float yhat = forward(x, scratch);

    // Relative-error loss (Eq. 7): dL/dyhat = sign(yhat - y) / y.
    const float safe_y = target > 1e-6f ? target : 1e-6f;
    loss_out = std::abs(yhat - target) / safe_y;
    const float dl = (yhat >= target ? 1.0f : -1.0f) / safe_y;

    const size_t layers = weights.size();
    scratch.deltas.back()[0] = dl;
    for (size_t l = layers; l-- > 0;) {
        const size_t in = layerSizes[l];
        const size_t out = layerSizes[l + 1];
        const float *src = scratch.acts[l].data();
        const float *act_out = scratch.acts[l + 1].data();
        float *delta_out = scratch.deltas[l + 1].data();
        float *delta_in = scratch.deltas[l].data();
        const float *w = weights[l].data();
        float *gw = grads.weightGrads[l].data();
        float *gb = grads.biasGrads[l].data();
        const bool relu = l + 1 < layers;

        if (l > 0)
            std::fill(delta_in, delta_in + in, 0.0f);
        for (size_t o = 0; o < out; ++o) {
            float d = delta_out[o];
            if (relu && act_out[o] <= 0.0f)
                d = 0.0f;
            if (d == 0.0f)
                continue;
            const float *row = w + o * in;
            float *grow = gw + o * in;
            gb[o] += d;
            for (size_t i = 0; i < in; ++i)
                grow[i] += d * src[i];
            if (l > 0) {
                for (size_t i = 0; i < in; ++i)
                    delta_in[i] += d * row[i];
            }
        }
    }
    ++grads.samples;
    return yhat;
}

void
Mlp::adamwStep(const GradBuffer &grads, double lr, double beta1,
               double beta2, double eps, double weight_decay)
{
    panic_if(grads.samples == 0, "adamwStep with empty gradient buffer");
    ++adamStep;
    const double inv_n = 1.0 / static_cast<double>(grads.samples);
    const double bc1 = 1.0 - std::pow(beta1, static_cast<double>(adamStep));
    const double bc2 = 1.0 - std::pow(beta2, static_cast<double>(adamStep));

    auto update = [&](std::vector<float> &param,
                      const std::vector<float> &grad, std::vector<float> &m,
                      std::vector<float> &v, bool decay) {
        for (size_t i = 0; i < param.size(); ++i) {
            const double g = grad[i] * inv_n;
            m[i] = static_cast<float>(beta1 * m[i] + (1.0 - beta1) * g);
            v[i] = static_cast<float>(beta2 * v[i] + (1.0 - beta2) * g * g);
            const double mhat = m[i] / bc1;
            const double vhat = v[i] / bc2;
            double step = lr * mhat / (std::sqrt(vhat) + eps);
            if (decay)
                step += lr * weight_decay * param[i];
            param[i] = static_cast<float>(param[i] - step);
        }
    };

    for (size_t l = 0; l < weights.size(); ++l) {
        update(weights[l], grads.weightGrads[l], mW[l], vW[l], true);
        update(biases[l], grads.biasGrads[l], mB[l], vB[l], false);
    }
}

} // namespace concorde
