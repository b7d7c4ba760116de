#include "baseline/tao.hh"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

#include "common/logging.hh"
#include "common/serialize.hh"
#include "common/thread_pool.hh"

namespace concorde
{

namespace
{

inline float
sigmoidf(float x)
{
    return 1.0f / (1.0f + std::exp(-x));
}

} // anonymous namespace

TaoModel::TaoModel(TaoConfig config, UarchParams target)
    : cfg(config), targetUarch(target)
{
    Rng rng(hashMix(cfg.seed, 0x7A0ULL));
    const size_t h = cfg.hidden;
    const size_t in = kTaoInstrDim;
    auto init = [&](size_t rows, size_t cols) {
        std::vector<float> w(rows * cols);
        const double scale = std::sqrt(1.0 / static_cast<double>(cols));
        for (auto &v : w)
            v = static_cast<float>(rng.nextGaussian() * scale);
        return w;
    };
    for (int g = 0; g < 3; ++g) {
        wx.push_back(init(h, in));
        wh.push_back(init(h, h));
        b.emplace_back(h, 0.0f);
    }
    wo = init(1, h);
    bo = 0.5f;
}

void
TaoModel::encodeWindow(RegionAnalysis &analysis, size_t offset,
                       std::vector<float> &out) const
{
    const TraceColumns &region = analysis.regionColumns();
    const auto &dside = analysis.dside(targetUarch.memory);
    const auto &iside = analysis.iside(targetUarch.memory);
    const auto &branch_info = analysis.branches(targetUarch.branch);

    out.assign(cfg.seqLen * kTaoInstrDim, 0.0f);
    for (size_t t = 0; t < cfg.seqLen; ++t) {
        const size_t i = offset + t;
        panic_if(i >= region.size(), "TAO window out of range");
        float *f = out.data() + t * kTaoInstrDim;

        f[static_cast<size_t>(region.type[i])] = 1.0f;  // one-hot(9)
        const int32_t deps[kMaxSrcDeps] = {region.srcDep0[i],
                                           region.srcDep1[i]};
        for (int d = 0; d < kMaxSrcDeps; ++d) {
            if (deps[d] >= 0) {
                const double dist =
                    static_cast<double>(i) - static_cast<double>(deps[d]);
                f[9 + d] = static_cast<float>(
                    std::log1p(std::max(1.0, dist)) / 8.0);
            }
        }
        f[11] = iside.newLine[i] ? 1.0f : 0.0f;
        if (region.isLoad(i))
            f[12 + static_cast<size_t>(dside.loadLevel[i])] = 1.0f;
        f[16] = branch_info.mispredict[i] ? 1.0f : 0.0f;
    }
}

double
TaoModel::forwardWindow(const float *x, std::vector<float> &h) const
{
    const size_t hd = cfg.hidden;
    h.assign(hd, 0.0f);
    std::vector<float> h_mean(hd, 0.0f);
    std::vector<float> gate(3 * hd);

    for (size_t t = 0; t < cfg.seqLen; ++t) {
        const float *xt = x + t * kTaoInstrDim;
        for (int g = 0; g < 3; ++g) {
            for (size_t o = 0; o < hd; ++o) {
                const float *rx = wx[g].data() + o * kTaoInstrDim;
                float acc = b[g][o];
                for (size_t i = 0; i < kTaoInstrDim; ++i)
                    acc += rx[i] * xt[i];
                gate[g * hd + o] = acc;
            }
        }
        // r gate applies to h inside the candidate; z / r linear in h.
        for (size_t o = 0; o < hd; ++o) {
            const float *rz = wh[0].data() + o * hd;
            const float *rr = wh[1].data() + o * hd;
            float az = gate[o], ar = gate[hd + o];
            for (size_t i = 0; i < hd; ++i) {
                az += rz[i] * h[i];
                ar += rr[i] * h[i];
            }
            gate[o] = sigmoidf(az);
            gate[hd + o] = sigmoidf(ar);
        }
        for (size_t o = 0; o < hd; ++o) {
            const float *rc = wh[2].data() + o * hd;
            float ac = gate[2 * hd + o];
            for (size_t i = 0; i < hd; ++i)
                ac += rc[i] * (gate[hd + i] * h[i]);
            gate[2 * hd + o] = std::tanh(ac);
        }
        for (size_t o = 0; o < hd; ++o) {
            const float z = gate[o];
            h[o] = (1.0f - z) * h[o] + z * gate[2 * hd + o];
            h_mean[o] += h[o];
        }
    }

    float y = bo;
    for (size_t o = 0; o < hd; ++o)
        y += wo[o] * h_mean[o] / static_cast<float>(cfg.seqLen);
    return std::max(1e-3f, y);
}

double
TaoModel::predictCpi(RegionAnalysis &analysis) const
{
    const size_t n = analysis.regionSize();
    panic_if(n < cfg.seqLen, "region shorter than TAO window");
    std::vector<float> x;
    std::vector<float> h;
    double acc = 0.0;
    const size_t windows = std::max<size_t>(1, cfg.windowsPerRegion);
    for (size_t w = 0; w < windows; ++w) {
        const size_t offset = windows == 1
            ? 0
            : w * (n - cfg.seqLen) / (windows - 1);
        encodeWindow(analysis, offset, x);
        acc += forwardWindow(x.data(), h);
    }
    return acc / static_cast<double>(windows);
}

// ---------------------------------------------------------------------
// Training (BPTT + Adam).
// ---------------------------------------------------------------------

struct TaoTrainer
{
    TaoModel &model;
    const size_t hd, in, T;

    struct Grads
    {
        std::vector<std::vector<float>> wx, wh, b;
        std::vector<float> wo;
        float bo = 0.0f;
        size_t samples = 0;
    };

    Grads
    makeGrads() const
    {
        Grads g;
        for (int k = 0; k < 3; ++k) {
            g.wx.emplace_back(hd * in, 0.0f);
            g.wh.emplace_back(hd * hd, 0.0f);
            g.b.emplace_back(hd, 0.0f);
        }
        g.wo.assign(hd, 0.0f);
        return g;
    }

    static void
    zero(Grads &g)
    {
        for (int k = 0; k < 3; ++k) {
            std::fill(g.wx[k].begin(), g.wx[k].end(), 0.0f);
            std::fill(g.wh[k].begin(), g.wh[k].end(), 0.0f);
            std::fill(g.b[k].begin(), g.b[k].end(), 0.0f);
        }
        std::fill(g.wo.begin(), g.wo.end(), 0.0f);
        g.bo = 0.0f;
        g.samples = 0;
    }

    /** Forward with full state recording, then BPTT. Returns the loss. */
    double
    step(const float *x, float target, Grads &grads) const
    {
        // Recorded states per step: h (post), z, r, c, rh (r*h_prev).
        std::vector<float> hs((T + 1) * hd, 0.0f);
        std::vector<float> zs(T * hd), rs(T * hd), cs(T * hd),
            rhs(T * hd);

        for (size_t t = 0; t < T; ++t) {
            const float *xt = x + t * in;
            const float *hp = hs.data() + t * hd;
            float *hn = hs.data() + (t + 1) * hd;
            for (size_t o = 0; o < hd; ++o) {
                float az = model.b[0][o], ar = model.b[1][o];
                const float *wxz = model.wx[0].data() + o * in;
                const float *wxr = model.wx[1].data() + o * in;
                for (size_t i = 0; i < in; ++i) {
                    az += wxz[i] * xt[i];
                    ar += wxr[i] * xt[i];
                }
                const float *whz = model.wh[0].data() + o * hd;
                const float *whr = model.wh[1].data() + o * hd;
                for (size_t i = 0; i < hd; ++i) {
                    az += whz[i] * hp[i];
                    ar += whr[i] * hp[i];
                }
                zs[t * hd + o] = sigmoidf(az);
                rs[t * hd + o] = sigmoidf(ar);
            }
            for (size_t i = 0; i < hd; ++i)
                rhs[t * hd + i] = rs[t * hd + i] * hp[i];
            for (size_t o = 0; o < hd; ++o) {
                float ac = model.b[2][o];
                const float *wxc = model.wx[2].data() + o * in;
                for (size_t i = 0; i < in; ++i)
                    ac += wxc[i] * xt[i];
                const float *whc = model.wh[2].data() + o * hd;
                for (size_t i = 0; i < hd; ++i)
                    ac += whc[i] * rhs[t * hd + i];
                cs[t * hd + o] = std::tanh(ac);
            }
            for (size_t o = 0; o < hd; ++o) {
                const float z = zs[t * hd + o];
                hn[o] = (1.0f - z) * hp[o] + z * cs[t * hd + o];
            }
        }

        float y = model.bo;
        for (size_t t = 1; t <= T; ++t) {
            for (size_t o = 0; o < hd; ++o)
                y += model.wo[o] * hs[t * hd + o] / static_cast<float>(T);
        }

        const float safe_y = std::max(target, 1e-6f);
        const double loss = std::abs(y - target) / safe_y;
        const float dy = (y >= target ? 1.0f : -1.0f) / safe_y;

        grads.bo += dy;
        std::vector<float> dh(hd, 0.0f);
        std::vector<float> da(hd);
        for (size_t t = T; t-- > 0;) {
            const float *hp = hs.data() + t * hd;
            const float *hn = hs.data() + (t + 1) * hd;
            const float *xt = x + t * in;
            for (size_t o = 0; o < hd; ++o) {
                grads.wo[o] += dy * hn[o] / static_cast<float>(T);
                dh[o] += dy * model.wo[o] / static_cast<float>(T);
            }

            std::vector<float> dh_prev(hd, 0.0f);
            // Candidate path.
            for (size_t o = 0; o < hd; ++o) {
                const float z = zs[t * hd + o];
                const float c = cs[t * hd + o];
                const float dc = dh[o] * z;
                da[o] = dc * (1.0f - c * c);
                dh_prev[o] += dh[o] * (1.0f - z);
            }
            for (size_t o = 0; o < hd; ++o) {
                const float d = da[o];
                if (d == 0.0f)
                    continue;
                float *gwx = grads.wx[2].data() + o * in;
                for (size_t i = 0; i < in; ++i)
                    gwx[i] += d * xt[i];
                float *gwh = grads.wh[2].data() + o * hd;
                const float *whc = model.wh[2].data() + o * hd;
                for (size_t i = 0; i < hd; ++i) {
                    gwh[i] += d * rhs[t * hd + i];
                    // Through rh = r * h_prev: the h_prev component here;
                    // the r component is handled in the dr loop below.
                    dh_prev[i] += d * whc[i] * rs[t * hd + i];
                }
                grads.b[2][o] += d;
            }
            // r-gate gradient: dr_i = sum_o da_c[o] * whc[o][i] * h_prev[i]
            std::vector<float> dr(hd, 0.0f);
            for (size_t o = 0; o < hd; ++o) {
                const float d = da[o];
                if (d == 0.0f)
                    continue;
                const float *whc = model.wh[2].data() + o * hd;
                for (size_t i = 0; i < hd; ++i)
                    dr[i] += d * whc[i] * hp[i];
            }
            // z-gate gradient.
            std::vector<float> dz(hd);
            for (size_t o = 0; o < hd; ++o)
                dz[o] = dh[o] * (cs[t * hd + o] - hp[o]);

            auto backprop_gate = [&](int g, const std::vector<float> &dgate,
                                     const std::vector<float> &gate_val) {
                for (size_t o = 0; o < hd; ++o) {
                    const float v = gate_val[t * hd + o];
                    const float d = dgate[o] * v * (1.0f - v);
                    if (d == 0.0f)
                        continue;
                    float *gwx = grads.wx[g].data() + o * in;
                    for (size_t i = 0; i < in; ++i)
                        gwx[i] += d * xt[i];
                    float *gwh = grads.wh[g].data() + o * hd;
                    const float *whg = model.wh[g].data() + o * hd;
                    for (size_t i = 0; i < hd; ++i) {
                        gwh[i] += d * hp[i];
                        dh_prev[i] += d * whg[i];
                    }
                    grads.b[g][o] += d;
                }
            };
            backprop_gate(0, dz, zs);
            backprop_gate(1, dr, rs);

            dh.swap(dh_prev);
        }
        ++grads.samples;
        return loss;
    }
};

double
TaoModel::train(const std::vector<RegionSpec> &regions,
                const std::vector<float> &labels)
{
    panic_if(regions.size() != labels.size(), "regions/labels mismatch");
    const size_t threads =
        cfg.threads == 0 ? defaultThreads() : cfg.threads;

    // Precompute window encodings (the expensive trace analyses run once).
    const size_t windows = cfg.windowsPerRegion;
    const size_t total = regions.size() * windows;
    std::vector<float> xs(total * cfg.seqLen * kTaoInstrDim);
    std::vector<float> ys(total);
    parallelFor(regions.size(), [&](size_t s) {
        RegionAnalysis analysis(regions[s]);
        const size_t n = analysis.regionSize();
        std::vector<float> block;
        for (size_t w = 0; w < windows; ++w) {
            const size_t offset = windows == 1
                ? 0 : w * (n - cfg.seqLen) / (windows - 1);
            encodeWindow(analysis, offset, block);
            std::copy(block.begin(), block.end(),
                      xs.begin() + (s * windows + w) * block.size());
            ys[s * windows + w] = labels[s];
        }
    }, threads);

    TaoTrainer trainer{*this, cfg.hidden, kTaoInstrDim, cfg.seqLen};
    std::vector<TaoTrainer::Grads> tg;
    for (size_t t = 0; t < threads; ++t)
        tg.push_back(trainer.makeGrads());

    // Adam state mirrors the parameter shapes.
    TaoTrainer::Grads m = trainer.makeGrads();
    TaoTrainer::Grads v = trainer.makeGrads();
    uint64_t adam_t = 0;

    std::vector<size_t> order(total);
    std::iota(order.begin(), order.end(), 0);
    Rng rng(hashMix(cfg.seed, 0x7A0773ULL));
    const size_t x_stride = cfg.seqLen * kTaoInstrDim;

    double last_epoch_loss = 0.0;
    std::vector<double> thread_loss(threads, 0.0);
    for (size_t epoch = 0; epoch < cfg.epochs; ++epoch) {
        for (size_t i = total - 1; i > 0; --i) {
            const size_t j = rng.nextBounded(i + 1);
            std::swap(order[i], order[j]);
        }
        double epoch_loss = 0.0;
        for (size_t begin = 0; begin < total; begin += cfg.batchSize) {
            const size_t end = std::min(total, begin + cfg.batchSize);
            std::fill(thread_loss.begin(), thread_loss.end(), 0.0);
            for (auto &g : tg)
                g.samples = 0;
            parallelShards(end - begin,
                           [&](size_t t, size_t lo, size_t hi) {
                TaoTrainer::zero(tg[t]);
                double loss = 0.0;
                for (size_t s = lo; s < hi; ++s) {
                    const size_t row = order[begin + s];
                    loss += trainer.step(xs.data() + row * x_stride,
                                         ys[row], tg[t]);
                }
                thread_loss[t] = loss;
            }, threads);
            for (size_t t = 1; t < threads; ++t) {
                if (tg[t].samples == 0)
                    continue;
                for (int k = 0; k < 3; ++k) {
                    for (size_t i = 0; i < tg[0].wx[k].size(); ++i)
                        tg[0].wx[k][i] += tg[t].wx[k][i];
                    for (size_t i = 0; i < tg[0].wh[k].size(); ++i)
                        tg[0].wh[k][i] += tg[t].wh[k][i];
                    for (size_t i = 0; i < tg[0].b[k].size(); ++i)
                        tg[0].b[k][i] += tg[t].b[k][i];
                }
                for (size_t i = 0; i < tg[0].wo.size(); ++i)
                    tg[0].wo[i] += tg[t].wo[i];
                tg[0].bo += tg[t].bo;
                tg[0].samples += tg[t].samples;
            }
            for (double l : thread_loss)
                epoch_loss += l;

            // Adam update.
            ++adam_t;
            const double inv_n =
                1.0 / std::max<size_t>(1, tg[0].samples);
            const double b1 = 0.9, b2 = 0.999, eps = 1e-8;
            const double bc1 = 1.0 - std::pow(b1, adam_t);
            const double bc2 = 1.0 - std::pow(b2, adam_t);
            auto update = [&](std::vector<float> &param,
                              const std::vector<float> &grad,
                              std::vector<float> &mm,
                              std::vector<float> &vv) {
                for (size_t i = 0; i < param.size(); ++i) {
                    const double g = grad[i] * inv_n;
                    mm[i] = static_cast<float>(b1 * mm[i]
                                               + (1 - b1) * g);
                    vv[i] = static_cast<float>(b2 * vv[i]
                                               + (1 - b2) * g * g);
                    param[i] -= static_cast<float>(
                        cfg.learningRate * (mm[i] / bc1)
                        / (std::sqrt(vv[i] / bc2) + eps));
                }
            };
            for (int k = 0; k < 3; ++k) {
                update(wx[k], tg[0].wx[k], m.wx[k], v.wx[k]);
                update(wh[k], tg[0].wh[k], m.wh[k], v.wh[k]);
                update(b[k], tg[0].b[k], m.b[k], v.b[k]);
            }
            update(wo, tg[0].wo, m.wo, v.wo);
            {
                const double g = tg[0].bo * inv_n;
                m.bo = static_cast<float>(b1 * m.bo + (1 - b1) * g);
                v.bo = static_cast<float>(b2 * v.bo + (1 - b2) * g * g);
                bo -= static_cast<float>(cfg.learningRate * (m.bo / bc1)
                                         / (std::sqrt(v.bo / bc2) + eps));
            }
        }
        last_epoch_loss = epoch_loss / static_cast<double>(total);
    }
    return last_epoch_loss;
}

void
TaoModel::save(const std::string &path) const
{
    BinaryWriter out(path);
    out.put<uint64_t>(cfg.hidden);
    out.put<uint64_t>(cfg.seqLen);
    out.put<uint64_t>(cfg.windowsPerRegion);
    out.put(targetUarch);
    for (int k = 0; k < 3; ++k) {
        out.putVector(wx[k]);
        out.putVector(wh[k]);
        out.putVector(b[k]);
    }
    out.putVector(wo);
    out.put(bo);
}

TaoModel
TaoModel::load(const std::string &path)
{
    BinaryReader in(path);
    TaoModel model;
    model.cfg.hidden = in.get<uint64_t>();
    model.cfg.seqLen = in.get<uint64_t>();
    model.cfg.windowsPerRegion = in.get<uint64_t>();
    model.targetUarch = in.get<UarchParams>();
    for (int k = 0; k < 3; ++k) {
        model.wx.push_back(in.getVector<float>());
        model.wh.push_back(in.getVector<float>());
        model.b.push_back(in.getVector<float>());
    }
    model.wo = in.getVector<float>();
    model.bo = in.get<float>();

    // The forward pass indexes the weights by the header's sizes; a
    // header that disagrees with the stored vectors would read past them.
    const size_t h = model.cfg.hidden;
    if (h == 0 || model.cfg.seqLen == 0)
        throw std::runtime_error(path + ": TAO header has zero hidden or "
                                 "sequence length");
    for (int k = 0; k < 3; ++k) {
        if (model.wx[k].size() != h * kTaoInstrDim
            || model.wh[k].size() != h * h || model.b[k].size() != h) {
            throw std::runtime_error(path + ": TAO gate weights do not "
                                     "match hidden=" + std::to_string(h));
        }
    }
    if (model.wo.size() != h)
        throw std::runtime_error(path + ": TAO readout weights do not "
                                 "match hidden=" + std::to_string(h));
    return model;
}

} // namespace concorde
