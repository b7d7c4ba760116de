#include "common/rng.hh"

#include <cmath>

#include "common/logging.hh"
#include "common/serialize.hh"

namespace concorde
{

Rng::Rng(uint64_t seed)
{
    uint64_t state = seed;
    for (auto &word : s)
        word = splitMix64(state);
}

uint64_t
Rng::nextBounded(uint64_t bound)
{
    panic_if(bound == 0, "nextBounded(0)");
    // Multiply-shift bounded draw; bias is negligible for our bounds.
    return static_cast<uint64_t>(
        (static_cast<__uint128_t>(next()) * bound) >> 64);
}

int64_t
Rng::nextRange(int64_t lo, int64_t hi)
{
    panic_if(hi < lo, "nextRange: hi < lo");
    return lo + static_cast<int64_t>(
        nextBounded(static_cast<uint64_t>(hi - lo + 1)));
}

double
Rng::nextGaussian()
{
    double u1 = nextDouble();
    double u2 = nextDouble();
    if (u1 < 1e-300)
        u1 = 1e-300;
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
}

uint64_t
Rng::nextGeometric(double mean)
{
    return GeometricLaw(mean).draw(*this);
}

uint64_t
Rng::nextZipf(uint64_t n, double s)
{
    return ZipfLaw(n, s).draw(*this);
}

Rng
Rng::fork(uint64_t salt)
{
    return Rng(hashMix(next(), salt));
}

void
Rng::saveState(BinaryWriter &out) const
{
    for (uint64_t word : s)
        out.put<uint64_t>(word);
}

Rng
Rng::loadState(BinaryReader &in)
{
    Rng rng;
    for (uint64_t &word : rng.s)
        word = in.get<uint64_t>();
    return rng;
}

/*
 * The bound on GeometricLaw::tableLog. Write u = 2^e m with m in [1, 2),
 * and let c be the midpoint of m's 1/128-wide bucket, inv = fl(1/c).
 * Then log(u) = e log 2 + log1p(r) - log(inv) with r = m inv - 1, and
 * |r| < 2^-8 (1 + 2^-52).
 *
 *   - r: fl(m inv) has relative error <= 2^-53 and subtracting 1 from a
 *     value in [1/2, 2] is exact, so the computed r is off by
 *     <= 1.12e-16, which moves log1p by <= 1.13e-16.
 *   - log1p: the degree-6 Taylor polynomial leaves |r|^7 / 7 / (1 - |r|)
 *     <= 2.1e-18; its Horner evaluation on |r| < 2^-8 adds < 1e-17.
 *   - -log(inv) is tabulated with libm log (< 1 ulp, <= 1.11e-16 for
 *     values below 0.7), and adding the two terms (< 0.7) rounds by
 *     <= 7.8e-17.
 *   - e log 2: the rounded constant and the product each contribute a
 *     relative 2^-53, <= 2.3e-16 |e log 2| <= 2.3e-16 (|log u| + 0.7).
 *   - the final sum rounds by <= 1.11e-16 |log u|.
 *
 * Total <= 4.8e-16 + 3.5e-16 |log u|, inside kFastLogAbs +
 * kFastLogRel |log u|.
 *
 * The quotient: libm's log is within 1 ulp (2.3e-16 |log u|) and the
 * division, the reciprocal and the product each round by a relative
 * 2^-53, so with v = log(u) / logQ the approximate and the libm
 * quotients differ by at most kFastLogAbs / |logQ| + 1.7e-15 |v|.
 * ofUniform() allows 1e-13 / |logQ| + 1e-13 |v| (the relative part
 * taken of the approximate quotient, itself within a relative 1e-14 of
 * v): at least 50 times the bound. A quotient that far from every integer has the
 * libm quotient's floor.
 */

GeometricLaw::GeometricLaw(double mean)
    : spread(mean > 1.0), logQ(0.0), invLogQ(0.0), slackAbs(0.0),
      table(&logTable())
{
    if (spread) {
        // Geometric on {1, 2, ...} with mean `mean` => success prob
        // 1/mean.
        logQ = std::log(1.0 - 1.0 / mean);
        invLogQ = 1.0 / logQ;
        slackAbs = 1e-13 / std::fabs(logQ);
    }
}

const GeometricLaw::LogTable &
GeometricLaw::logTable()
{
    static const LogTable table = [] {
        LogTable t;
        constexpr int buckets = 1 << kTableBits;
        for (int i = 0; i < buckets; ++i) {
            const double mid = 1.0 + (i + 0.5) / buckets;
            t.inv[i] = 1.0 / mid;
            t.negLogInv[i] = -std::log(t.inv[i]);
        }
        return t;
    }();
    return table;
}

uint64_t
GeometricLaw::exact(double u) const
{
    const double v = std::log(u) / logQ;
    uint64_t k = static_cast<uint64_t>(v) + 1;
    return k == 0 ? 1 : k;
}

ZipfLaw::ZipfLaw(uint64_t n_in, double s)
    : n(n_in), harmonic(s == 1.0), h(0.0), invExponent(0.0)
{
    panic_if(n == 0, "nextZipf(0)");
    // Inverse-CDF approximation of a Zipf law via the bounded Pareto
    // distribution; exact Zipf sampling is unnecessary for workload
    // shaping.
    if (harmonic) {
        h = std::log(static_cast<double>(n) + 1.0);
    } else {
        const double one_minus_s = 1.0 - s;
        h = std::pow(static_cast<double>(n) + 1.0, one_minus_s) - 1.0;
        invExponent = 1.0 / one_minus_s;
    }
}

uint64_t
ZipfLaw::draw(Rng &rng) const
{
    const double u = rng.nextDouble();
    const double x = harmonic ? std::exp(u * h) - 1.0
                              : std::pow(u * h + 1.0, invExponent) - 1.0;
    const uint64_t k = static_cast<uint64_t>(x);
    return k >= n ? n - 1 : k;
}

} // namespace concorde
