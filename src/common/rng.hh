/**
 * @file
 * Deterministic, fast pseudo-random number generation.
 *
 * Everything in Concorde (workload generation, dataset sampling, the Simple
 * branch predictor, weight initialization) derives from seeded Rng instances
 * so that traces, features, labels, and trained models are bit-reproducible.
 */

#ifndef CONCORDE_COMMON_RNG_HH
#define CONCORDE_COMMON_RNG_HH

#include <cstdint>
#include <cstring>

namespace concorde
{

class BinaryReader;
class BinaryWriter;

/** SplitMix64 step; used for seeding and cheap hash mixing. */
inline uint64_t
splitMix64(uint64_t &state)
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Stateless mix of up to three words into one; used to derive sub-seeds. */
inline uint64_t
hashMix(uint64_t a, uint64_t b = 0x9e3779b97f4a7c15ULL,
        uint64_t c = 0xbf58476d1ce4e5b9ULL)
{
    uint64_t state = a;
    uint64_t x = splitMix64(state);
    state ^= b * 0xff51afd7ed558ccdULL;
    x ^= splitMix64(state);
    state ^= c * 0xc4ceb9fe1a85ec53ULL;
    x ^= splitMix64(state);
    return x;
}

/**
 * xoshiro256** generator. Small, fast, good statistical quality; more than
 * adequate for synthetic workload generation.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via SplitMix64). */
    explicit Rng(uint64_t seed = 0x1234abcdULL);

    /** Next raw 64-bit value. */
    uint64_t
    next()
    {
        const uint64_t result = rotl(s[1] * 5, 7) * 9;
        const uint64_t t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = rotl(s[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound), bound > 0. */
    uint64_t nextBounded(uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. */
    int64_t nextRange(int64_t lo, int64_t hi);

    /** Uniform double in [0, 1). */
    double
    nextDouble()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw. */
    bool nextBool(double p_true) { return nextDouble() < p_true; }

    /** Standard normal via Box-Muller (no cached spare; stateless). */
    double nextGaussian();

    /**
     * Geometric-ish positive integer with the given mean (>= 1); used for
     * dependency distances and run lengths. Same draw as
     * GeometricLaw(mean).draw(*this).
     */
    uint64_t nextGeometric(double mean);

    /**
     * Zipf-distributed value in [0, n) with exponent s (approximate).
     * Same draw as ZipfLaw(n, s).draw(*this).
     */
    uint64_t nextZipf(uint64_t n, double s);

    /** Derive an independent child generator. */
    Rng fork(uint64_t salt);

    /**
     * Serialize / restore the full generator state (training checkpoints
     * resume mid-stream and must replay the exact remaining sequence).
     */
    void saveState(BinaryWriter &out) const;
    static Rng loadState(BinaryReader &in);

  private:
    static uint64_t rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    uint64_t s[4];
};

/**
 * Rng::nextGeometric for one fixed mean, with the per-mean logarithm
 * computed once: a hot loop drawing many values of one law (the trace
 * generator's dependency distances) pays at most one logarithm per
 * draw, not two. Draws are bitwise those of nextGeometric(mean).
 */
class GeometricLaw
{
  public:
    explicit GeometricLaw(double mean);

    /** One draw; consumes no randomness when mean <= 1. */
    uint64_t
    draw(Rng &rng) const
    {
        return spread ? ofUniform(rng.nextDouble()) : 1;
    }

    /**
     * The draw for uniform u in [0, 1): floor(log(u) / log(1 - 1/mean))
     * + 1. The quotient is first formed with tableLog(), whose error is
     * bounded (see rng.cc); only when it lies within that bound of an
     * integer, where its floor could differ from the libm one, is it
     * recomputed with std::log. Either way the result is nextGeometric's.
     */
    uint64_t
    ofUniform(double u) const
    {
        if (!spread)
            return 1;
        if (u < 1e-300)
            u = 1e-300;
        const double approx = tableLog(*table, u) * invLogQ;
        const double margin = slackAbs + kSlackRel * approx;
        const uint64_t k = static_cast<uint64_t>(approx - margin);
        if (k == static_cast<uint64_t>(approx + margin))
            return k + 1;
        return exact(u);
    }

    /**
     * log(u) for a positive normal u, within
     * kFastLogAbs + kFastLogRel * |log(u)| of the true value.
     */
    static double fastLog(double u) { return tableLog(logTable(), u); }

    static constexpr double kFastLogAbs = 1e-15;
    static constexpr double kFastLogRel = 1e-15;

  private:
    static constexpr int kTableBits = 7;

    /** Per mantissa bucket: 1 / its midpoint, and -log of that. */
    struct LogTable
    {
        double inv[1 << kTableBits];
        double negLogInv[1 << kTableBits];
    };

    static const LogTable &logTable();

    /** u = 2^e * m, m in [1, 2): e log 2 + log(m inv) - log(inv). */
    static double
    tableLog(const LogTable &t, double u)
    {
        uint64_t bits;
        std::memcpy(&bits, &u, sizeof bits);
        const int e = static_cast<int>(bits >> 52) - 1023;
        const size_t i = (bits >> (52 - kTableBits))
            & ((size_t{1} << kTableBits) - 1);
        const uint64_t m_bits =
            (bits & 0x000fffffffffffffULL) | 0x3ff0000000000000ULL;
        double m;
        std::memcpy(&m, &m_bits, sizeof m);
        const double r = m * t.inv[i] - 1.0;
        const double log1p_r = r * (1.0 + r * (-0.5 + r * (1.0 / 3.0
            + r * (-0.25 + r * (0.2 + r * (-1.0 / 6.0))))));
        return static_cast<double>(e) * 0.6931471805599453
            + (t.negLogInv[i] + log1p_r);
    }

    /** The libm evaluation nextGeometric always performed. */
    uint64_t exact(double u) const;

    /** Relative part of the quotient's error bound; see rng.cc. */
    static constexpr double kSlackRel = 1e-13;

    bool spread;            ///< mean > 1 (else every draw is 1)
    double logQ;            ///< log(1 - 1/mean)
    double invLogQ;         ///< 1 / logQ, for the approximate quotient
    double slackAbs;        ///< absolute part of the quotient's bound
    const LogTable *table;  ///< logTable(), without its per-call guard
};

/**
 * Rng::nextZipf for one fixed (n, s), with the law's power and its
 * reciprocal exponent computed once. Draws are bitwise those of
 * nextZipf(n, s).
 */
class ZipfLaw
{
  public:
    ZipfLaw(uint64_t n, double s);

    uint64_t draw(Rng &rng) const;

  private:
    uint64_t n;
    bool harmonic;      ///< s == 1: the exp/log form
    double h;           ///< log(n + 1), or (n + 1)^(1 - s) - 1
    double invExponent; ///< 1 / (1 - s); unused when harmonic
};

} // namespace concorde

#endif // CONCORDE_COMMON_RNG_HH
