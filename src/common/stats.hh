/**
 * @file
 * Distribution utilities: percentile extraction and the fixed-size CDF
 * encoding Concorde feeds to its ML model (Section 4 of the paper: P
 * equally-spaced percentiles of the distribution, P percentiles of the
 * size-weighted distribution, and the mean).
 */

#ifndef CONCORDE_COMMON_STATS_HH
#define CONCORDE_COMMON_STATS_HH

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace concorde
{

/** Mean of a sample vector (0 for empty input). */
double mean(const std::vector<double> &xs);

/**
 * Percentile of an already-sorted sample vector with linear interpolation
 * between order statistics. @param q in [0, 1].
 */
double percentile(const std::vector<double> &sorted_xs, double q);

/** Sort samples ascending (std::sort). */
void sortSamples(std::vector<double> &xs);

/**
 * `total` after `count` successive `total += value`, bitwise equal to
 * that loop. Long runs of a positive value onto a positive total are
 * summed exactly in O(binades crossed) steps instead of one add each.
 */
double addRepeated(double total, double value, uint64_t count);

/**
 * A multiset of non-negative integer samples held as counts: one count
 * per value below kDenseCap, and the samples at or above it as a list.
 * The ROB model counts its per-instruction stage latencies into these
 * instead of storing them per instruction.
 *
 * A default-constructed histogram owns no storage; clear() allocates
 * the dense counts on first use and must precede the first add().
 */
class IntegerHistogram
{
  public:
    /** Values below this are counted densely (16 KB of counts). */
    static constexpr uint32_t kDenseCap = 4096;

    /** Drop every sample, allocating the dense counts if needed. */
    void clear();

    void
    add(uint64_t value)
    {
        if (value < kDenseCap)
            ++dense[value];
        else
            large.push_back(value);
    }

    /** Number of samples. */
    uint64_t size() const;

    /** Number of samples equal to `value`. */
    uint64_t count(uint64_t value) const;

  private:
    friend class DistributionEncoder;

    std::vector<uint32_t> dense;
    std::vector<uint64_t> large;    ///< samples >= kDenseCap, unsorted
};

/**
 * Fixed-size encoding of an empirical distribution.
 *
 * Output layout: [P equally-spaced percentiles (q = 0..1),
 *                 P equally-spaced percentiles of the size-weighted
 *                 distribution (every sample weighted by its value, which
 *                 highlights the tail; paper Section 4, footnote 5),
 *                 mean] -- total 2*P+1 values.
 */
class DistributionEncoder
{
  public:
    explicit DistributionEncoder(size_t num_percentiles = 25);

    /** Number of output values (2*P+1). */
    size_t dim() const { return 2 * numPercentiles + 1; }

    /**
     * Encode samples into `out` (exactly dim() values appended).
     * Empty input encodes as all zeros. Delegates to encodeInPlace; the
     * by-value parameter exists so call sites may move a buffer in.
     */
    void encode(std::vector<double> samples, std::vector<float> &out) const;

    /**
     * Scratch-reusing variant: sorts `samples` in place (destructive)
     * and encodes without allocating, so a caller looping over many
     * distributions can recycle one buffer.
     */
    void encodeInPlace(std::vector<double> &samples,
                       std::vector<float> &out) const;

    /** Encode samples the caller has already sorted ascending. */
    void encodeSorted(const std::vector<double> &sorted,
                      std::vector<float> &out) const;

    /**
     * Encode the log1p of a histogram's samples, bitwise equal to
     * encodeSorted() over the samples sorted ascending and mapped through
     * std::log1p, without materializing them: percentiles are read from
     * cumulative counts, and one in-order pass makes the same sequence
     * of adds as encodeSorted()'s sum while recording the cumulative sum
     * at each distinct value, where the weighted percentiles are read.
     * Sorts the histogram's list of large samples in place.
     */
    void encodeHistogramLog1p(IntegerHistogram &hist,
                              std::vector<float> &out) const;

  private:
    size_t numPercentiles;
};

/** Percentile snapshot of a LatencyRecorder window. */
struct LatencySummary
{
    uint64_t count = 0;     ///< samples pushed over the recorder's life
    double meanUs = 0.0;    ///< mean over the retained window
    double p50Us = 0.0;
    double p90Us = 0.0;
    double p99Us = 0.0;
    double maxUs = 0.0;
};

/**
 * Thread-safe bounded reservoir of latency samples (microseconds).
 * Retains the most recent `window` samples in a ring; summary() sorts a
 * snapshot of the window (sortSamples) and reads the percentiles with
 * the same interpolating percentile() the feature encoders use. The
 * serve layer keeps one per service for end-to-end request latencies.
 */
class LatencyRecorder
{
  public:
    explicit LatencyRecorder(size_t window = 1 << 14);

    void push(double micros);
    LatencySummary summary() const;
    void reset();

  private:
    mutable std::mutex mtx;
    const size_t window;
    std::vector<double> ring;   ///< grows to `window`, then wraps
    size_t next = 0;            ///< ring write position
    uint64_t total = 0;
};

/** Simple streaming mean/variance accumulator (Welford). */
class RunningStats
{
  public:
    void push(double x);
    size_t count() const { return n; }
    double avg() const { return n ? meanAcc : 0.0; }
    double variance() const;
    double stddev() const;

  private:
    size_t n = 0;
    double meanAcc = 0.0;
    double m2 = 0.0;
};

} // namespace concorde

#endif // CONCORDE_COMMON_STATS_HH
