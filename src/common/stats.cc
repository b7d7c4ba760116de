#include "common/stats.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "common/logging.hh"

namespace concorde
{

double
mean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double acc = 0.0;
    for (double x : xs)
        acc += x;
    return acc / static_cast<double>(xs.size());
}

double
percentile(const std::vector<double> &sorted_xs, double q)
{
    if (sorted_xs.empty())
        return 0.0;
    panic_if(q < 0.0 || q > 1.0, "percentile q out of range");
    const double pos = q * static_cast<double>(sorted_xs.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, sorted_xs.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return sorted_xs[lo] * (1.0 - frac) + sorted_xs[hi] * frac;
}

void
sortSamples(std::vector<double> &xs)
{
    std::sort(xs.begin(), xs.end());
}

double
addRepeated(double total, double value, uint64_t count)
{
    // Below this many adds the plain loop is cheaper than the bit
    // arithmetic of one exact step (latency-like runs of ~20 adds per
    // value: 16 us per 16k samples looped, 6 us with this cutoff, 12 us
    // with a cutoff of 64).
    constexpr uint64_t kLoopBelow = 8;
    constexpr uint64_t kHidden = uint64_t{1} << 52;
    constexpr uint64_t kFraction = kHidden - 1;
    constexpr uint64_t kBinadeTop = 2 * kHidden - 1;
    if (count < kLoopBelow) {
        for (uint64_t c = 0; c < count; ++c)
            total += value;
        return total;
    }

    uint64_t value_bits;
    std::memcpy(&value_bits, &value, sizeof value_bits);
    // Sign and exponent together: positive normals only.
    const uint64_t value_exp = value_bits >> 52;
    const uint64_t value_sig = (value_bits & kFraction) | kHidden;
    while (count > 0) {
        uint64_t total_bits;
        std::memcpy(&total_bits, &total, sizeof total_bits);
        const uint64_t total_exp = total_bits >> 52;
        if (value_exp == 0 || value_exp >= 0x7ff || total_exp == 0
            || total_exp >= 0x7ff || value_exp > total_exp) {
            // A zero, subnormal, negative or non-finite operand, or a
            // value past the total's binade: one plain add.
            total += value;
            --count;
            continue;
        }
        // In units of the total's ulp the total is an integer sig in
        // [2^52, 2^53) and the value is q + rem / 2^shift. While the sum
        // stays below 2^53 units, every add rounds to nearest the same
        // way, so it advances sig by the same step.
        const uint64_t total_sig = (total_bits & kFraction) | kHidden;
        const uint64_t shift = total_exp - value_exp;
        if (shift > 53) {
            // value < half an ulp: no add moves the total.
            return total;
        }
        uint64_t step = value_sig >> shift;
        if (shift > 0) {
            const uint64_t rem = value_sig & ((uint64_t{1} << shift) - 1);
            const uint64_t half = uint64_t{1} << (shift - 1);
            if (rem == half) {
                // A tie rounds to even, which depends on the parity of
                // the sum: one plain add.
                total += value;
                --count;
                continue;
            }
            step += rem > half ? 1 : 0;
        }
        if (step == 0)
            return total;
        const uint64_t room = kBinadeTop - total_sig;
        const uint64_t adds =
            static_cast<unsigned __int128>(count) * step <= room
            ? count : room / step;
        if (adds == 0) {
            // The next add leaves the binade.
            total += value;
            --count;
            continue;
        }
        total_bits = (total_exp << 52)
            | ((total_sig + adds * step) & kFraction);
        std::memcpy(&total, &total_bits, sizeof total);
        count -= adds;
    }
    return total;
}

void
IntegerHistogram::clear()
{
    dense.assign(kDenseCap, 0);
    large.clear();
}

uint64_t
IntegerHistogram::size() const
{
    uint64_t n = large.size();
    for (uint32_t count : dense)
        n += count;
    return n;
}

uint64_t
IntegerHistogram::count(uint64_t value) const
{
    if (value < kDenseCap)
        return dense[value];
    return static_cast<uint64_t>(
        std::count(large.begin(), large.end(), value));
}

DistributionEncoder::DistributionEncoder(size_t num_percentiles)
    : numPercentiles(num_percentiles)
{
    panic_if(num_percentiles < 2, "need at least 2 percentiles");
}

void
DistributionEncoder::encode(std::vector<double> samples,
                            std::vector<float> &out) const
{
    encodeInPlace(samples, out);
}

void
DistributionEncoder::encodeInPlace(std::vector<double> &samples,
                                   std::vector<float> &out) const
{
    sortSamples(samples);
    encodeSorted(samples, out);
}

void
DistributionEncoder::encodeSorted(const std::vector<double> &samples,
                                  std::vector<float> &out) const
{
    const size_t base = out.size();
    out.resize(base + dim(), 0.0f);
    if (samples.empty())
        return;

    const size_t n = samples.size();

    // Plain percentiles.
    for (size_t i = 0; i < numPercentiles; ++i) {
        const double q = static_cast<double>(i)
            / static_cast<double>(numPercentiles - 1);
        const double pos = q * static_cast<double>(n - 1);
        const size_t lo = static_cast<size_t>(pos);
        const size_t hi = std::min(lo + 1, n - 1);
        const double frac = pos - static_cast<double>(lo);
        out[base + i] = static_cast<float>(
            samples[lo] * (1.0 - frac) + samples[hi] * frac);
    }

    // Size-weighted percentiles: sample i carries weight samples[i]. The
    // weighted CDF is piecewise constant; we pick the sample at which the
    // normalized cumulative weight first reaches q.
    double total = 0.0;
    for (double x : samples)
        total += x;
    if (total <= 0.0) {
        // All-zero samples: weighted distribution degenerates to zeros.
        for (size_t i = 0; i < numPercentiles; ++i)
            out[base + numPercentiles + i] = 0.0f;
    } else {
        size_t idx = 0;
        double cum = samples[0];
        for (size_t i = 0; i < numPercentiles; ++i) {
            const double q = static_cast<double>(i)
                / static_cast<double>(numPercentiles - 1);
            const double target = q * total;
            while (cum < target && idx + 1 < n) {
                ++idx;
                cum += samples[idx];
            }
            out[base + numPercentiles + i] = static_cast<float>(samples[idx]);
        }
    }

    out[base + 2 * numPercentiles] =
        static_cast<float>(total / static_cast<double>(n));
}

namespace
{

/** std::log1p(v) for every v below the dense cap, built once. */
const std::vector<double> &
log1pTable()
{
    static const std::vector<double> table = [] {
        std::vector<double> t(IntegerHistogram::kDenseCap);
        for (uint32_t v = 0; v < t.size(); ++v)
            t[v] = std::log1p(static_cast<double>(v));
        return t;
    }();
    return table;
}

/** One distinct sample value of a histogram, in ascending order. */
struct ValueRun
{
    double value;       ///< log1p of the raw sample
    uint64_t endRank;   ///< samples up to and including this value
    double endSum;      ///< sorted-order running sum through this value
};

/**
 * Sort non-negative integers ascending: LSD radix sort over 11-bit
 * digits, as many passes as the largest value needs. A histogram's
 * large samples are thousands of mostly distinct cycle counts, where
 * std::sort's unpredictable compares cost several times more.
 */
void
radixSort(std::vector<uint64_t> &xs)
{
    constexpr unsigned kDigitBits = 11;
    constexpr size_t kBuckets = size_t{1} << kDigitBits;
    if (xs.size() < kBuckets / 8) {
        std::sort(xs.begin(), xs.end());
        return;
    }
    const uint64_t max_value = *std::max_element(xs.begin(), xs.end());
    std::vector<uint64_t> out(xs.size());
    for (unsigned shift = 0; shift < 64 && (max_value >> shift) != 0;
         shift += kDigitBits) {
        uint32_t start[kBuckets] = {};
        for (uint64_t x : xs)
            ++start[(x >> shift) & (kBuckets - 1)];
        uint32_t at = 0;
        for (uint32_t &bucket : start) {
            const uint32_t count = bucket;
            bucket = at;
            at += count;
        }
        for (uint64_t x : xs)
            out[start[(x >> shift) & (kBuckets - 1)]++] = x;
        xs.swap(out);
    }
}

} // anonymous namespace

void
DistributionEncoder::encodeHistogramLog1p(IntegerHistogram &hist,
                                          std::vector<float> &out) const
{
    const size_t base = out.size();
    out.resize(base + dim(), 0.0f);
    const uint64_t n = hist.size();
    if (n == 0)
        return;

    // Distinct values ascending, each with the running sum at its last
    // sample: adding a value `count` times in a row (addRepeated) is
    // exactly encodeSorted()'s per-element loop. log1p(0) is +0.0, and
    // adding +0.0 to a non-negative sum leaves it unchanged, so the
    // zero samples are skipped.
    thread_local std::vector<ValueRun> runs;
    runs.clear();
    double total = 0.0;
    uint64_t rank = 0;
    auto push = [&](double value, uint64_t count) {
        rank += count;
        if (value != 0.0)
            total = addRepeated(total, value, count);
        runs.push_back(ValueRun{value, rank, total});
    };
    const std::vector<double> &table = log1pTable();
    for (uint32_t v = 0; v < IntegerHistogram::kDenseCap; ++v) {
        if (hist.dense[v] != 0)
            push(table[v], hist.dense[v]);
    }
    std::vector<uint64_t> &large = hist.large;
    radixSort(large);
    for (size_t k = 0; k < large.size();) {
        size_t end = k + 1;
        while (end < large.size() && large[end] == large[k])
            ++end;
        push(std::log1p(static_cast<double>(large[k])), end - k);
        k = end;
    }

    // Plain percentiles, with encodeSorted()'s interpolation between
    // the order statistics lo and hi, found by cumulative count.
    size_t lo_run = 0, hi_run = 0;
    auto valueAt = [&](uint64_t at, size_t &run) {
        while (runs[run].endRank <= at)
            ++run;
        return runs[run].value;
    };
    for (size_t i = 0; i < numPercentiles; ++i) {
        const double q = static_cast<double>(i)
            / static_cast<double>(numPercentiles - 1);
        const double pos = q * static_cast<double>(n - 1);
        const uint64_t lo = static_cast<uint64_t>(pos);
        const uint64_t hi = std::min(lo + 1, n - 1);
        const double frac = pos - static_cast<double>(lo);
        out[base + i] = static_cast<float>(valueAt(lo, lo_run) * (1.0 - frac)
                                           + valueAt(hi, hi_run) * frac);
    }

    // Size-weighted percentiles: encodeSorted() stops at the first
    // sample whose running sum reaches the target; that sample lies in
    // the first distinct value whose closing sum does (or is the last).
    if (total > 0.0) {
        size_t at = 0;
        for (size_t i = 0; i < numPercentiles; ++i) {
            const double q = static_cast<double>(i)
                / static_cast<double>(numPercentiles - 1);
            const double target = q * total;
            while (runs[at].endSum < target && at + 1 < runs.size())
                ++at;
            out[base + numPercentiles + i] =
                static_cast<float>(runs[at].value);
        }
    }

    out[base + 2 * numPercentiles] =
        static_cast<float>(total / static_cast<double>(n));
}

LatencyRecorder::LatencyRecorder(size_t window_size)
    : window(window_size ? window_size : 1)
{
}

void
LatencyRecorder::push(double micros)
{
    std::lock_guard<std::mutex> lock(mtx);
    if (ring.size() < window) {
        ring.push_back(micros);
    } else {
        ring[next] = micros;
        next = (next + 1) % window;
    }
    ++total;
}

LatencySummary
LatencyRecorder::summary() const
{
    std::vector<double> samples;
    uint64_t count;
    {
        std::lock_guard<std::mutex> lock(mtx);
        samples = ring;
        count = total;
    }
    LatencySummary s;
    s.count = count;
    if (samples.empty())
        return s;
    sortSamples(samples);
    s.meanUs = mean(samples);
    s.p50Us = percentile(samples, 0.50);
    s.p90Us = percentile(samples, 0.90);
    s.p99Us = percentile(samples, 0.99);
    s.maxUs = samples.back();
    return s;
}

void
LatencyRecorder::reset()
{
    std::lock_guard<std::mutex> lock(mtx);
    ring.clear();
    next = 0;
    total = 0;
}

void
RunningStats::push(double x)
{
    ++n;
    const double delta = x - meanAcc;
    meanAcc += delta / static_cast<double>(n);
    m2 += delta * (x - meanAcc);
}

double
RunningStats::variance() const
{
    return n > 1 ? m2 / static_cast<double>(n - 1) : 0.0;
}

double
RunningStats::stddev() const
{
    return std::sqrt(variance());
}

} // namespace concorde
