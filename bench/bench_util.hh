/**
 * @file
 * Shared helpers for the evaluation benches: error statistics, CDF
 * points, the cached TAO baseline artifact, and the mode flags and
 * BENCH_*.json writer of the gated benches.
 */

#ifndef CONCORDE_BENCH_BENCH_UTIL_HH
#define CONCORDE_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "baseline/tao.hh"
#include "core/artifacts.hh"
#include "core/dataset.hh"
#include "ml/trainer.hh"

namespace concorde
{
namespace benchutil
{

/** Summary statistics of a relative-error sample. */
struct ErrorStats
{
    double mean = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
    double fracAbove10pct = 0.0;
    size_t count = 0;
};

inline ErrorStats
summarize(std::vector<double> errors)
{
    ErrorStats stats;
    stats.count = errors.size();
    if (errors.empty())
        return stats;
    std::sort(errors.begin(), errors.end());
    double sum = 0.0;
    size_t above = 0;
    for (double e : errors) {
        sum += e;
        above += e > 0.10;
    }
    auto q = [&](double p) {
        const double pos = p * static_cast<double>(errors.size() - 1);
        const size_t lo = static_cast<size_t>(pos);
        const size_t hi = std::min(lo + 1, errors.size() - 1);
        const double frac = pos - static_cast<double>(lo);
        return errors[lo] * (1 - frac) + errors[hi] * frac;
    };
    stats.mean = sum / static_cast<double>(errors.size());
    stats.p50 = q(0.5);
    stats.p90 = q(0.9);
    stats.p99 = q(0.99);
    stats.fracAbove10pct =
        static_cast<double>(above) / static_cast<double>(errors.size());
    return stats;
}

/** Per-sample relative CPI errors of a model over a dataset. */
inline std::vector<double>
relativeErrors(const TrainedModel &model, const Dataset &data)
{
    const auto preds = model.predictBatch(data.features, data.dim);
    std::vector<double> errors(preds.size());
    for (size_t i = 0; i < preds.size(); ++i) {
        errors[i] = std::abs(preds[i] - data.labels[i])
            / std::max(data.labels[i], 1e-6f);
    }
    return errors;
}

/** The p5, p25, p50, p75 and p95 points of a CDF (nearest rank). */
constexpr double kCdfPoints[] = {0.05, 0.25, 0.5, 0.75, 0.95};

inline std::vector<double>
cdfQuantiles(std::vector<double> values)
{
    std::vector<double> points;
    if (values.empty())
        return points;
    std::sort(values.begin(), values.end());
    for (double p : kCdfPoints) {
        points.push_back(values[static_cast<size_t>(
            p * static_cast<double>(values.size() - 1))]);
    }
    return points;
}

/** Print an inline CDF (selected percentiles) of arbitrary values. */
inline void
printCdf(const std::string &label, std::vector<double> values,
         const char *unit = "")
{
    const auto q = cdfQuantiles(std::move(values));
    if (q.empty())
        return;
    std::printf("  %-28s p5 %9.3g%s  p25 %9.3g%s  p50 %9.3g%s  "
                "p75 %9.3g%s  p95 %9.3g%s\n",
                label.c_str(), q[0], unit, q[1], unit, q[2], unit, q[3],
                unit, q[4], unit);
}

/** Cached TAO baseline trained on the SPEC@N1 dataset. */
inline TaoModel
taoArtifact()
{
    const Dataset &train = artifacts::specN1Train();
    std::vector<RegionSpec> regions;
    std::vector<float> labels;
    for (size_t i = 0; i < train.size(); ++i) {
        regions.push_back(train.meta[i].region);
        labels.push_back(train.labels[i]);
    }
    const TaoConfig config;
    const std::string path =
        artifacts::taoModelPath(config, regions, labels);
    if (fileExists(path))
        return TaoModel::load(path);

    TaoModel model(config, UarchParams::armN1());
    std::printf("training TAO baseline on %zu SPEC@N1 regions...\n",
                regions.size());
    const double final_loss = model.train(regions, labels);
    std::printf("TAO final train rel-err: %.4f\n", final_loss);
    model.save(path);
    return model;
}

/**
 * Parse a gated bench's mode flags into `smoke`, whose value on entry
 * is the bench's default. `--smoke` selects the small CI sizes. A
 * bench that defaults to full sizes also honours CONCORDE_SMOKE (any
 * value but "0" selects smoke); one that defaults to smoke takes
 * `--full` instead. Any other argument prints a usage line and returns
 * false (the caller exits 2).
 */
inline bool
parseBenchMode(int argc, char **argv, const char *name, bool &smoke)
{
    const bool smoke_default = smoke;
    if (!smoke_default) {
        const char *env = std::getenv("CONCORDE_SMOKE");
        smoke = env && *env && std::strcmp(env, "0") != 0;
    }
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else if (smoke_default && std::strcmp(argv[i], "--full") == 0) {
            smoke = false;
        } else {
            std::fprintf(stderr, "usage: %s [%s]\n", name,
                         smoke_default ? "--full" : "--smoke");
            return false;
        }
    }
    return true;
}

/**
 * Writer of one gated bench's BENCH_*.json summary: a flat object with
 * one key per line, in call order -- the shape tools/bench_summary.sh
 * parses. The file goes to $CONCORDE_BENCH_JSON when set, else to
 * `default_name`.
 */
class BenchJson
{
  public:
    explicit BenchJson(const char *default_name)
    {
        const char *env = std::getenv("CONCORDE_BENCH_JSON");
        path = env && *env ? env : default_name;
        file = std::fopen(path.c_str(), "w");
        if (file)
            std::fputs("{", file);
        else
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
    }

    ~BenchJson() { close(); }

    BenchJson(const BenchJson &) = delete;
    BenchJson &operator=(const BenchJson &) = delete;

    /** `"key": value`, the value rendered by printf(fmt, ...). */
    void field(const char *key, const char *fmt, ...)
        __attribute__((format(printf, 3, 4)))
    {
        if (!file)
            return;
        std::fprintf(file, "%s\n  \"%s\": ", first ? "" : ",", key);
        first = false;
        va_list args;
        va_start(args, fmt);
        std::vfprintf(file, fmt, args);
        va_end(args);
    }

    void text(const char *key, const char *value)
    {
        field(key, "\"%s\"", value);
    }

    void flag(const char *key, bool value)
    {
        field(key, "%s", value ? "true" : "false");
    }

    /** Close the object and report the path (idempotent). */
    void close()
    {
        if (!file)
            return;
        std::fputs("\n}\n", file);
        std::fclose(file);
        file = nullptr;
        std::printf("  wrote %s\n", path.c_str());
    }

  private:
    std::string path;
    std::FILE *file = nullptr;
    bool first = true;
};

} // namespace benchutil
} // namespace concorde

#endif // CONCORDE_BENCH_BENCH_UTIL_HH
