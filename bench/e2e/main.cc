/**
 * @file
 * End-to-end benchmark program: one workload per process.
 *
 *   e2e_bench --workload NAME [--seed N] --seconds S [--trace 0|1]
 *             [--trace-out FILE]
 *   e2e_bench --workload NAME [--seed N] --setup-only
 *
 * Sets the workload up once, cold (setup_s: from main to the end of that
 * setup), runs its calls for S seconds with tracing off, checks a
 * seed-chosen sample of the outputs another way, and prints the
 * end-to-end metrics. With --trace 1 it then sets up again, replays the
 * calls that began in the first quarter of the run with spans around
 * every public layer call, requires the replay's outputs to equal the
 * untraced ones bit for bit, writes the spans as Chrome trace-event JSON
 * to FILE, and prints the per-layer metrics instead.
 *
 * The last line of stdout is one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * The exit code is 0 only when every op and check succeeded.
 * --setup-only stops after the cold setup and prints {"setup_s": ...},
 * so a caller can time more cold setups in fresh processes.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/stats.hh"
#include "common/stopwatch.hh"
#include "e2e.hh"

using namespace concorde;
using namespace concorde::e2e;

namespace
{

/** Slices of the timed phase; each time metric is the best slice's. */
constexpr int kSlices = 3;

/** Share of the run whose calls the traced replay makes again. */
constexpr double kReplayShare = 1.0 / 4.0;

/** Span coverage the non-serve workloads must reach. */
constexpr double kMinCoverage = 0.9;

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 0.0;
    bool trace = false;
    bool setupOnly = false;
    std::string traceOut;
};

bool
parseOptions(int argc, char **argv, Options &opt)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--setup-only") {
            opt.setupOnly = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        const char *value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            opt.workload = value;
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(value, &end, 10);
        } else if (arg == "--seconds") {
            opt.seconds = std::strtod(value, &end);
            if (!(opt.seconds > 0.0))
                return false;
        } else if (arg == "--trace") {
            if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0)
                return false;
            opt.trace = value[0] == '1';
        } else if (arg == "--trace-out") {
            opt.traceOut = value;
        } else {
            return false;
        }
        if (end && *end != '\0')
            return false;
    }
    return !opt.workload.empty() && (opt.setupOnly || opt.seconds > 0.0);
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, uint64_t seed)
{
    if (name == "dse_sweep")
        return makeDseSweep(seed);
    if (name == "attribution")
        return makeAttribution(seed);
    if (name == "program_cpi")
        return makeProgramCpi(seed);
    if (name == "labeling")
        return makeLabeling(seed);
    if (name == "serve_mixed")
        return makeServeMixed(seed);
    return nullptr;
}

double
quantile(std::vector<double> xs, double q)
{
    if (xs.empty())
        return 0.0;
    sortSamples(xs);
    return percentile(xs, q);
}

/** Throughput and call-latency percentiles of a stretch of a run. */
struct TimeStats
{
    double opsPerS = 0.0;
    double p50Ms = std::numeric_limits<double>::infinity();
    double p90Ms = std::numeric_limits<double>::infinity();
};

/**
 * The run's time metrics, each the best over kSlices equal slices of the
 * timed phase; a call belongs to the slice it starts in. Interference
 * from other tenants of the host only ever slows work down, and comes in
 * episodes of seconds, so the best slice is the least disturbed
 * estimate: best-of-N within one run.
 */
TimeStats
bestSlice(const RunOutput &run, double seconds)
{
    std::vector<std::vector<const CallTime *>> slices(kSlices);
    for (const CallTime &time : run.times) {
        const int s = static_cast<int>(time.start / seconds * kSlices);
        slices[std::min(s, kSlices - 1)].push_back(&time);
    }
    TimeStats best;
    for (const auto &calls : slices) {
        if (calls.empty())
            continue;
        std::vector<double> ms;
        uint64_t ops = 0;
        double first = calls.front()->start;
        double last = 0.0;
        for (const CallTime *time : calls) {
            ms.push_back((time->end - time->start) * 1e3);
            ops += time->ops;
            first = std::min(first, time->start);
            last = std::max(last, time->end);
        }
        best.opsPerS = std::max(best.opsPerS,
                                static_cast<double>(ops) / (last - first));
        best.p50Ms = std::min(best.p50Ms, quantile(ms, 0.5));
        best.p90Ms = std::min(best.p90Ms, quantile(ms, 0.9));
    }
    return best;
}

bool
sameBits(const CallOutput &a, const CallOutput &b)
{
    // Bitwise, so -0.0 != 0.0 and a NaN equals itself.
    return a.hashes == b.hashes && a.values.size() == b.values.size()
        && (a.values.empty()
            || std::memcmp(a.values.data(), b.values.data(),
                           a.values.size() * sizeof(double)) == 0);
}

uint64_t
outputDigest(const RunOutput &run)
{
    uint64_t h = fnv1a(nullptr, 0);
    for (const CallOutput &call : run.calls) {
        h = fnv1a(call.values.data(), call.values.size() * sizeof(double), h);
        h = fnv1a(call.hashes.data(), call.hashes.size() * sizeof(uint64_t),
                  h);
    }
    return h;
}

double
peakRssMb()
{
    struct rusage usage;
    std::memset(&usage, 0, sizeof(usage));
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

struct Metric
{
    const char *name;
    double value;
    const char *unit;
};

void
printReport(const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::printf("  %-24s %16.6g %s\n", m.name, m.value, m.unit);
}

void
printJson(bool correct, uint64_t attempted, uint64_t failed,
          const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {", correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name, metrics[i].value,
                    metrics[i].unit);
    }
    std::printf("}}\n");
}

/**
 * The traced run: set up again, replay the first calls of `base` with
 * spans, check the replay against `base` bit for bit, write the spans,
 * and return the per-layer metrics. Adds the replayed calls (and the
 * coverage gate) to `attempted` and their mismatches to `failed`.
 */
std::vector<Metric>
tracedRun(Workload &workload, const Options &opt, const RunOutput &base,
          uint64_t &attempted, uint64_t &failed)
{
    workload.setup();
    LayerCounts counts;
    setTracing(true);
    const RunOutput traced =
        workload.run(opt.seconds * kReplayShare, true, counts);
    setTracing(false);

    // Each replayed call against the untraced call with its id; the
    // untraced calls' wall span is the base of the tracing overhead.
    std::unordered_map<uint64_t, size_t> untracedById;
    for (size_t i = 0; i < base.times.size(); ++i)
        untracedById[base.times[i].id] = i;
    uint64_t mismatches = traced.failed;
    double untracedStart = base.seconds;
    double untracedEnd = 0.0;
    for (size_t i = 0; i < traced.calls.size(); ++i) {
        const auto it = untracedById.find(traced.times[i].id);
        if (it == untracedById.end()
            || !sameBits(base.calls[it->second], traced.calls[i])) {
            ++mismatches;
            continue;
        }
        untracedStart =
            std::min(untracedStart, base.times[it->second].start);
        untracedEnd = std::max(untracedEnd, base.times[it->second].end);
    }
    attempted += traced.calls.size();
    failed += mismatches;
    std::printf("traced replay: %zu calls in %.3f s, %llu differ from "
                "the untraced run\n", traced.calls.size(),
                traced.seconds,
                static_cast<unsigned long long>(mismatches));

    const SpanSummary spans = summarizeSpans();
    double covered = 0.0;
    for (const auto &kv : spans.selfSeconds)
        covered += kv.second;
    const double root = spans.rootSeconds > 0.0 ? spans.rootSeconds : 1.0;
    const double coverage = covered / root;
    if (workload.coverageGated()) {
        ++attempted;
        if (coverage < kMinCoverage) {
            ++failed;
            std::printf("spans cover %.3f of worker time, below %.2f\n",
                        coverage, kMinCoverage);
        }
    }
    if (!opt.traceOut.empty() && !writeChromeTrace(opt.traceOut))
        std::fprintf(stderr, "cannot write %s\n", opt.traceOut.c_str());

    auto share = [&](const char *layer) {
        const auto it = spans.selfSeconds.find(layer);
        return it == spans.selfSeconds.end() ? 0.0 : it->second / root;
    };
    auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    const double ops = static_cast<double>(traced.ops);
    const double runs = static_cast<double>(counts.pipelineRuns);
    return {
        {"spans.coverage", coverage, "fraction"},
        {"spans.overhead_frac",
         ratio(traced.seconds, untracedEnd - untracedStart) - 1.0,
         "fraction"},
        {"spans.us_per_op", ratio(spans.rootSeconds * 1e6, ops), "us"},
        {"spans.ops", ops, "count"},
        {"trace.share", share("trace"), "fraction"},
        {"analysis.share", share("analysis"), "fraction"},
        {"analytical.share", share("analytical"), "fraction"},
        {"ml.share", share("ml"), "fraction"},
        {"sim.share", share("sim"), "fraction"},
        {"core.share", share("core"), "fraction"},
        {"wire.share", share("wire"), "fraction"},
        {"serve.share", share("serve"), "fraction"},
        {"trace.kinstr_per_op", ratio(counts.traceInstructions / 1e3, ops),
         "kinstr/op"},
        {"analysis.sides_per_op",
         ratio(static_cast<double>(counts.sidesBuilt), ops), "sides/op"},
        {"memory.l1d_hit_ratio",
         ratio(static_cast<double>(counts.l1dHits),
               static_cast<double>(counts.dAccesses)), "fraction"},
        {"memory.d_accesses", static_cast<double>(counts.dAccesses),
         "count"},
        {"analytical.model_runs_per_op",
         ratio(static_cast<double>(counts.modelRuns), ops), "runs/op"},
        {"ml.rows_per_call",
         ratio(static_cast<double>(counts.mlRows),
               static_cast<double>(counts.mlCalls)), "rows/call"},
        {"pipeline.analyze_s", ratio(counts.pipelineAnalyzeSeconds, runs),
         "s"},
        {"pipeline.feature_s", ratio(counts.pipelineFeatureSeconds, runs),
         "s"},
        {"pipeline.infer_s", ratio(counts.pipelineInferSeconds, runs), "s"},
        {"serve.cache_hit_ratio", counts.cacheHitRatio, "fraction"},
        {"serve.rows_per_batch", counts.rowsPerBatch, "rows/batch"},
        {"serve.batches", static_cast<double>(counts.batches), "count"},
        {"serve.server_p99_share",
         ratio(counts.serverP99Ms, counts.clientBurstP99Ms), "fraction"},
        {"serve.non_ok", static_cast<double>(counts.nonOk), "count"},
    };
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const Stopwatch sinceStart;
    Options opt;
    if (!parseOptions(argc, argv, opt)) {
        std::fprintf(stderr, "usage: e2e_bench --workload NAME [--seed N] "
                     "--seconds S [--trace 0|1] [--trace-out FILE]\n"
                     "       e2e_bench --workload NAME [--seed N] "
                     "--setup-only\n");
        return 2;
    }
    std::unique_ptr<Workload> workload = makeWorkload(opt.workload, opt.seed);
    if (!workload) {
        std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
        return 2;
    }

    // Cold: the first setup of the process pays every lazy one-time cost.
    workload->setup();
    const double setupSeconds = sinceStart.seconds();
    if (opt.setupOnly) {
        std::printf("{\"setup_s\": %.17g}\n", setupSeconds);
        return 0;
    }

    LayerCounts unused;
    const RunOutput base = workload->run(opt.seconds, false, unused);
    const double rssMb = peakRssMb();
    const CheckResult checks = workload->check(base);

    uint64_t attempted = base.ops + checks.attempted;
    uint64_t failed = base.failed + checks.failed;
    std::printf("%s seed %llu: %zu calls, %llu %s in %.3f s; %llu/%llu "
                "checks failed\n", opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), base.calls.size(),
                static_cast<unsigned long long>(base.ops),
                workload->opName(), base.seconds,
                static_cast<unsigned long long>(checks.failed),
                static_cast<unsigned long long>(checks.attempted));
    std::printf("output_digest %016llx\n",
                static_cast<unsigned long long>(outputDigest(base)));

    std::vector<Metric> metrics;
    if (!opt.trace) {
        const TimeStats time = bestSlice(base, opt.seconds);
        metrics = {
            {"setup_s", setupSeconds, "s"},
            {"ops_per_s", time.opsPerS, "1/s"},
            {"latency_p50_ms", time.p50Ms, "ms"},
            {"latency_p90_ms", time.p90Ms, "ms"},
            {"peak_rss_mb", rssMb, "MB"},
        };
    } else {
        metrics = tracedRun(*workload, opt, base, attempted, failed);
    }

    printReport(metrics);
    const bool correct = failed == 0;
    printJson(correct, attempted, failed, metrics);
    return correct ? 0 : 1;
}
