/**
 * @file
 * Command-line front end for the Concorde library.
 *
 *   concorde_cli predict <program> [param=value ...]
 *   concorde_cli sweep <program> <param> [param=value ...]
 *   concorde_cli attribute <program> [permutations] [param=value ...]
 *   concorde_cli simulate <program> [param=value ...]
 *   concorde_cli serve <program> [--model <artifact>] [clients=4
 *                                 requests=2000 batch=64 deadline_us=200
 *                                 cache=65536 burst=32 regions=4
 *                                 inflight=0 listen=<port>
 *                                 param=value ...]
 *   concorde_cli pipeline <program> [chunks=64 region=8 warmup=8 start=16
 *                                    threads=0 mode=sharded|scalar
 *                                    state=carry|independent
 *                                    param=value ...]
 *   concorde_cli dataset out=<dir> [samples=512 shard=128 chunks=8
 *                                   seed=99 threads=0 program=<code>
 *                                   max_shards=0 workers=0 respawns=3]
 *   concorde_cli dataset-worker out=<dir> shards=<i,j,...> [samples=
 *                                   shard= chunks= seed= threads=
 *                                   program=<code>]
 *   concorde_cli sweep-worker <program> <param> part=<w> nparts=<n>
 *                                   out=<file> [model=<artifact>
 *                                   param=value ...]
 *   concorde_cli train data=<dir|file> out=<artifact> [epochs=12 val=0.1
 *                                   batch=256 seed=1234 threads=0
 *                                   checkpoint=<file> max_epochs=0]
 *   concorde_cli eval model=<artifact> data=<dir|file>
 *   concorde_cli list
 *
 * The model lifecycle runs end to end through `dataset`, `train`, and
 * `eval`: `dataset` generates a sharded, resumable dataset directory
 * (kill it and rerun; completed shards are kept and the result is
 * bitwise-identical), `train` fits the MLP with a held-out validation
 * split and per-epoch checkpointing, and writes a versioned
 * ModelArtifact with provenance, and `eval` reports held-out relative
 * CPI error. `serve --model <artifact>` hot-loads such an artifact into
 * the serving registry.
 *
 * Multi-process scale-out: `dataset workers=N` and `sweep <program>
 * <param> workers=N out=<file>` fork N `dataset-worker` /
 * `sweep-worker` children, stride-partition the work across them,
 * respawn crashed workers (bounded by respawns=), and merge results
 * bitwise-identically to a 1-worker run. The worker subcommands are
 * the internal protocol and are usable standalone for external
 * schedulers.
 *
 * Programs are Table-2 codes (P1..P13, C1, C2, O1..O4, S1..S10).
 * Parameters use the short names printed by `list` (e.g. rob=256
 * l1d=128 bp=simple pct=10 pf=4). Unspecified parameters default to
 * ARM N1. Models and datasets are cached under artifacts/ (the first
 * invocation trains them).
 *
 * Unknown subcommands, unknown parameters, and malformed values all
 * exit with status 2 and a usage message, so shell scripts and CI can
 * rely on the exit code.
 */

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "analysis/analysis_store.hh"
#include "common/process_pool.hh"
#include "common/serialize.hh"
#include "common/stopwatch.hh"
#include "core/artifacts.hh"
#include "core/concorde.hh"
#include "core/model_artifact.hh"
#include "core/shapley.hh"
#include "pipeline/analysis_pipeline.hh"
#include "serve/net_server.hh"
#include "serve/prediction_service.hh"
#include "sim/o3_core.hh"

using namespace concorde;

namespace
{

const std::map<std::string, ParamId> kShortNames = {
    {"rob", ParamId::RobSize},
    {"commit", ParamId::CommitWidth},
    {"lq", ParamId::LqSize},
    {"sq", ParamId::SqSize},
    {"alu", ParamId::AluWidth},
    {"fp", ParamId::FpWidth},
    {"ls", ParamId::LsWidth},
    {"lsp", ParamId::LsPipes},
    {"lp", ParamId::LoadPipes},
    {"fetch", ParamId::FetchWidth},
    {"decode", ParamId::DecodeWidth},
    {"rename", ParamId::RenameWidth},
    {"fbuf", ParamId::FetchBuffers},
    {"ifills", ParamId::MaxIcacheFills},
    {"bp", ParamId::BranchPredictor},
    {"pct", ParamId::SimpleMispredictPct},
    {"l1d", ParamId::L1dSize},
    {"l1i", ParamId::L1iSize},
    {"l2", ParamId::L2Size},
    {"pf", ParamId::PrefetchDegree},
};

int
usage()
{
    std::fprintf(stderr,
        "usage: concorde_cli <command> [args]\n"
        "  predict <program> [param=value ...]\n"
        "  sweep <program> <param> [workers= respawns= out=<file> "
        "model=<artifact>\n"
        "                   param=value ...]\n"
        "  attribute <program> [permutations] [param=value ...]\n"
        "  simulate <program> [param=value ...]\n"
        "  serve <program> [--model <artifact>] [clients= requests= "
        "batch=\n"
        "                   deadline_us= cache= burst= regions= threads= "
        "inflight=\n"
        "                   listen=<port> alpha= max_width= fallback=0|1\n"
        "                   fallback_budget= fallback_reject=0|1 "
        "feedback=<file>\n"
        "                   param=value ...]\n"
        "  pipeline <program> [chunks= region= warmup= start= threads=\n"
        "                      mode=sharded|scalar state=carry|independent "
        "param=value ...]\n"
        "  dataset out=<dir> [samples= shard= chunks= seed= threads= "
        "program=<code>\n"
        "                      max_shards= workers= respawns=]\n"
        "  dataset-worker out=<dir> shards=<i,j,...> [samples= shard= "
        "chunks= seed=\n"
        "                      threads= program=<code>]\n"
        "  sweep-worker <program> <param> part= nparts= out=<file> "
        "[model=<artifact>\n"
        "                      param=value ...]\n"
        "  train data=<dir|file> out=<artifact> [epochs= val= batch= "
        "seed= threads=\n"
        "                      checkpoint=<file> max_epochs= "
        "feedback=<file>]\n"
        "  eval model=<artifact> data=<dir|file>\n"
        "  list\n"
        "run with 'list' for programs and parameter names\n");
    return 2;
}

/** Strict double parse: the whole string must be a finite number. */
bool
parseDouble(const std::string &text, double &value)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    errno = 0;
    value = std::strtod(text.c_str(), &end);
    return end && *end == '\0' && errno != ERANGE
        && std::isfinite(value);
}

/** Strict integer parse: the whole string must be an in-range number. */
bool
parseInt(const std::string &text, int64_t &value)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    errno = 0;
    value = std::strtoll(text.c_str(), &end, 10);
    return end && *end == '\0' && errno != ERANGE;
}

/**
 * Apply one param=value override. Returns false (with a diagnostic) on
 * an unknown parameter or malformed value.
 */
bool
applyOverride(UarchParams &params, const std::string &arg)
{
    const auto eq = arg.find('=');
    if (eq == std::string::npos) {
        std::fprintf(stderr, "malformed argument '%s' (expected "
                     "param=value)\n", arg.c_str());
        return false;
    }
    const std::string key = arg.substr(0, eq);
    const std::string value = arg.substr(eq + 1);
    const auto it = kShortNames.find(key);
    if (it == kShortNames.end()) {
        std::fprintf(stderr, "unknown parameter '%s'\n", key.c_str());
        return false;
    }
    if (it->second == ParamId::BranchPredictor) {
        if (value != "tage" && value != "simple") {
            std::fprintf(stderr, "bad bp value '%s' (tage|simple)\n",
                         value.c_str());
            return false;
        }
        params.set(it->second, value == "tage" ? 1 : 0);
        return true;
    }
    int64_t parsed = 0;
    if (!parseInt(value, parsed)) {
        std::fprintf(stderr, "bad value '%s' for parameter '%s'\n",
                     value.c_str(), key.c_str());
        return false;
    }
    const ParamInfo &info = paramTable()[static_cast<int>(it->second)];
    if (parsed < info.minValue || parsed > info.maxValue) {
        std::fprintf(stderr, "value %lld for '%s' outside [%lld, %lld]\n",
                     static_cast<long long>(parsed), key.c_str(),
                     static_cast<long long>(info.minValue),
                     static_cast<long long>(info.maxValue));
        return false;
    }
    params.set(it->second, parsed);
    return true;
}

RegionSpec
regionFor(int pid)
{
    RegionSpec spec;
    spec.programId = pid;
    spec.traceId = 0;
    spec.startChunk = 16;
    spec.numChunks = artifacts::kShortRegionChunks;
    return spec;
}

/**
 * Split args into serve-layer options (consumed into `options`,
 * `double_options`, `string_options`) and uarch overrides (applied to
 * `params`). `--model <path>` / `model=<path>` is consumed into
 * `model_path` when given. Returns false on any unknown key or
 * malformed value.
 */
bool
parseServeArgs(int argc, char **argv, int first,
               std::map<std::string, int64_t> &options, UarchParams &params,
               std::string *model_path,
               std::map<std::string, double> *double_options = nullptr,
               std::map<std::string, std::string> *string_options = nullptr)
{
    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        if (model_path && arg == "--model") {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "--model needs an artifact path\n");
                return false;
            }
            *model_path = argv[++i];
            continue;
        }
        const auto eq = arg.find('=');
        const std::string key =
            eq == std::string::npos ? arg : arg.substr(0, eq);
        if (model_path && key == "model") {
            if (eq == std::string::npos || eq + 1 == arg.size()) {
                std::fprintf(stderr, "bad value for serve option "
                             "'model'\n");
                return false;
            }
            *model_path = arg.substr(eq + 1);
            continue;
        }
        if (options.count(key)) {
            int64_t value = 0;
            if (eq == std::string::npos
                || !parseInt(arg.substr(eq + 1), value) || value < 0) {
                std::fprintf(stderr, "bad value for serve option '%s'\n",
                             key.c_str());
                return false;
            }
            options[key] = value;
            continue;
        }
        if (double_options && double_options->count(key)) {
            double value = 0.0;
            if (eq == std::string::npos
                || !parseDouble(arg.substr(eq + 1), value) || value < 0.0) {
                std::fprintf(stderr, "bad value for serve option '%s'\n",
                             key.c_str());
                return false;
            }
            (*double_options)[key] = value;
            continue;
        }
        if (string_options && string_options->count(key)) {
            if (eq == std::string::npos || eq + 1 == arg.size()) {
                std::fprintf(stderr, "bad value for serve option '%s'\n",
                             key.c_str());
                return false;
            }
            (*string_options)[key] = arg.substr(eq + 1);
            continue;
        }
        if (!applyOverride(params, arg))
            return false;
    }
    return true;
}

std::atomic<bool> g_stopServing{false};

void
onStopSignal(int)
{
    g_stopServing.store(true);
}

int
runServe(int pid, const char *code, int argc, char **argv)
{
    std::map<std::string, int64_t> opt = {
        {"clients", 4},   {"requests", 2000}, {"batch", 64},
        {"deadline_us", 200}, {"cache", 65536}, {"burst", 32},
        {"regions", 4},   {"threads", 0},     {"listen", -1},
        {"inflight", 0},  {"fallback", 0},    {"fallback_budget", 2},
        {"fallback_reject", 0},
    };
    std::map<std::string, double> dopt = {
        {"alpha", 0.1}, {"max_width", 0.0},
    };
    std::map<std::string, std::string> sopt = {
        {"feedback", ""},
    };
    UarchParams base = UarchParams::armN1();
    std::string model_path;
    if (!parseServeArgs(argc, argv, 3, opt, base, &model_path, &dopt,
                        &sopt))
        return usage();
    if (dopt["alpha"] <= 0.0 || dopt["alpha"] >= 1.0) {
        std::fprintf(stderr, "alpha must be in (0, 1)\n");
        return usage();
    }
    const size_t clients = std::max<int64_t>(1, opt["clients"]);
    const size_t requests = std::max<int64_t>(1, opt["requests"]);
    const size_t num_regions = std::max<int64_t>(1, opt["regions"]);
    const size_t burst = std::max<int64_t>(1, opt["burst"]);

    serve::ServeConfig config;
    const size_t maxBatch =
        static_cast<size_t>(std::max<int64_t>(1, opt["batch"]));
    const auto maxAge = std::chrono::microseconds(opt["deadline_us"]);
    // The batch/deadline knobs set the bulk (throughput) class; the
    // interactive class stays on small, young batches so the tail is
    // never gated on filling a bulk-sized batch.
    config.batching.policy(serve::RequestClass::Bulk) = {maxBatch, maxAge};
    config.batching.policy(serve::RequestClass::Interactive) = {
        std::max<size_t>(1, maxBatch / 4),
        std::min(maxAge, std::chrono::microseconds(50))};
    config.batching.maxInFlightPerKey =
        static_cast<size_t>(opt["inflight"]);
    config.cacheCapacity = static_cast<size_t>(opt["cache"]);
    config.poolThreads = opt["threads"] == 0
        ? defaultThreads() : static_cast<size_t>(opt["threads"]);
    config.uncertainty.alpha = dopt["alpha"];
    config.uncertainty.maxRelWidth = dopt["max_width"];
    config.uncertainty.fallbackEnabled = opt["fallback"] != 0;
    config.uncertainty.maxFallbackInFlight =
        static_cast<size_t>(opt["fallback_budget"]);
    config.uncertainty.rejectOnBudget = opt["fallback_reject"] != 0;
    config.uncertainty.feedbackPath = sopt["feedback"];

    serve::PredictionService service(config);
    if (model_path.empty()) {
        service.registry().add(
            "default", ConcordePredictor(artifacts::fullModel(),
                                         artifacts::featureConfig()));
    } else {
        if (!fileExists(model_path)) {
            std::fprintf(stderr, "model artifact '%s' not found\n",
                         model_path.c_str());
            return 1;
        }
        const serve::ModelHandle handle =
            service.loadModel("default", model_path);
        std::printf("loaded artifact %s (trained %llu epochs, held-out "
                    "rel-err %.4f, %s)\n", model_path.c_str(),
                    static_cast<unsigned long long>(
                        handle.provenance->trainedEpochs),
                    handle.provenance->heldOutRelErr,
                    handle.provenance->gitDescribe.c_str());
    }
    if (service.registry().get("default").calibrated()) {
        std::printf("uncertainty: calibrated (alpha=%.3g max_width=%.3g "
                    "fallback=%s budget=%zu reject=%s%s%s)\n",
                    config.uncertainty.alpha,
                    config.uncertainty.maxRelWidth,
                    config.uncertainty.fallbackEnabled ? "on" : "off",
                    config.uncertainty.maxFallbackInFlight,
                    config.uncertainty.rejectOnBudget ? "overloaded"
                                                      : "flag-only",
                    config.uncertainty.feedbackPath.empty()
                        ? "" : " feedback=",
                    config.uncertainty.feedbackPath.c_str());
    } else {
        std::printf("uncertainty: model is uncalibrated -> point-only "
                    "responses (train with val>0 for intervals)\n");
    }

    // Each client sweeps random design points over a handful of regions
    // of the program (warm regions are the serving common case).
    std::vector<RegionSpec> regions;
    for (size_t r = 0; r < num_regions; ++r) {
        RegionSpec spec = regionFor(pid);
        spec.startChunk = 16 + 8 * r;
        regions.push_back(spec);
    }
    std::printf("serving %s: %zu clients x %zu requests, bulk<=%zu/"
                "%lldus, interactive<=%zu/%lldus, cache %zu\n", code,
                clients, requests,
                config.batching.policy(serve::RequestClass::Bulk).maxBatch,
                static_cast<long long>(
                    config.batching.policy(serve::RequestClass::Bulk)
                        .maxAge.count()),
                config.batching.policy(serve::RequestClass::Interactive)
                    .maxBatch,
                static_cast<long long>(
                    config.batching.policy(serve::RequestClass::Interactive)
                        .maxAge.count()),
                config.cacheCapacity);

    // Warm path: build the region analyses and provider state, and
    // pre-answer the base point, so the measured phase (or the first
    // network client) sees steady-state serving.
    (void)service.warmRegions("default", regions, {base});

    if (opt["listen"] >= 0) {
        // Network mode: expose the warmed service over the wire
        // protocol and block until SIGINT/SIGTERM.
        serve::NetServerConfig netCfg;
        netCfg.port = static_cast<uint16_t>(opt["listen"]);
        serve::NetServer server(service, netCfg);
        server.start();
        std::printf("listening on %s:%u (ctrl-c to stop)\n",
                    netCfg.host.c_str(), server.port());
        std::fflush(stdout);
        std::signal(SIGINT, onStopSignal);
        std::signal(SIGTERM, onStopSignal);
        while (!g_stopServing.load())
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
        server.stop();
        const serve::NetServerStats net = server.stats();
        const serve::ServeStats sstats = service.stats();
        std::printf("  %llu connections, %llu frames in / %llu out, "
                    "%llu protocol errors (%llu unsupported-version)\n",
                    static_cast<unsigned long long>(
                        net.connectionsAccepted),
                    static_cast<unsigned long long>(net.framesIn),
                    static_cast<unsigned long long>(net.framesOut),
                    static_cast<unsigned long long>(net.protocolErrors),
                    static_cast<unsigned long long>(
                        net.unsupportedVersionFrames));
        std::printf("  service latency p50 %.0fus  p90 %.0fus  "
                    "p99 %.0fus\n", sstats.latency.p50Us,
                    sstats.latency.p90Us, sstats.latency.p99Us);
        std::printf("  routes: fast=%llu fallback_sim=%llu "
                    "flagged_ood=%llu fallback_rejected=%llu "
                    "feedback_appended=%llu\n",
                    static_cast<unsigned long long>(sstats.servedFast),
                    static_cast<unsigned long long>(
                        sstats.servedFallbackSim),
                    static_cast<unsigned long long>(sstats.flaggedOod),
                    static_cast<unsigned long long>(
                        sstats.fallbackRejectedOverload),
                    static_cast<unsigned long long>(
                        sstats.feedbackAppended));
        return 0;
    }

    std::vector<std::vector<double>> latencies(clients);
    Stopwatch wall;
    std::vector<std::thread> threads;
    for (size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c]() {
            Rng rng(1000 + c);
            UarchParams point = base;
            auto &lat = latencies[c];
            size_t sent = 0;
            while (sent < requests) {
                const size_t n = std::min(burst, requests - sent);
                std::vector<std::future<serve::PredictResponse>> futures;
                std::vector<Stopwatch> timers(n);
                for (size_t i = 0; i < n; ++i) {
                    // Randomize a few axes around the base point.
                    point.set(ParamId::RobSize,
                              1 + rng.nextBounded(1024));
                    point.set(ParamId::CommitWidth,
                              1 + rng.nextBounded(12));
                    point.set(ParamId::LqSize, 1 + rng.nextBounded(256));
                    serve::PredictRequest request;
                    request.model = "default";
                    request.region =
                        regions[rng.nextBounded(regions.size())];
                    request.params = point;
                    timers[i] = Stopwatch();
                    futures.push_back(service.submit(std::move(request)));
                }
                for (size_t i = 0; i < n; ++i) {
                    // Non-OK outcomes (e.g. OVERLOADED under a tight
                    // inflight= cap) land in the per-status counters
                    // printed below; the drive loop just keeps going.
                    (void)futures[i].get();
                    lat.push_back(timers[i].seconds() * 1e6);
                }
                sent += n;
            }
        });
    }
    for (auto &t : threads)
        t.join();
    const double elapsed = wall.seconds();

    std::vector<double> all;
    for (const auto &lat : latencies)
        all.insert(all.end(), lat.begin(), lat.end());
    std::sort(all.begin(), all.end());
    const auto q = [&](double p) {
        return all.empty()
            ? 0.0 : all[static_cast<size_t>(p * (all.size() - 1))];
    };
    const serve::ServeStats stats = service.stats();

    std::printf("  %zu predictions in %.3fs -> %.0f QPS\n", all.size(),
                elapsed, static_cast<double>(all.size()) / elapsed);
    std::printf("  latency p50 %.0fus  p90 %.0fus  p99 %.0fus\n", q(0.5),
                q(0.9), q(0.99));
    std::printf("  batches %llu (size %llu / deadline %llu / shutdown "
                "%llu flushes)\n",
                static_cast<unsigned long long>(stats.queue.batches),
                static_cast<unsigned long long>(stats.queue.flushOnSize),
                static_cast<unsigned long long>(
                    stats.queue.flushOnDeadline),
                static_cast<unsigned long long>(
                    stats.queue.flushOnShutdown));
    std::printf("  batch-size histogram:");
    for (size_t s = 1; s < stats.queue.batchSizeCounts.size(); ++s) {
        if (stats.queue.batchSizeCounts[s]) {
            std::printf(" %zu:%llu", s, static_cast<unsigned long long>(
                            stats.queue.batchSizeCounts[s]));
        }
    }
    std::printf("\n  cache: %llu hits / %llu misses (%.1f%% hit rate, "
                "%zu entries)\n",
                static_cast<unsigned long long>(stats.cache.hits),
                static_cast<unsigned long long>(stats.cache.misses),
                100.0 * stats.cache.hitRate(), stats.cache.entries);
    std::printf("  service latency p50 %.0fus  p90 %.0fus  p99 %.0fus;"
                " status:", stats.latency.p50Us, stats.latency.p90Us,
                stats.latency.p99Us);
    for (size_t s = 0; s < serve::kNumServeStatuses; ++s) {
        if (stats.byStatus[s]) {
            std::printf(" %s=%llu",
                        serve::serveStatusName(
                            static_cast<serve::ServeStatus>(s)),
                        static_cast<unsigned long long>(
                            stats.byStatus[s]));
        }
    }
    std::printf("\n  routes: fast=%llu fallback_sim=%llu flagged_ood=%llu "
                "fallback_rejected=%llu feedback_appended=%llu\n",
                static_cast<unsigned long long>(stats.servedFast),
                static_cast<unsigned long long>(stats.servedFallbackSim),
                static_cast<unsigned long long>(stats.flaggedOod),
                static_cast<unsigned long long>(
                    stats.fallbackRejectedOverload),
                static_cast<unsigned long long>(stats.feedbackAppended));
    return 0;
}

int
runPipeline(int pid, const char *code, int argc, char **argv)
{
    std::map<std::string, int64_t> opt = {
        {"chunks", 64}, {"region", 8}, {"warmup", 8}, {"start", 16},
        {"threads", 0},
    };
    std::string mode = "sharded";
    std::string state = "carry";
    UarchParams params = UarchParams::armN1();
    for (int i = 3; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto eq = arg.find('=');
        const std::string key =
            eq == std::string::npos ? arg : arg.substr(0, eq);
        if (key == "mode" || key == "state") {
            if (eq == std::string::npos)
                return usage();
            const std::string value = arg.substr(eq + 1);
            if (key == "mode") {
                if (value != "scalar" && value != "sharded") {
                    std::fprintf(stderr, "bad mode '%s' (scalar|sharded)\n",
                                 value.c_str());
                    return 2;
                }
                mode = value;
            } else {
                if (value != "independent" && value != "carry") {
                    std::fprintf(stderr, "bad state '%s' (independent|"
                                 "carry)\n", value.c_str());
                    return 2;
                }
                state = value;
            }
            continue;
        }
        if (opt.count(key)) {
            int64_t value = 0;
            if (eq == std::string::npos
                || !parseInt(arg.substr(eq + 1), value) || value < 0) {
                std::fprintf(stderr, "bad value for pipeline option "
                             "'%s'\n", key.c_str());
                return 2;
            }
            opt[key] = value;
            continue;
        }
        if (!applyOverride(params, arg))
            return 2;
    }
    if (opt["chunks"] < 1 || opt["region"] < 1) {
        std::fprintf(stderr, "chunks and region must be positive\n");
        return 2;
    }

    TraceSpan span;
    span.programId = pid;
    span.traceId = 0;
    span.startChunk = static_cast<uint64_t>(opt["start"]);
    span.numChunks = static_cast<uint64_t>(opt["chunks"]);

    pipeline::PipelineConfig config;
    config.regionChunks = static_cast<uint32_t>(opt["region"]);
    config.warmupChunks = static_cast<uint32_t>(opt["warmup"]);
    config.mode = mode == "scalar" ? pipeline::ExecMode::Scalar
        : pipeline::ExecMode::Sharded;
    config.state = state == "carry" ? pipeline::StateMode::Carry
        : pipeline::StateMode::Independent;
    config.threads = static_cast<size_t>(opt["threads"]);

    ConcordePredictor predictor(artifacts::fullModel(),
                                artifacts::featureConfig());
    std::printf("pipeline over %s: %llu chunks (%.1fk instructions), "
                "regions of %lld chunks, mode %s/%s\n", code,
                static_cast<unsigned long long>(span.numChunks),
                static_cast<double>(span.numInstructions()) / 1000.0,
                static_cast<long long>(opt["region"]), mode.c_str(),
                state.c_str());

    // Independent-state runs share region analyses with the rest of the
    // process through the global store (Carry analyses are never cached).
    config.analysisStore = &AnalysisStore::global();

    pipeline::AnalysisPipeline pipe(predictor, config);
    const pipeline::PipelineResult result = pipe.run(span, params);

    std::printf("  program CPI %.4f over %zu regions (%llu "
                "instructions)\n", result.programCpi,
                result.regions.size(),
                static_cast<unsigned long long>(result.instructions));
    double lo = 0.0, hi = 0.0;
    if (!result.regionCpi.empty()) {
        const auto [min_it, max_it] = std::minmax_element(
            result.regionCpi.begin(), result.regionCpi.end());
        lo = *min_it;
        hi = *max_it;
    }
    std::printf("  region CPI min %.4f / max %.4f\n", lo, hi);
    const double rate = static_cast<double>(result.instructions) / 1e6
        / std::max(result.totalSeconds, 1e-9);
    std::printf("  %.3fs total (analyze %.3fs, features %.3fs, "
                "inference %.3fs) -> %.2f Minstr/s\n",
                result.totalSeconds, result.analyzeSeconds,
                result.featureSeconds, result.inferSeconds, rate);
    return 0;
}

/**
 * Load a training/eval dataset from either a sharded directory (with a
 * manifest) or a single .bin file. Returns false (with a diagnostic) if
 * neither exists; `manifest_hash_out` identifies the dataset for
 * artifact provenance.
 */
bool
loadDatasetArg(const std::string &path, Dataset &data,
               uint64_t &manifest_hash_out)
{
    if (fileExists(path)) {
        data = Dataset::load(path);
        manifest_hash_out = fileHash(path);
        return true;
    }
    if (fileExists(DatasetManifest::manifestFile(path))) {
        data = loadDatasetShards(path);
        manifest_hash_out = datasetManifestHash(path);
        return true;
    }
    std::fprintf(stderr, "no dataset at '%s' (expected a .bin file or a "
                 "sharded directory with manifest.bin)\n", path.c_str());
    return false;
}

// ---- multi-process scale-out plumbing ----

/**
 * The path workers are exec'd from: the running binary itself, so a
 * supervisor always spawns workers of its own build (argv[0] as the
 * fallback where /proc is unavailable).
 */
std::string
selfExePath(const char *argv0)
{
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n > 0) {
        buf[n] = '\0';
        return buf;
    }
    return argv0;
}

/**
 * Deterministic crash injection for the supervisor tests: a
 * dataset-worker with CONCORDE_WORKER_CRASH_AFTER_SHARDS=<n> set dies
 * (exit 42) after publishing n new shards, forcing the respawn path
 * without SIGKILL timing races. 0 = disabled.
 */
size_t
crashAfterShardsEnv()
{
    const char *env = std::getenv("CONCORDE_WORKER_CRASH_AFTER_SHARDS");
    if (!env || !*env)
        return 0;
    int64_t parsed = 0;
    if (!parseInt(env, parsed) || parsed < 1)
        return 0;
    return static_cast<size_t>(parsed);
}

/** Parse a comma-separated shard-index list ("0,3,7"). */
bool
parseShardList(const std::string &text, std::vector<size_t> &shards)
{
    size_t at = 0;
    while (at <= text.size()) {
        const auto comma = text.find(',', at);
        const std::string item = text.substr(
            at, comma == std::string::npos ? std::string::npos : comma - at);
        int64_t parsed = 0;
        if (!parseInt(item, parsed) || parsed < 0)
            return false;
        shards.push_back(static_cast<size_t>(parsed));
        if (comma == std::string::npos)
            break;
        at = comma + 1;
    }
    return !shards.empty();
}

int
runDataset(int argc, char **argv)
{
    std::map<std::string, int64_t> opt = {
        {"samples", 512}, {"shard", 128}, {"chunks", 8}, {"seed", 99},
        {"threads", 0},   {"max_shards", 0}, {"workers", 0},
        {"respawns", 3},
    };
    std::string out_dir;
    std::string program;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto eq = arg.find('=');
        if (eq == std::string::npos || eq + 1 == arg.size()) {
            std::fprintf(stderr, "malformed argument '%s' (expected "
                         "key=value)\n", arg.c_str());
            return usage();
        }
        const std::string key = arg.substr(0, eq);
        const std::string value = arg.substr(eq + 1);
        if (key == "out") {
            out_dir = value;
            continue;
        }
        if (key == "program") {
            program = value;
            continue;
        }
        const auto it = opt.find(key);
        int64_t parsed = 0;
        if (it == opt.end()) {
            std::fprintf(stderr, "unknown dataset option '%s'\n",
                         key.c_str());
            return usage();
        }
        if (!parseInt(value, parsed) || parsed < 0) {
            std::fprintf(stderr, "bad value '%s' for dataset option "
                         "'%s'\n", value.c_str(), key.c_str());
            return usage();
        }
        it->second = parsed;
    }
    if (out_dir.empty()) {
        std::fprintf(stderr, "dataset requires out=<dir>\n");
        return usage();
    }
    if (opt["samples"] < 1 || opt["shard"] < 1 || opt["chunks"] < 1) {
        std::fprintf(stderr, "samples, shard, and chunks must be "
                     "positive\n");
        return usage();
    }

    DatasetConfig config;
    config.numSamples = static_cast<size_t>(opt["samples"]);
    config.regionChunks = static_cast<uint32_t>(opt["chunks"]);
    config.seed = static_cast<uint64_t>(opt["seed"]);
    config.features = artifacts::featureConfig();
    config.threads = static_cast<size_t>(opt["threads"]);
    if (!program.empty()) {
        const int pid = programIdByCode(program);
        if (pid < 0) {
            std::fprintf(stderr, "unknown program '%s'\n",
                         program.c_str());
            return 2;
        }
        config.programFilter = {pid};
    }

    if (opt["workers"] > 0) {
        if (opt["max_shards"] > 0) {
            std::fprintf(stderr, "max_shards= bounds one in-process run; "
                         "it does not combine with workers=\n");
            return usage();
        }
        // Supervisor: plan the build serially (manifest + crash-debris
        // repair), stride-partition the missing shards across a worker
        // pool, and respawn any worker that dies until the directory is
        // complete or the respawn budget runs out. Workers resume from
        // published shards, so a respawn never redoes finished work.
        Stopwatch timer;
        const DatasetManifest manifest = ensureDatasetManifest(
            config, out_dir, static_cast<size_t>(opt["shard"]));
        repairDatasetDir(out_dir, manifest);
        const std::vector<size_t> missing =
            missingDatasetShards(out_dir, manifest);
        if (missing.empty()) {
            std::printf("dataset %s: already complete (manifest hash "
                        "%016llx)\n", out_dir.c_str(),
                        static_cast<unsigned long long>(
                            datasetManifestHash(out_dir)));
            return 0;
        }
        const size_t n = std::min<size_t>(
            static_cast<size_t>(opt["workers"]), missing.size());
        const std::string exe = selfExePath(argv[0]);
        std::vector<std::vector<std::string>> argvs(n);
        for (size_t w = 0; w < n; ++w) {
            std::string shards_arg;
            for (size_t i = w; i < missing.size(); i += n) {
                if (!shards_arg.empty())
                    shards_arg.push_back(',');
                shards_arg += std::to_string(missing[i]);
            }
            argvs[w] = {exe, "dataset-worker", "out=" + out_dir,
                        "samples=" + std::to_string(opt["samples"]),
                        "shard=" + std::to_string(opt["shard"]),
                        "chunks=" + std::to_string(opt["chunks"]),
                        "seed=" + std::to_string(opt["seed"]),
                        "threads=" + std::to_string(opt["threads"])};
            if (!program.empty())
                argvs[w].push_back("program=" + program);
            argvs[w].push_back("shards=" + shards_arg);
        }
        std::printf("dataset %s: %zu missing shards across %zu "
                    "workers\n", out_dir.c_str(), missing.size(), n);
        std::fflush(stdout);
        ProcessPool pool;
        const bool ok = pool.superviseAll(
            argvs, static_cast<size_t>(opt["respawns"]));
        const std::vector<size_t> still_missing =
            missingDatasetShards(out_dir, manifest);
        if (!ok || !still_missing.empty()) {
            std::fprintf(stderr, "dataset %s: %zu shards still missing "
                         "after supervision\n", out_dir.c_str(),
                         still_missing.size());
            return 1;
        }
        std::printf("dataset %s: complete via %zu workers (%.1fs), "
                    "manifest hash %016llx\n", out_dir.c_str(), n,
                    timer.seconds(), static_cast<unsigned long long>(
                        datasetManifestHash(out_dir)));
        return 0;
    }

    Stopwatch timer;
    const ShardedBuildResult result = buildDatasetShards(
        config, out_dir, static_cast<size_t>(opt["shard"]),
        static_cast<size_t>(opt["max_shards"]));
    std::printf("dataset %s: %zu shards built, %zu resumed from disk "
                "(%.1fs)\n", out_dir.c_str(), result.shardsBuilt,
                result.shardsSkipped, timer.seconds());
    if (!result.complete()) {
        std::printf("  %zu shards remaining -- rerun the same command "
                    "to resume\n", result.shardsRemaining);
    } else {
        std::printf("  complete: %lld samples of %lld chunks, manifest "
                    "hash %016llx\n",
                    static_cast<long long>(opt["samples"]),
                    static_cast<long long>(opt["chunks"]),
                    static_cast<unsigned long long>(
                        datasetManifestHash(out_dir)));
    }
    return 0;
}

/**
 * Worker half of the `dataset workers=N` protocol: build exactly the
 * assigned shard indices of an existing plan. Exit 0 when every
 * assigned shard is published (resumable: shards already on disk are
 * skipped), so a respawned worker converges instead of redoing work.
 */
int
runDatasetWorker(int argc, char **argv)
{
    std::map<std::string, int64_t> opt = {
        {"samples", 512}, {"shard", 128}, {"chunks", 8}, {"seed", 99},
        {"threads", 0},
    };
    std::string out_dir, program, shards_arg;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto eq = arg.find('=');
        if (eq == std::string::npos || eq + 1 == arg.size()) {
            std::fprintf(stderr, "malformed argument '%s' (expected "
                         "key=value)\n", arg.c_str());
            return usage();
        }
        const std::string key = arg.substr(0, eq);
        const std::string value = arg.substr(eq + 1);
        if (key == "out") {
            out_dir = value;
            continue;
        }
        if (key == "program") {
            program = value;
            continue;
        }
        if (key == "shards") {
            shards_arg = value;
            continue;
        }
        const auto it = opt.find(key);
        int64_t parsed = 0;
        if (it == opt.end()) {
            std::fprintf(stderr, "unknown dataset-worker option '%s'\n",
                         key.c_str());
            return usage();
        }
        if (!parseInt(value, parsed) || parsed < 0) {
            std::fprintf(stderr, "bad value '%s' for dataset-worker "
                         "option '%s'\n", value.c_str(), key.c_str());
            return usage();
        }
        it->second = parsed;
    }
    if (out_dir.empty() || shards_arg.empty()) {
        std::fprintf(stderr, "dataset-worker requires out=<dir> and "
                     "shards=<i,j,...>\n");
        return usage();
    }
    std::vector<size_t> shards;
    if (!parseShardList(shards_arg, shards)) {
        std::fprintf(stderr, "bad shard list '%s'\n", shards_arg.c_str());
        return usage();
    }
    if (opt["samples"] < 1 || opt["shard"] < 1 || opt["chunks"] < 1) {
        std::fprintf(stderr, "samples, shard, and chunks must be "
                     "positive\n");
        return usage();
    }

    DatasetConfig config;
    config.numSamples = static_cast<size_t>(opt["samples"]);
    config.regionChunks = static_cast<uint32_t>(opt["chunks"]);
    config.seed = static_cast<uint64_t>(opt["seed"]);
    config.features = artifacts::featureConfig();
    config.threads = static_cast<size_t>(opt["threads"]);
    if (!program.empty()) {
        const int pid = programIdByCode(program);
        if (pid < 0) {
            std::fprintf(stderr, "unknown program '%s'\n",
                         program.c_str());
            return 2;
        }
        config.programFilter = {pid};
    }

    const size_t crash_after = crashAfterShardsEnv();
    const ShardedBuildResult result = buildDatasetShardSet(
        config, out_dir, static_cast<size_t>(opt["shard"]), shards,
        crash_after);
    if (crash_after > 0 && !result.complete()) {
        // Injected crash (see crashAfterShardsEnv): die abruptly, the
        // way a real worker loss looks to the supervisor.
        ::_exit(42);
    }
    return result.complete() ? 0 : 1;
}

int
runTrain(int argc, char **argv)
{
    std::map<std::string, int64_t> opt = {
        {"epochs", 12}, {"batch", 256}, {"seed", 1234}, {"threads", 0},
        {"max_epochs", 0},
    };
    std::string data_path, out_path, checkpoint, feedback_path;
    double val_fraction = 0.1;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto eq = arg.find('=');
        if (eq == std::string::npos || eq + 1 == arg.size()) {
            std::fprintf(stderr, "malformed argument '%s' (expected "
                         "key=value)\n", arg.c_str());
            return usage();
        }
        const std::string key = arg.substr(0, eq);
        const std::string value = arg.substr(eq + 1);
        if (key == "data") {
            data_path = value;
            continue;
        }
        if (key == "out") {
            out_path = value;
            continue;
        }
        if (key == "checkpoint") {
            checkpoint = value;
            continue;
        }
        if (key == "feedback") {
            feedback_path = value;
            continue;
        }
        if (key == "val") {
            if (!parseDouble(value, val_fraction) || val_fraction < 0.0
                || val_fraction >= 1.0) {
                std::fprintf(stderr, "bad value '%s' for 'val' (need "
                             "[0, 1))\n", value.c_str());
                return usage();
            }
            continue;
        }
        const auto it = opt.find(key);
        int64_t parsed = 0;
        if (it == opt.end()) {
            std::fprintf(stderr, "unknown train option '%s'\n",
                         key.c_str());
            return usage();
        }
        if (!parseInt(value, parsed) || parsed < 0) {
            std::fprintf(stderr, "bad value '%s' for train option "
                         "'%s'\n", value.c_str(), key.c_str());
            return usage();
        }
        it->second = parsed;
    }
    if (data_path.empty() || out_path.empty()) {
        std::fprintf(stderr, "train requires data=<dir|file> and "
                     "out=<artifact>\n");
        return usage();
    }
    if (opt["epochs"] < 1 || opt["batch"] < 1) {
        std::fprintf(stderr, "epochs and batch must be positive\n");
        return usage();
    }
    if (opt["max_epochs"] > 0 && checkpoint.empty()) {
        // Without a checkpoint the partial run's work would be lost.
        std::fprintf(stderr, "max_epochs= requires checkpoint= (a "
                     "partial run persists nothing otherwise)\n");
        return usage();
    }

    Dataset data;
    uint64_t manifest_hash = 0;
    if (!loadDatasetArg(data_path, data, manifest_hash))
        return 1;
    fatal_if(FeatureLayout(artifacts::featureConfig()).dim() != data.dim,
             "dataset dim %zu does not match the feature layout",
             data.dim);
    if (!feedback_path.empty()) {
        // Active-learning loop: fold the serving layer's fallback
        // feedback file (simulator-labeled OOD requests) into this run.
        if (!fileExists(feedback_path)) {
            std::fprintf(stderr, "feedback file '%s' not found\n",
                         feedback_path.c_str());
            return 1;
        }
        const Dataset feedback = Dataset::load(feedback_path);
        fatal_if(feedback.dim != data.dim,
                 "feedback dim %zu does not match dataset dim %zu",
                 feedback.dim, data.dim);
        data.append(feedback);
        std::printf("folded %zu feedback samples from %s into the "
                    "training set\n", feedback.size(),
                    feedback_path.c_str());
    }

    TrainConfig tc;
    tc.epochs = static_cast<size_t>(opt["epochs"]);
    tc.batchSize = static_cast<size_t>(opt["batch"]);
    tc.seed = static_cast<uint64_t>(opt["seed"]);
    tc.threads = static_cast<size_t>(opt["threads"]);
    tc.valFraction = val_fraction;
    tc.verbose = true;

    std::printf("training on %zu samples (dim %zu, val fraction %.2f, "
                "%zu epochs)\n", data.size(), data.dim, val_fraction,
                tc.epochs);
    Stopwatch timer;
    const TrainRun run = trainMlpResumable(
        data.features, data.labels, data.dim, tc, nullptr, checkpoint,
        static_cast<size_t>(opt["max_epochs"]));
    if (!run.finished) {
        std::printf("stopped after %zu/%zu epochs (%.1fs); rerun with "
                    "the same checkpoint to resume\n",
                    run.epochsCompleted(), tc.epochs, timer.seconds());
        return 0;
    }

    ModelArtifact artifact;
    artifact.features = artifacts::featureConfig();
    artifact.model = run.model;
    // Ship the conformal calibration (fitted on the held-out split)
    // with the weights: the serving layer reads it for intervals and
    // the OOD guardrail. val=0 -> an uncalibrated (point-only) artifact.
    artifact.calibration = run.calibration;
    artifact.provenance.datasetManifestHash = manifest_hash;
    artifact.provenance.datasetPath = data_path;
    artifact.provenance.gitDescribe = buildGitDescribe();
    artifact.provenance.trainConfig = tc;
    artifact.provenance.trainedEpochs = run.epochsCompleted();
    if (!run.history.empty())
        artifact.provenance.heldOutRelErr = run.history.back().valRelErr;
    artifact.save(out_path);
    if (artifact.calibrated()) {
        std::printf("calibrated: %zu held-out conformity scores travel "
                    "with the artifact\n",
                    artifact.calibration.scores.size());
    }
    if (run.history.back().valRelErr >= 0.0) {
        std::printf("trained in %.1fs: train rel-err %.4f, held-out "
                    "rel-err %.4f\n", timer.seconds(),
                    run.history.back().trainRelErr,
                    run.history.back().valRelErr);
    } else {
        std::printf("trained in %.1fs: train rel-err %.4f (no "
                    "validation split)\n", timer.seconds(),
                    run.history.back().trainRelErr);
    }
    std::printf("wrote %s (dataset %016llx, %s)\n", out_path.c_str(),
                static_cast<unsigned long long>(manifest_hash),
                artifact.provenance.gitDescribe.c_str());
    return 0;
}

int
runEval(int argc, char **argv)
{
    std::string model_path, data_path;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto eq = arg.find('=');
        if (eq == std::string::npos || eq + 1 == arg.size()) {
            std::fprintf(stderr, "malformed argument '%s' (expected "
                         "key=value)\n", arg.c_str());
            return usage();
        }
        const std::string key = arg.substr(0, eq);
        const std::string value = arg.substr(eq + 1);
        if (key == "model") {
            model_path = value;
        } else if (key == "data") {
            data_path = value;
        } else {
            std::fprintf(stderr, "unknown eval option '%s'\n",
                         key.c_str());
            return usage();
        }
    }
    if (model_path.empty() || data_path.empty()) {
        std::fprintf(stderr, "eval requires model=<artifact> and "
                     "data=<dir|file>\n");
        return usage();
    }
    if (!fileExists(model_path)) {
        std::fprintf(stderr, "model artifact '%s' not found\n",
                     model_path.c_str());
        return 1;
    }

    const ModelArtifact artifact = ModelArtifact::load(model_path);
    Dataset data;
    uint64_t manifest_hash = 0;
    if (!loadDatasetArg(data_path, data, manifest_hash))
        return 1;
    fatal_if(artifact.model.inputDim() != data.dim,
             "artifact expects %zu-dim features, dataset holds %zu",
             artifact.model.inputDim(), data.dim);

    const double trained_err =
        artifact.model.meanRelativeError(data.features, data.labels,
                                         data.dim);
    // Same layout, random weights: the floor any real training must
    // clear.
    const TrainedModel stub = artifacts::untrainedModel(
        artifact.features, 2026, artifact.provenance.trainConfig
        .hiddenSizes.empty() ? std::vector<size_t>{192, 96}
        : artifact.provenance.trainConfig.hiddenSizes);
    const double stub_err =
        stub.meanRelativeError(data.features, data.labels, data.dim);

    std::printf("artifact %s\n", model_path.c_str());
    std::printf("  provenance: dataset %016llx at '%s', %llu epochs, "
                "%s\n",
                static_cast<unsigned long long>(
                    artifact.provenance.datasetManifestHash),
                artifact.provenance.datasetPath.c_str(),
                static_cast<unsigned long long>(
                    artifact.provenance.trainedEpochs),
                artifact.provenance.gitDescribe.c_str());
    if (artifact.provenance.heldOutRelErr >= 0.0) {
        std::printf("  ship-time held-out rel-err: %.4f\n",
                    artifact.provenance.heldOutRelErr);
    }
    std::printf("eval over %zu samples (%s, dataset %016llx):\n",
                data.size(), data_path.c_str(),
                static_cast<unsigned long long>(manifest_hash));
    std::printf("  trained model mean rel CPI err:  %.4f\n", trained_err);
    std::printf("  untrained stub mean rel CPI err: %.4f\n", stub_err);
    return 0;
}

// ---- sweep (in-process and scaled-out) ----

/** Merged sweep result file: magic + the CPI vector in grid order. */
constexpr uint64_t kSweepMergedMagic = 0x31304d5753434e43ULL; // "CNCSWM01"
/** One worker's contribution: its (index, CPI) pairs plus geometry. */
constexpr uint64_t kSweepPartMagic = 0x3130505753434e43ULL;   // "CNCSWP01"

std::string
sweepPartPath(const std::string &out_path, size_t part)
{
    return out_path + ".part" + std::to_string(part);
}

void
writeSweepResult(const std::string &path, const std::vector<double> &cpis)
{
    const std::string tmp = uniqueTmpName(path);
    {
        BinaryWriter out(tmp);
        out.put<uint64_t>(kSweepMergedMagic);
        out.putVector(cpis);
    }
    publishFile(tmp, path);
}

void
printSweepTable(ParamId id, const char *code,
                const std::vector<int64_t> &values,
                const std::vector<double> &cpis)
{
    std::printf("sweep of %s for %s:\n",
                paramTable()[static_cast<int>(id)].name, code);
    for (size_t i = 0; i < values.size(); ++i) {
        std::printf("  %6lld -> CPI %.4f\n",
                    static_cast<long long>(values[i]), cpis[i]);
    }
}

/**
 * The predictor a sweep evaluates: an explicit artifact when model= is
 * given (what scaled-out workers use, so none of them trains), else the
 * cached full model.
 */
ConcordePredictor
sweepPredictor(const std::string &model_path)
{
    if (model_path.empty()) {
        return ConcordePredictor(artifacts::fullModel(),
                                 artifacts::featureConfig());
    }
    const ModelArtifact artifact = ModelArtifact::load(model_path);
    return ConcordePredictor(artifact.model, artifact.features);
}

/**
 * Parse the shared sweep/sweep-worker argument tail: option keys into
 * `opt`/`out_path`/`model_path`, everything else as a uarch override
 * (raw strings also collected for forwarding to workers).
 */
bool
parseSweepArgs(int argc, char **argv, std::map<std::string, int64_t> &opt,
               UarchParams &params, std::string &out_path,
               std::string &model_path,
               std::vector<std::string> &override_args)
{
    for (int i = 4; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto eq = arg.find('=');
        const std::string key =
            eq == std::string::npos ? arg : arg.substr(0, eq);
        if (key == "out" || key == "model") {
            if (eq == std::string::npos || eq + 1 == arg.size()) {
                std::fprintf(stderr, "bad value for sweep option '%s'\n",
                             key.c_str());
                return false;
            }
            (key == "out" ? out_path : model_path) = arg.substr(eq + 1);
            continue;
        }
        if (opt.count(key)) {
            int64_t value = 0;
            if (eq == std::string::npos
                || !parseInt(arg.substr(eq + 1), value) || value < 0) {
                std::fprintf(stderr, "bad value for sweep option '%s'\n",
                             key.c_str());
                return false;
            }
            opt[key] = value;
            continue;
        }
        if (!applyOverride(params, arg))
            return false;
        override_args.push_back(arg);
    }
    return true;
}

int
runSweep(int pid, const char *code, int argc, char **argv)
{
    if (argc < 4)
        return usage();
    const auto it = kShortNames.find(argv[3]);
    if (it == kShortNames.end()) {
        std::fprintf(stderr, "unknown parameter '%s'\n", argv[3]);
        return 2;
    }
    UarchParams params = UarchParams::armN1();
    std::map<std::string, int64_t> opt = {{"workers", 0}, {"respawns", 3}};
    std::string out_path, model_path;
    std::vector<std::string> override_args;
    if (!parseSweepArgs(argc, argv, opt, params, out_path, model_path,
                        override_args))
        return usage();
    if (!model_path.empty() && !fileExists(model_path)) {
        std::fprintf(stderr, "model artifact '%s' not found\n",
                     model_path.c_str());
        return 1;
    }

    const auto values = sweepValues(it->second, true);
    std::vector<UarchParams> points;
    points.reserve(values.size());
    for (int64_t value : values) {
        params.set(it->second, value);
        points.push_back(params);
    }

    if (opt["workers"] == 0) {
        // The DSE fast path: one store-shared analysis, one provider's
        // memo caches across the grid, one batched-inference pass.
        const ConcordePredictor predictor = sweepPredictor(model_path);
        const auto cpis = predictor.predictSweep(regionFor(pid), points);
        if (!out_path.empty())
            writeSweepResult(out_path, cpis);
        printSweepTable(it->second, code, values, cpis);
        return 0;
    }

    // Supervisor: stride-partition the grid over a worker pool, respawn
    // crashed workers, and merge the part files into the same bytes a
    // 1-worker run writes (predictSweep is batch-composition-invariant,
    // so per-point CPIs do not depend on the partitioning).
    if (out_path.empty()) {
        std::fprintf(stderr, "sweep workers= requires out=<file> (the "
                     "merge target)\n");
        return usage();
    }
    if (model_path.empty()) {
        // Train-or-load the shared model cache before forking: fresh
        // workers would otherwise race to train it.
        (void)artifacts::fullModel();
    }
    const size_t n = std::min<size_t>(
        static_cast<size_t>(opt["workers"]), points.size());
    const std::string exe = selfExePath(argv[0]);
    std::vector<std::vector<std::string>> argvs(n);
    for (size_t w = 0; w < n; ++w) {
        argvs[w] = {exe, "sweep-worker", code, argv[3],
                    "part=" + std::to_string(w),
                    "nparts=" + std::to_string(n),
                    "out=" + sweepPartPath(out_path, w)};
        if (!model_path.empty())
            argvs[w].push_back("model=" + model_path);
        for (const auto &override_arg : override_args)
            argvs[w].push_back(override_arg);
    }
    ProcessPool pool;
    if (!pool.superviseAll(argvs, static_cast<size_t>(opt["respawns"]))) {
        std::fprintf(stderr, "sweep: a partition never completed\n");
        return 1;
    }

    std::vector<double> cpis(points.size(), 0.0);
    std::vector<char> filled(points.size(), 0);
    for (size_t w = 0; w < n; ++w) {
        const std::string path = sweepPartPath(out_path, w);
        fatal_if(!fileExists(path),
                 "sweep part '%s' missing after supervision",
                 path.c_str());
        BinaryReader in(path);
        fatal_if(in.get<uint64_t>() != kSweepPartMagic,
                 "'%s' is not a sweep part file", path.c_str());
        fatal_if(in.get<uint64_t>() != n || in.get<uint64_t>() != w
                 || in.get<uint64_t>() != points.size(),
                 "sweep part '%s' was written for a different "
                 "partitioning", path.c_str());
        const uint64_t count = in.get<uint64_t>();
        for (uint64_t k = 0; k < count; ++k) {
            const uint64_t index = in.get<uint64_t>();
            const double cpi = in.get<double>();
            fatal_if(index >= points.size() || filled[index],
                     "sweep part '%s' holds an out-of-range or duplicate "
                     "point", path.c_str());
            cpis[index] = cpi;
            filled[index] = 1;
        }
    }
    for (size_t i = 0; i < filled.size(); ++i) {
        fatal_if(!filled[i], "sweep point %zu is missing from every "
                 "part file", i);
    }
    writeSweepResult(out_path, cpis);
    for (size_t w = 0; w < n; ++w)
        ::unlink(sweepPartPath(out_path, w).c_str());
    printSweepTable(it->second, code, values, cpis);
    return 0;
}

/**
 * Worker half of the `sweep workers=N` protocol: recompute the same
 * grid, evaluate the points of one stride partition, and publish them
 * as an (index, CPI) part file for the supervisor to merge.
 */
int
runSweepWorker(int pid, const char *code, int argc, char **argv)
{
    (void)code;
    if (argc < 4)
        return usage();
    const auto it = kShortNames.find(argv[3]);
    if (it == kShortNames.end()) {
        std::fprintf(stderr, "unknown parameter '%s'\n", argv[3]);
        return 2;
    }
    UarchParams params = UarchParams::armN1();
    std::map<std::string, int64_t> opt = {{"part", -1}, {"nparts", 0}};
    std::string out_path, model_path;
    std::vector<std::string> override_args;
    if (!parseSweepArgs(argc, argv, opt, params, out_path, model_path,
                        override_args))
        return usage();
    if (out_path.empty() || opt["part"] < 0 || opt["nparts"] < 1
        || opt["part"] >= opt["nparts"]) {
        std::fprintf(stderr, "sweep-worker requires out=<file>, part=, "
                     "and nparts= with part < nparts\n");
        return usage();
    }
    if (!model_path.empty() && !fileExists(model_path)) {
        std::fprintf(stderr, "model artifact '%s' not found\n",
                     model_path.c_str());
        return 1;
    }
    const size_t part = static_cast<size_t>(opt["part"]);
    const size_t nparts = static_cast<size_t>(opt["nparts"]);

    const auto values = sweepValues(it->second, true);
    std::vector<uint64_t> indices;
    std::vector<UarchParams> points;
    for (size_t i = part; i < values.size(); i += nparts) {
        params.set(it->second, values[i]);
        indices.push_back(i);
        points.push_back(params);
    }

    // One thread: the supervisor already runs one process per part.
    const ConcordePredictor predictor = sweepPredictor(model_path);
    const auto cpis =
        predictor.predictSweep(regionFor(pid), points, /*threads=*/1);

    const std::string tmp = uniqueTmpName(out_path);
    {
        BinaryWriter out(tmp);
        out.put<uint64_t>(kSweepPartMagic);
        out.put<uint64_t>(nparts);
        out.put<uint64_t>(part);
        out.put<uint64_t>(values.size());
        out.put<uint64_t>(indices.size());
        for (size_t k = 0; k < indices.size(); ++k) {
            out.put<uint64_t>(indices[k]);
            out.put<double>(cpis[k]);
        }
    }
    publishFile(tmp, out_path);
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string command = argv[1];

    if (command == "list") {
        if (argc > 2) {
            std::fprintf(stderr, "'list' takes no arguments\n");
            return usage();
        }
        std::printf("programs:\n");
        for (const auto &info : workloadCorpus()) {
            std::printf("  %-5s %s (%s)\n", info.code().c_str(),
                        info.profile.name.c_str(),
                        info.profile.group.c_str());
        }
        std::printf("\nparameters (short=long, ARM N1 default):\n");
        const UarchParams n1 = UarchParams::armN1();
        for (const auto &[name, id] : kShortNames) {
            std::printf("  %-8s %-38s %lld\n", name.c_str(),
                        paramTable()[static_cast<int>(id)].name,
                        static_cast<long long>(n1.get(id)));
        }
        return 0;
    }

    // Lifecycle subcommands take key=value args, not a <program>.
    if (command == "dataset")
        return runDataset(argc, argv);
    if (command == "dataset-worker")
        return runDatasetWorker(argc, argv);
    if (command == "train")
        return runTrain(argc, argv);
    if (command == "eval")
        return runEval(argc, argv);

    if (command != "predict" && command != "sweep" && command != "attribute"
        && command != "simulate" && command != "serve"
        && command != "pipeline" && command != "sweep-worker") {
        std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
        return usage();
    }

    if (argc < 3)
        return usage();
    const int pid = programIdByCode(argv[2]);
    if (pid < 0) {
        std::fprintf(stderr, "unknown program '%s'\n", argv[2]);
        return 2;
    }

    if (command == "serve")
        return runServe(pid, argv[2], argc, argv);
    if (command == "pipeline")
        return runPipeline(pid, argv[2], argc, argv);
    if (command == "sweep")
        return runSweep(pid, argv[2], argc, argv);
    if (command == "sweep-worker")
        return runSweepWorker(pid, argv[2], argc, argv);

    UarchParams params = UarchParams::armN1();
    int first_override = 3;
    int permutations = 48;
    if (command == "attribute" && argc > 3) {
        // Optional positional permutation count before the overrides.
        int64_t parsed = 0;
        if (parseInt(argv[3], parsed)) {
            if (parsed < 1 || parsed > 1000000) {
                std::fprintf(stderr,
                             "permutations must be in [1, 1000000]\n");
                return 2;
            }
            permutations = static_cast<int>(parsed);
            first_override = 4;
        }
    }
    for (int i = first_override; i < argc; ++i) {
        if (!applyOverride(params, argv[i]))
            return 2;
    }

    if (command == "simulate") {
        RegionAnalysis analysis(regionFor(pid));
        const SimResult result = simulateRegion(params, analysis);
        std::printf("cycle-level simulation of %s @ %s\n", argv[2],
                    params.toString().c_str());
        std::printf("  CPI %.4f (%llu cycles, %llu instructions, "
                    "%llu mispredicts)\n", result.cpi(),
                    static_cast<unsigned long long>(result.cycles),
                    static_cast<unsigned long long>(result.instructions),
                    static_cast<unsigned long long>(
                        result.branchMispredicts));
        return 0;
    }

    ConcordePredictor predictor(artifacts::fullModel(),
                                artifacts::featureConfig());
    // All three prediction subcommands share the region analysis through
    // the process-wide AnalysisStore, the same cache the serve layer and
    // dataset generation use.
    FeatureProvider provider(
        AnalysisStore::global().acquire(regionFor(pid)),
        artifacts::featureConfig());

    if (command == "predict") {
        const double cpi = predictor.predictCpi(provider, params);
        std::printf("%s @ %s\n  predicted CPI %.4f\n", argv[2],
                    params.toString().c_str(), cpi);
        return 0;
    }

    // command == "attribute"
    // Every permutation scan point is evaluated through one batched
    // inference pass instead of thousands of scalar predictions, against
    // the store-shared region analysis.
    const BatchEval eval = [&](const std::vector<UarchParams> &pts) {
        return predictor.predictCpiBatch(provider, pts);
    };
    const UarchParams base = UarchParams::bigCore();
    ShapleyConfig config;
    config.numPermutations = permutations;
    const auto &components = attributionComponents();
    const auto phi =
        shapleyAttribution(base, params, components, eval, config);
    const auto endpoints = predictor.predictCpiBatch(
        provider, std::vector<UarchParams>{base, params});
    std::printf("CPI attribution for %s (target vs big core):\n", argv[2]);
    std::printf("  big core %.3f -> target %.3f\n", endpoints[0],
                endpoints[1]);
    for (size_t c = 0; c < components.size(); ++c) {
        if (std::abs(phi[c]) >= 0.005) {
            std::printf("  %-30s %+8.3f\n", components[c].name.c_str(),
                        phi[c]);
        }
    }
    return 0;
}
