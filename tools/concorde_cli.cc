/**
 * @file
 * Command-line front end for the Concorde library.
 *
 * Run it with no arguments for the usage text: every subcommand and its
 * flags with their defaults, printed from the same flag tables that
 * parse them (tools/cli_args.hh).
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
 * Unknown subcommands, unknown parameters, and malformed or
 * out-of-range values all exit with status 2 and a usage message, and a
 * missing model or dataset file exits 1, so shell scripts and CI can
 * rely on the exit code.
 */

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cfloat>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
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
#include "cli_args.hh"

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

/**
 * Apply one uarch override (`key` is a short name from `list`). Returns
 * false (with a diagnostic) on an unknown parameter or a malformed or
 * out-of-range value.
 */
bool
applyOverride(UarchParams &params, const std::string &key,
              const std::string &value)
{
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
    if (!cli::parseInteger(value, parsed)) {
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

struct Command;

/**
 * One run of a subcommand. Every run function starts with parse(): with
 * `usageOnly` set, parse() prints the command's usage entry from its
 * flag table and ends the run instead, which is how usage() lists every
 * subcommand from the same tables that parse them.
 */
struct Invocation
{
    explicit Invocation(const Command &cmd, bool usage_only = false)
        : command(cmd), usageOnly(usage_only)
    {
    }

    const Command &command;
    const bool usageOnly;
    /** The arguments after the command (and its <program>). */
    std::vector<std::string> args;
    const char *argv0 = "";
    int pid = -1;
    const char *code = "";
    /** ARM N1 with the uarch overrides applied. */
    UarchParams params = UarchParams::armN1();
    /** The overrides as given, for forwarding to workers. */
    std::vector<std::string> overrides;

    /**
     * Parse the flags after `operands` positional arguments. Returns 0
     * to run on, else the exit code.
     */
    int parse(const std::vector<cli::Flag> &flags, size_t operands = 0);
};

struct Command
{
    const char *name;
    /** Usage text between the name and the flags. */
    const char *operands;
    /** Runs on a <program> and takes uarch param=value overrides. */
    bool program;
    int (*run)(Invocation &);
};

int usage();

int
Invocation::parse(const std::vector<cli::Flag> &flags, size_t operands)
{
    if (usageOnly) {
        cli::printUsage(stderr, std::string(command.name) + command.operands,
                        flags, command.program);
        return 2;
    }
    if (args.size() < operands)
        return usage();
    const auto collect = [this](const std::string &key,
                                const std::string &value) {
        overrides.push_back(key + "=" + value);
        return applyOverride(params, key, value);
    };
    if (!cli::parse(flags,
                    std::vector<std::string>(args.begin() + operands,
                                             args.end()),
                    command.program ? cli::Fallback(collect) : nullptr))
        return usage();
    return 0;
}

/** True if `path` exists; else says "<what> '<path>' not found". */
bool
found(const char *what, const std::string &path)
{
    if (fileExists(path))
        return true;
    std::fprintf(stderr, "%s '%s' not found\n", what, path.c_str());
    return false;
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
 * The predictor to evaluate: an explicit artifact when one is given
 * (what scaled-out sweep workers use, so none of them trains), else the
 * cached full model.
 */
ConcordePredictor
loadPredictor(const std::string &model_path = "")
{
    if (model_path.empty()) {
        return ConcordePredictor(artifacts::fullModel(),
                                 artifacts::featureConfig());
    }
    const ModelArtifact artifact = ModelArtifact::load(model_path);
    return ConcordePredictor(artifact.model, artifact.features);
}

/**
 * The region analysis predict and attribute evaluate, shared through
 * the process-wide AnalysisStore: the cache the serve layer and dataset
 * generation use too.
 */
FeatureProvider
sharedProvider(int pid)
{
    return FeatureProvider(AnalysisStore::global().acquire(regionFor(pid)),
                           artifacts::featureConfig());
}

int
runPredict(Invocation &inv)
{
    if (const int rc = inv.parse({}))
        return rc;
    const ConcordePredictor predictor = loadPredictor();
    FeatureProvider provider = sharedProvider(inv.pid);
    const double cpi = predictor.predictCpi(provider, inv.params);
    std::printf("%s @ %s\n  predicted CPI %.4f\n", inv.code,
                inv.params.toString().c_str(), cpi);
    return 0;
}

int
runAttribute(Invocation &inv)
{
    // Optional positional permutation count before the overrides.
    int permutations = 48;
    int64_t parsed = 0;
    if (!inv.args.empty() && cli::parseInteger(inv.args[0], parsed)) {
        if (parsed < 1 || parsed > 1000000) {
            std::fprintf(stderr, "permutations must be in [1, 1000000]\n");
            return 2;
        }
        permutations = static_cast<int>(parsed);
        inv.args.erase(inv.args.begin());
    }
    if (const int rc = inv.parse({}))
        return rc;
    const ConcordePredictor predictor = loadPredictor();
    FeatureProvider provider = sharedProvider(inv.pid);

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
        shapleyAttribution(base, inv.params, components, eval, config);
    const auto endpoints = predictor.predictCpiBatch(
        provider, std::vector<UarchParams>{base, inv.params});
    std::printf("CPI attribution for %s (target vs big core):\n", inv.code);
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

int
runSimulate(Invocation &inv)
{
    if (const int rc = inv.parse({}))
        return rc;
    RegionAnalysis analysis(regionFor(inv.pid));
    const SimResult result = simulateRegion(inv.params, analysis);
    std::printf("cycle-level simulation of %s @ %s\n", inv.code,
                inv.params.toString().c_str());
    std::printf("  CPI %.4f (%llu cycles, %llu instructions, "
                "%llu mispredicts)\n", result.cpi(),
                static_cast<unsigned long long>(result.cycles),
                static_cast<unsigned long long>(result.instructions),
                static_cast<unsigned long long>(result.branchMispredicts));
    return 0;
}

int
runList(Invocation &inv)
{
    if (const int rc = inv.parse({}))
        return rc;
    std::printf("programs:\n");
    for (const auto &info : workloadCorpus()) {
        std::printf("  %-5s %s (%s)\n", info.code().c_str(),
                    info.profile.name.c_str(), info.profile.group.c_str());
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

std::atomic<bool> g_stopServing{false};

void
onStopSignal(int)
{
    g_stopServing.store(true);
}

/** The serving-route counters both serve modes end with. */
void
printRoutes(const serve::ServeStats &stats)
{
    std::printf("  routes: fast=%llu fallback_sim=%llu flagged_ood=%llu "
                "fallback_rejected=%llu feedback_appended=%llu\n",
                static_cast<unsigned long long>(stats.servedFast),
                static_cast<unsigned long long>(stats.servedFallbackSim),
                static_cast<unsigned long long>(stats.flaggedOod),
                static_cast<unsigned long long>(
                    stats.fallbackRejectedOverload),
                static_cast<unsigned long long>(stats.feedbackAppended));
}

int
runServe(Invocation &inv)
{
    // `--model <path>` is an alias of model=<path>.
    std::vector<std::string> args;
    for (size_t i = 0; i < inv.args.size(); ++i) {
        const bool alias =
            inv.args[i] == "--model" && i + 1 < inv.args.size();
        args.push_back(alias ? "model=" + inv.args[++i] : inv.args[i]);
    }
    inv.args = args;

    serve::ServeConfig config;
    config.poolThreads = 0;
    serve::UncertaintyConfig &u = config.uncertainty;
    size_t clients = 4, requests = 2000, batch = 64, burst = 32;
    size_t num_regions = 4;
    uint32_t deadline_us = 200;
    std::optional<uint16_t> listen;
    std::string model_path;
    if (const int rc = inv.parse({
            cli::integer("clients", clients),
            cli::integer("requests", requests),
            cli::integer("batch", batch),
            cli::integer("deadline_us", deadline_us),
            cli::integer("cache", config.cacheCapacity),
            cli::integer("burst", burst),
            cli::integer("regions", num_regions),
            cli::integer("threads", config.poolThreads),
            cli::integer("inflight", config.batching.maxInFlightPerKey),
            cli::integer("listen", listen, "<port>"),
            cli::real("alpha", u.alpha, std::nextafter(0.0, 1.0),
                      std::nextafter(1.0, 0.0)),
            cli::real("max_width", u.maxRelWidth, 0.0, DBL_MAX),
            cli::integer("fallback", u.fallbackEnabled),
            cli::integer("fallback_budget", u.maxFallbackInFlight),
            cli::integer("fallback_reject", u.rejectOnBudget),
            cli::text("feedback", u.feedbackPath, "<file>"),
            cli::text("model", model_path, "<artifact>"),
        }))
        return rc;
    clients = std::max<size_t>(1, clients);
    requests = std::max<size_t>(1, requests);
    num_regions = std::max<size_t>(1, num_regions);
    burst = std::max<size_t>(1, burst);

    const size_t maxBatch = std::max<size_t>(1, batch);
    const auto maxAge = std::chrono::microseconds(deadline_us);
    // The batch/deadline knobs set the bulk (throughput) class; the
    // interactive class stays on small, young batches so the tail is
    // never gated on filling a bulk-sized batch.
    config.batching.policy(serve::RequestClass::Bulk) = {maxBatch, maxAge};
    config.batching.policy(serve::RequestClass::Interactive) = {
        std::max<size_t>(1, maxBatch / 4),
        std::min(maxAge, std::chrono::microseconds(50))};

    serve::PredictionService service(config);
    if (model_path.empty()) {
        service.registry().add("default", loadPredictor());
    } else {
        if (!found("model artifact", model_path))
            return 1;
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
        RegionSpec spec = regionFor(inv.pid);
        spec.startChunk = 16 + 8 * r;
        regions.push_back(spec);
    }
    std::printf("serving %s: %zu clients x %zu requests, bulk<=%zu/"
                "%lldus, interactive<=%zu/%lldus, cache %zu\n", inv.code,
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
    (void)service.warmRegions("default", regions, {inv.params});

    if (listen) {
        // Network mode: expose the warmed service over the wire
        // protocol and block until SIGINT/SIGTERM.
        serve::NetServerConfig netCfg;
        netCfg.port = *listen;
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
        printRoutes(sstats);
        return 0;
    }

    std::vector<std::vector<double>> latencies(clients);
    Stopwatch wall;
    std::vector<std::thread> threads;
    for (size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c]() {
            Rng rng(1000 + c);
            UarchParams point = inv.params;
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
    std::printf("\n");
    printRoutes(stats);
    return 0;
}

int
runPipeline(Invocation &inv)
{
    TraceSpan span;
    span.programId = inv.pid;
    span.startChunk = 16;
    pipeline::PipelineConfig config;
    std::string mode = "sharded";
    std::string state = "carry";
    if (const int rc = inv.parse({
            cli::integer("chunks", span.numChunks).atLeast(1),
            cli::integer("region", config.regionChunks).atLeast(1),
            cli::integer("warmup", config.warmupChunks),
            cli::integer("start", span.startChunk),
            cli::integer("threads", config.threads),
            cli::text("mode", mode, "", {"sharded", "scalar"}),
            cli::text("state", state, "", {"carry", "independent"}),
        }))
        return rc;
    config.mode = mode == "scalar" ? pipeline::ExecMode::Scalar
        : pipeline::ExecMode::Sharded;
    config.state = state == "carry" ? pipeline::StateMode::Carry
        : pipeline::StateMode::Independent;

    const ConcordePredictor predictor = loadPredictor();
    std::printf("pipeline over %s: %llu chunks (%.1fk instructions), "
                "regions of %u chunks, mode %s/%s\n", inv.code,
                static_cast<unsigned long long>(span.numChunks),
                static_cast<double>(span.numInstructions()) / 1000.0,
                config.regionChunks, mode.c_str(), state.c_str());

    // Independent-state runs share region analyses with the rest of the
    // process through the global store (Carry analyses are never cached).
    config.analysisStore = &AnalysisStore::global();

    pipeline::AnalysisPipeline pipe(predictor, config);
    const pipeline::PipelineResult result = pipe.run(span, inv.params);

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
    if (!cli::parseInteger(env, parsed) || parsed < 1)
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
        if (!cli::parseInteger(item, parsed) || parsed < 0)
            return false;
        shards.push_back(static_cast<size_t>(parsed));
        if (comma == std::string::npos)
            break;
        at = comma + 1;
    }
    return !shards.empty();
}

/**
 * The flags `dataset` and `dataset-worker` share, bound to the
 * DatasetConfig both build.
 */
struct DatasetArgs
{
    DatasetConfig config;
    std::string out;
    std::string program;
    size_t shardSamples = 128;

    DatasetArgs() { config.numSamples = 512; }

    /**
     * Parse the shared flags plus `extra`, and finish the config (the
     * feature layout, program= as a program filter). Returns 0 to run
     * on, else the exit code.
     */
    int
    parse(Invocation &inv, std::vector<cli::Flag> extra)
    {
        std::vector<cli::Flag> flags = {
            cli::text("out", out, "<dir>").require(),
            cli::integer("samples", config.numSamples).atLeast(1),
            cli::integer("shard", shardSamples).atLeast(1),
            cli::integer("chunks", config.regionChunks).atLeast(1),
            cli::integer("seed", config.seed),
            cli::integer("threads", config.threads),
            cli::text("program", program, "<code>"),
        };
        flags.insert(flags.end(), extra.begin(), extra.end());
        if (const int rc = inv.parse(flags))
            return rc;
        config.features = artifacts::featureConfig();
        if (program.empty())
            return 0;
        const int pid = programIdByCode(program);
        if (pid < 0) {
            std::fprintf(stderr, "unknown program '%s'\n", program.c_str());
            return 2;
        }
        config.programFilter = {pid};
        return 0;
    }
};

int
runDataset(Invocation &inv)
{
    DatasetArgs opt;
    size_t max_shards = 0, workers = 0, respawns = 3;
    if (const int rc = opt.parse(inv, {
            cli::integer("max_shards", max_shards),
            cli::integer("workers", workers),
            cli::integer("respawns", respawns),
        }))
        return rc;
    const DatasetConfig &config = opt.config;
    const std::string &out_dir = opt.out;

    if (workers > 0) {
        if (max_shards > 0) {
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
        const DatasetManifest manifest =
            ensureDatasetManifest(config, out_dir, opt.shardSamples);
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
        const size_t n = std::min(workers, missing.size());
        const std::string exe = selfExePath(inv.argv0);
        std::vector<std::vector<std::string>> argvs(n);
        for (size_t w = 0; w < n; ++w) {
            std::string shards_arg;
            for (size_t i = w; i < missing.size(); i += n) {
                if (!shards_arg.empty())
                    shards_arg.push_back(',');
                shards_arg += std::to_string(missing[i]);
            }
            argvs[w] = {exe, "dataset-worker", "out=" + out_dir,
                        "samples=" + std::to_string(config.numSamples),
                        "shard=" + std::to_string(opt.shardSamples),
                        "chunks=" + std::to_string(config.regionChunks),
                        "seed=" + std::to_string(config.seed),
                        "threads=" + std::to_string(config.threads)};
            if (!opt.program.empty())
                argvs[w].push_back("program=" + opt.program);
            argvs[w].push_back("shards=" + shards_arg);
        }
        std::printf("dataset %s: %zu missing shards across %zu "
                    "workers\n", out_dir.c_str(), missing.size(), n);
        std::fflush(stdout);
        ProcessPool pool;
        const bool ok = pool.superviseAll(argvs, respawns);
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
        config, out_dir, opt.shardSamples, max_shards);
    std::printf("dataset %s: %zu shards built, %zu resumed from disk "
                "(%.1fs)\n", out_dir.c_str(), result.shardsBuilt,
                result.shardsSkipped, timer.seconds());
    if (!result.complete()) {
        std::printf("  %zu shards remaining -- rerun the same command "
                    "to resume\n", result.shardsRemaining);
    } else {
        std::printf("  complete: %zu samples of %u chunks, manifest "
                    "hash %016llx\n", config.numSamples,
                    config.regionChunks, static_cast<unsigned long long>(
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
runDatasetWorker(Invocation &inv)
{
    DatasetArgs opt;
    std::string shards_arg;
    if (const int rc = opt.parse(
            inv, {cli::text("shards", shards_arg, "<i,j,...>").require()}))
        return rc;
    std::vector<size_t> shards;
    if (!parseShardList(shards_arg, shards)) {
        std::fprintf(stderr, "bad shard list '%s'\n", shards_arg.c_str());
        return usage();
    }

    const size_t crash_after = crashAfterShardsEnv();
    const ShardedBuildResult result = buildDatasetShardSet(
        opt.config, opt.out, opt.shardSamples, shards, crash_after);
    if (crash_after > 0 && !result.complete()) {
        // Injected crash (see crashAfterShardsEnv): die abruptly, the
        // way a real worker loss looks to the supervisor.
        ::_exit(42);
    }
    return result.complete() ? 0 : 1;
}

int
runTrain(Invocation &inv)
{
    TrainConfig tc;
    tc.epochs = 12;
    tc.batchSize = 256;
    tc.valFraction = 0.1;
    tc.verbose = true;
    std::string data_path, out_path, checkpoint, feedback_path;
    size_t max_epochs = 0;
    if (const int rc = inv.parse({
            cli::text("data", data_path, "<dir|file>").require(),
            cli::text("out", out_path, "<artifact>").require(),
            cli::integer("epochs", tc.epochs).atLeast(1),
            cli::real("val", tc.valFraction, 0.0, std::nextafter(1.0, 0.0)),
            cli::integer("batch", tc.batchSize).atLeast(1),
            cli::integer("seed", tc.seed),
            cli::integer("threads", tc.threads),
            cli::text("checkpoint", checkpoint, "<file>"),
            cli::integer("max_epochs", max_epochs),
            cli::text("feedback", feedback_path, "<file>"),
        }))
        return rc;
    if (max_epochs > 0 && checkpoint.empty()) {
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
        if (!found("feedback file", feedback_path))
            return 1;
        const Dataset feedback = Dataset::load(feedback_path);
        fatal_if(feedback.dim != data.dim,
                 "feedback dim %zu does not match dataset dim %zu",
                 feedback.dim, data.dim);
        data.append(feedback);
        std::printf("folded %zu feedback samples from %s into the "
                    "training set\n", feedback.size(),
                    feedback_path.c_str());
    }

    std::printf("training on %zu samples (dim %zu, val fraction %.2f, "
                "%zu epochs)\n", data.size(), data.dim, tc.valFraction,
                tc.epochs);
    Stopwatch timer;
    const TrainRun run = trainMlpResumable(
        data.features, data.labels, data.dim, tc, nullptr, checkpoint,
        max_epochs);
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
runEval(Invocation &inv)
{
    std::string model_path, data_path;
    if (const int rc = inv.parse({
            cli::text("model", model_path, "<artifact>").require(),
            cli::text("data", data_path, "<dir|file>").require(),
        }))
        return rc;
    if (!found("model artifact", model_path))
        return 1;

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

/** The operand and model flag `sweep` and `sweep-worker` share. */
struct SweepArgs
{
    ParamId param = ParamId::RobSize;
    std::string model;

    /**
     * Parse `<param>`, the command's own flags (which bind out=) and the
     * shared model=, and check that an explicit model artifact exists.
     * Returns 0 to run on, else the exit code.
     */
    int
    parse(Invocation &inv, std::vector<cli::Flag> flags)
    {
        flags.push_back(cli::text("model", model, "<artifact>"));
        if (const int rc = inv.parse(flags, 1))
            return rc;
        const auto it = kShortNames.find(inv.args[0]);
        if (it == kShortNames.end()) {
            std::fprintf(stderr, "unknown parameter '%s'\n",
                         inv.args[0].c_str());
            return 2;
        }
        param = it->second;
        return model.empty() || found("model artifact", model) ? 0 : 1;
    }
};

int
runSweep(Invocation &inv)
{
    SweepArgs opt;
    size_t workers = 0, respawns = 3;
    std::string out_path;
    if (const int rc = opt.parse(inv, {
            cli::integer("workers", workers),
            cli::integer("respawns", respawns),
            cli::text("out", out_path, "<file>"),
        }))
        return rc;

    const auto values = sweepValues(opt.param, true);
    std::vector<UarchParams> points;
    points.reserve(values.size());
    UarchParams params = inv.params;
    for (int64_t value : values) {
        params.set(opt.param, value);
        points.push_back(params);
    }

    if (workers == 0) {
        // The DSE fast path: one store-shared analysis, one provider's
        // memo caches across the grid, one batched-inference pass.
        const ConcordePredictor predictor = loadPredictor(opt.model);
        const auto cpis = predictor.predictSweep(regionFor(inv.pid), points);
        if (!out_path.empty())
            writeSweepResult(out_path, cpis);
        printSweepTable(opt.param, inv.code, values, cpis);
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
    if (opt.model.empty()) {
        // Train-or-load the shared model cache before forking: fresh
        // workers would otherwise race to train it.
        (void)artifacts::fullModel();
    }
    const size_t n = std::min(workers, points.size());
    const std::string exe = selfExePath(inv.argv0);
    std::vector<std::vector<std::string>> argvs(n);
    for (size_t w = 0; w < n; ++w) {
        argvs[w] = {exe, "sweep-worker", inv.code, inv.args[0],
                    "part=" + std::to_string(w),
                    "nparts=" + std::to_string(n),
                    "out=" + sweepPartPath(out_path, w)};
        if (!opt.model.empty())
            argvs[w].push_back("model=" + opt.model);
        for (const auto &override_arg : inv.overrides)
            argvs[w].push_back(override_arg);
    }
    ProcessPool pool;
    if (!pool.superviseAll(argvs, respawns)) {
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
    printSweepTable(opt.param, inv.code, values, cpis);
    return 0;
}

/**
 * Worker half of the `sweep workers=N` protocol: recompute the same
 * grid, evaluate the points of one stride partition, and publish them
 * as an (index, CPI) part file for the supervisor to merge.
 */
int
runSweepWorker(Invocation &inv)
{
    SweepArgs opt;
    size_t part = 0, nparts = 1;
    std::string out_path;
    if (const int rc = opt.parse(inv, {
            cli::integer("part", part).require(),
            cli::integer("nparts", nparts).atLeast(1).require(),
            cli::text("out", out_path, "<file>").require(),
        }))
        return rc;
    if (part >= nparts) {
        std::fprintf(stderr, "sweep-worker needs part < nparts\n");
        return usage();
    }

    const auto values = sweepValues(opt.param, true);
    std::vector<uint64_t> indices;
    std::vector<UarchParams> points;
    UarchParams params = inv.params;
    for (size_t i = part; i < values.size(); i += nparts) {
        params.set(opt.param, values[i]);
        indices.push_back(i);
        points.push_back(params);
    }

    // One thread: the supervisor already runs one process per part.
    const ConcordePredictor predictor = loadPredictor(opt.model);
    const auto cpis =
        predictor.predictSweep(regionFor(inv.pid), points, /*threads=*/1);

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

/** Every subcommand, in usage order. */
const Command kCommands[] = {
    {"predict", " <program>", true, runPredict},
    {"sweep", " <program> <param>", true, runSweep},
    {"attribute", " <program> [permutations]", true, runAttribute},
    {"simulate", " <program>", true, runSimulate},
    {"serve", " <program> [--model <artifact>]", true, runServe},
    {"pipeline", " <program>", true, runPipeline},
    {"dataset", "", false, runDataset},
    {"dataset-worker", "", false, runDatasetWorker},
    {"sweep-worker", " <program> <param>", true, runSweepWorker},
    {"train", "", false, runTrain},
    {"eval", "", false, runEval},
    {"list", "", false, runList},
};

int
usage()
{
    std::fprintf(stderr, "usage: concorde_cli <command> [args]\n");
    for (const Command &command : kCommands) {
        Invocation inv(command, true);
        command.run(inv);
    }
    std::fprintf(stderr, "run with 'list' for programs and parameter "
                 "names\n");
    return 2;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const auto command = std::find_if(
        std::begin(kCommands), std::end(kCommands),
        [&](const Command &c) { return std::strcmp(c.name, argv[1]) == 0; });
    if (command == std::end(kCommands)) {
        std::fprintf(stderr, "unknown command '%s'\n", argv[1]);
        return usage();
    }
    Invocation inv(*command);
    inv.argv0 = argv[0];
    int first = 2;
    if (command->program) {
        if (argc < 3)
            return usage();
        inv.pid = programIdByCode(argv[2]);
        if (inv.pid < 0) {
            std::fprintf(stderr, "unknown program '%s'\n", argv[2]);
            return 2;
        }
        inv.code = argv[2];
        first = 3;
    }
    inv.args.assign(argv + first, argv + argc);
    return command->run(inv);
}
