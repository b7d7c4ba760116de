/**
 * @file
 * Multi-process scale-out benchmark and CI regression gate for the
 * dataset/sweep supervisor-worker protocol (concorde_cli dataset
 * workers=N / sweep workers=N).
 *
 * Three phases, all driving the real CLI binary:
 *
 *   dataset   time an in-process serial build vs a 2-worker supervised
 *             build of the same directory (best-of-N, fresh directories
 *             per attempt so resume never short-circuits an attempt),
 *             then byte-compare manifest + every shard across serial,
 *             scaled, and an in-process API reference
 *   crash     crash-inject every worker (CONCORDE_WORKER_CRASH_AFTER_
 *             SHARDS=1) and require the supervisor's respawn loop to
 *             converge to the same bytes
 *   sweep     serial `sweep out=` vs `sweep workers=2 out=`; the merged
 *             result files must be bitwise-identical
 *
 * Gates (exit 1 on failure):
 *   - all three byte-identity checks
 *   - scaled wall-clock not a regression: speedup >= 0.5 (this box may
 *     have a single core, so real scaling is *reported*, not gated)
 *
 * Modes: --smoke or CONCORDE_SMOKE=1 shrinks sizes and attempts. Writes
 * a JSON summary to $CONCORDE_BENCH_JSON (default BENCH_scaleout.json).
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <sys/wait.h>

#include "bench_util.hh"
#include "common/stopwatch.hh"
#include "core/artifacts.hh"
#include "core/concorde.hh"
#include "core/dataset.hh"
#include "core/model_artifact.hh"

using namespace concorde;

namespace
{

struct RunConfig
{
    bool smoke = false;
    size_t samples = 96;
    size_t shardSamples = 8;
    size_t workers = 2;
    int attempts = 3;
};

int
run(const std::string &cmd)
{
    const std::string full = cmd + " >/dev/null 2>&1";
    const int status = std::system(full.c_str());
    return status == -1 ? -1 : WEXITSTATUS(status);
}

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in.good())
        return "<unreadable:" + path + ">";
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

std::string
freshDir(const std::string &name)
{
    const std::string dir = "/tmp/concorde_bench_scaleout_" + name;
    run("rm -rf '" + dir + "' && mkdir -p '" + dir + "'");
    return dir;
}

/** Manifest + every shard of `dir` byte-identical to `ref`. */
bool
dirsIdentical(const std::string &dir, const std::string &ref,
              size_t num_shards)
{
    if (fileBytes(DatasetManifest::manifestFile(dir)) !=
        fileBytes(DatasetManifest::manifestFile(ref)))
        return false;
    for (size_t s = 0; s < num_shards; ++s) {
        if (fileBytes(DatasetManifest::shardFile(dir, s)) !=
            fileBytes(DatasetManifest::shardFile(ref, s)))
            return false;
    }
    return true;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    RunConfig cfg;
    if (!benchutil::parseBenchMode(argc, argv, "bench_scaleout", cfg.smoke))
        return 2;
    if (cfg.smoke) {
        cfg.samples = 48;
        cfg.attempts = 2;
    }

    std::printf("=== multi-process scale-out (%s mode) ===\n",
                cfg.smoke ? "smoke" : "full");

    const std::string cli = CONCORDE_CLI_PATH;
    const uint64_t seed = 9001;
    const std::string sizes =
        " samples=" + std::to_string(cfg.samples) +
        " shard=" + std::to_string(cfg.shardSamples) +
        " chunks=2 seed=" + std::to_string(seed);

    // In-process API reference for the identity checks (not timed).
    DatasetConfig ref_config;
    ref_config.numSamples = cfg.samples;
    ref_config.regionChunks = 2;
    ref_config.seed = seed;
    ref_config.features = artifacts::featureConfig();
    const std::string ref = freshDir("ref");
    buildDatasetShards(ref_config, ref, cfg.shardSamples);
    const size_t num_shards =
        DatasetManifest::load(DatasetManifest::manifestFile(ref))
            .numShards();
    std::printf("  %zu samples in %zu shards, %zu workers\n", cfg.samples,
                num_shards, cfg.workers);

    // ---- phase 1: serial vs scaled wall-clock + byte identity ----
    // Fresh directories every attempt: a resumed directory is a no-op
    // and would make later attempts measure nothing.
    const std::string serial_dir = freshDir("serial");
    const std::string multi_dir = freshDir("multi");
    double serial_s = 1e30;
    double multi_s = 1e30;
    bool runs_ok = true;
    for (int r = 0; r < cfg.attempts; ++r) {
        freshDir("serial");
        freshDir("multi");
        Stopwatch serial_timer;
        runs_ok &= run(cli + " dataset out=" + serial_dir + sizes) == 0;
        serial_s = std::min(serial_s, serial_timer.seconds());
        Stopwatch multi_timer;
        runs_ok &= run(cli + " dataset out=" + multi_dir + sizes +
                       " workers=" + std::to_string(cfg.workers)) == 0;
        multi_s = std::min(multi_s, multi_timer.seconds());
    }
    const double speedup = serial_s / multi_s;
    const bool dataset_identical = runs_ok &&
        dirsIdentical(serial_dir, ref, num_shards) &&
        dirsIdentical(multi_dir, ref, num_shards);
    std::printf("  serial build:    %.3fs\n", serial_s);
    std::printf("  %zu-worker build: %.3fs (%.2fx; informational on "
                "small machines)\n", cfg.workers, multi_s, speedup);
    std::printf("  dataset bytes identical: %s\n",
                dataset_identical ? "yes" : "NO");

    // ---- phase 2: crash-injected workers must converge ----
    const std::string crash_dir = freshDir("crash");
    ::setenv("CONCORDE_WORKER_CRASH_AFTER_SHARDS", "1", 1);
    const int crash_code = run(cli + " dataset out=" + crash_dir + sizes +
                               " workers=" + std::to_string(cfg.workers) +
                               " respawns=" + std::to_string(num_shards));
    ::unsetenv("CONCORDE_WORKER_CRASH_AFTER_SHARDS");
    const bool crash_resume_identical =
        crash_code == 0 && dirsIdentical(crash_dir, ref, num_shards);
    std::printf("  crash-injected supervised build identical: %s\n",
                crash_resume_identical ? "yes" : "NO");

    // ---- phase 3: sweep merge identity ----
    const std::string sweep_dir = freshDir("sweep");
    const std::string model_path = sweep_dir + "/model.bin";
    {
        ModelArtifact artifact;
        artifact.features = FeatureConfig{};
        artifact.model = artifacts::untrainedModel(artifact.features, 2028);
        artifact.save(model_path);
    }
    const std::string sweep_base =
        cli + " sweep S7 rob model=" + model_path + " out=" + sweep_dir;
    Stopwatch sweep_serial_timer;
    const bool sweep_serial_ok = run(sweep_base + "/serial.bin") == 0;
    const double sweep_serial_s = sweep_serial_timer.seconds();
    Stopwatch sweep_multi_timer;
    const bool sweep_multi_ok =
        run(sweep_base + "/multi.bin workers=" +
            std::to_string(cfg.workers)) == 0;
    const double sweep_multi_s = sweep_multi_timer.seconds();
    const bool sweep_identical = sweep_serial_ok && sweep_multi_ok &&
        fileBytes(sweep_dir + "/serial.bin") ==
            fileBytes(sweep_dir + "/multi.bin");
    std::printf("  sweep serial %.3fs, %zu-worker %.3fs, merged bytes "
                "identical: %s\n", sweep_serial_s, cfg.workers,
                sweep_multi_s, sweep_identical ? "yes" : "NO");

    // ---- gates ----
    bool pass = true;
    if (!dataset_identical) {
        std::printf("  GATE FAIL: scaled dataset build diverges from the "
                    "serial bytes\n");
        pass = false;
    }
    if (!crash_resume_identical) {
        std::printf("  GATE FAIL: crash-injected build did not converge "
                    "to the serial bytes\n");
        pass = false;
    }
    if (!sweep_identical) {
        std::printf("  GATE FAIL: scaled sweep merge diverges from the "
                    "serial result\n");
        pass = false;
    }
    if (speedup < 0.5) {
        std::printf("  GATE FAIL: %zu-worker build (%.3fs) regressed to "
                    "under half the serial speed (%.3fs)\n", cfg.workers,
                    multi_s, serial_s);
        pass = false;
    }

    {
        benchutil::BenchJson json("BENCH_scaleout.json");
        json.text("bench", "scaleout");
        json.text("mode", cfg.smoke ? "smoke" : "full");
        json.field("samples", "%zu", cfg.samples);
        json.field("shards", "%zu", num_shards);
        json.field("workers", "%zu", cfg.workers);
        json.field("serial_s", "%.3f", serial_s);
        json.field("multi_s", "%.3f", multi_s);
        json.field("speedup", "%.3f", speedup);
        json.field("sweep_serial_s", "%.3f", sweep_serial_s);
        json.field("sweep_multi_s", "%.3f", sweep_multi_s);
        json.flag("dataset_identical", dataset_identical);
        json.flag("crash_resume_identical", crash_resume_identical);
        json.flag("sweep_identical", sweep_identical);
        json.flag("gate_pass", pass);
    }

    std::printf(pass ? "  GATE PASS\n" : "  GATE FAIL\n");
    return pass ? 0 : 1;
}
