/**
 * @file
 * The paper evaluation in one program: one named row per figure, table
 * and section of Concorde's evaluation (Figures 1-17 but 10, Tables 1-4,
 * Sections 5.2.2-5.2.6 and 8), each recording its numbers over the
 * shared artifacts:: datasets and models as {key, value, paper value or
 * null, unit}. `bench_paper [row...]` runs every row, or the named ones,
 * and writes RESULTS.json (or $CONCORDE_BENCH_JSON): the rows, their
 * scale (the CONCORDE_* sizes of core/artifacts.hh, plus Figure 16's
 * CONCORDE_SHAPLEY_REGIONS and CONCORDE_SHAPLEY_PERMS), the thread count
 * and `git describe`. Errors are in percent but in `rel_error` CDFs.
 */

#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <tuple>

#include "analytical/feature_provider.hh"
#include "analytical/windows.hh"
#include "bench_util.hh"
#include "common/stopwatch.hh"
#include "common/thread_pool.hh"
#include "core/concorde.hh"
#include "core/model_artifact.hh"
#include "core/shapley.hh"
#include "ml/calibration.hh"
#include "sim/o3_core.hh"
#include "trace/workloads.hh"

using namespace concorde;

namespace
{

using Paper = std::optional<double>;

struct Value
{
    std::string key;
    double value;
    Paper paper;
    std::string unit;
};

/** The values one row records, in order. */
struct Row
{
    std::vector<Value> values;

    template <typename T>
    void
    add(const std::string &key, T value, const char *unit,
        Paper paper = std::nullopt)
    {
        values.push_back({key, static_cast<double>(value), paper, unit});
    }

    /** Mean and >10% share of relative errors, in percent. */
    void
    meanError(const std::string &key, const std::vector<double> &errs,
              Paper paper_mean = std::nullopt,
              Paper paper_above10 = std::nullopt)
    {
        const auto stats = benchutil::summarize(errs);
        add(key + ".mean", 100 * stats.mean, "%", paper_mean);
        add(key + ".above10", 100 * stats.fracAbove10pct, "%",
            paper_above10);
    }

    /** meanError plus the p50/p90/p99 errors and the sample count. */
    void
    errors(const std::string &key, const std::vector<double> &errs,
           Paper paper_mean = std::nullopt,
           Paper paper_above10 = std::nullopt)
    {
        const auto stats = benchutil::summarize(errs);
        meanError(key, errs, paper_mean, paper_above10);
        add(key + ".p50", 100 * stats.p50, "%");
        add(key + ".p90", 100 * stats.p90, "%");
        add(key + ".p99", 100 * stats.p99, "%");
        add(key + ".n", stats.count, "samples");
    }

    /** The benchutil::kCdfPoints percentiles of `values`. */
    void
    cdf(const std::string &key, std::vector<double> values,
        const char *unit)
    {
        const auto q = benchutil::cdfQuantiles(std::move(values));
        for (size_t i = 0; i < q.size(); ++i) {
            add(key + ".p" + std::to_string(std::lround(
                                 100 * benchutil::kCdfPoints[i])),
                q[i], unit);
        }
    }
};

std::string
code(int program_id)
{
    return workloadCorpus()[program_id].code();
}

std::vector<double>
testErrors(const TrainedModel &model)
{
    return benchutil::relativeErrors(model, artifacts::mainTest());
}

/** Samples [begin, end) of `data`. */
Dataset
slice(const Dataset &data, size_t begin, size_t end)
{
    std::vector<size_t> idx(std::min(end, data.size()) - begin);
    std::iota(idx.begin(), idx.end(), begin);
    return data.subset(idx);
}

/** `errors` split by the program of each `data` sample. */
std::map<int, std::vector<double>>
perProgram(const Dataset &data, const std::vector<double> &errors)
{
    std::map<int, std::vector<double>> out;
    for (size_t i = 0; i < data.size(); ++i)
        out[data.meta[i].region.programId].push_back(errors[i]);
    return out;
}

void
fig01(Row &row)
{
    // S3 mixes frontend and backend limits; S1 is memory bound.
    const UarchParams n1 = UarchParams::armN1();
    for (const std::string program : {"S3", "S1"}) {
        const FeatureConfig config;
        FeatureProvider provider(
            RegionSpec{programIdByCode(program), 0, 8, 4}, config);
        const auto &rob = provider.robWindows(n1.robSize, n1.memory);
        const auto &lq = provider.lqWindows(n1.lqSize, n1.memory);
        const auto &fills =
            provider.icacheFillWindows(n1.maxIcacheFills, n1.memory);
        const SimResult sim =
            simulateRegion(n1, provider.analysis(), config.windowK);
        const auto truth = throughputFromBoundaries(
            sim.windowCommitCycles, config.windowK);
        const std::vector<double> ipc(truth.begin(), truth.end());
        const std::pair<const char *, const std::vector<double> &>
            series[] = {{"rob", rob}, {"lq", lq}, {"icache_fills", fills},
                        {"true_ipc", ipc}};
        // The first 16 windows of 400 instructions, then the CDFs.
        const size_t show = std::min<size_t>({16, rob.size(), ipc.size()});
        for (size_t j = 0; j < show; ++j) {
            for (const auto &[name, windows] : series) {
                row.add(program + ".window" + std::to_string(j / 10)
                            + std::to_string(j % 10) + "." + name,
                        windows[j], "IPC");
            }
        }
        row.add(program + ".decode_bound", n1.decodeWidth, "IPC");
        for (const auto &[name, windows] : series)
            row.cdf(program + "." + name, windows, "IPC");
        row.add(program + ".region_ipc", sim.ipc(), "IPC");
        row.add(program + ".region_cpi", sim.cpi(), "CPI");
    }
}

void
fig04(Row &row)
{
    // Train regions by (program, trace), as chunk intervals.
    std::map<std::pair<int, int>, std::vector<std::pair<uint64_t, uint64_t>>>
        train_intervals;
    for (const auto &meta : artifacts::mainTrain().meta) {
        train_intervals[{meta.region.programId, meta.region.traceId}]
            .emplace_back(meta.region.startChunk,
                          meta.region.startChunk + meta.region.numChunks);
    }
    // Per program: the summed overlap of each test region with its
    // closest train region, and the region count.
    std::map<int, std::pair<double, size_t>> per_program;
    for (const auto &meta : artifacts::mainTest().meta) {
        const uint64_t begin = meta.region.startChunk;
        const uint64_t end = begin + meta.region.numChunks;
        double best = 0.0;
        for (const auto &[tb, te] : train_intervals[{
                 meta.region.programId, meta.region.traceId}]) {
            const uint64_t lo = std::max(begin, tb);
            const uint64_t hi = std::min(end, te);
            if (hi > lo) {
                best = std::max(best, static_cast<double>(hi - lo)
                                    / static_cast<double>(end - begin));
            }
        }
        per_program[meta.region.programId].first += best;
        ++per_program[meta.region.programId].second;
    }
    double total = 0.0;
    size_t total_n = 0;
    for (const auto &[pid, acc] : per_program) {
        row.add(code(pid) + ".overlap", 100.0 * acc.first / acc.second, "%");
        row.add(code(pid) + ".n", acc.second, "samples");
        total += acc.first;
        total_n += acc.second;
    }
    row.add("average_overlap", 100.0 * total / total_n, "%", 16.86);
}

void
fig05(Row &row)
{
    const Dataset &test = artifacts::mainTest();
    const auto errors = testErrors(artifacts::fullModel());
    row.errors("concorde", errors, 2.03, 2.51);
    row.cdf("cpi", std::vector<double>(test.labels.begin(),
                                       test.labels.end()), "CPI");
    row.cdf("rel_error", errors, "fraction");
    // Error by ground-truth-CPI decile (the scatter's trend).
    std::vector<size_t> order(test.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return test.labels[a] < test.labels[b];
    });
    for (size_t d = 0; d < 10; ++d) {
        const size_t begin = d * test.size() / 10;
        const size_t end = (d + 1) * test.size() / 10;
        std::vector<double> bucket;
        for (size_t i = begin; i < end; ++i)
            bucket.push_back(errors[order[i]]);
        const std::string key = "cpi_decile" + std::to_string(d);
        row.add(key + ".cpi_lo", test.labels[order[begin]], "CPI");
        row.add(key + ".cpi_hi", test.labels[order[end - 1]], "CPI");
        row.meanError(key, bucket);
    }
}

void
fig06(Row &row)
{
    double worst_mean = 0.0, worst_p90 = 0.0;
    for (const auto &[pid, errs] : perProgram(
             artifacts::mainTest(), testErrors(artifacts::fullModel()))) {
        const auto stats = benchutil::summarize(errs);
        row.add(code(pid) + ".mean", 100 * stats.mean, "%");
        row.add(code(pid) + ".p90", 100 * stats.p90, "%");
        row.add(code(pid) + ".n", stats.count, "samples");
        worst_mean = std::max(worst_mean, stats.mean);
        worst_p90 = std::max(worst_p90, stats.p90);
    }
    row.add("worst.mean", 100 * worst_mean, "%", 4.2);
    row.add("worst.p90", 100 * worst_p90, "%", 8.9);
}

void
fig07(Row &row)
{
    const std::tuple<std::string, const TrainedModel &, const Dataset &>
        lengths[] = {{"short", artifacts::fullModel(), artifacts::mainTest()},
                     {"long", artifacts::longModel(), artifacts::longTest()}};
    for (const auto &[key, model, test] : lengths) {
        const auto errors = benchutil::relativeErrors(model, test);
        row.errors(key, errors);
        row.cdf(key + ".rel_error", errors, "fraction");
        // Longer regions average out phases: lower CPI variance.
        double mean = 0.0, var = 0.0;
        for (float y : test.labels)
            mean += y;
        mean /= static_cast<double>(test.size());
        for (float y : test.labels)
            var += (y - mean) * (y - mean);
        row.add(key + ".cpi_variance", var / test.size(), "CPI^2");
    }
}

void
fig08(Row &row)
{
    // Concorde trained on random designs vs TAO trained for N1.
    const Dataset &test = artifacts::specN1Test();
    const auto concorde_errors =
        benchutil::relativeErrors(artifacts::fullModel(), test);
    TaoModel tao = benchutil::taoArtifact();
    std::vector<double> tao_errors(test.size());
    parallelFor(test.size(), [&](size_t i) {
        RegionAnalysis analysis(test.meta[i].region);
        tao_errors[i] = std::abs(tao.predictCpi(analysis) - test.labels[i])
            / std::max(test.labels[i], 1e-6f);
    });
    const auto concorde_by_program = perProgram(test, concorde_errors);
    auto tao_by_program = perProgram(test, tao_errors);
    int concorde_wins = 0;
    for (const auto &[pid, errs] : concorde_by_program) {
        const double c = benchutil::summarize(errs).mean;
        const double t = benchutil::summarize(tao_by_program[pid]).mean;
        row.add(code(pid) + ".concorde", 100 * c, "%");
        row.add(code(pid) + ".tao", 100 * t, "%");
        concorde_wins += c < t;
    }
    row.errors("concorde", concorde_errors, 3.5);
    row.errors("tao", tao_errors, 7.8);
    // The paper's Concorde wins on every program.
    row.add("concorde_wins", concorde_wins, "programs",
            concorde_by_program.size());
}

void
fig09(Row &row)
{
    // The paper's ten programs at 1B instructions each; ours are the
    // same programs at ~1M instructions (512 chunks). Per program: the
    // simulated CPI, then the long-region model's estimates from 10, 30
    // and 100 sampled regions.
    const std::vector<std::string> codes = {"P12", "P9", "P2", "P11", "O4",
                                            "P7", "S5", "O2", "S7", "S6"};
    const int sample_counts[] = {10, 30, 100};
    const UarchParams n1 = UarchParams::armN1();
    ConcordePredictor predictor(artifacts::longModel(),
                                artifacts::featureConfig());
    std::vector<double> cpi(codes.size() * 4);
    parallelFor(cpi.size(), [&](size_t w) {
        const int pid = programIdByCode(codes[w / 4]);
        if (w % 4 == 0) {
            RegionAnalysis analysis(RegionSpec{pid, 0, 0, 512}, 0);
            cpi[w] = simulateRegion(n1, analysis).cpi();
        } else {
            cpi[w] = predictor.predictLongProgram(
                n1, pid, 0, 512, sample_counts[w % 4 - 1],
                artifacts::kLongRegionChunks, 42 + w % 4);
        }
    });
    double avg[3] = {};
    for (size_t p = 0; p < codes.size(); ++p) {
        const double truth = cpi[4 * p];
        row.add(codes[p] + ".true_cpi", truth, "CPI");
        for (size_t k = 0; k < 3; ++k) {
            const double err = std::abs(cpi[4 * p + 1 + k] - truth) / truth;
            avg[k] += err;
            row.add(codes[p] + ".err_at_" + std::to_string(sample_counts[k]),
                    100 * err, "%");
        }
    }
    for (size_t k = 0; k < 3; ++k) {
        row.add("mean.err_at_" + std::to_string(sample_counts[k]),
                100 * avg[k] / codes.size(), "%",
                k == 2 ? Paper(3.5) : std::nullopt);
    }
}

void
fig11(Row &row)
{
    const Dataset &test = artifacts::mainTest();
    const auto errors = testErrors(artifacts::fullModel());
    std::vector<double> ratios, buckets[3];
    size_t tail = 0, tail_high = 0, high = 0;
    for (size_t i = 0; i < test.size(); ++i) {
        const double r = test.meta[i].execRatio;
        ratios.push_back(r);
        if (r >= 0.0 && r < 1e9)
            buckets[r < 1.1 ? 0 : r < 1.5 ? 1 : 2].push_back(errors[i]);
        high += r >= 1.5;
        tail += errors[i] > 0.10;
        tail_high += errors[i] > 0.10 && r >= 1.5;
    }
    row.cdf("exec_ratio", ratios, "ratio");
    row.errors("ratio_0_1.1", buckets[0]);
    row.errors("ratio_1.1_1.5", buckets[1]);
    row.errors("ratio_1.5_inf", buckets[2]);
    // Samples with ratio >= 1.5 are over-represented in the error tail.
    row.add("ratio_1.5_inf.share_all", 100.0 * high / test.size(), "%", 10);
    row.add("ratio_1.5_inf.share_tail",
            tail ? 100.0 * tail_high / tail : 0.0, "%", 41.5);
}

void
fig12(Row &row)
{
    const Dataset &test = artifacts::mainTest();
    // The analytical minimum bound alone (no ML), on <= 600 samples.
    std::vector<double> bound_errors(std::min<size_t>(test.size(), 600));
    parallelFor(bound_errors.size(), [&](size_t i) {
        FeatureProvider provider(test.meta[i].region,
                                 artifacts::featureConfig());
        bound_errors[i] =
            std::abs(provider.cpiMinBound(test.meta[i].params)
                     - test.labels[i]) / std::max(test.labels[i], 1e-6f);
    });
    const std::tuple<std::string, std::vector<double>, double> variants[] =
        {{"min_bound", bound_errors, 65},
         {"base", testErrors(artifacts::ablationModel("base")), 3.32},
         {"base_branch", testErrors(artifacts::ablationModel("base_branch")),
          2.4},
         {"full", testErrors(artifacts::fullModel()), 2.03}};
    for (const auto &[key, errs, paper] : variants)
        row.errors(key, errs, paper);
    for (const auto &[key, errs, paper] : variants)
        row.cdf(key + ".rel_error", errs, "fraction");
}

void
fig13(Row &row)
{
    // Nested prefixes of the main training set. The paper has 4.67%,
    // 3.07% and 2.01% at 100k, 200k and 789k samples.
    const Dataset &train = artifacts::mainTrain();
    for (const auto &[key, frac] :
         {std::pair{"train_1_6", 1.0 / 6}, std::pair{"train_1_2", 1.0 / 2},
          std::pair{"train_all", 1.0}}) {
        const size_t n = static_cast<size_t>(frac * train.size());
        const TrainedModel model = frac == 1.0
            ? artifacts::fullModel()
            : artifacts::trainOn(slice(train, 0, n),
                                 "size_sweep_" + std::to_string(n));
        row.add(key + std::string(".samples"), n, "samples");
        row.meanError(key, testErrors(model));
    }
}

void
fig14(Row &row)
{
    // Leave-one-program-out error for the paper's hardest cases, each
    // evaluated on samples [384, 512) of the program's own pool.
    const Dataset &train = artifacts::mainTrain();
    for (const std::string program : {"O3", "S1", "C2"}) {
        const int pid = programIdByCode(program);
        const Dataset pool = artifacts::onboardPool(pid, 512);
        const Dataset eval = slice(pool, 384, 512);
        std::vector<size_t> keep;
        for (size_t i = 0; i < train.size(); ++i) {
            if (train.meta[i].region.programId != pid)
                keep.push_back(i);
        }
        const Dataset loo = train.subset(keep);
        row.meanError(program + ".in_dist",
                      benchutil::relativeErrors(artifacts::fullModel(), eval));
        row.meanError(program + ".ood",
                      benchutil::relativeErrors(
                          artifacts::trainOn(loo, "ood_" + program), eval));
        if (program != "O3")
            continue;
        // Onboarding: add the program's first `count` samples back.
        for (size_t count : {32, 128, 384}) {
            Dataset onboarded = loo;
            onboarded.append(slice(pool, 0, count));
            const std::string key = "onboard_" + std::to_string(count);
            row.meanError(program + "." + key,
                          benchutil::relativeErrors(
                              artifacts::trainOn(onboarded, key), eval));
        }
    }
}

void
fig15(Row &row)
{
    // The big core, and the big core with small caches (64kB L1, 1MB
    // L2) and a small load queue (12), as in the paper.
    const UarchParams base = UarchParams::bigCore();
    UarchParams target = base;
    target.memory.l1dKb = 64;
    target.memory.l1iKb = 64;
    target.memory.l2Kb = 1024;
    target.lqSize = 12;
    UarchParams small_caches = base, small_lq = base;
    small_caches.memory = target.memory;
    small_lq.lqSize = target.lqSize;
    const std::vector<ShapleyComponent> components = {
        {"Caches (L1i/L1d/L2)",
         {ParamId::L1dSize, ParamId::L1iSize, ParamId::L2Size}},
        {"Load queue", {ParamId::LqSize}}};
    // Of 24 regions of cache-sensitive programs, take the one whose
    // joint cache + LQ effect is the most super-additive.
    ConcordePredictor predictor(artifacts::fullModel(),
                                artifacts::featureConfig());
    std::unique_ptr<FeatureProvider> provider;
    double best_interaction = -1.0;
    Rng rng(0xF15);
    for (const char *program :
         {"P9", "S10", "P2", "S1", "S3", "C1", "P6", "S2"}) {
        for (int trial = 0; trial < 3; ++trial) {
            auto candidate = std::make_unique<FeatureProvider>(
                sampleRegionFromProgram(rng, programIdByCode(program),
                                        artifacts::kShortRegionChunks),
                artifacts::featureConfig());
            const double bb = predictor.predictCpi(*candidate, base);
            const double tt = predictor.predictCpi(*candidate, target);
            const double tb = predictor.predictCpi(*candidate, small_caches);
            const double bt = predictor.predictCpi(*candidate, small_lq);
            const double interaction = (tt - bb) - (tb - bb) - (bt - bb);
            if (tt > bb && interaction > best_interaction) {
                best_interaction = interaction;
                provider = std::move(candidate);
            }
        }
    }
    auto eval = [&](const UarchParams &p) {
        return predictor.predictCpi(*provider, p);
    };
    const double base_cpi = eval(base);
    const double target_cpi = eval(target);
    row.add("base_cpi", base_cpi, "CPI");
    row.add("target_cpi", target_cpi, "CPI");
    row.add("increase", 100 * (target_cpi - base_cpi) / base_cpi, "%");
    // In % of the base CPI: the two orders disagree wildly, the Shapley
    // value splits the joint effect fairly.
    ShapleyConfig exhaustive;
    exhaustive.exhaustive = true;
    auto attribution = [&](const std::string &key,
                           const std::vector<double> &delta, double caches,
                           double lq) {
        row.add(key + ".caches", 100.0 * delta[0] / base_cpi, "%", caches);
        row.add(key + ".lq", 100.0 * delta[1] / base_cpi, "%", lq);
    };
    attribution("cache_first",
                orderedAblation(base, target, components, {0, 1}, eval), 53,
                458);
    attribution("lq_first",
                orderedAblation(base, target, components, {1, 0}, eval),
                501, 0);
    attribution("shapley", shapleyAttribution(base, target, components,
                                              eval, exhaustive), 277, 234);
}

/** Monte Carlo Shapley attribution, big core -> ARM N1, of one region. */
struct Attribution
{
    std::vector<double> phi;
    double baseCpi = 0.0;
    double targetCpi = 0.0;
};

Attribution
attributeRegion(const ConcordePredictor &predictor, const RegionSpec &spec,
                int permutations, uint64_t seed)
{
    FeatureProvider provider(spec, artifacts::featureConfig());
    const BatchEval eval = [&](const std::vector<UarchParams> &pts) {
        return predictor.predictCpiBatch(provider, pts, 1);
    };
    const UarchParams base = UarchParams::bigCore();
    const UarchParams target = UarchParams::armN1();
    ShapleyConfig config;
    config.numPermutations = permutations;
    config.seed = seed;
    Attribution out;
    out.phi = shapleyAttribution(base, target, attributionComponents(),
                                 eval, config);
    const auto ends = predictor.predictCpiBatch(
        provider, std::vector<UarchParams>{base, target}, 1);
    out.baseCpi = ends[0];
    out.targetCpi = ends[1];
    return out;
}

void
fig16(Row &row)
{
    // Paper: 2000 regions x 200 permutations x 29 programs.
    const size_t regions = artifacts::envSize("CONCORDE_SHAPLEY_REGIONS", 12);
    const size_t perms = artifacts::envSize("CONCORDE_SHAPLEY_PERMS", 20);
    const auto &components = attributionComponents();
    const size_t num_programs = workloadCorpus().size();
    ConcordePredictor predictor(artifacts::fullModel(),
                                artifacts::featureConfig());
    std::vector<Attribution> mean(num_programs);
    parallelFor(num_programs, [&](size_t pid) {
        Rng rng(hashMix(0xF16, pid));
        Attribution &acc = mean[pid];
        acc.phi.assign(components.size(), 0.0);
        for (size_t r = 0; r < regions; ++r) {
            const RegionSpec spec = sampleRegionFromProgram(
                rng, static_cast<int>(pid), artifacts::kShortRegionChunks);
            const Attribution one = attributeRegion(
                predictor, spec, static_cast<int>(perms), rng.next());
            acc.baseCpi += one.baseCpi;
            acc.targetCpi += one.targetCpi;
            for (size_t c = 0; c < components.size(); ++c)
                acc.phi[c] += one.phi[c];
        }
        const double inv = 1.0 / regions;
        acc.baseCpi *= inv;
        acc.targetCpi *= inv;
        for (double &phi : acc.phi)
            phi *= inv;
    });
    // The row's seconds time these evaluations.
    row.add("evaluations",
            num_programs * regions * perms * (components.size() + 1),
            "CPI evaluations");
    // Per program: both CPIs and the (up to) four largest contributors.
    for (size_t pid = 0; pid < num_programs; ++pid) {
        const auto &phi = mean[pid].phi;
        const std::string program = code(static_cast<int>(pid));
        row.add(program + ".base_cpi", mean[pid].baseCpi, "CPI");
        row.add(program + ".n1_cpi", mean[pid].targetCpi, "CPI");
        std::vector<size_t> order(components.size());
        std::iota(order.begin(), order.end(), 0);
        std::sort(order.begin(), order.end(),
                  [&](size_t a, size_t b) { return phi[a] > phi[b]; });
        for (size_t k = 0; k < 4 && phi[order[k]] > 0.005; ++k) {
            row.add(program + ".dcpi." + components[order[k]].name,
                    phi[order[k]], "CPI");
        }
    }
    for (size_t c = 0; c < components.size(); ++c) {
        double avg = 0.0;
        for (const auto &program : mean)
            avg += program.phi[c];
        row.add("corpus.dcpi." + components[c].name,
                avg / static_cast<double>(num_programs), "CPI");
    }
}

void
fig17(Row &row)
{
    // 96 regions of P9 (Search3), sorted by the Shapley dCPI of the
    // cache group (component 0). Paper: ~10% of the regions are highly
    // cache sensitive though the program average is modest.
    const size_t num_regions = 96;
    ConcordePredictor predictor(artifacts::fullModel(),
                                artifacts::featureConfig());
    std::vector<Attribution> results(num_regions);
    parallelFor(num_regions, [&](size_t r) {
        Rng rng(hashMix(0xF17, r));
        results[r] = attributeRegion(
            predictor,
            sampleRegionFromProgram(rng, programIdByCode("P9"),
                                    artifacts::kShortRegionChunks),
            16, r);
    });
    std::sort(results.begin(), results.end(),
              [](const Attribution &a, const Attribution &b) {
                  return a.phi[0] < b.phi[0];
              });
    for (double q : {0.0, 0.25, 0.5, 0.75, 0.9, 0.95, 1.0}) {
        const auto &r = results[std::min(
            num_regions - 1, static_cast<size_t>(q * (num_regions - 1)))];
        const std::string key = "p" + std::to_string(std::lround(100 * q));
        row.add(key + ".cache_dcpi", r.phi[0], "CPI");
        row.add(key + ".total_dcpi", r.targetCpi - r.baseCpi, "CPI");
        row.add(key + ".n1_cpi", r.targetCpi, "CPI");
    }
    double avg_cache = 0.0;
    for (const auto &r : results)
        avg_cache += r.phi[0];
    avg_cache /= num_regions;
    size_t high = 0;
    for (const auto &r : results)
        high += r.phi[0] > 2.0 * std::max(avg_cache, 0.05);
    row.add("avg_cache_dcpi", avg_cache, "CPI");
    row.add("regions_above_2x_avg", high, "regions");
    row.add("regions", num_regions, "regions");
}

void
sec522(Row &row)
{
    // (a) Model size, on half the main set. Paper: one 256 layer is
    // worse, the 3-layer model slightly better.
    const Dataset half = slice(artifacts::mainTrain(), 0,
                               artifacts::mainTrain().size() / 2);
    for (const auto &[key, hidden] :
         {std::pair<std::string, std::vector<size_t>>{"hidden_256", {256}},
          {"hidden_192_96", {192, 96}},
          {"hidden_384_192_96", {384, 192, 96}}}) {
        TrainConfig config = artifacts::trainConfig();
        config.hiddenSizes = hidden;
        row.meanError(key, testErrors(artifacts::trainOn(
                               half, key, nullptr, nullptr, config)));
    }
    // (b) Window length k of the throughput distributions, on datasets
    // an eighth of the main training set. Paper: k in {100, 200, 400}
    // all similar.
    const size_t samples = artifacts::trainSamples() / 8;
    row.add("k_samples", samples, "samples");
    for (int k : {100, 200, 400}) {
        const std::string key = "k" + std::to_string(k);
        DatasetConfig config;
        config.regionChunks = artifacts::kShortRegionChunks;
        config.features = artifacts::featureConfig();
        config.features.windowK = k;
        config.numSamples = samples;
        config.seed = 1700 + k;
        const Dataset train = artifacts::cachedDataset(key + "_train", config);
        config.numSamples = samples / 6;
        config.seed = 2900 + k;
        row.meanError(key, benchutil::relativeErrors(
                               artifacts::trainOn(train, key),
                               artifacts::cachedDataset(key + "_test",
                                                        config)));
    }
}

void
sec523(Row &row)
{
    // Preprocessing one long region, in units of one cycle-level
    // simulation of it.
    const RegionSpec spec{programIdByCode("S7"), 0, 0,
                          artifacts::kLongRegionChunks};
    row.add("region_instructions", spec.numInstructions(), "instructions");
    RegionAnalysis sim_analysis(spec);
    Stopwatch sim_timer;
    (void)simulateRegion(UarchParams::armN1(), sim_analysis);
    const double sim_seconds = sim_timer.seconds();
    // Trace analysis: all 40 d-side + 20 i-side + TAGE simulations.
    Stopwatch trace_timer;
    FeatureProvider provider(spec, artifacts::featureConfig());
    for (const auto &config : allDataConfigs())
        provider.analysis().dside(config);
    for (const auto &config : allInstConfigs())
        provider.analysis().iside(config);
    BranchConfig tage;
    tage.type = BranchConfig::Type::Tage;
    provider.analysis().branches(tage);
    const double trace_seconds = trace_timer.seconds();
    // Analytical models over the quantized grid; the full grid scales
    // the per-run cost by the ROB, LQ, SQ, icache-fill and fetch-buffer
    // grid sizes.
    Stopwatch model_timer;
    const size_t runs = provider.precomputeAll(true);
    const double model_seconds = model_timer.seconds();
    const double full_runs =
        40.0 * 1024 + 40.0 * 256 + 256 + 20.0 * 32 + 20.0 * 8;
    const double quantized = trace_seconds + model_seconds;
    const double full = trace_seconds + model_seconds / runs * full_runs;
    row.add("sim_seconds", sim_seconds, "s");
    row.add("trace_seconds", trace_seconds, "s");
    row.add("model_seconds", model_seconds, "s");
    row.add("model_runs", runs, "runs");
    row.add("quantized.seconds", quantized, "s");
    row.add("quantized.sims", quantized / sim_seconds, "simulations", 7);
    row.add("quantized.designs", designSpaceSize(true), "designs", 1.8e18);
    row.add("full.seconds", full, "s");
    row.add("full.sims", full / sim_seconds, "simulations", 107);
    row.add("full.designs", designSpaceSize(false), "designs", 2.2e23);
}

void
sec524(Row &row)
{
    // Paper: 16.8 h of simulation + 2.2 h of trace analysis for 837k
    // 1M-instruction samples, and 3 TPU-hours of training.
    DatasetConfig config;
    config.numSamples = 200;
    config.regionChunks = artifacts::kShortRegionChunks;
    config.seed = 0xC057;
    Stopwatch timer;
    const size_t built = buildDataset(config).size();
    const double seconds = timer.seconds();
    row.add("dataset.samples_per_s", built / seconds, "samples/s");
    row.add("dataset.threads", defaultThreads(), "threads");
    row.add("dataset.full_samples", artifacts::trainSamples(), "samples");
    row.add("dataset.full_seconds",
            artifacts::trainSamples() * seconds / built, "s");

    const Dataset &train = artifacts::mainTrain();
    TrainConfig train_config = artifacts::trainConfig();
    train_config.epochs = 4;
    Stopwatch train_timer;
    (void)trainMlp(train.features, train.labels, train.dim, train_config);
    const double per_epoch = train_timer.seconds() / 4.0;
    row.add("training.seconds_per_epoch", per_epoch, "s");
    row.add("training.samples", train.size(), "samples");
    row.add("training.epochs", artifacts::epochs(), "epochs");
    row.add("training.full_seconds", per_epoch * artifacts::epochs(), "s");
}

void
sec526(Row &row)
{
    // The same features and hyperparameters; only the labels change.
    // Occupancy percentages can be ~0: floor them for the relative loss.
    const Dataset &train = artifacts::mainTrain();
    const Dataset &test = artifacts::mainTest();
    auto floored = [](std::vector<float> labels) {
        for (float &y : labels)
            y = std::max(y, 1.0f);
        return labels;
    };
    const std::tuple<std::string, std::vector<float>, std::vector<float>,
                     double>
        metrics[] = {{"rob_occupancy", floored(train.robOccLabels()),
                      floored(test.robOccLabels()), 2.23},
                     {"rename_occupancy", floored(train.renameOccLabels()),
                      floored(test.renameOccLabels()), 2.50}};
    for (const auto &[key, train_y, test_y, paper] : metrics) {
        const TrainedModel model =
            artifacts::trainOn(train, key, nullptr, &train_y);
        const auto preds = model.predictBatch(test.features, test.dim);
        double abs_error = 0.0;
        for (size_t i = 0; i < preds.size(); ++i)
            abs_error += std::abs(preds[i] - test_y[i]);
        row.add(key + ".rel_error",
                100 * model.meanRelativeError(test.features, test_y,
                                              test.dim), "%", paper);
        row.add(key + ".abs_error", abs_error / preds.size(), "points");
    }
}

void
sec8(Row &row)
{
    // Split-conformal bounds fitted on the first half of the test split
    // and checked on the second.
    const Dataset &test = artifacts::mainTest();
    const Dataset cal = slice(test, 0, test.size() / 2);
    const Dataset eval = slice(test, test.size() / 2, test.size());
    const TrainedModel &model = artifacts::fullModel();
    const ConformalCalibration conformal = fitConformalCalibration(
        model.predictBatch(cal.features, cal.dim), cal.labels, cal.features,
        cal.dim);
    const auto eval_preds = model.predictBatch(eval.features, eval.dim);
    row.add("calibration_samples", cal.size(), "samples");
    row.add("evaluation_samples", eval.size(), "samples");
    for (double alpha : {0.32, 0.20, 0.10, 0.05, 0.02}) {
        const std::string key = "alpha_" + std::to_string(alpha).substr(0, 4);
        row.add(key + ".target_coverage", 100 * (1 - alpha), "%");
        row.add(key + ".coverage",
                100 * empiricalCoverage(conformal, eval_preds, eval.labels,
                                        alpha), "%");
        row.add(key + ".interval_width",
                100 * conformal.quantile(alpha) * 2, "%");
    }
    row.meanError("eval", benchutil::relativeErrors(model, eval));
}

void
table1(Row &row)
{
    const UarchParams n1 = UarchParams::armN1();
    for (const auto &info : paramTable()) {
        const std::string key = info.name;
        row.add(key + ".min", info.minValue, "");
        row.add(key + ".max", info.maxValue, "");
        row.add(key + ".values", info.cardinality, "values");
        row.add(key + ".arm_n1", n1.get(info.id), "");
    }
    row.add("designs.full", designSpaceSize(false), "designs", 2.2e23);
    row.add("designs.quantized", designSpaceSize(true), "designs", 1.8e18);
}

void
table2(Row &row)
{
    uint64_t total_chunks = 0;
    for (const auto &info : workloadCorpus()) {
        const uint64_t chunks = info.numTraces * info.chunksPerTrace;
        total_chunks += chunks;
        row.add(info.code() + ".traces", info.numTraces, "traces");
        row.add(info.code() + ".instructions", chunks * kChunkLen / 1e6, "M");
    }
    row.add("total.instructions", total_chunks * kChunkLen / 1e6, "M");
    row.add("total.programs", workloadCorpus().size(), "programs", 29);
}

void
table3(Row &row)
{
    // One distribution encoding: the percentiles, as many size-weighted
    // ones, and the mean.
    const FeatureConfig config = artifacts::featureConfig();
    const FeatureLayout layout(config);
    row.add("encoding_width", layout.encDim(), "values", 101);
    row.add("percentiles", config.numPercentiles, "values");
    for (const auto &[name, width] : layout.blocks())
        row.add("block." + name, width, "values");
    auto width = [&](FeatureGroup g) {
        const auto range = layout.group(g);
        return range.end - range.begin;
    };
    row.add("group.throughput", width(FeatureGroup::Primary), "values", 1111);
    row.add("group.pipeline_stalls",
            width(FeatureGroup::MispredRate) + width(FeatureGroup::Stalls),
            "values", 416);
    row.add("group.latency", width(FeatureGroup::Latency), "values", 2323);
    row.add("group.uarch", width(FeatureGroup::Params), "values", 23);
    row.add("total", layout.dim(), "values", 3873);
}

void
table4(Row &row)
{
    // The paper's per-100k-instruction buckets [0, 1000), [1000, 5000)
    // and [5000, inf), scaled to 16k-instruction regions.
    const Dataset &test = artifacts::mainTest();
    const auto errors = testErrors(artifacts::fullModel());
    std::vector<double> buckets[3];
    for (size_t i = 0; i < test.size(); ++i) {
        const uint32_t m = test.meta[i].mispredicts;
        if (m < ~0u)
            buckets[m < 160 ? 0 : m < 800 ? 1 : 2].push_back(errors[i]);
    }
    row.errors("mispredicts_0_160", buckets[0], 2.16);
    row.errors("mispredicts_160_800", buckets[1], 2.12);
    row.errors("mispredicts_800_inf", buckets[2], 1.82);
}

struct RowDef
{
    const char *name;
    const char *title;
    void (*run)(Row &);
};

const RowDef kRows[] = {
    {"fig01", "Figure 1: per-resource bounds vs true IPC", fig01},
    {"fig04", "Figure 4: test/train region overlap", fig04},
    {"fig05", "Figure 5: accuracy on random microarchitectures", fig05},
    {"fig06", "Figure 6: error per benchmark", fig06},
    {"fig07", "Figure 7: 16k- vs 64k-instruction regions", fig07},
    {"fig08", "Figure 8: Concorde vs TAO on SPEC @ ARM N1", fig08},
    {"fig09", "Figure 9: long-program CPI from sampled regions", fig09},
    {"fig11", "Figure 11: load-time discrepancy vs error", fig11},
    {"fig12", "Figure 12: ablation of design components", fig12},
    {"fig13", "Figure 13: accuracy vs training-set size", fig13},
    {"fig14", "Figure 14: out-of-distribution programs", fig14},
    {"fig15", "Figure 15: ordered ablations vs Shapley", fig15},
    {"fig16", "Figure 16: CPI attribution, ARM N1 vs big core", fig16},
    {"fig17", "Figure 17: per-region attribution for P9", fig17},
    {"sec522", "Section 5.2.2: model size and window length", sec522},
    {"sec523", "Section 5.2.3: preprocessing cost", sec523},
    {"sec524", "Section 5.2.4: dataset and training cost", sec524},
    {"sec526", "Section 5.2.6: non-CPI metrics", sec526},
    {"sec8", "Section 8: conformal confidence bounds", sec8},
    {"table1", "Table 1: design-parameter space", table1},
    {"table2", "Table 2: workload corpus", table2},
    {"table3", "Table 3: ML input layout", table3},
    {"table4", "Table 4: error vs branch mispredictions", table4},
};

/** A JSON number; null when absent or not finite. */
std::string
number(Paper value)
{
    char buf[32] = "null";
    if (value && std::isfinite(*value))
        std::snprintf(buf, sizeof(buf), "%.10g", *value);
    return buf;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    // The named rows, in table order; every row when none is named.
    std::vector<const RowDef *> selected;
    for (const RowDef &def : kRows) {
        if (argc == 1 || std::count(argv + 1, argv + argc,
                                    std::string_view(def.name)))
            selected.push_back(&def);
    }
    if (argc > 1 && selected.size() != static_cast<size_t>(argc - 1)) {
        std::fprintf(stderr, "usage: bench_paper [row...]\nrows:");
        for (const RowDef &def : kRows)
            std::fprintf(stderr, " %s", def.name);
        std::fprintf(stderr, "\n");
        return 2;
    }

    // Keys, units and titles hold no '"', '\\' or control characters.
    std::string json = "{\n  \"git\": \"" + buildGitDescribe()
        + "\",\n  \"threads\": " + std::to_string(defaultThreads())
        + ",\n  \"scale\": {";
    const std::pair<const char *, size_t> scale[] = {
        {"CONCORDE_TRAIN_SAMPLES", artifacts::trainSamples()},
        {"CONCORDE_TEST_SAMPLES", artifacts::testSamples()},
        {"CONCORDE_LONG_TRAIN_SAMPLES", artifacts::longTrainSamples()},
        {"CONCORDE_LONG_TEST_SAMPLES", artifacts::longTestSamples()},
        {"CONCORDE_SPEC_SAMPLES", artifacts::specSamples()},
        {"CONCORDE_EPOCHS", artifacts::epochs()},
        {"CONCORDE_SHAPLEY_REGIONS",
         artifacts::envSize("CONCORDE_SHAPLEY_REGIONS", 12)},
        {"CONCORDE_SHAPLEY_PERMS",
         artifacts::envSize("CONCORDE_SHAPLEY_PERMS", 20)}};
    const char *sep = "";
    for (const auto &[name, size] : scale) {
        json += sep + std::string("\n    \"") + name
            + "\": " + std::to_string(size);
        sep = ",";
    }
    json += "\n  },\n  \"rows\": [";
    sep = "";
    for (const RowDef *def : selected) {
        std::printf("=== %s: %s ===\n", def->name, def->title);
        std::fflush(stdout);
        Stopwatch timer;
        Row row;
        def->run(row);
        const double seconds = timer.seconds();
        json += sep + std::string("\n    {\"name\": \"") + def->name
            + "\", \"title\": \"" + def->title + "\", \"seconds\": "
            + number(seconds) + ", \"values\": [";
        for (const Value &v : row.values) {
            const std::string paper =
                v.paper ? "  (paper " + number(v.paper) + ")" : "";
            std::printf("  %-40s %12.6g %s%s\n", v.key.c_str(), v.value,
                        v.unit.c_str(), paper.c_str());
            json += std::string(&v == &row.values[0] ? "" : ",")
                + "\n      {\"key\": \"" + v.key + "\", \"value\": "
                + number(v.value) + ", \"paper\": " + number(v.paper)
                + ", \"unit\": \"" + v.unit + "\"}";
        }
        json += "\n    ]}";
        sep = ",";
        std::printf("  [%.1fs]\n", seconds);
    }
    json += "\n  ]\n}\n";

    const char *env = std::getenv("CONCORDE_BENCH_JSON");
    const std::string path = env && *env ? env : "RESULTS.json";
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (!out || std::fputs(json.c_str(), out) < 0 || std::fclose(out) != 0) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 1;
    }
    std::printf("wrote %s\n", path.c_str());
    return 0;
}
