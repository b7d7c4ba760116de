#include "analytical/feature_provider.hh"

#include <algorithm>
#include <utility>

#include "analytical/frontend_models.hh"
#include "analytical/lsq_model.hh"
#include "analytical/rob_model.hh"
#include "analytical/width_models.hh"
#include "common/logging.hh"
#include "common/serialize.hh"

namespace concorde
{

void
saveFeatureConfig(BinaryWriter &out, const FeatureConfig &cfg)
{
    out.put<int32_t>(cfg.windowK);
    out.put<uint64_t>(cfg.numPercentiles);
    out.putVector(cfg.robSweep);
    out.putVector(cfg.latencyRobSizes);
}

FeatureConfig
loadFeatureConfig(BinaryReader &in)
{
    FeatureConfig cfg;
    cfg.windowK = in.get<int32_t>();
    cfg.numPercentiles = in.get<uint64_t>();
    cfg.robSweep = in.getVector<int>();
    cfg.latencyRobSizes = in.getVector<int>();
    return cfg;
}

uint64_t
featureConfigFingerprint(const FeatureConfig &cfg)
{
    uint64_t h = hashMix(0xF3A7C0F6ULL, static_cast<uint64_t>(cfg.windowK),
                         cfg.numPercentiles);
    for (int v : cfg.robSweep)
        h = hashMix(h, 1, static_cast<uint64_t>(v));
    for (int v : cfg.latencyRobSizes)
        h = hashMix(h, 2, static_cast<uint64_t>(v));
    return h;
}

FeatureLayout::FeatureLayout(const FeatureConfig &config)
{
    distDim = 2 * config.numPercentiles + 1;
    size_t at = 0;
    auto push = [&](const std::string &name, size_t width) {
        namedBlocks.emplace_back(name, width);
        at += width;
    };

    ranges[static_cast<int>(FeatureGroup::Primary)].begin = at;
    for (const char *name :
         {"thr.rob", "thr.lq", "thr.sq", "thr.alu", "thr.fp", "thr.ls",
          "thr.pipes_lower", "thr.pipes_upper", "thr.icache_fills",
          "thr.fetch_buffers", "thr.min_bound"}) {
        push(name, distDim);
    }
    ranges[static_cast<int>(FeatureGroup::Primary)].end = at;

    ranges[static_cast<int>(FeatureGroup::MispredRate)].begin = at;
    push("branch.mispredict_rate", 1);
    ranges[static_cast<int>(FeatureGroup::MispredRate)].end = at;

    ranges[static_cast<int>(FeatureGroup::Stalls)].begin = at;
    push("stall.isb_count", distDim);
    push("stall.cond_branch_count", distDim);
    push("stall.uncond_branch_count", distDim);
    push("stall.indirect_branch_count", distDim);
    push("stall.rob_sweep_ipc", config.robSweep.size());
    ranges[static_cast<int>(FeatureGroup::Stalls)].end = at;

    ranges[static_cast<int>(FeatureGroup::Latency)].begin = at;
    push("lat.exec", distDim);
    for (int size : config.latencyRobSizes)
        push("lat.issue.rob" + std::to_string(size), distDim);
    for (int size : config.latencyRobSizes)
        push("lat.commit.rob" + std::to_string(size), distDim);
    ranges[static_cast<int>(FeatureGroup::Latency)].end = at;

    ranges[static_cast<int>(FeatureGroup::Params)].begin = at;
    push("uarch.params", kParamEncodingDim);
    ranges[static_cast<int>(FeatureGroup::Params)].end = at;

    totalDim = at;
}

std::vector<uint8_t>
FeatureLayout::maskFor(const std::vector<FeatureGroup> &groups) const
{
    std::vector<uint8_t> mask(totalDim, 0);
    for (FeatureGroup g : groups) {
        const Range r = group(g);
        std::fill(mask.begin() + r.begin, mask.begin() + r.end, 1);
    }
    return mask;
}

FeatureProvider::FeatureProvider(const RegionSpec &spec,
                                 FeatureConfig config,
                                 uint32_t warmup_chunks)
    : cfg(std::move(config)), lay(cfg),
      region(std::make_shared<RegionAnalysis>(spec, warmup_chunks)),
      encoder(cfg.numPercentiles)
{
}

FeatureProvider::FeatureProvider(RegionAnalysis analysis,
                                 FeatureConfig config)
    : cfg(std::move(config)), lay(cfg),
      region(std::make_shared<RegionAnalysis>(std::move(analysis))),
      encoder(cfg.numPercentiles)
{
}

FeatureProvider::FeatureProvider(std::shared_ptr<RegionAnalysis> analysis,
                                 FeatureConfig config)
    : cfg(std::move(config)), lay(cfg), region(std::move(analysis)),
      encoder(cfg.numPercentiles)
{
    panic_if(!region, "FeatureProvider over a null analysis");
}

const WindowCounts &
FeatureProvider::counts()
{
    if (!haveCounts) {
        windowCounts =
            WindowCounts::build(region->regionColumns(), cfg.windowK);
        haveCounts = true;
    }
    return windowCounts;
}

bool
FeatureProvider::hasRobEntry(int rob_size, uint32_t mem_key,
                             bool need_latencies) const
{
    auto it = robCache.find(packKey(rob_size, mem_key));
    return it != robCache.end()
        && (!need_latencies || it->second.hasLatencies);
}

RobRunRequest
FeatureProvider::robRequest(int rob_size, bool need_latencies) const
{
    // assemble() reads the exec encoding only for one size; no other
    // size counts exec latencies.
    return RobRunRequest{rob_size, need_latencies,
                         need_latencies && rob_size == execLatencyRobSize()};
}

void
FeatureProvider::runRobEntries(const MemoryConfig &mem,
                               const std::vector<RobRunRequest> &requests)
{
    if (requests.empty())
        return;
    // Runs and histograms live for this call only: serving keeps one
    // provider per (model, region) alive, so nothing here is per provider.
    std::vector<RobModelResult> runs;
    std::vector<RobStageLatencies> latencies;
    const auto &dside = region->dside(mem);
    runRobModels(region->regionColumns(), region->loadIndex(), dside.execLat,
                 requests, cfg.windowK, runs, latencies);
    const uint32_t mem_key = mem.dSideKey();
    for (size_t k = 0; k < requests.size(); ++k) {
        ++totalModelRuns;
        RobModelResult &run = runs[k];
        RobEntry &entry = robCache[packKey(requests[k].robSize, mem_key)];
        entry.windows = std::move(run.windowThroughput);
        entry.overallIpc = run.overallIpc;
        if (requests[k].latencies) {
            RobStageLatencies &lat = latencies[k];
            entry.encIssue.clear();
            entry.encCommit.clear();
            encoder.encodeHistogramLog1p(lat.issue, entry.encIssue);
            encoder.encodeHistogramLog1p(lat.commit, entry.encCommit);
            if (requests[k].execLatency) {
                entry.encExec.clear();
                encoder.encodeHistogramLog1p(lat.exec, entry.encExec);
            }
            entry.hasLatencies = true;
        }
    }
}

FeatureProvider::RobEntry &
FeatureProvider::robEntry(int rob_size, const MemoryConfig &mem,
                          bool need_latencies)
{
    const uint32_t mem_key = mem.dSideKey();
    if (!hasRobEntry(rob_size, mem_key, need_latencies))
        runRobEntries(mem, {robRequest(rob_size, need_latencies)});
    return robCache.find(packKey(rob_size, mem_key))->second;
}

bool
FeatureProvider::needsLatencies(int rob_size) const
{
    return std::find(cfg.latencyRobSizes.begin(), cfg.latencyRobSizes.end(),
                     rob_size)
        != cfg.latencyRobSizes.end();
}

int
FeatureProvider::execLatencyRobSize() const
{
    return cfg.latencyRobSizes.empty() ? 1024 : cfg.latencyRobSizes.back();
}

uint64_t
FeatureProvider::estimatedLoadLatencySum(const MemoryConfig &mem)
{
    const uint32_t dkey = mem.dSideKey();
    auto it = estLoadLatSums.find(dkey);
    if (it != estLoadLatSums.end())
        return it->second;
    const auto &dside = region->dside(mem);
    const TraceColumns &cols = region->regionColumns();
    uint64_t estimated = 0;
    for (size_t i = 0; i < cols.size(); ++i) {
        if (cols.isLoad(i))
            estimated += static_cast<uint64_t>(dside.execLat[i]);
    }
    estLoadLatSums.emplace(dkey, estimated);
    return estimated;
}

void
FeatureProvider::ensureRobEntries(const UarchParams &params)
{
    const MemoryConfig &mem = params.memory;

    // Distinct sizes this assemble will touch (a dozen or so; linear
    // dedup beats a set here).
    std::vector<RobRunRequest> wanted;
    auto add = [&](int size, bool lat) {
        for (RobRunRequest &w : wanted) {
            if (w.robSize == size) {
                w.latencies |= lat;
                return;
            }
        }
        wanted.push_back(RobRunRequest{size, lat, false});
    };
    add(params.robSize, needsLatencies(params.robSize));
    for (int size : cfg.robSweep)
        add(size, needsLatencies(size));
    for (int size : cfg.latencyRobSizes)
        add(size, true);
    add(execLatencyRobSize(), true);

    // Every missing size in one call. Interleaving the sizes in one
    // scalar pass once measured slower than back-to-back single-size
    // runs; as AVX-512F lanes it wins: on a Xeon, the 12 sizes of a cold
    // assemble over a 16k-instruction region (six counting stage
    // latencies) take 0.55-0.95 ms in one lockstep pass against
    // 2.3-3.6 ms one size at a time (bench_sweep_dse records the kernel
    // as rob_kernel).
    std::vector<RobRunRequest> missing;
    for (const RobRunRequest &w : wanted) {
        if (!hasRobEntry(w.robSize, mem.dSideKey(), w.latencies))
            missing.push_back(robRequest(w.robSize, w.latencies));
    }
    runRobEntries(mem, missing);
}

const std::vector<double> &
FeatureProvider::robWindows(int rob_size, const MemoryConfig &mem)
{
    return robEntry(rob_size, mem, false).windows;
}

double
FeatureProvider::robOverallIpc(int rob_size, const MemoryConfig &mem)
{
    return robEntry(rob_size, mem, false).overallIpc;
}

FeatureProvider::BoundEntry &
FeatureProvider::lqEntry(int lq_size, const MemoryConfig &mem)
{
    return boundEntry(lqCache, packKey(lq_size, mem.dSideKey()), [&] {
        const auto &dside = region->dside(mem);
        return runLoadQueueModel(region->regionColumns(),
                                 region->loadIndex(), dside.execLat,
                                 lq_size, cfg.windowK);
    });
}

const std::vector<double> &
FeatureProvider::lqWindows(int lq_size, const MemoryConfig &mem)
{
    return lqEntry(lq_size, mem).windows;
}

FeatureProvider::BoundEntry &
FeatureProvider::sqEntry(int sq_size)
{
    return boundEntry(sqCache, packKey(sq_size, 0), [&] {
        return runStoreQueueModel(region->regionColumns(), sq_size,
                                  cfg.windowK);
    });
}

const std::vector<double> &
FeatureProvider::sqWindows(int sq_size)
{
    return sqEntry(sq_size).windows;
}

FeatureProvider::BoundEntry &
FeatureProvider::ifillEntry(int max_fills, const MemoryConfig &mem)
{
    return boundEntry(ifillCache, packKey(max_fills, mem.iSideKey()),
                      [&] {
        return runIcacheFillsModel(region->iside(mem), max_fills,
                                   cfg.windowK);
    });
}

const std::vector<double> &
FeatureProvider::icacheFillWindows(int max_fills, const MemoryConfig &mem)
{
    return ifillEntry(max_fills, mem).windows;
}

FeatureProvider::BoundEntry &
FeatureProvider::fbufEntry(int num_buffers, const MemoryConfig &mem)
{
    return boundEntry(fbufCache, packKey(num_buffers, mem.iSideKey()),
                      [&] {
        return runFetchBufferModel(region->iside(mem), num_buffers,
                                   cfg.windowK);
    });
}

const std::vector<double> &
FeatureProvider::fetchBufferWindows(int num_buffers,
                                    const MemoryConfig &mem)
{
    return fbufEntry(num_buffers, mem).windows;
}

void
FeatureProvider::encodeWindows(const std::vector<double> &windows,
                               std::vector<float> &out)
{
    // The input is a memoized (const) bound; copy it into one reused
    // scratch buffer so encoding allocates nothing once warm.
    encodeScratch.assign(windows.begin(), windows.end());
    encoder.encodeInPlace(encodeScratch, out);
}

const std::vector<float> &
FeatureProvider::encoded(BoundEntry &entry)
{
    if (entry.enc.empty())
        encodeWindows(entry.windows, entry.enc);
    return entry.enc;
}

FeatureProvider::BoundEntry &
FeatureProvider::widthEntry(BoundCache &cache,
                            const std::vector<uint32_t> &class_counts,
                            int width)
{
    const uint64_t key = packKey(width, 0);
    auto it = cache.find(key);
    if (it != cache.end())
        return it->second;
    BoundEntry &entry = cache[key];
    entry.windows = issueWidthBound(class_counts, width, cfg.windowK);
    return entry;
}

FeatureProvider::BoundEntry &
FeatureProvider::pipesEntry(bool upper, int ls_pipes, int load_pipes)
{
    BoundCache &cache = upper ? pipesUpperCache : pipesLowerCache;
    const uint64_t key =
        packKey(ls_pipes, static_cast<uint32_t>(load_pipes));
    auto it = cache.find(key);
    if (it != cache.end())
        return it->second;
    BoundEntry &entry = cache[key];
    entry.windows = upper
        ? pipesUpperBound(counts(), ls_pipes, load_pipes)
        : pipesLowerBound(counts(), ls_pipes, load_pipes);
    return entry;
}

void
FeatureProvider::minBoundWindows(const UarchParams &params,
                                 std::vector<double> &out)
{
    const WindowCounts &wc = counts();
    const size_t windows = wc.windows();
    out.assign(windows, kMaxThroughput);

    auto apply = [&](const std::vector<double> &bound) {
        for (size_t j = 0; j < windows; ++j)
            out[j] = std::min(out[j], bound[j]);
    };

    apply(robWindows(params.robSize, params.memory));
    apply(lqWindows(params.lqSize, params.memory));
    apply(sqWindows(params.sqSize));
    apply(widthEntry(aluCache, wc.nAlu, params.aluWidth).windows);
    apply(widthEntry(fpCache, wc.nFp, params.fpWidth).windows);
    apply(widthEntry(lsCache, wc.nLs, params.lsWidth).windows);
    apply(pipesEntry(false, params.lsPipes, params.loadPipes).windows);
    apply(icacheFillWindows(params.maxIcacheFills, params.memory));
    apply(fetchBufferWindows(params.fetchBuffers, params.memory));

    const double static_width = std::min(
        {static_cast<double>(params.fetchWidth),
         static_cast<double>(params.decodeWidth),
         static_cast<double>(params.renameWidth),
         static_cast<double>(params.commitWidth)});
    for (size_t j = 0; j < windows; ++j)
        out[j] = std::min(out[j], static_width);
}

double
FeatureProvider::cpiMinBound(const UarchParams &params)
{
    minBoundWindows(params, scratch);
    if (scratch.empty())
        return 1.0;
    double cpi_acc = 0.0;
    for (double thr : scratch)
        cpi_acc += 1.0 / std::max(thr, 1e-6);
    return cpi_acc / static_cast<double>(scratch.size());
}

void
FeatureProvider::assemble(const UarchParams &params, std::vector<float> &out)
{
    // No reserve here: an exact out.size() + dim() reserve would copy the
    // whole buffer on every row appended to a caller's matrix, while the
    // appends below grow it geometrically.

    // Build every still-missing trace analysis of this design point, one
    // warmup+region sweep per side; sides shared with earlier design
    // points are reused as-is.
    region->analyzeAll(params.memory, params.branch);

    // Run every ROB-model size the blocks below will ask for back to
    // back; the per-size robEntry lookups then all hit the cache.
    ensureRobEntries(params);

    const WindowCounts &wc = counts();

    // All parameter-value-dependent blocks are memoized together with
    // their encodings, so a warm assemble is mostly memcpy; only the
    // min-bound block (a function of the whole parameter vector) is
    // re-encoded per call.
    auto append = [&out](const std::vector<float> &enc) {
        out.insert(out.end(), enc.begin(), enc.end());
    };

    // ---- primary throughput distributions ----
    {
        // Collect stage latencies on an entry's FIRST build when its size
        // will need them for the latency blocks below, instead of running
        // the model a second time (precomputeAll's idiom).
        RobEntry &rob = robEntry(params.robSize, params.memory,
                                 needsLatencies(params.robSize));
        if (rob.encWindows.empty())
            encodeWindows(rob.windows, rob.encWindows);
        append(rob.encWindows);
    }
    append(encoded(lqEntry(params.lqSize, params.memory)));
    append(encoded(sqEntry(params.sqSize)));
    append(encoded(widthEntry(aluCache, wc.nAlu, params.aluWidth)));
    append(encoded(widthEntry(fpCache, wc.nFp, params.fpWidth)));
    append(encoded(widthEntry(lsCache, wc.nLs, params.lsWidth)));
    append(encoded(pipesEntry(false, params.lsPipes, params.loadPipes)));
    append(encoded(pipesEntry(true, params.lsPipes, params.loadPipes)));
    append(encoded(ifillEntry(params.maxIcacheFills, params.memory)));
    append(encoded(fbufEntry(params.fetchBuffers, params.memory)));
    minBoundWindows(params, scratch);
    // The min-bound block is the only per-call encode; `scratch` is
    // rebuilt on every call, so it can be sorted destructively in place.
    encoder.encodeInPlace(scratch, out);

    // ---- branch misprediction rate ----
    const auto &branch_info = region->branches(params.branch);
    out.push_back(static_cast<float>(branch_info.mispredictRate()));

    // ---- pipeline-stall features (parameter independent, cached) ----
    if (encCountDists.empty()) {
        auto encode_counts = [&](const std::vector<uint32_t> &counts_vec) {
            std::vector<double> samples(counts_vec.begin(),
                                        counts_vec.end());
            encoder.encode(std::move(samples), encCountDists);
        };
        encode_counts(wc.nIsb);
        encode_counts(wc.nCondBr);
        encode_counts(wc.nUncondBr);
        encode_counts(wc.nIndirectBr);
    }
    append(encCountDists);
    for (int size : cfg.robSweep) {
        out.push_back(static_cast<float>(
            robEntry(size, params.memory, needsLatencies(size)).overallIpc));
    }

    // ---- latency distributions ----
    {
        const std::vector<float> &enc_exec =
            robEntry(execLatencyRobSize(), params.memory, true).encExec;
        out.insert(out.end(), enc_exec.begin(), enc_exec.end());
        for (int size : cfg.latencyRobSizes) {
            const RobEntry &e = robEntry(size, params.memory, true);
            out.insert(out.end(), e.encIssue.begin(), e.encIssue.end());
        }
        for (int size : cfg.latencyRobSizes) {
            const RobEntry &e = robEntry(size, params.memory, true);
            out.insert(out.end(), e.encCommit.begin(), e.encCommit.end());
        }
    }

    // ---- target microarchitecture ----
    encodeParams(params, out);
}

void
FeatureProvider::absorb(FeatureProvider &&other)
{
    panic_if(other.region != region,
             "absorbing a provider over another analysis");
    panic_if(featureConfigFingerprint(other.cfg)
                 != featureConfigFingerprint(cfg),
             "absorbing a provider with another FeatureConfig");

    // merge() splices only the nodes whose key is missing here. Each
    // spliced entry of a table that counts model runs (ROB, LQ, SQ,
    // i-fill, fetch buffer; the width and pipe bounds count none) adds
    // one run: other's runs of a key this provider already holds were
    // duplicate work, and counting them would make modelRuns() depend on
    // which worker ran what.
    size_t taken = robCache.size();
    robCache.merge(other.robCache);
    taken = robCache.size() - taken;
    const std::pair<BoundCache *, BoundCache *> counted[] = {
        {&lqCache, &other.lqCache}, {&sqCache, &other.sqCache},
        {&ifillCache, &other.ifillCache}, {&fbufCache, &other.fbufCache}};
    for (const auto &[mine, theirs] : counted) {
        const size_t before = mine->size();
        mine->merge(*theirs);
        taken += mine->size() - before;
    }
    const std::pair<BoundCache *, BoundCache *> uncounted[] = {
        {&aluCache, &other.aluCache}, {&fpCache, &other.fpCache},
        {&lsCache, &other.lsCache},
        {&pipesLowerCache, &other.pipesLowerCache},
        {&pipesUpperCache, &other.pipesUpperCache}};
    for (const auto &[mine, theirs] : uncounted)
        mine->merge(*theirs);
    estLoadLatSums.merge(other.estLoadLatSums);
    if (!haveCounts && other.haveCounts) {
        windowCounts = std::move(other.windowCounts);
        haveCounts = true;
        other.haveCounts = false;
    }
    if (encCountDists.empty())
        encCountDists.swap(other.encCountDists);
    totalModelRuns += taken;
}

size_t
FeatureProvider::precomputeAll(bool quantized)
{
    const size_t runs_before = totalModelRuns;

    const auto d_configs = allDataConfigs();
    const auto i_configs = allInstConfigs();

    std::vector<RobRunRequest> missing;
    for (const auto &mem : d_configs) {
        missing.clear();
        for (int64_t value : sweepValues(ParamId::RobSize, quantized)) {
            const int rob = static_cast<int>(value);
            if (!hasRobEntry(rob, mem.dSideKey(), needsLatencies(rob)))
                missing.push_back(robRequest(rob, needsLatencies(rob)));
        }
        runRobEntries(mem, missing);
        for (int64_t lq : sweepValues(ParamId::LqSize, quantized))
            lqWindows(static_cast<int>(lq), mem);
    }
    for (int64_t sq : sweepValues(ParamId::SqSize, quantized))
        sqWindows(static_cast<int>(sq));
    for (const auto &mem : i_configs) {
        for (int64_t fills :
             sweepValues(ParamId::MaxIcacheFills, quantized)) {
            icacheFillWindows(static_cast<int>(fills), mem);
        }
        for (int64_t bufs : sweepValues(ParamId::FetchBuffers, quantized))
            fetchBufferWindows(static_cast<int>(bufs), mem);
    }
    counts();
    return totalModelRuns - runs_before;
}

} // namespace concorde
