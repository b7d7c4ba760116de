/**
 * @file
 * serve_mixed: an in-process NetServer over a PredictionService (one
 * pool thread) serving 16 seed-drawn regions. Two client connections
 * each run a closed loop: send a burst of 16 pipelined requests, wait
 * for all 16 replies, repeat. In every burst after the first, the odd
 * slots repeat a (region, point) pair the client already sent -- a
 * prediction-cache hit on the Interactive class -- and the rest are
 * fresh random points (ROB/LQ/SQ rounded down to a power of two) on the
 * Bulk class. A call is one burst; its latency is the time to the
 * burst's last reply.
 *
 * Fresh points take their memory hierarchy and branch predictor from 4
 * fixed configurations, and setup warms every region under each of
 * them: the server starts in the steady state of a design loop that
 * explores core parameters. Unrestricted, every region would first pay
 * one ROB-model sweep per new memory configuration (40 d-side
 * configurations), and a run's throughput would hinge on how much of it
 * that transient took.
 *
 * The same assembly and GEMM layers as attribution, but in small
 * latency-bound batches behind the wire, queue and cache.
 */

#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "common/stats.hh"
#include "common/stopwatch.hh"
#include "serve/net_client.hh"
#include "serve/net_server.hh"
#include "serve/wire.hh"
#include "e2e.hh"

namespace concorde
{
namespace e2e
{

namespace
{

constexpr uint64_t kRegionStream = 0x5E70;
constexpr uint64_t kRequestStream = 0x5E71;
constexpr uint64_t kCheckStream = 0x5E72;
constexpr size_t kRegions = 16;
constexpr size_t kConfigs = 4;
constexpr size_t kClients = 2;
constexpr size_t kBurst = 16;
const char *const kModel = "default";

int64_t
floorPow2(int64_t v)
{
    int64_t p = 1;
    while (p * 2 <= v)
        p *= 2;
    return p;
}

/** One request as the client draws it. */
struct Draw
{
    size_t region = 0;
    UarchParams params;
    bool hot = false;
};

/**
 * The memory hierarchies and branch predictors of fresh points (on an
 * ARM N1 core, as warmed in setup). The same for every seed, so the
 * server's footprint does not hinge on which hierarchies a seed draws.
 */
std::vector<UarchParams>
hierarchies()
{
    Rng rng(0x5E73);
    std::vector<UarchParams> configs;
    for (size_t k = 0; k < kConfigs; ++k) {
        const UarchParams random = UarchParams::sampleRandom(rng);
        UarchParams config = UarchParams::armN1();
        config.memory = random.memory;
        config.branch = random.branch;
        configs.push_back(config);
    }
    return configs;
}

/**
 * The deterministic request sequence of one client: a pure function of
 * (seed, client), independent of timing, so replays and checks can
 * regenerate it.
 */
class RequestStream
{
  public:
    RequestStream(uint64_t seed, size_t client)
        : rng(hashMix(seed, kRequestStream, client)), configs(hierarchies())
    {
    }

    std::vector<Draw>
    nextBurst()
    {
        std::vector<Draw> burst(kBurst);
        const size_t sent_before = sent.size();
        for (size_t k = 0; k < kBurst; ++k) {
            Draw &draw = burst[k];
            if (k % 2 == 1 && sent_before > 0) {
                draw = sent[rng.nextBounded(sent_before)];
                draw.hot = true;
                continue;
            }
            draw.region = rng.nextBounded(kRegions);
            draw.params = UarchParams::sampleRandom(rng);
            for (ParamId id : {ParamId::RobSize, ParamId::LqSize,
                               ParamId::SqSize})
                draw.params.set(id, floorPow2(draw.params.get(id)));
            const UarchParams &config = configs[rng.nextBounded(kConfigs)];
            draw.params.memory = config.memory;
            draw.params.branch = config.branch;
            sent.push_back(draw);
        }
        return burst;
    }

  private:
    Rng rng;
    const std::vector<UarchParams> configs;
    std::vector<Draw> sent;     ///< fresh draws, in send order
};

class ServeMixed : public Workload
{
  public:
    explicit ServeMixed(uint64_t seed) : seed(seed)
    {
        for (size_t r = 0; r < kRegions; ++r)
            regions.push_back(drawRegion(seed, kRegionStream, r));
    }

    void
    setup() override
    {
        clients.clear();
        server.reset();
        service.reset();
        // Every setup starts cold: no region analysis left from the last.
        AnalysisStore::global().clear();
        touchAllPrograms();

        serve::ServeConfig config;
        config.poolThreads = 1;
        service = std::make_unique<serve::PredictionService>(config);
        service->registry().add(kModel, makePredictor());
        if (service->warmRegions(kModel, regions, hierarchies())
            != serve::ServeStatus::OK)
            throw std::runtime_error("warmRegions failed");
        server = std::make_unique<serve::NetServer>(*service);
        server->start();
        for (size_t c = 0; c < kClients; ++c) {
            clients.push_back(std::make_unique<serve::NetClient>(
                "127.0.0.1", server->port()));
        }
    }

    RunOutput
    run(double seconds, bool traced, LayerCounts &counts) override
    {
        // A client's bursts depend on its earlier ones (the repeats and
        // the cache), so a replay is a prefix of each client's bursts.
        std::vector<RunOutput> per_client(kClients);
        Stopwatch wall;
        std::vector<std::thread> threads;
        for (size_t c = 0; c < kClients; ++c) {
            threads.emplace_back([&, c] {
                size_t bursts = SIZE_MAX;
                if (traced) {
                    bursts = 0;
                    while (bursts < untracedStarts[c].size()
                           && untracedStarts[c][bursts] < seconds)
                        ++bursts;
                }
                clientLoop(c, seconds, bursts, wall, per_client[c]);
            });
        }
        for (auto &t : threads)
            t.join();

        RunOutput out;
        out.seconds = wall.seconds();
        for (size_t c = 0; c < kClients; ++c) {
            RunOutput &part = per_client[c];
            if (!traced) {
                untracedStarts[c].clear();
                for (const CallTime &time : part.times)
                    untracedStarts[c].push_back(time.start);
            }
            out.calls.insert(out.calls.end(), part.calls.begin(),
                             part.calls.end());
            out.times.insert(out.times.end(), part.times.begin(),
                             part.times.end());
            out.ops += part.ops;
            out.failed += part.failed;
        }

        if (traced) {
            const serve::ServeStats stats = service->stats();
            uint64_t rows = 0;
            for (size_t s = 0; s < stats.queue.batchSizeCounts.size(); ++s)
                rows += s * stats.queue.batchSizeCounts[s];
            counts.cacheHitRatio = stats.cache.hitRate();
            counts.batches = stats.queue.batches;
            counts.rowsPerBatch = stats.queue.batches
                ? static_cast<double>(rows) / stats.queue.batches : 0.0;
            for (size_t s = 0; s < serve::kNumServeStatuses; ++s) {
                if (static_cast<serve::ServeStatus>(s)
                    != serve::ServeStatus::OK)
                    counts.nonOk += stats.byStatus[s];
            }
            counts.serverP99Ms = stats.latency.p99Us / 1e3;
            std::vector<double> sorted;
            for (const CallTime &time : out.times)
                sorted.push_back((time.end - time.start) * 1e3);
            sortSamples(sorted);
            counts.clientBurstP99Ms = percentile(sorted, 0.99);
        }
        return out;
    }

    CheckResult
    check(const RunOutput &base) override
    {
        // 256 seed-chosen replies against one-shot predictCpi through a
        // per-region provider: bitwise equal.
        CheckResult result;
        const ConcordePredictor predictor = makePredictor();
        std::vector<std::unique_ptr<FeatureProvider>> providers(kRegions);
        std::vector<RequestStream> streams;
        std::vector<std::vector<std::vector<Draw>>> bursts(kClients);
        for (size_t c = 0; c < kClients; ++c)
            streams.emplace_back(seed, c);
        const size_t total = base.calls.size() * kBurst;
        for (size_t pick : pickIndices(seed, kCheckStream, total, 256)) {
            const size_t call = pick / kBurst;
            const size_t k = pick % kBurst;
            const size_t c = base.times[call].id >> 32;
            const size_t b = base.times[call].id & 0xffffffffu;
            ++result.attempted;
            if (base.calls[call].values.size() != kBurst) {
                ++result.failed;
                continue;
            }
            while (bursts[c].size() <= b)
                bursts[c].push_back(streams[c].nextBurst());
            const Draw &draw = bursts[c][b][k];
            auto &provider = providers[draw.region];
            if (!provider) {
                provider = std::make_unique<FeatureProvider>(
                    regions[draw.region], predictor.featureConfig());
            }
            if (predictor.predictCpi(*provider, draw.params)
                != base.calls[call].values[k])
                ++result.failed;
        }
        return result;
    }

    const char *opName() const override { return "requests"; }
    bool coverageGated() const override { return false; }

  private:
    void
    clientLoop(size_t c, double seconds, size_t bursts, const Stopwatch &wall,
               RunOutput &out)
    {
        RequestStream stream(seed, c);
        serve::NetClient &client = *clients[c];
        uint64_t next_id = 1;
        std::vector<uint8_t> bytes;
        for (size_t b = 0;
             bursts != SIZE_MAX ? b < bursts : wall.seconds() < seconds;
             ++b) {
            const std::vector<Draw> draws = stream.nextBurst();
            CallOutput burst;
            burst.values.assign(kBurst, 0.0);
            CallTime time;
            time.id = (uint64_t{c} << 32) | b;
            time.start = wall.seconds();
            time.ops = kBurst;
            try {
                Span root("serve_mixed", (uint64_t{c} << 32) | (b + 1));
                const uint64_t first_id = next_id;
                bytes.clear();
                {
                    Span span("wire");
                    for (const Draw &draw : draws) {
                        serve::wire::RequestFrame frame;
                        frame.requestId = next_id++;
                        frame.request.model = kModel;
                        frame.request.region = regions[draw.region];
                        frame.request.params = draw.params;
                        frame.request.cls = draw.hot
                            ? serve::RequestClass::Interactive
                            : serve::RequestClass::Bulk;
                        serve::wire::encodeRequest(frame, bytes);
                    }
                }
                Span span("serve");
                client.sendRaw(bytes.data(), bytes.size());
                serve::wire::ResponseFrame reply;
                for (size_t k = 0; k < kBurst; ++k) {
                    if (!client.recvResponse(reply))
                        throw std::runtime_error("server closed connection");
                    const uint64_t slot = reply.requestId - first_id;
                    if (slot >= kBurst)
                        throw std::runtime_error("unexpected response id");
                    burst.values[slot] = reply.response.cpi;
                    out.failed += !reply.response.ok();
                }
            } catch (const std::exception &e) {
                std::fprintf(stderr, "client %zu: %s\n", c, e.what());
                out.failed += kBurst;
                out.ops += kBurst;
                break;
            }
            time.end = wall.seconds();
            out.times.push_back(time);
            out.calls.push_back(std::move(burst));
            out.ops += kBurst;
        }
    }

    const uint64_t seed;
    std::vector<RegionSpec> regions;
    /** Start times of each client's bursts in the last untraced run. */
    std::vector<double> untracedStarts[kClients];
    std::unique_ptr<serve::PredictionService> service;
    std::unique_ptr<serve::NetServer> server;   ///< serves *service
    std::vector<std::unique_ptr<serve::NetClient>> clients;
};

} // anonymous namespace

std::unique_ptr<Workload>
makeServeMixed(uint64_t seed)
{
    return std::make_unique<ServeMixed>(seed);
}

} // namespace e2e
} // namespace concorde
