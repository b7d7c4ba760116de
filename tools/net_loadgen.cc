/**
 * @file
 * net_loadgen: multi-client load generator for the serve wire protocol.
 * Point it at a listening server (`concorde_cli serve <program>
 * listen=PORT` or any NetServer) with `net_loadgen port=PORT [key=value
 * ...]`; run it with no arguments for every flag and its default. Each
 * client thread opens its own connection and drives pipelined bursts of
 * randomized design points over a region set, split between the
 * interactive and bulk request classes. Reports throughput, end-to-end
 * latency percentiles, and per-status counts.
 *
 * Burst latency semantics: a burst goes out as one write, and each
 * request's latency is measured from burst send to its response frame.
 * burst=1 therefore measures true single-request round trips;
 * larger bursts measure the pipelined serving rate.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cli_args.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/stopwatch.hh"
#include "serve/net_client.hh"
#include "serve/wire.hh"
#include "uarch/params.hh"

using namespace concorde;
using namespace concorde::serve;

namespace
{

struct Options
{
    std::string host = "127.0.0.1";
    uint16_t port = 0;
    std::string model = "default";
    size_t clients = 4;
    size_t requests = 2000;     ///< per client
    size_t burst = 32;
    int program = 0;
    int trace = 0;
    size_t regions = 4;
    uint64_t start = 16;
    uint32_t chunks = 8;
    int bulkPct = 50;           ///< share of requests in the Bulk class
    uint32_t timeoutUs = 0;
};

std::vector<cli::Flag>
flagsOf(Options &opt)
{
    return {
        cli::integer("port", opt.port).atLeast(1).require(),
        cli::text("host", opt.host, "<host>"),
        cli::text("model", opt.model, "<name>"),
        cli::integer("clients", opt.clients).atLeast(1),
        cli::integer("requests", opt.requests).atLeast(1),
        cli::integer("burst", opt.burst).atLeast(1),
        cli::integer("program", opt.program).atLeast(0),
        cli::integer("trace", opt.trace).atLeast(0),
        cli::integer("regions", opt.regions).atLeast(1),
        cli::integer("start", opt.start),
        cli::integer("chunks", opt.chunks).atLeast(1),
        cli::integer("bulk_pct", opt.bulkPct).atLeast(0).atMost(100),
        cli::integer("timeout_us", opt.timeoutUs),
    };
}

struct ClientResult
{
    std::vector<double> latencyUs;
    std::vector<uint64_t> byStatus =
        std::vector<uint64_t>(kNumServeStatuses, 0);
    bool failed = false;
    std::string error;
};

void
runClient(const Options &opt, size_t index,
          const std::vector<RegionSpec> &regions, ClientResult &result)
{
    try {
        NetClient client(opt.host, opt.port);
        Rng rng(9000 + index);
        UarchParams point = UarchParams::armN1();
        result.latencyUs.reserve(opt.requests);
        uint64_t nextId = 1;
        size_t sent = 0;
        std::vector<uint8_t> bytes;
        while (sent < opt.requests) {
            const size_t n = std::min(opt.burst, opt.requests - sent);
            bytes.clear();
            std::unordered_map<uint64_t, bool> expect;
            expect.reserve(n);
            for (size_t i = 0; i < n; ++i) {
                wire::RequestFrame frame;
                frame.requestId = nextId++;
                frame.request.model = opt.model;
                frame.request.region =
                    regions[rng.nextBounded(regions.size())];
                point.set(ParamId::RobSize, 1 + rng.nextBounded(1024));
                point.set(ParamId::CommitWidth, 1 + rng.nextBounded(12));
                point.set(ParamId::LqSize, 1 + rng.nextBounded(256));
                frame.request.params = point;
                frame.request.cls =
                    static_cast<int>(rng.nextBounded(100)) < opt.bulkPct
                        ? RequestClass::Bulk
                        : RequestClass::Interactive;
                frame.request.timeout =
                    std::chrono::microseconds(opt.timeoutUs);
                expect.emplace(frame.requestId, true);
                wire::encodeRequest(frame, bytes);
            }
            Stopwatch burstClock;
            client.sendRaw(bytes.data(), bytes.size());
            wire::ResponseFrame reply;
            for (size_t i = 0; i < n; ++i) {
                if (!client.recvResponse(reply))
                    throw std::runtime_error("server closed connection");
                if (!expect.count(reply.requestId))
                    throw std::runtime_error("unexpected response id");
                expect.erase(reply.requestId);
                result.latencyUs.push_back(burstClock.seconds() * 1e6);
                ++result.byStatus[static_cast<size_t>(
                    reply.response.status)];
            }
            sent += n;
        }
    } catch (const std::exception &e) {
        result.failed = true;
        result.error = e.what();
    }
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!cli::parse(flagsOf(opt),
                    std::vector<std::string>(argv + 1, argv + argc))) {
        Options defaults;
        std::fprintf(stderr, "usage:\n");
        cli::printUsage(stderr, "net_loadgen", flagsOf(defaults), false);
        return 2;
    }

    std::vector<RegionSpec> regions;
    for (size_t r = 0; r < opt.regions; ++r) {
        RegionSpec spec;
        spec.programId = opt.program;
        spec.traceId = opt.trace;
        spec.startChunk = opt.start + 8 * r;
        spec.numChunks = opt.chunks;
        regions.push_back(spec);
    }

    std::printf("net_loadgen: %zu clients x %zu requests (burst %zu, "
                "%d%% bulk) -> %s:%u\n",
                opt.clients, opt.requests, opt.burst, opt.bulkPct,
                opt.host.c_str(), opt.port);

    std::vector<ClientResult> results(opt.clients);
    Stopwatch wall;
    std::vector<std::thread> threads;
    for (size_t c = 0; c < opt.clients; ++c) {
        threads.emplace_back([&, c]() {
            runClient(opt, c, regions, results[c]);
        });
    }
    for (auto &t : threads)
        t.join();
    const double elapsed = wall.seconds();

    std::vector<double> all;
    std::vector<uint64_t> byStatus(kNumServeStatuses, 0);
    bool failed = false;
    for (size_t c = 0; c < results.size(); ++c) {
        if (results[c].failed) {
            failed = true;
            std::fprintf(stderr, "client %zu failed: %s\n", c,
                         results[c].error.c_str());
            continue;
        }
        all.insert(all.end(), results[c].latencyUs.begin(),
                   results[c].latencyUs.end());
        for (size_t s = 0; s < kNumServeStatuses; ++s)
            byStatus[s] += results[c].byStatus[s];
    }
    if (all.empty()) {
        std::fprintf(stderr, "no responses received\n");
        return 1;
    }

    sortSamples(all);
    std::printf("  %zu responses in %.3fs -> %.0f QPS\n", all.size(),
                elapsed, static_cast<double>(all.size()) / elapsed);
    std::printf("  latency p50 %.0fus  p90 %.0fus  p99 %.0fus  "
                "max %.0fus\n",
                percentile(all, 0.50), percentile(all, 0.90),
                percentile(all, 0.99), all.back());
    std::printf("  status:");
    for (size_t s = 0; s < kNumServeStatuses; ++s) {
        if (byStatus[s]) {
            std::printf(" %s=%llu",
                        serveStatusName(static_cast<ServeStatus>(s)),
                        static_cast<unsigned long long>(byStatus[s]));
        }
    }
    std::printf("\n");
    return failed ? 1 : 0;
}
