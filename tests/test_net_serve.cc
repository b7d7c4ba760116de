/**
 * @file
 * Tests for the network serve front end: wire-format round trips,
 * malformed-frame handling (connection-fatal), routine failures as
 * statuses (unknown model, timeout, overload, shutdown), and the
 * bitwise-identity guarantee between socket-path predictions and the
 * in-process predict() API, including under concurrent clients.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "core/concorde.hh"
#include "core/model_artifact.hh"
#include "ml/mlp.hh"
#include "serve/net_client.hh"
#include "serve/net_server.hh"
#include "serve/prediction_service.hh"
#include "serve/wire.hh"

namespace concorde
{
namespace
{

using namespace concorde::serve;

/** Tiny untrained predictor over a shrunken feature space. */
ConcordePredictor
tinyPredictor(uint64_t seed)
{
    FeatureConfig cfg;
    cfg.numPercentiles = 5;
    cfg.robSweep = {4, 64};
    cfg.latencyRobSizes = {4, 64};
    const FeatureLayout layout(cfg);
    Mlp net({layout.dim(), 16, 1}, seed);
    std::vector<float> mean(layout.dim(), 0.0f);
    std::vector<float> stdev(layout.dim(), 1.0f);
    TrainedModel model(std::move(net), std::move(mean), std::move(stdev),
                       {});
    return ConcordePredictor(std::move(model), cfg);
}

BatchingConfig
uniformBatching(size_t max_batch, std::chrono::microseconds max_age)
{
    BatchingConfig cfg;
    for (auto &policy : cfg.classes)
        policy = {max_batch, max_age};
    return cfg;
}

PredictRequest
makeRequest(const std::string &model, const RegionSpec &region,
            const UarchParams &params)
{
    PredictRequest request;
    request.model = model;
    request.region = region;
    request.params = params;
    return request;
}

// ---- wire format ----

TEST(Wire, RequestRoundTripPreservesEveryField)
{
    Rng rng(7);
    wire::RequestFrame frame;
    frame.requestId = 0x1122334455667788ull;
    frame.request.model = "some-model";
    frame.request.region = RegionSpec{3, 2, 12345678901ull, 16};
    frame.request.params = UarchParams::sampleRandom(rng);
    frame.request.cls = RequestClass::Bulk;
    frame.request.timeout = std::chrono::microseconds(2500);

    std::vector<uint8_t> bytes;
    wire::encodeRequest(frame, bytes);
    ASSERT_GE(bytes.size(), wire::kLengthPrefixBytes);

    wire::RequestFrame decoded;
    ASSERT_TRUE(wire::decodeRequest(bytes.data() + wire::kLengthPrefixBytes,
                                    bytes.size() - wire::kLengthPrefixBytes,
                                    decoded));
    EXPECT_EQ(decoded.requestId, frame.requestId);
    EXPECT_EQ(decoded.request.model, frame.request.model);
    EXPECT_EQ(decoded.request.region.programId,
              frame.request.region.programId);
    EXPECT_EQ(decoded.request.region.traceId, frame.request.region.traceId);
    EXPECT_EQ(decoded.request.region.startChunk,
              frame.request.region.startChunk);
    EXPECT_EQ(decoded.request.region.numChunks,
              frame.request.region.numChunks);
    EXPECT_EQ(decoded.request.cls, frame.request.cls);
    EXPECT_EQ(decoded.request.timeout, frame.request.timeout);
    // Full params identity: every axis survives, so cache keys match.
    EXPECT_TRUE(decoded.request.params == frame.request.params);
    EXPECT_EQ(decoded.request.params.hashKey(),
              frame.request.params.hashKey());
}

TEST(Wire, ResponseRoundTripPreservesBits)
{
    wire::ResponseFrame frame;
    frame.requestId = 42;
    frame.response.status = ServeStatus::INTERNAL_ERROR;
    frame.response.cpi = 0.1 + 0.2;    // not exactly representable
    frame.response.message = "model exploded";

    std::vector<uint8_t> bytes;
    wire::encodeResponse(frame, bytes);
    wire::ResponseFrame decoded;
    ASSERT_TRUE(
        wire::decodeResponse(bytes.data() + wire::kLengthPrefixBytes,
                             bytes.size() - wire::kLengthPrefixBytes,
                             decoded));
    EXPECT_EQ(decoded.requestId, 42u);
    EXPECT_EQ(decoded.response.status, ServeStatus::INTERNAL_ERROR);
    // Bitwise, not approximate: the f64 travels as raw IEEE bits.
    EXPECT_EQ(decoded.response.cpi, frame.response.cpi);
    EXPECT_EQ(decoded.response.message, "model exploded");
}

TEST(Wire, DecodeRejectsMalformedPayloads)
{
    wire::RequestFrame frame;
    frame.requestId = 9;
    frame.request = makeRequest("m", RegionSpec{0, 0, 0, 1},
                                UarchParams::armN1());
    std::vector<uint8_t> bytes;
    wire::encodeRequest(frame, bytes);
    const uint8_t *payload = bytes.data() + wire::kLengthPrefixBytes;
    const size_t payloadLen = bytes.size() - wire::kLengthPrefixBytes;

    wire::RequestFrame out;
    // Truncation anywhere in the payload is malformed.
    for (const size_t cut : {size_t(0), size_t(3), size_t(7),
                             payloadLen / 2, payloadLen - 1})
        EXPECT_FALSE(wire::decodeRequest(payload, cut, out)) << cut;
    // Trailing garbage is malformed too.
    std::vector<uint8_t> padded(payload, payload + payloadLen);
    padded.push_back(0);
    EXPECT_FALSE(wire::decodeRequest(padded.data(), padded.size(), out));
    // Corrupt magic.
    std::vector<uint8_t> badMagic(payload, payload + payloadLen);
    badMagic[0] ^= 0xff;
    EXPECT_FALSE(
        wire::decodeRequest(badMagic.data(), badMagic.size(), out));
    // Unknown version.
    std::vector<uint8_t> badVersion(payload, payload + payloadLen);
    badVersion[4] = 99;
    EXPECT_FALSE(
        wire::decodeRequest(badVersion.data(), badVersion.size(), out));
    // A response frame is not a request frame.
    wire::ResponseFrame respFrame;
    respFrame.requestId = 9;
    std::vector<uint8_t> respBytes;
    wire::encodeResponse(respFrame, respBytes);
    EXPECT_FALSE(wire::decodeRequest(
        respBytes.data() + wire::kLengthPrefixBytes,
        respBytes.size() - wire::kLengthPrefixBytes, out));
    // The original payload still decodes (no state leaked across calls).
    EXPECT_TRUE(wire::decodeRequest(payload, payloadLen, out));
}

// ---- server behavior over real sockets ----

/** Service with one registered model plus a listening server. */
struct ServerFixture
{
    explicit ServerFixture(ServeConfig cfg = ServeConfig{})
        : service(std::move(cfg)), server(service)
    {
        service.registry().add("tiny", tinyPredictor(77));
        server.start();
    }
    ~ServerFixture() { server.stop(); }

    PredictionService service;
    NetServer server;
};

ServeConfig
fastServeConfig()
{
    ServeConfig cfg;
    cfg.batching = uniformBatching(16, std::chrono::microseconds(100));
    return cfg;
}

TEST(NetServe, PredictOverSocket)
{
    ServerFixture fx(fastServeConfig());
    NetClient client("127.0.0.1", fx.server.port());
    const PredictResponse response = client.predict(
        makeRequest("tiny", RegionSpec{0, 0, 0, 1}, UarchParams::armN1()));
    EXPECT_EQ(response.status, ServeStatus::OK);
    EXPECT_GT(response.cpi, 0.0);
    const NetServerStats stats = fx.server.stats();
    EXPECT_EQ(stats.connectionsAccepted, 1u);
    EXPECT_EQ(stats.framesIn, 1u);
    EXPECT_EQ(stats.framesOut, 1u);
    EXPECT_EQ(stats.protocolErrors, 0u);
}

TEST(NetServe, UnknownModelIsAStatusNotAClose)
{
    ServerFixture fx(fastServeConfig());
    NetClient client("127.0.0.1", fx.server.port());
    const PredictResponse response = client.predict(
        makeRequest("missing", RegionSpec{0, 0, 0, 1},
                    UarchParams::armN1()));
    EXPECT_EQ(response.status, ServeStatus::UNKNOWN_MODEL);
    // The connection survives a routine failure.
    const PredictResponse ok = client.predict(
        makeRequest("tiny", RegionSpec{0, 0, 0, 1}, UarchParams::armN1()));
    EXPECT_EQ(ok.status, ServeStatus::OK);
}

TEST(NetServe, MalformedFrameClosesConnection)
{
    ServerFixture fx(fastServeConfig());
    NetClient client("127.0.0.1", fx.server.port());
    // Valid length prefix, garbage payload (bad magic).
    const uint8_t junk[] = {8, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef,
                            0,  0, 0, 0};
    client.sendRaw(junk, sizeof(junk));
    wire::ResponseFrame reply;
    EXPECT_FALSE(client.recvResponse(reply));   // server closed
    // Poll briefly: close accounting happens on the loop thread.
    for (int i = 0; i < 100 && fx.server.stats().protocolErrors == 0; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const NetServerStats stats = fx.server.stats();
    EXPECT_EQ(stats.protocolErrors, 1u);
    EXPECT_EQ(stats.framesIn, 0u);
    // The server keeps serving fresh connections afterwards.
    NetClient second("127.0.0.1", fx.server.port());
    EXPECT_EQ(second
                  .predict(makeRequest("tiny", RegionSpec{0, 0, 0, 1},
                                       UarchParams::armN1()))
                  .status,
              ServeStatus::OK);
}

TEST(NetServe, OversizedLengthPrefixClosesConnection)
{
    ServerFixture fx(fastServeConfig());
    NetClient client("127.0.0.1", fx.server.port());
    const uint32_t huge = wire::kMaxPayloadBytes + 1;
    uint8_t prefix[4];
    std::memcpy(prefix, &huge, 4);
    client.sendRaw(prefix, sizeof(prefix));
    wire::ResponseFrame reply;
    EXPECT_FALSE(client.recvResponse(reply));
}

TEST(NetServe, QueueTimeoutSurfacesOverSocket)
{
    ServeConfig cfg;
    // Batching age far beyond the request timeout: the request must
    // expire in the queue.
    cfg.batching = uniformBatching(100, std::chrono::seconds(30));
    ServerFixture fx(std::move(cfg));
    NetClient client("127.0.0.1", fx.server.port());
    PredictRequest request = makeRequest("tiny", RegionSpec{0, 0, 0, 1},
                                         UarchParams::armN1());
    request.timeout = std::chrono::milliseconds(2);
    const PredictResponse response = client.predict(request);
    EXPECT_EQ(response.status, ServeStatus::TIMEOUT);
}

TEST(NetServe, AdmissionControlRejectsBurstOverload)
{
    ServeConfig cfg;
    cfg.batching = uniformBatching(100, std::chrono::milliseconds(100));
    cfg.batching.maxInFlightPerKey = 1;
    ServerFixture fx(std::move(cfg));
    NetClient client("127.0.0.1", fx.server.port());
    // One pipelined burst: the first request takes the only admission
    // slot and parks until the 100ms age flush; the rest must bounce.
    const std::vector<PredictRequest> burst(
        3, makeRequest("tiny", RegionSpec{0, 0, 0, 1},
                       UarchParams::armN1()));
    const std::vector<PredictResponse> responses =
        client.predictBurst(burst);
    size_t ok = 0, overloaded = 0;
    for (const auto &response : responses) {
        if (response.status == ServeStatus::OK)
            ++ok;
        else if (response.status == ServeStatus::OVERLOADED)
            ++overloaded;
    }
    EXPECT_EQ(ok, 1u);
    EXPECT_EQ(overloaded, 2u);
}

TEST(NetServe, ShutdownServiceAnswersWithShutdownStatus)
{
    ServerFixture fx(fastServeConfig());
    NetClient client("127.0.0.1", fx.server.port());
    fx.service.shutdown();
    const PredictResponse response = client.predict(
        makeRequest("tiny", RegionSpec{0, 0, 0, 1}, UarchParams::armN1()));
    EXPECT_EQ(response.status, ServeStatus::SHUTDOWN);
}

TEST(NetServe, SocketPredictionsAreBitwiseIdenticalToInProcess)
{
    ServerFixture fx(fastServeConfig());
    const RegionSpec region{0, 0, 0, 1};

    Rng rng(55);
    std::vector<UarchParams> points;
    std::vector<double> expected;
    for (int i = 0; i < 24; ++i) {
        points.push_back(UarchParams::sampleRandom(rng));
        // In-process reference answer (also primes the cache, which is
        // exactly what the warm path does in production).
        expected.push_back(
            fx.service.predict(makeRequest("tiny", region, points[i])).cpi);
    }

    std::vector<PredictRequest> requests;
    for (const auto &point : points)
        requests.push_back(makeRequest("tiny", region, point));

    // Several concurrent clients replay the same points; every socket
    // answer must match the in-process double bit for bit.
    constexpr int kClients = 3;
    std::atomic<int> mismatches{0};
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&]() {
            try {
                NetClient client("127.0.0.1", fx.server.port());
                const std::vector<PredictResponse> responses =
                    client.predictBurst(requests);
                for (size_t i = 0; i < responses.size(); ++i) {
                    if (responses[i].status != ServeStatus::OK ||
                        responses[i].cpi != expected[i])
                        ++mismatches;
                }
            } catch (const std::exception &) {
                ++failures;
            }
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(mismatches.load(), 0);
    const NetServerStats stats = fx.server.stats();
    EXPECT_EQ(stats.framesIn,
              static_cast<uint64_t>(kClients * points.size()));
    EXPECT_EQ(stats.framesOut, stats.framesIn);
}

TEST(NetServe, InterleavedClassesOverOneConnection)
{
    ServerFixture fx(fastServeConfig());
    NetClient client("127.0.0.1", fx.server.port());
    std::vector<PredictRequest> burst;
    Rng rng(91);
    for (int i = 0; i < 16; ++i) {
        PredictRequest request = makeRequest(
            "tiny", RegionSpec{0, 0, static_cast<uint64_t>(8 * (i % 2)), 1},
            UarchParams::sampleRandom(rng));
        request.cls =
            (i % 2) ? RequestClass::Bulk : RequestClass::Interactive;
        burst.push_back(std::move(request));
    }
    const std::vector<PredictResponse> responses =
        client.predictBurst(burst);
    for (const auto &response : responses)
        EXPECT_EQ(response.status, ServeStatus::OK);
    const ServeStats stats = fx.service.stats();
    EXPECT_EQ(stats.queue.submittedByClass[static_cast<size_t>(
                  RequestClass::Interactive)], 8u);
    EXPECT_EQ(stats.queue.submittedByClass[static_cast<size_t>(
                  RequestClass::Bulk)], 8u);
}

// ---- peer disconnects must never raise SIGPIPE ----

TEST(NetServe, ClientDisconnectMidBurstDoesNotKillServer)
{
    ServerFixture fx(fastServeConfig());
    {
        NetClient client("127.0.0.1", fx.server.port());
        // Pipeline a burst of valid requests and vanish without reading
        // a single response: the server's response flush then writes
        // into a closed socket, which without MSG_NOSIGNAL raises
        // SIGPIPE and kills the whole process (this one, in this test).
        std::vector<uint8_t> bytes;
        for (int i = 0; i < 64; ++i) {
            wire::RequestFrame frame;
            frame.requestId = static_cast<uint64_t>(i);
            frame.request = makeRequest("tiny", RegionSpec{0, 0, 0, 1},
                                        UarchParams::armN1());
            bytes.clear();
            wire::encodeRequest(frame, bytes);
            client.sendRaw(bytes.data(), bytes.size());
        }
    }   // ~NetClient closes the socket with responses still in flight
    // Let the loop thread drain the burst into the dead socket, then
    // prove the server survived and still serves fresh connections.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    NetClient second("127.0.0.1", fx.server.port());
    EXPECT_EQ(second
                  .predict(makeRequest("tiny", RegionSpec{0, 0, 0, 1},
                                       UarchParams::armN1()))
                  .status,
              ServeStatus::OK);
}

TEST(NetServe, ClientWriteAfterServerCloseThrowsInsteadOfSigpipe)
{
    ServerFixture fx(fastServeConfig());
    NetClient client("127.0.0.1", fx.server.port());
    // Provoke a server-side close (malformed frame is connection-fatal).
    const uint8_t junk[] = {8, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef,
                            0,  0, 0, 0};
    client.sendRaw(junk, sizeof(junk));
    wire::ResponseFrame reply;
    EXPECT_FALSE(client.recvResponse(reply));   // server closed on us
    // Keep writing into the closed connection: once the RST lands this
    // must surface as a throwable error (EPIPE), never process death.
    bool threw = false;
    for (int i = 0; i < 1000 && !threw; ++i) {
        try {
            client.sendRaw(junk, sizeof(junk));
        } catch (const std::runtime_error &) {
            threw = true;
        }
    }
    EXPECT_TRUE(threw);
}

// ---- protocol v2: uncertainty fields and version negotiation ----

TEST(Wire, V2ResponseCarriesUncertaintyBitsExactly)
{
    wire::ResponseFrame frame;
    frame.requestId = 7;
    frame.version = 2;
    frame.response.status = ServeStatus::OK;
    frame.response.cpi = 1.0 / 3.0;
    frame.response.lo = 0.1 + 0.2;      // not exactly representable
    frame.response.hi = 2.0 / 3.0;
    frame.response.calibrated = true;
    frame.response.ood = true;
    frame.response.fallback = true;

    std::vector<uint8_t> bytes;
    wire::encodeResponse(frame, bytes);
    wire::ResponseFrame decoded;
    ASSERT_TRUE(
        wire::decodeResponse(bytes.data() + wire::kLengthPrefixBytes,
                             bytes.size() - wire::kLengthPrefixBytes,
                             decoded));
    EXPECT_EQ(decoded.version, 2);
    EXPECT_EQ(decoded.response.cpi, frame.response.cpi);
    // The interval travels as raw IEEE bits, like cpi.
    EXPECT_EQ(decoded.response.lo, frame.response.lo);
    EXPECT_EQ(decoded.response.hi, frame.response.hi);
    EXPECT_TRUE(decoded.response.calibrated);
    EXPECT_TRUE(decoded.response.ood);
    EXPECT_TRUE(decoded.response.fallback);
}

TEST(Wire, V1ResponseDowngradesToPointOnly)
{
    wire::ResponseFrame frame;
    frame.requestId = 8;
    frame.version = 1;      // a v1 client asked; answer at v1
    frame.response.cpi = 2.25;
    frame.response.lo = 2.0;
    frame.response.hi = 2.5;
    frame.response.calibrated = true;
    frame.response.ood = true;

    std::vector<uint8_t> bytes;
    wire::encodeResponse(frame, bytes);
    wire::ResponseFrame decoded;
    ASSERT_TRUE(
        wire::decodeResponse(bytes.data() + wire::kLengthPrefixBytes,
                             bytes.size() - wire::kLengthPrefixBytes,
                             decoded));
    // The v1 body has no flags or interval: the point survives, the
    // uncertainty fields come back at their defaults.
    EXPECT_EQ(decoded.version, 1);
    EXPECT_EQ(decoded.response.cpi, 2.25);
    EXPECT_FALSE(decoded.response.calibrated);
    EXPECT_FALSE(decoded.response.ood);
    EXPECT_FALSE(decoded.response.fallback);
    EXPECT_EQ(decoded.response.lo, 0.0);
    EXPECT_EQ(decoded.response.hi, 0.0);
}

TEST(Wire, ReservedResponseFlagBitsAreMalformed)
{
    wire::ResponseFrame frame;
    frame.requestId = 9;
    frame.response.status = ServeStatus::OK;
    frame.response.cpi = 1.5;
    std::vector<uint8_t> bytes;
    wire::encodeResponse(frame, bytes);
    // Header is 16 bytes (magic u32, version u8, type u8, reserved u16,
    // requestId u64); the v2 flags byte follows the status byte.
    const size_t flags_off = wire::kLengthPrefixBytes + 16 + 1;
    std::vector<uint8_t> tampered = bytes;
    tampered[flags_off] |= 0x80;    // a reserved bit
    wire::ResponseFrame out;
    EXPECT_FALSE(
        wire::decodeResponse(tampered.data() + wire::kLengthPrefixBytes,
                             tampered.size() - wire::kLengthPrefixBytes,
                             out));
    // Untampered still decodes: the offset above hit the right byte.
    EXPECT_TRUE(
        wire::decodeResponse(bytes.data() + wire::kLengthPrefixBytes,
                             bytes.size() - wire::kLengthPrefixBytes,
                             out));
}

TEST(Wire, DecodeRequestExDistinguishesUnsupportedVersion)
{
    wire::RequestFrame frame;
    frame.requestId = 0xfeedULL;
    frame.request = makeRequest("m", RegionSpec{0, 0, 0, 1},
                                UarchParams::armN1());
    std::vector<uint8_t> bytes;
    wire::encodeRequest(frame, bytes);
    const uint8_t *payload = bytes.data() + wire::kLengthPrefixBytes;
    const size_t len = bytes.size() - wire::kLengthPrefixBytes;

    wire::RequestFrame out;
    EXPECT_EQ(wire::decodeRequestEx(payload, len, out),
              wire::DecodeResult::Ok);

    std::vector<uint8_t> future(payload, payload + len);
    future[4] = 99;     // version byte
    EXPECT_EQ(wire::decodeRequestEx(future.data(), future.size(), out),
              wire::DecodeResult::UnsupportedVersion);
    // The id survives, so the server can address its diagnostic reply.
    EXPECT_EQ(out.requestId, 0xfeedULL);

    std::vector<uint8_t> garbage(payload, payload + len);
    garbage[0] ^= 0xff;     // magic
    EXPECT_EQ(wire::decodeRequestEx(garbage.data(), garbage.size(), out),
              wire::DecodeResult::Malformed);
}

TEST(NetServe, UnsupportedVersionGetsDiagnosticReplyThenClose)
{
    ServerFixture fx(fastServeConfig());
    NetClient client("127.0.0.1", fx.server.port());

    wire::RequestFrame frame;
    frame.requestId = 12345;
    frame.request = makeRequest("tiny", RegionSpec{0, 0, 0, 1},
                                UarchParams::armN1());
    std::vector<uint8_t> bytes;
    wire::encodeRequest(frame, bytes);
    bytes[wire::kLengthPrefixBytes + 4] = 99;   // a future version
    client.sendRaw(bytes.data(), bytes.size());

    // Unlike garbage, an unsupported version earns one parseable reply:
    // encoded at the server's minimum version, naming the range.
    wire::ResponseFrame reply;
    ASSERT_TRUE(client.recvResponse(reply));
    EXPECT_EQ(reply.requestId, 12345u);
    EXPECT_EQ(reply.version, wire::kMinVersion);
    EXPECT_EQ(reply.response.status, ServeStatus::INTERNAL_ERROR);
    EXPECT_NE(reply.response.message.find("unsupported protocol version"),
              std::string::npos);
    EXPECT_NE(reply.response.message.find("1..2"), std::string::npos);
    // ... then the connection is closed like any protocol error.
    EXPECT_FALSE(client.recvResponse(reply));

    for (int i = 0; i < 100 && fx.server.stats().protocolErrors == 0; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const NetServerStats stats = fx.server.stats();
    EXPECT_EQ(stats.unsupportedVersionFrames, 1u);
    EXPECT_EQ(stats.protocolErrors, 1u);
}

TEST(NetServe, PerFrameNegotiationServesV1AndV2SideBySide)
{
    ServerFixture fx(fastServeConfig());
    // A calibrated model: v2 clients see the interval, v1 clients the
    // bare point.
    {
        FeatureConfig cfg;
        cfg.numPercentiles = 5;
        cfg.robSweep = {4, 64};
        cfg.latencyRobSizes = {4, 64};
        const FeatureLayout layout(cfg);
        Mlp net({layout.dim(), 16, 1}, 99);
        ModelArtifact artifact;
        artifact.features = cfg;
        artifact.model = TrainedModel(
            std::move(net), std::vector<float>(layout.dim(), 0.0f),
            std::vector<float>(layout.dim(), 1.0f), {});
        artifact.calibration.scores = {0.05, 0.10, 0.20};
        artifact.calibration.featLo.assign(layout.dim(), -1e9f);
        artifact.calibration.featHi.assign(layout.dim(), 1e9f);
        fx.service.registry().addArtifact("cal", artifact);
    }
    const PredictRequest request = makeRequest(
        "cal", RegionSpec{9, 0, 0, 1}, UarchParams::armN1());

    // NetClient speaks the current version: full uncertainty payload.
    NetClient client("127.0.0.1", fx.server.port());
    const PredictResponse v2 = client.predict(request);
    ASSERT_EQ(v2.status, ServeStatus::OK);
    EXPECT_TRUE(v2.calibrated);

    // A hand-rolled v1 frame on the same server, same model: the same
    // cached cpi double, point-only.
    wire::RequestFrame old_frame;
    old_frame.requestId = 77;
    old_frame.version = 1;
    old_frame.request = request;
    std::vector<uint8_t> bytes;
    wire::encodeRequest(old_frame, bytes);
    client.sendRaw(bytes.data(), bytes.size());
    wire::ResponseFrame reply;
    ASSERT_TRUE(client.recvResponse(reply));
    EXPECT_EQ(reply.requestId, 77u);
    EXPECT_EQ(reply.version, 1);
    EXPECT_EQ(reply.response.status, ServeStatus::OK);
    EXPECT_EQ(reply.response.cpi, v2.cpi);      // bitwise: cache hit
    EXPECT_FALSE(reply.response.calibrated);
    EXPECT_EQ(reply.response.lo, 0.0);
    EXPECT_EQ(reply.response.hi, 0.0);
}

} // anonymous namespace
} // namespace concorde
