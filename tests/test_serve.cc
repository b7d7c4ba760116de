/**
 * @file
 * Tests for the prediction-service layer: LRU PredictionCache
 * accounting and eviction, ModelRegistry identity rules, BatchingQueue
 * flush/admission/timeout behavior against a mock handler, and the
 * composed PredictionService matching the scalar predictCpi path
 * through the typed API, plus warm-set persistence and its rejection of
 * forged or truncated files.
 */

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/stopwatch.hh"
#include "core/concorde.hh"
#include "ml/mlp.hh"
#include "serve/prediction_service.hh"

namespace concorde
{
namespace
{

using namespace concorde::serve;

/** One flush policy for both request classes. */
BatchingConfig
uniformBatching(size_t max_batch, std::chrono::microseconds max_age)
{
    BatchingConfig cfg;
    for (auto &policy : cfg.classes)
        policy = {max_batch, max_age};
    return cfg;
}

// ---- PredictionCache ----

TEST(PredictionCache, HitMissAccounting)
{
    PredictionCache cache(4);
    double value = 0.0;
    EXPECT_FALSE(cache.lookup(1, value));
    cache.insert(1, 2.5);
    EXPECT_TRUE(cache.lookup(1, value));
    EXPECT_EQ(value, 2.5);
    const CacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_DOUBLE_EQ(stats.hitRate(), 0.5);
}

TEST(PredictionCache, EvictsLeastRecentlyUsed)
{
    PredictionCache cache(2);
    cache.insert(1, 1.0);
    cache.insert(2, 2.0);
    double value = 0.0;
    // Touch key 1 so key 2 becomes the LRU victim.
    EXPECT_TRUE(cache.lookup(1, value));
    cache.insert(3, 3.0);
    EXPECT_TRUE(cache.lookup(1, value));
    EXPECT_FALSE(cache.lookup(2, value));
    EXPECT_TRUE(cache.lookup(3, value));
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(PredictionCache, InsertRefreshesExistingKey)
{
    PredictionCache cache(2);
    cache.insert(1, 1.0);
    cache.insert(2, 2.0);
    cache.insert(1, 1.5);    // refresh, not a new entry
    cache.insert(3, 3.0);    // evicts 2, not 1
    double value = 0.0;
    EXPECT_TRUE(cache.lookup(1, value));
    EXPECT_EQ(value, 1.5);
    EXPECT_FALSE(cache.lookup(2, value));
}

TEST(PredictionCache, ZeroCapacityDisablesCaching)
{
    PredictionCache cache(0);
    cache.insert(1, 1.0);
    double value = 0.0;
    EXPECT_FALSE(cache.lookup(1, value));
    EXPECT_EQ(cache.stats().entries, 0u);
}

// ---- ModelRegistry ----

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

TEST(ModelRegistry, AddGetRemove)
{
    ModelRegistry registry;
    EXPECT_FALSE(registry.get("m").valid());
    registry.add("m", tinyPredictor(1));
    registry.add("other", tinyPredictor(2));
    EXPECT_TRUE(registry.get("m").valid());
    EXPECT_EQ(registry.size(), 2u);
    EXPECT_EQ(registry.names(),
              (std::vector<std::string>{"m", "other"}));
    EXPECT_TRUE(registry.remove("m"));
    EXPECT_FALSE(registry.remove("m"));
    EXPECT_FALSE(registry.get("m").valid());
}

TEST(ModelRegistry, ReplacementBumpsIdAndKeepsOldAlive)
{
    ModelRegistry registry;
    const ModelHandle first = registry.add("m", tinyPredictor(3));
    const ModelHandle second = registry.add("m", tinyPredictor(4));
    EXPECT_NE(first.id, second.id);
    // The first handle's predictor survives replacement (shared_ptr).
    EXPECT_TRUE(first.predictor != nullptr);
    EXPECT_NE(first.predictor.get(), second.predictor.get());
    // Cache keys must differ across registrations of the same name.
    const RegionSpec region{0, 0, 0, 1};
    const UarchParams n1 = UarchParams::armN1();
    EXPECT_NE(predictionKey(first.id, region, n1),
              predictionKey(second.id, region, n1));
}

// ---- BatchingQueue (mock handler) ----

/** Handler that answers each request with its ROB size. */
BatchingQueue::BatchFn
robSizeHandler(std::atomic<int> *batches = nullptr)
{
    return [batches](const std::vector<PredictionRequest> &batch) {
        if (batches)
            ++*batches;
        std::vector<PredictResponse> out(batch.size());
        for (size_t i = 0; i < batch.size(); ++i)
            out[i].cpi = static_cast<double>(batch[i].params.robSize);
        return out;
    };
}

PredictionRequest
requestWithRob(int rob)
{
    PredictionRequest request;
    request.params.robSize = rob;
    request.key = request.params.hashKey();
    return request;
}

TEST(BatchingQueue, FlushOnDeadlineWithSingleRequest)
{
    // maxBatch never reached: the flush must come from the age trigger.
    BatchingQueue queue(
        uniformBatching(100, std::chrono::microseconds(2000)),
        robSizeHandler());
    auto future = queue.submit(requestWithRob(42));
    const PredictResponse response = future.get();
    EXPECT_EQ(response.status, ServeStatus::OK);
    EXPECT_EQ(response.cpi, 42.0);
    const QueueStats stats = queue.stats();
    EXPECT_EQ(stats.submitted, 1u);
    EXPECT_EQ(stats.batches, 1u);
    EXPECT_EQ(stats.flushOnDeadline, 1u);
    ASSERT_GT(stats.batchSizeCounts.size(), 1u);
    EXPECT_EQ(stats.batchSizeCounts[1], 1u);
}

TEST(BatchingQueue, FlushOnMaxBatchBeforeDeadline)
{
    // 30s age: completion within the test proves the size trigger.
    BatchingQueue queue(uniformBatching(8, std::chrono::seconds(30)),
                        robSizeHandler());
    std::vector<std::future<PredictResponse>> futures;
    Stopwatch t;
    for (int i = 0; i < 8; ++i)
        futures.push_back(queue.submit(requestWithRob(i + 1)));
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(futures[i].get().cpi, i + 1.0);
    EXPECT_LT(t.seconds(), 10.0);
    EXPECT_GE(queue.stats().flushOnSize, 1u);
}

TEST(BatchingQueue, PerClassPoliciesFlushIndependently)
{
    BatchingConfig cfg;
    cfg.policy(RequestClass::Interactive) = {
        100, std::chrono::microseconds(500)};
    cfg.policy(RequestClass::Bulk) = {100, std::chrono::seconds(30)};
    BatchingQueue queue(cfg, robSizeHandler());

    PredictionRequest bulk = requestWithRob(7);
    bulk.cls = RequestClass::Bulk;
    auto bulkFuture = queue.submit(std::move(bulk));

    PredictionRequest interactive = requestWithRob(3);
    interactive.cls = RequestClass::Interactive;
    auto interactiveFuture = queue.submit(std::move(interactive));

    // The interactive request flushes on its short age while the bulk
    // request keeps waiting on its 30s policy.
    EXPECT_EQ(interactiveFuture.get().cpi, 3.0);
    EXPECT_EQ(bulkFuture.wait_for(std::chrono::milliseconds(0)),
              std::future_status::timeout);
    queue.shutdown();   // flushes the bulk class
    EXPECT_EQ(bulkFuture.get().cpi, 7.0);
    const QueueStats stats = queue.stats();
    EXPECT_GE(stats.flushOnDeadline, 1u);
    EXPECT_GE(stats.flushOnShutdown, 1u);
    EXPECT_EQ(stats.submittedByClass[static_cast<size_t>(
                  RequestClass::Interactive)], 1u);
    EXPECT_EQ(stats.submittedByClass[static_cast<size_t>(
                  RequestClass::Bulk)], 1u);
}

TEST(BatchingQueue, TimeoutExpiresQueuedRequest)
{
    // Age far beyond the per-request timeout: the request must expire,
    // not be served.
    BatchingQueue queue(uniformBatching(100, std::chrono::seconds(30)),
                        robSizeHandler());
    PredictionRequest request = requestWithRob(5);
    request.timeout = std::chrono::milliseconds(2);
    Stopwatch t;
    const PredictResponse response = queue.submit(std::move(request)).get();
    EXPECT_EQ(response.status, ServeStatus::TIMEOUT);
    EXPECT_LT(t.seconds(), 10.0);
    EXPECT_EQ(queue.stats().timeouts, 1u);
    EXPECT_EQ(queue.stats().batches, 0u);
}

TEST(BatchingQueue, AdmissionControlRejectsExcessInFlight)
{
    BatchingConfig cfg = uniformBatching(100, std::chrono::seconds(30));
    cfg.maxInFlightPerKey = 2;
    BatchingQueue queue(cfg, robSizeHandler());
    // All requests share admission key 0 (default model id). The first
    // two park in the queue (30s age); the third must bounce.
    auto a = queue.submit(requestWithRob(1));
    auto b = queue.submit(requestWithRob(2));
    const PredictResponse rejected = queue.submit(requestWithRob(3)).get();
    EXPECT_EQ(rejected.status, ServeStatus::OVERLOADED);
    EXPECT_EQ(queue.stats().rejectedOverload, 1u);
    queue.shutdown();
    // The admitted requests complete, freeing their admission slots.
    EXPECT_EQ(a.get().cpi, 1.0);
    EXPECT_EQ(b.get().cpi, 2.0);
    EXPECT_TRUE(queue.idle());
}

TEST(BatchingQueue, ConcurrentSubmittersExceedPoolSize)
{
    ThreadPool pool(1);
    std::atomic<int> batches{0};
    BatchingQueue queue(
        uniformBatching(16, std::chrono::microseconds(200)),
        robSizeHandler(&batches), &pool);
    constexpr int kSubmitters = 6;      // > pool size of 1
    constexpr int kPerThread = 80;
    std::vector<std::thread> submitters;
    std::atomic<int> failures{0};
    for (int t = 0; t < kSubmitters; ++t) {
        submitters.emplace_back([&, t]() {
            std::vector<std::future<PredictResponse>> futures;
            std::vector<int> expect;
            for (int i = 0; i < kPerThread; ++i) {
                const int rob = 1 + t * kPerThread + i;
                expect.push_back(rob);
                futures.push_back(queue.submit(requestWithRob(rob)));
            }
            for (int i = 0; i < kPerThread; ++i) {
                if (futures[i].get().cpi != expect[i])
                    ++failures;
            }
        });
    }
    for (auto &t : submitters)
        t.join();
    EXPECT_EQ(failures.load(), 0);
    const QueueStats stats = queue.stats();
    EXPECT_EQ(stats.submitted,
              static_cast<uint64_t>(kSubmitters * kPerThread));
    EXPECT_GE(batches.load(), 1);
    // Every submitted request was dispatched in exactly one batch.
    uint64_t dispatched = 0;
    for (size_t s = 0; s < stats.batchSizeCounts.size(); ++s)
        dispatched += s * stats.batchSizeCounts[s];
    EXPECT_EQ(dispatched, stats.submitted);
}

TEST(BatchingQueue, CallbackCompletionForm)
{
    BatchingQueue queue(
        uniformBatching(4, std::chrono::microseconds(100)),
        robSizeHandler());
    std::promise<PredictResponse> done;
    queue.submit(requestWithRob(11), [&done](PredictResponse response) {
        done.set_value(std::move(response));
    });
    const PredictResponse response = done.get_future().get();
    EXPECT_EQ(response.status, ServeStatus::OK);
    EXPECT_EQ(response.cpi, 11.0);
}

TEST(BatchingQueue, HandlerExceptionBecomesInternalError)
{
    // A 30 s max-age: the 4th submit dispatches the batch by size, so a
    // stall between submits cannot flush a partial batch.
    BatchingQueue queue(
        uniformBatching(4, std::chrono::seconds(30)),
        [](const std::vector<PredictionRequest> &)
            -> std::vector<PredictResponse> {
            throw std::runtime_error("model exploded");
        });
    std::vector<std::future<PredictResponse>> futures;
    for (int i = 0; i < 4; ++i)
        futures.push_back(queue.submit(requestWithRob(i + 1)));
    for (auto &f : futures) {
        const PredictResponse response = f.get();
        EXPECT_EQ(response.status, ServeStatus::INTERNAL_ERROR);
        EXPECT_EQ(response.message, "model exploded");
    }
    // The queue survives a failing batch.
    EXPECT_EQ(queue.stats().batches, 1u);
}

TEST(BatchingQueue, WrongResultCountIsAnError)
{
    // Closed on size only: with a short max age, a loaded host could
    // flush the first request alone before the second arrives.
    BatchingQueue queue(
        uniformBatching(2, std::chrono::seconds(30)),
        [](const std::vector<PredictionRequest> &) {
            return std::vector<PredictResponse>(1);     // short by one
        });
    auto a = queue.submit(requestWithRob(1));
    auto b = queue.submit(requestWithRob(2));
    EXPECT_EQ(a.get().status, ServeStatus::INTERNAL_ERROR);
    EXPECT_EQ(b.get().status, ServeStatus::INTERNAL_ERROR);
}

TEST(BatchingQueue, ShutdownFlushesPendingAndRejectsNewWork)
{
    BatchingQueue queue(uniformBatching(100, std::chrono::seconds(30)),
                        robSizeHandler());
    std::vector<std::future<PredictResponse>> futures;
    for (int i = 0; i < 3; ++i)
        futures.push_back(queue.submit(requestWithRob(i + 1)));
    queue.shutdown();
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(futures[i].get().cpi, i + 1.0);
    EXPECT_GE(queue.stats().flushOnShutdown, 1u);
    const PredictResponse rejected = queue.submit(requestWithRob(9)).get();
    EXPECT_EQ(rejected.status, ServeStatus::SHUTDOWN);
    EXPECT_EQ(queue.stats().rejectedShutdown, 1u);
}

TEST(BatchingQueue, RejectsBrokenConfig)
{
    BatchingConfig cfg;
    cfg.policy(RequestClass::Interactive).maxBatch = 0;
    EXPECT_THROW(BatchingQueue(cfg, robSizeHandler()),
                 std::invalid_argument);
    cfg.policy(RequestClass::Interactive).maxBatch = 1;
    EXPECT_THROW(BatchingQueue(cfg, nullptr), std::invalid_argument);
}

// ---- PredictionService end to end ----

TEST(PredictionService, MatchesScalarPredictorAndCountsCacheTraffic)
{
    ServeConfig cfg;
    cfg.batching = uniformBatching(16, std::chrono::microseconds(200));
    cfg.cacheCapacity = 1024;
    cfg.poolThreads = 2;
    PredictionService service(cfg);
    service.registry().add("tiny", tinyPredictor(11));

    // An independent predictor with identical weights for the scalar
    // reference path.
    ConcordePredictor reference = tinyPredictor(11);
    const RegionSpec region{0, 0, 0, 1};
    FeatureProvider provider(region, reference.featureConfig());

    Rng rng(12);
    std::vector<UarchParams> points;
    for (int i = 0; i < 40; ++i)
        points.push_back(UarchParams::sampleRandom(rng));

    std::vector<std::future<PredictResponse>> futures;
    for (const auto &point : points)
        futures.push_back(service.submit({"tiny", region, point}));
    for (size_t i = 0; i < points.size(); ++i) {
        const double scalar = reference.predictCpi(provider, points[i]);
        EXPECT_NEAR(futures[i].get().cpi, scalar,
                    1e-6 * std::max(1.0, std::abs(scalar))) << "point " << i;
    }

    const uint64_t misses_before = service.stats().cache.misses;
    EXPECT_GE(misses_before, points.size());

    // Replay: every request must now be a cache hit, with the exact
    // same double as the first pass.
    for (size_t i = 0; i < points.size(); ++i) {
        const double replay =
            service.predict({"tiny", region, points[i]}).cpi;
        const double scalar = reference.predictCpi(provider, points[i]);
        EXPECT_NEAR(replay, scalar,
                    1e-6 * std::max(1.0, std::abs(scalar)));
    }
    const ServeStats stats = service.stats();
    EXPECT_GE(stats.cache.hits, static_cast<uint64_t>(points.size()));
    EXPECT_EQ(stats.cache.misses, misses_before);
    EXPECT_EQ(stats.queue.submitted,
              static_cast<uint64_t>(2 * points.size()));
    // Every completion was recorded: latency reservoir and per-status
    // counters cover both passes.
    EXPECT_EQ(stats.latency.count,
              static_cast<uint64_t>(2 * points.size()));
    EXPECT_EQ(stats.byStatus[static_cast<size_t>(ServeStatus::OK)],
              static_cast<uint64_t>(2 * points.size()));
    EXPECT_GT(stats.latency.p99Us, 0.0);
    EXPECT_GE(stats.latency.p99Us, stats.latency.p50Us);
}

TEST(PredictionService, CacheHitIsBitwiseIdentical)
{
    ServeConfig cfg;
    cfg.batching = uniformBatching(4, std::chrono::microseconds(100));
    PredictionService service(cfg);
    service.registry().add("tiny", tinyPredictor(21));
    const RegionSpec region{1, 0, 0, 1};
    const UarchParams n1 = UarchParams::armN1();
    const double first = service.predict({"tiny", region, n1}).cpi;
    const double second = service.predict({"tiny", region, n1}).cpi;
    EXPECT_EQ(first, second);
    EXPECT_GE(service.stats().cache.hits, 1u);
}

TEST(PredictionService, TypedApiReturnsStatusInsteadOfThrowing)
{
    PredictionService service;
    PredictRequest request;
    request.model = "missing";
    request.region = RegionSpec{0, 0, 0, 1};
    request.params = UarchParams::armN1();
    const PredictResponse response = service.predict(request);
    EXPECT_EQ(response.status, ServeStatus::UNKNOWN_MODEL);
    EXPECT_FALSE(response.ok());
    EXPECT_NE(response.message.find("missing"), std::string::npos);
    EXPECT_EQ(service.stats().byStatus[static_cast<size_t>(
                  ServeStatus::UNKNOWN_MODEL)], 1u);
}

TEST(PredictionService, TypedTimeoutSurfacesAsStatus)
{
    ServeConfig cfg;
    // Queue age far beyond the request timeout so the request expires.
    cfg.batching = uniformBatching(100, std::chrono::seconds(30));
    PredictionService service(cfg);
    service.registry().add("tiny", tinyPredictor(22));
    PredictRequest request;
    request.model = "tiny";
    request.region = RegionSpec{0, 0, 0, 1};
    request.params = UarchParams::armN1();
    request.timeout = std::chrono::milliseconds(2);
    const PredictResponse response = service.predict(request);
    EXPECT_EQ(response.status, ServeStatus::TIMEOUT);
    EXPECT_EQ(service.stats().queue.timeouts, 1u);
}

TEST(PredictionService, ClearProvidersRefusesWhileBusy)
{
    ServeConfig cfg;
    // Parked requests (30s age) keep the service busy deterministically.
    cfg.batching = uniformBatching(100, std::chrono::seconds(30));
    PredictionService service(cfg);
    service.registry().add("tiny", tinyPredictor(23));
    PredictRequest request;
    request.model = "tiny";
    request.region = RegionSpec{0, 0, 0, 1};
    request.params = UarchParams::armN1();
    auto pending = service.submit(request);
    EXPECT_EQ(service.clearProviders(), ServeStatus::OVERLOADED);
    service.shutdown();
    EXPECT_TRUE(pending.get().ok());
    EXPECT_EQ(service.clearProviders(), ServeStatus::OK);
}

TEST(PredictionService, WarmRegionsPrimesCacheAndSavesWarmSet)
{
    ServeConfig cfg;
    cfg.batching = uniformBatching(16, std::chrono::microseconds(100));
    PredictionService service(cfg);
    service.registry().add("tiny", tinyPredictor(24));

    const std::vector<RegionSpec> regions{{2, 0, 0, 1}, {2, 0, 8, 1}};
    const std::vector<UarchParams> points{UarchParams::armN1()};
    ASSERT_EQ(service.warmRegions("tiny", regions, points),
              ServeStatus::OK);
    EXPECT_EQ(service.warmRegions("missing", regions),
              ServeStatus::UNKNOWN_MODEL);

    // The warmed (region, point) pairs answer from the cache.
    const uint64_t misses = service.stats().cache.misses;
    for (const auto &region : regions)
        (void)service.predict({"tiny", region, points[0]});
    EXPECT_EQ(service.stats().cache.misses, misses);

    // Warm-set persistence round-trips into a fresh service.
    const std::string path = "test_warm_set.bin";
    EXPECT_EQ(service.saveWarmSet(path), regions.size());
    {
        PredictionService fresh(cfg);
        fresh.registry().add("tiny", tinyPredictor(24));
        EXPECT_EQ(fresh.warmFromFile("tiny", path, points),
                  ServeStatus::OK);
        const uint64_t freshMisses = fresh.stats().cache.misses;
        for (const auto &region : regions)
            (void)fresh.predict({"tiny", region, points[0]});
        EXPECT_EQ(fresh.stats().cache.misses, freshMisses);
    }
    std::remove(path.c_str());
}

TEST(PredictionService, WarmFromFileRejectsForgedCountAndTruncation)
{
    PredictionService service;
    service.registry().add("tiny", tinyPredictor(25));
    ASSERT_EQ(service.warmRegions("tiny", {{2, 0, 0, 1}, {2, 0, 8, 1}}),
              ServeStatus::OK);
    const std::string path = "test_warm_set_hostile.bin";
    ASSERT_EQ(service.saveWarmSet(path), 2u);

    // A valid header whose record count claims far more records than
    // the file holds: rejected before anything is reserved.
    {
        std::FILE *f = std::fopen(path.c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        const uint64_t forged = uint64_t{1} << 60;
        ASSERT_EQ(std::fseek(f, 6, SEEK_SET), 0);   // after magic+version
        ASSERT_EQ(std::fwrite(&forged, sizeof(forged), 1, f), 1u);
        std::fclose(f);
    }
    EXPECT_THROW(service.warmFromFile("tiny", path), std::runtime_error);

    // A truncated file: mid-record, and shorter than the header.
    ASSERT_EQ(service.saveWarmSet(path), 2u);
    for (const off_t size : {off_t{14 + 20 + 7}, off_t{9}}) {
        ASSERT_EQ(::truncate(path.c_str(), size), 0);
        EXPECT_THROW(service.warmFromFile("tiny", path), std::runtime_error)
            << "size " << size;
    }
    std::remove(path.c_str());
    EXPECT_THROW(service.warmFromFile("tiny", path), std::runtime_error)
        << "missing file";
}

TEST(PredictionService, ServesMultipleModelsAndRegions)
{
    ServeConfig cfg;
    cfg.batching = uniformBatching(8, std::chrono::microseconds(100));
    PredictionService service(cfg);
    service.registry().add("a", tinyPredictor(31));
    service.registry().add("b", tinyPredictor(32));
    const UarchParams n1 = UarchParams::armN1();

    ConcordePredictor ref_a = tinyPredictor(31);
    ConcordePredictor ref_b = tinyPredictor(32);

    std::vector<std::future<PredictResponse>> futures;
    std::vector<double> expected;
    for (int r = 0; r < 3; ++r) {
        const RegionSpec region{r, 0, 0, 1};
        futures.push_back(service.submit({"a", region, n1}));
        expected.push_back(ref_a.predictCpi(region, n1));
        futures.push_back(service.submit({"b", region, n1}));
        expected.push_back(ref_b.predictCpi(region, n1));
    }
    for (size_t i = 0; i < futures.size(); ++i) {
        EXPECT_NEAR(futures[i].get().cpi, expected[i],
                    1e-6 * std::max(1.0, std::abs(expected[i])));
    }
}

TEST(PredictionKey, DistinguishesRequests)
{
    const RegionSpec region{0, 0, 0, 1};
    const RegionSpec other{0, 0, 8, 1};
    const UarchParams n1 = UarchParams::armN1();
    UarchParams changed = n1;
    changed.robSize += 1;
    EXPECT_EQ(predictionKey(1, region, n1), predictionKey(1, region, n1));
    EXPECT_NE(predictionKey(1, region, n1), predictionKey(2, region, n1));
    EXPECT_NE(predictionKey(1, region, n1), predictionKey(1, other, n1));
    EXPECT_NE(predictionKey(1, region, n1),
              predictionKey(1, region, changed));
}

TEST(UarchParamsHashKey, NormalizesIrrelevantMispredictPct)
{
    UarchParams a = UarchParams::armN1();
    UarchParams b = a;
    ASSERT_EQ(a.branch.type, BranchConfig::Type::Tage);
    b.branch.simpleMispredictPct = 50;  // unused under TAGE
    EXPECT_EQ(a.hashKey(), b.hashKey());
    b.set(ParamId::BranchPredictor, 0);  // simple predictor: now it counts
    UarchParams c = b;
    c.branch.simpleMispredictPct = 10;
    EXPECT_NE(b.hashKey(), c.hashKey());
}

} // anonymous namespace
} // namespace concorde
