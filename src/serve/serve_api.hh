/**
 * @file
 * The typed request/response contract of the serving stack.
 *
 * Both ways into the service -- the in-process submit/predict API and
 * the network front end (net_server.hh) -- speak PredictRequest ->
 * PredictResponse. Routine failures are *statuses*, not exceptions: a
 * wire protocol cannot serialize a std::invalid_argument, and a client
 * under load must be able to distinguish "your model name is wrong"
 * (UNKNOWN_MODEL) from "come back later" (OVERLOADED) from "you waited
 * too long" (TIMEOUT) without parsing strings. Exceptions remain for
 * programming errors only; a handler fault inside the service surfaces
 * as INTERNAL_ERROR with a diagnostic message.
 */

#ifndef CONCORDE_SERVE_SERVE_API_HH
#define CONCORDE_SERVE_SERVE_API_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

#include "trace/program_model.hh"
#include "uarch/params.hh"

namespace concorde
{
namespace serve
{

/**
 * Disposition of one prediction request. Values are part of the wire
 * protocol (serialized as a u8) -- append, never renumber.
 */
enum class ServeStatus : uint8_t
{
    OK = 0,             ///< cpi holds the prediction
    UNKNOWN_MODEL = 1,  ///< no model registered under the requested name
    TIMEOUT = 2,        ///< request expired while queued
    OVERLOADED = 3,     ///< per-model admission control rejected it
    SHUTDOWN = 4,       ///< service is stopping; request not accepted
    INTERNAL_ERROR = 5, ///< handler fault; message has the diagnostic
};

constexpr size_t kNumServeStatuses = 6;

/** Stable lowercase name ("ok", "timeout", ...) for logs and JSON. */
const char *serveStatusName(ServeStatus status);

/**
 * Latency class of a request, used by the batcher's size-OR-age flush
 * policy (BatchingConfig::classes). Interactive requests coalesce into
 * small batches flushed after a short age -- the tail-latency path;
 * Bulk requests fill large batches for GEMM throughput -- sweeps,
 * dataset labeling, pipeline fan-out.
 */
enum class RequestClass : uint8_t
{
    Interactive = 0,
    Bulk = 1,
};

constexpr size_t kNumRequestClasses = 2;

/** Stable lowercase name ("interactive", "bulk"). */
const char *requestClassName(RequestClass cls);

/** One typed prediction request. */
struct PredictRequest
{
    std::string model;          ///< registry name
    RegionSpec region;
    UarchParams params;
    RequestClass cls = RequestClass::Interactive;
    /** Max time the request may wait in the queue (0 = no limit). */
    std::chrono::microseconds timeout{0};
};

/**
 * The typed answer; cpi is meaningful only when status == OK.
 *
 * Uncertainty fields (wire protocol v2): when `calibrated` is true,
 * [lo, hi] is the server's (1-alpha) conformal interval around cpi
 * (alpha is a serve-side knob); an uncalibrated model serves lo == hi
 * == 0 with calibrated == false. `ood` marks a request whose features
 * fell outside the model's calibration distribution; `fallback` marks
 * an answer produced by the cycle-level simulator instead of the ML
 * path -- ground truth, so its interval collapses to [cpi, cpi].
 */
struct PredictResponse
{
    ServeStatus status = ServeStatus::OK;
    double cpi = 0.0;
    /** Conformal interval bounds (meaningful iff calibrated). */
    double lo = 0.0;
    double hi = 0.0;
    /** True when [lo, hi] carries a real conformal interval. */
    bool calibrated = false;
    /** Features outside the calibration distribution. */
    bool ood = false;
    /** Answered by the cycle-level simulator (ground truth). */
    bool fallback = false;
    /** Diagnostic for INTERNAL_ERROR (empty otherwise). */
    std::string message;

    bool ok() const { return status == ServeStatus::OK; }
    /** Interval width relative to the point prediction. */
    double relativeWidth() const
    {
        return cpi > 0.0 ? (hi - lo) / cpi : 0.0;
    }
};

} // namespace serve
} // namespace concorde

#endif // CONCORDE_SERVE_SERVE_API_HH
