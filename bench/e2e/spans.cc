#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>

#include "e2e.hh"

namespace concorde
{
namespace e2e
{

namespace
{

struct SpanRecord
{
    const char *name;
    int64_t startNs;
    int64_t endNs;
    int32_t parent;     ///< index in the same buffer; -1 = root
    uint64_t request;
};

} // anonymous namespace

/** One thread's spans; owned by the registry so it outlives the thread. */
struct SpanBuffer
{
    uint32_t tid = 0;
    std::vector<SpanRecord> spans;
    std::vector<int32_t> open;      ///< stack of unfinished spans
};

namespace
{

std::atomic<bool> tracingOn{false};
std::mutex registryMtx;
std::vector<std::unique_ptr<SpanBuffer>> registry;
thread_local SpanBuffer *localBuffer = nullptr;

SpanBuffer &
threadBuffer()
{
    if (!localBuffer) {
        auto buffer = std::make_unique<SpanBuffer>();
        std::lock_guard<std::mutex> lock(registryMtx);
        buffer->tid = static_cast<uint32_t>(registry.size() + 1);
        localBuffer = buffer.get();
        registry.push_back(std::move(buffer));
    }
    return *localBuffer;
}

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::chrono::steady_clock::now().time_since_epoch()).count();
}

double
seconds(const SpanRecord &span)
{
    return static_cast<double>(span.endNs - span.startNs) * 1e-9;
}

} // anonymous namespace

Span::Span(const char *name, uint64_t request)
{
    if (!tracingOn.load(std::memory_order_relaxed))
        return;
    buf = &threadBuffer();
    const int32_t parent = buf->open.empty() ? -1 : buf->open.back();
    if (request == 0 && parent >= 0)
        request = buf->spans[parent].request;
    index = buf->spans.size();
    buf->spans.push_back({name, 0, 0, parent, request});
    buf->open.push_back(static_cast<int32_t>(index));
    // Last, so the bookkeeping above is not charged to the span.
    buf->spans[index].startNs = nowNs();
}

Span::~Span()
{
    if (!buf)
        return;
    buf->spans[index].endNs = nowNs();
    buf->open.pop_back();
}

void
setTracing(bool on)
{
    tracingOn.store(on);
}

SpanSummary
summarizeSpans()
{
    SpanSummary summary;
    std::lock_guard<std::mutex> lock(registryMtx);
    for (const auto &buffer : registry) {
        const auto &spans = buffer->spans;
        std::vector<double> childSeconds(spans.size(), 0.0);
        for (const SpanRecord &span : spans) {
            if (span.parent >= 0)
                childSeconds[span.parent] += seconds(span);
        }
        for (size_t i = 0; i < spans.size(); ++i) {
            if (spans[i].parent < 0)
                summary.rootSeconds += seconds(spans[i]);
            else
                summary.selfSeconds[spans[i].name] +=
                    seconds(spans[i]) - childSeconds[i];
        }
    }
    return summary;
}

bool
writeChromeTrace(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::lock_guard<std::mutex> lock(registryMtx);
    int64_t origin = INT64_MAX;
    for (const auto &buffer : registry) {
        for (const SpanRecord &span : buffer->spans)
            origin = std::min(origin, span.startNs);
    }
    std::fprintf(f, "{\"traceEvents\":[\n");
    bool first = true;
    for (const auto &buffer : registry) {
        for (const SpanRecord &span : buffer->spans) {
            std::fprintf(f,
                         "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                         "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":"
                         "{\"request\":%llu,\"parent\":%d}}",
                         first ? "" : ",\n", span.name, buffer->tid,
                         static_cast<double>(span.startNs - origin) * 1e-3,
                         static_cast<double>(span.endNs - span.startNs)
                             * 1e-3,
                         static_cast<unsigned long long>(span.request),
                         span.parent);
            first = false;
        }
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

} // namespace e2e
} // namespace concorde
