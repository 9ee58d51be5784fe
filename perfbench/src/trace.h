/**
 * @file
 * In-memory span recorder for the traced run. The benchmark opens a
 * span around each call it makes into a layer; nothing inside the
 * library is instrumented. Spans nest per thread (the innermost open
 * span is the parent), carry an optional request id, and are written
 * as JSON when the run ends. Each layer's self time is its spans'
 * durations minus their direct children's.
 *
 * Disabled (the default), a Span costs one relaxed load.
 */
#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

struct SpanRecord
{
    int64_t id = 0;
    /** 0 for a root span. */
    int64_t parent = 0;
    /** -1 when the span serves no single request. */
    int64_t request = -1;
    /** The layer the span is charged to, e.g. "serve.batcher". */
    std::string layer;
    /** What the span covers, e.g. "predictAsync". */
    std::string name;
    double startUs = 0.0;
    double endUs = 0.0;
};

class Tracer
{
  public:
    static Tracer &instance();

    void setEnabled(bool enabled);
    bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

    /** Open a span on this thread; returns its id (0 when disabled). */
    int64_t open(const std::string &layer, const std::string &name,
                 int64_t request);
    void close(int64_t id);

    /**
     * Record an already-measured span (a compiler pass trace, a
     * batcher wait seen from outside). Returns its id.
     */
    int64_t add(const std::string &layer, const std::string &name,
                Clock::time_point start, Clock::time_point end,
                int64_t parent, int64_t request);

    /** Per-layer self time in milliseconds over every closed span. */
    std::map<std::string, double> selfMillisByLayer() const;

    size_t size() const;

    /** Write every span as a JSON array. */
    void writeJson(const std::string &path) const;

  private:
    Tracer();

    /** Id of this thread's innermost open span (0 when none). */
    int64_t current() const;

    double toMicros(Clock::time_point t) const;

    std::atomic<bool> enabled_{false};
    Clock::time_point origin_;
    std::atomic<int64_t> nextId_{1};
    mutable std::mutex mutex_;
    std::vector<SpanRecord> spans_;
    /** Spans open on some thread, by id (closed ones move to spans_). */
    std::map<int64_t, SpanRecord> open_;
};

/** RAII span around one call into a layer. */
class Span
{
  public:
    Span(const std::string &layer, const std::string &name,
         int64_t request = -1)
        : id_(Tracer::instance().enabled()
                  ? Tracer::instance().open(layer, name, request)
                  : 0)
    {
    }

    ~Span()
    {
        if (id_ != 0)
            Tracer::instance().close(id_);
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    int64_t id() const { return id_; }

  private:
    int64_t id_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
