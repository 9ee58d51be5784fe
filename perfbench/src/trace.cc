#include "trace.h"

#include <fstream>

namespace perfbench {

namespace {

/** Ids of the spans open on this thread, innermost last. */
thread_local std::vector<int64_t> t_openStack;

} // namespace

Tracer::Tracer() : origin_(Clock::now()) {}

Tracer &
Tracer::instance()
{
    static Tracer tracer;
    return tracer;
}

void
Tracer::setEnabled(bool enabled)
{
    enabled_.store(enabled, std::memory_order_relaxed);
}

double
Tracer::toMicros(Clock::time_point t) const
{
    return microsBetween(origin_, t);
}

int64_t
Tracer::current() const
{
    return t_openStack.empty() ? 0 : t_openStack.back();
}

int64_t
Tracer::open(const std::string &layer, const std::string &name,
             int64_t request)
{
    SpanRecord span;
    span.id = nextId_.fetch_add(1, std::memory_order_relaxed);
    span.parent = current();
    span.request = request;
    span.layer = layer;
    span.name = name;
    span.startUs = toMicros(Clock::now());
    t_openStack.push_back(span.id);
    std::lock_guard<std::mutex> lock(mutex_);
    open_.emplace(span.id, std::move(span));
    return t_openStack.back();
}

void
Tracer::close(int64_t id)
{
    double end = toMicros(Clock::now());
    if (!t_openStack.empty() && t_openStack.back() == id)
        t_openStack.pop_back();
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = open_.find(id);
    if (it == open_.end())
        return;
    it->second.endUs = end;
    spans_.push_back(std::move(it->second));
    open_.erase(it);
}

int64_t
Tracer::add(const std::string &layer, const std::string &name,
            Clock::time_point start, Clock::time_point end,
            int64_t parent, int64_t request)
{
    if (!enabled())
        return 0;
    SpanRecord span;
    span.id = nextId_.fetch_add(1, std::memory_order_relaxed);
    span.parent = parent;
    span.request = request;
    span.layer = layer;
    span.name = name;
    span.startUs = toMicros(start);
    span.endUs = toMicros(end);
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(span);
    return span.id;
}

std::map<std::string, double>
Tracer::selfMillisByLayer() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::map<int64_t, double> child_us;
    for (const SpanRecord &span : spans_) {
        if (span.parent != 0)
            child_us[span.parent] += span.endUs - span.startUs;
    }
    std::map<std::string, double> self_ms;
    for (const SpanRecord &span : spans_) {
        double self = span.endUs - span.startUs;
        auto it = child_us.find(span.id);
        if (it != child_us.end())
            self -= it->second;
        self_ms[span.layer] += self / 1000.0;
    }
    return self_ms;
}

size_t
Tracer::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

void
Tracer::writeJson(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path);
    out << "[\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord &s = spans_[i];
        out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
            << ",\"request\":" << s.request
            << ",\"layer\":" << jsonString(s.layer)
            << ",\"name\":" << jsonString(s.name)
            << ",\"start_us\":" << s.startUs
            << ",\"end_us\":" << s.endUs << "}"
            << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]\n";
}

} // namespace perfbench
