/**
 * @file
 * Shared plumbing of the perfbench binary: run options, the metric
 * sink every workload reports into, clocks and order statistics.
 */
#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "model/forest.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double
microsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::micro>(to - from).count();
}

/** Command-line options shared by every workload. */
struct RunOptions
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 5.0;
    bool trace = false;
    /** Tree-count scale in (0, 1]; below 1 only for the self-tests. */
    double scale = 1.0;
    /** Flip one prediction before the output checks (self-test). */
    bool corrupt = false;
    /** Where the traced run writes its span file ("" = nowhere). */
    std::string traceFile;
};

/** Metrics of one run plus the operation counts the checks produced. */
struct Report
{
    struct Metric
    {
        double value = 0.0;
        std::string unit;
    };

    std::map<std::string, Metric> metrics;
    /** Free-form sample counts and notes for the run's metadata. */
    std::map<std::string, double> samples;
    int64_t attempted = 0;
    int64_t failed = 0;
    /** Output checks; any false check fails the run. */
    bool correct = true;
    std::vector<std::string> errors;

    void
    set(const std::string &name, double value, const std::string &unit)
    {
        metrics[name] = Metric{value, unit};
    }

    /** Mark the run incorrect; keeps the first 50 messages. */
    void
    fail(const std::string &message)
    {
        correct = false;
        if (errors.size() < 50)
            errors.push_back(message);
    }
};

/** Linear-interpolated quantile (q in [0, 1]); NaN when empty. */
inline double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return std::nan("");
    std::sort(values.begin(), values.end());
    double pos = q * static_cast<double>(values.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, values.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double
median(const std::vector<double> &values)
{
    return quantile(values, 0.5);
}

inline double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return std::nan("");
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

/**
 * Per-window statistics for a run cut into @p window_s windows of
 * (seconds into the phase, value) samples: each window's @p q
 * quantile, then the @p across quantile of those. Contention from
 * neighbours on a shared host comes in stretches of seconds; a low
 * @p across (for latency; a high one for throughput) reads the quieter
 * windows, so a contended stretch moves a few windows, not the result.
 */
inline double
windowedQuantile(const std::vector<std::pair<double, double>> &samples,
                 double window_s, double q, double across)
{
    std::map<int64_t, std::vector<double>> windows;
    for (const auto &[t, value] : samples)
        windows[static_cast<int64_t>(t / window_s)].push_back(value);
    std::vector<double> per_window;
    for (const auto &[index, values] : windows)
        per_window.push_back(quantile(values, q));
    return quantile(per_window, across);
}

/** The window quantile latency percentiles report (see above). */
constexpr double kQuietLatencyWindow = 0.25;
/** The window quantile throughput reports (see above). */
constexpr double kQuietRateWindow = 0.75;

/**
 * Moves the calling thread round robin over the CPUs it may run on,
 * one step per next(), and restores its affinity when destroyed. On a
 * shared host one CPU at a time tends to be slowed by a neighbour; a
 * thread the scheduler leaves on that CPU runs a whole measurement
 * ~1.5x slow. Rotating spreads every measured pair evenly over all
 * CPUs, so the measurement no longer depends on where the thread
 * happened to land.
 */
class CpuRotation
{
  public:
    CpuRotation();
    ~CpuRotation();
    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    void next();

  private:
    std::vector<int> cpus_;
    size_t position_ = 0;
};

/** @p text as a quoted JSON string. */
std::string jsonString(const std::string &text);

/** Peak resident set size of this process, in MiB. */
double peakRssMb();

/** Seeded rows for @p forest's feature space, @p nan_frac cells NaN. */
std::vector<float> makeRows(const std::string &model_name, int64_t rows,
                            uint64_t seed, double nan_frac);

/** The Table I spec of @p name with trees scaled by @p scale. */
treebeard::model::Forest synthesizeModel(const std::string &name, double scale);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
