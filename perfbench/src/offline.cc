/**
 * @file
 * The offline workloads: the paper's own experiment. All eight Table I
 * models are compiled at fixed schedule points, then one thread calls
 * Session::predict on fixed 1024-row NaN-free batches, round robin
 * over the (model, point) pairs. offline-kernel runs the kernel
 * backend's points, offline-jit the source-JIT point, so a JIT gain
 * cannot hide a kernel loss in one throughput figure.
 *
 * The measuring thread moves to the next CPU every round (see
 * CpuRotation), and a pair's cost is its fastest call. On a shared host
 * the same call runs in a quiet and a ~1.5x slower contended state,
 * and the share of time spent in each, not the code, moves a median
 * from run to run; the fastest call tracks the quiet state.
 */
#include <algorithm>
#include <atomic>
#include <malloc.h>
#include <exception>
#include <memory>
#include <thread>

#include "checks.h"
#include "data/synthetic.h"
#include "layers.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

using namespace treebeard;

namespace {

constexpr int64_t kBatchRows = 1024;
/** Set-ups per run; setup_s reports their median. */
constexpr int kSetupReps = 3;
/** Threads compiling the suite in parallel during set-up. */
constexpr int kSetupThreads = 4;


/** One schedule point of the sweep. */
struct Point
{
    std::string name;
    hir::Schedule schedule;
    Backend backend = Backend::kKernel;
    /** True for the quantized point (leaf-range tolerance). */
    bool quantized = false;
};

/** Tile 8, hybrid tiling, sparse, interleave 8, NaN-free (Section V). */
hir::Schedule
paperSchedule()
{
    hir::Schedule s;
    s.loopOrder = hir::LoopOrder::kOneTreeAtATime;
    s.tileSize = 8;
    s.tiling = hir::TilingAlgorithm::kHybrid;
    s.layout = hir::MemoryLayout::kSparse;
    s.padAndUnrollWalks = true;
    s.peelWalks = true;
    s.interleaveFactor = 8;
    s.numThreads = 1;
    s.assumeNoMissingValues = true;
    return s;
}

/** int16 packed records walked row-parallel. */
hir::Schedule
packedI16Schedule()
{
    hir::Schedule s;
    s.tileSize = 8;
    s.layout = hir::MemoryLayout::kPacked;
    s.packedPrecision = hir::PackedPrecision::kI16;
    s.traversal = hir::TraversalKind::kRowParallel;
    s.numThreads = 1;
    s.assumeNoMissingValues = true;
    return s;
}

Point
kernelF32()
{
    return {"kernel_f32", paperSchedule(), Backend::kKernel, false};
}

std::vector<Point>
pointsFor(bool jit)
{
    if (jit)
        return {{"jit_f32", paperSchedule(), Backend::kSourceJit, false}};
    return {kernelF32(),
            {"kernel_i16", packedI16Schedule(), Backend::kKernel, true}};
}

struct Model
{
    std::string name;
    model::Forest forest;
    std::vector<float> rows;
    std::vector<float> reference;
};

struct Pair
{
    const Model *model = nullptr;
    const Point *point = nullptr;
    std::unique_ptr<Session> session;
    /** The checked output every timed call must reproduce. */
    std::vector<float> expected;
    std::vector<double> callSeconds;
};

/**
 * Compile @p point for @p model. @p rep makes each set-up repetition a
 * distinct JIT cache key, so every repetition pays a real system
 * compiler run instead of hitting the in-process memo.
 */
std::unique_ptr<Session>
compilePoint(const Model &model, const Point &point, int rep)
{
    CompilerOptions options;
    options.backend = point.backend;
    options.jit.extraFlags = "-DPERFBENCH_SETUP_REP=" + std::to_string(rep);
    Span span("treebeard", "compile " + model.name + "." + point.name);
    Clock::time_point start = Clock::now();
    auto session = std::make_unique<Session>(
        compile(model.forest, point.schedule, options));
    traceCompile(session->artifacts(), start, span.id());
    return session;
}

/** A pair's cost in seconds (see above). */
double
callSeconds(const Pair &pair)
{
    return *std::min_element(pair.callSeconds.begin(),
                             pair.callSeconds.end());
}

/**
 * Compile every (model, point) pair on kSetupThreads threads. Ledger
 * entries are added in pair order once all compiles are done; the
 * first failed compile is rethrown after the join.
 */
std::vector<Pair>
compileAll(const std::vector<Model> &models,
           const std::vector<Point> &points, int rep, CompileLedger *ledger)
{
    std::vector<Pair> pairs;
    for (const Model &model : models) {
        for (const Point &point : points) {
            Pair pair;
            pair.model = &model;
            pair.point = &point;
            pairs.push_back(std::move(pair));
        }
    }
    std::vector<double> seconds(pairs.size());
    std::vector<std::exception_ptr> errors(pairs.size());
    std::atomic<size_t> next{0};
    auto worker = [&] {
        for (size_t i = next++; i < pairs.size(); i = next++) {
            Clock::time_point start = Clock::now();
            try {
                pairs[i].session =
                    compilePoint(*pairs[i].model, *pairs[i].point, rep);
            } catch (...) {
                errors[i] = std::current_exception();
            }
            seconds[i] = secondsSince(start);
        }
    };
    std::vector<std::thread> threads;
    for (int t = 0; t < kSetupThreads; ++t)
        threads.emplace_back(worker);
    for (std::thread &thread : threads)
        thread.join();
    for (const std::exception_ptr &error : errors) {
        if (error)
            std::rethrow_exception(error);
    }
    for (size_t i = 0; ledger != nullptr && i < pairs.size(); ++i)
        ledger->add(pairs[i].session->artifacts(), seconds[i]);
    return pairs;
}

/** Time one predict call of @p pair; checks its output. */
void
timedCall(Pair &pair, std::vector<float> &out, int64_t request,
          Report &report)
{
    Clock::time_point start = Clock::now();
    {
        Span span("runtime", pair.model->name + "." + pair.point->name,
                  request);
        pair.session->predict(pair.model->rows.data(), kBatchRows,
                              out.data());
    }
    pair.callSeconds.push_back(secondsSince(start));
    report.attempted += 1;
    if (out != pair.expected) {
        report.failed += 1;
        report.fail(pair.model->name + "." + pair.point->name +
                    ": a timed call's output changed");
    }
}

/** Round robin over @p pairs for @p seconds; returns rounds run. */
int64_t
measure(std::vector<Pair> &pairs, double seconds, Report &report)
{
    std::vector<float> out(kBatchRows);
    CpuRotation cpus;
    Clock::time_point start = Clock::now();
    int64_t rounds = 0;
    int64_t request = 0;
    while (rounds == 0 || secondsSince(start) < seconds) {
        cpus.next();
        for (Pair &pair : pairs)
            timedCall(pair, out, request++, report);
        ++rounds;
    }
    return rounds;
}

/** Geometric-mean rows/s over every pair's cost. */
double
rowsPerSecond(const std::vector<Pair> &pairs)
{
    std::vector<double> rates;
    for (const Pair &pair : pairs)
        rates.push_back(kBatchRows / callSeconds(pair));
    return geomean(rates);
}

/**
 * Per-row cost of int16 row quantization: predict() quantizes the
 * batch on every call, predictDataset() reuses the image quantized at
 * bind time. Geometric mean over the models that quantize at all.
 */
double
quantizeNsPerRow(const std::vector<Pair> &pairs)
{
    std::vector<double> per_model;
    std::vector<float> out(kBatchRows);
    for (const Pair &pair : pairs) {
        if (!pair.point->quantized)
            continue;
        const Session &session = *pair.session;
        Dataset dataset =
            session.bindDataset(pair.model->rows.data(), kBatchRows);
        if (!dataset.hasQuantizedImage())
            continue;
        std::vector<double> with_quantize;
        std::vector<double> resident;
        Clock::time_point start = Clock::now();
        while (with_quantize.size() < 5 || secondsSince(start) < 0.15) {
            Clock::time_point t0 = Clock::now();
            session.predict(pair.model->rows.data(), kBatchRows,
                            out.data());
            with_quantize.push_back(secondsSince(t0));
            Clock::time_point t1 = Clock::now();
            session.predictDataset(dataset, out.data());
            resident.push_back(secondsSince(t1));
        }
        double diff_ns = (*std::min_element(with_quantize.begin(),
                                            with_quantize.end()) -
                          *std::min_element(resident.begin(),
                                            resident.end())) *
                         1e9 / kBatchRows;
        // A sub-noise difference still has to enter a geometric mean.
        per_model.push_back(std::max(diff_ns, 0.01));
    }
    return per_model.empty() ? 0.0 : geomean(per_model);
}

} // namespace

void
runOffline(const RunOptions &options, bool jit, Report &report)
{
    std::vector<Model> models;
    for (const data::SyntheticModelSpec &spec :
         data::standardBenchmarkSuite()) {
        Model model;
        model.name = spec.name;
        model.forest = synthesizeModel(spec.name, options.scale);
        model.rows = makeRows(spec.name, kBatchRows, options.seed, 0.0);
        model.reference.resize(kBatchRows);
        model.forest.predictBatch(model.rows.data(), kBatchRows,
                                  model.reference.data());
        models.push_back(std::move(model));
    }
    std::vector<Point> points = pointsFor(jit);

    // Set-up: compile every (model, point) pair; repeated so setup_s
    // is a median. The last repetition's sessions are measured.
    std::vector<Pair> pairs;
    std::vector<double> setup_seconds;
    CompileLedger ledger;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        // Hand the last repetition's memory back to the OS, so that
        // peak RSS does not hinge on which allocator arena each of the
        // set-up threads lands in from one repetition to the next.
        pairs.clear();
        malloc_trim(0);
        bool last = rep + 1 == kSetupReps;
        Tracer::instance().setEnabled(options.trace && last);
        Clock::time_point start = Clock::now();
        pairs = compileAll(models, points, rep, last ? &ledger : nullptr);
        setup_seconds.push_back(secondsSince(start));
        Tracer::instance().setEnabled(false);
    }
    report.samples["setup_reps"] = kSetupReps;
    report.samples["rss_after_setup_mb"] = peakRssMb();

    // Output checks against the reference, before anything is timed.
    std::map<std::string, int64_t> inexact;
    for (Pair &pair : pairs) {
        pair.expected.resize(kBatchRows);
        pair.session->predict(pair.model->rows.data(), kBatchRows,
                              pair.expected.data());
        if (options.corrupt && &pair == &pairs.front())
            corruptOne(pair.expected, options.seed);
        const model::Forest &forest = pair.model->forest;
        double tolerance = pair.point->quantized
                               ? leafRangeBound(forest)
                               : reassociationTolerance(forest);
        checkClose(report, pair.model->name + "." + pair.point->name,
                   pair.expected, pair.model->reference, tolerance);
        inexact[pair.point->name] +=
            countInexact(pair.expected, pair.model->reference);
    }
    if (jit) {
        // The source JIT must agree with the kernel backend bit for
        // bit on the same schedule.
        std::vector<Point> kernel_points = {kernelF32()};
        std::vector<Pair> kernel =
            compileAll(models, kernel_points, kSetupReps, nullptr);
        for (size_t i = 0; i < pairs.size(); ++i) {
            std::vector<float> out(kBatchRows);
            kernel[i].session->predict(pairs[i].model->rows.data(),
                                       kBatchRows, out.data());
            checkClose(report,
                       pairs[i].model->name + ".jit_f32 vs kernel_f32",
                       pairs[i].expected, out, 0.0);
        }
    }

    // Warm up, then measure. A traced run measures twice, untraced
    // then traced, to report the tracing overhead.
    std::vector<float> out(kBatchRows);
    for (Pair &pair : pairs)
        timedCall(pair, out, -1, report);
    for (Pair &pair : pairs)
        pair.callSeconds.clear();

    double untraced_seconds = options.trace ? options.seconds / 2
                                            : options.seconds;
    int64_t rounds = measure(pairs, untraced_seconds, report);
    double untraced_rate = rowsPerSecond(pairs);
    report.samples["rounds"] = static_cast<double>(rounds);
    report.samples["calls_per_pair"] =
        static_cast<double>(pairs.front().callSeconds.size());

    if (!options.trace) {
        // The latency median runs over the pairs' 1024-row calls.
        std::vector<double> call_us;
        for (const Pair &pair : pairs)
            call_us.push_back(callSeconds(pair) * 1e6);
        report.set("setup_s", median(setup_seconds), "s");
        report.set("rows_per_s", untraced_rate, "1/s");
        report.set("latency_p50_us", median(call_us), "us");
        report.set("peak_rss_mb", peakRssMb(), "MB");
        return;
    }

    for (Pair &pair : pairs)
        pair.callSeconds.clear();
    Tracer::instance().setEnabled(true);
    measure(pairs, options.seconds - untraced_seconds, report);
    Tracer::instance().setEnabled(false);
    double traced_rate = rowsPerSecond(pairs);
    report.set("trace.overhead_pct",
               (untraced_rate / traced_rate - 1.0) * 100.0, "%");

    ledger.report(report);
    int64_t sparse_bytes = 0;
    int64_t packed_bytes = 0;
    for (const Pair &pair : pairs) {
        report.set("runtime." + pair.model->name + "." + pair.point->name +
                       ".ns_per_row",
                   callSeconds(pair) * 1e9 / kBatchRows, "ns");
        if (pair.point->backend != Backend::kKernel)
            continue;
        int64_t bytes = pair.session->plan().buffers().footprintBytes();
        (pair.point->quantized ? packed_bytes : sparse_bytes) += bytes;
    }
    for (const auto &[point, count] : inexact)
        report.set("runtime.inexact_rows." + point,
                   static_cast<double>(count), "count");
    if (!jit) {
        report.set("lir.bytes.sparse_f32",
                   static_cast<double>(sparse_bytes), "bytes");
        report.set("lir.bytes.packed_i16",
                   static_cast<double>(packed_bytes), "bytes");
        report.set("runtime.quantize_ns_per_row", quantizeNsPerRow(pairs),
                   "ns");
    }
}

} // namespace perfbench
