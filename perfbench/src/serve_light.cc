/**
 * @file
 * serve-light: one generator thread sends single-row
 * Server::predictAsync requests to higgs and covtype on a seeded
 * Poisson schedule at a low fixed rate, so no request has a neighbour
 * to coalesce with. Latency runs from each request's scheduled send
 * time to the moment its future is seen ready; outstanding futures are
 * polled, never waited on in submit order, so a batcher that answers
 * out of order is not charged for it.
 */
#include <algorithm>
#include <future>
#include <memory>
#include <random>

#include "common/rng.h"
#include "layers.h"
#include "serving.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

using namespace treebeard;

namespace {

constexpr double kRequestsPerSecond = 2000.0;
constexpr double kWarmupSeconds = 0.5;
/** Latency percentiles are taken per window of this length. */
constexpr double kWindowSeconds = 1.0;
constexpr int kSetupReps = 3;
constexpr int64_t kPoolRows = 4096;

struct Outstanding
{
    int64_t id = 0;
    int model = 0;
    int64_t row = 0;
    Clock::time_point scheduled;
    Clock::time_point submitted;
    std::future<std::vector<float>> future;
};

/** One phase of the open loop and what it measured. */
struct Phase
{
    /** (scheduled send, seconds into the phase; latency in us). */
    std::vector<std::pair<double, double>> latency;
    std::vector<double> submitUs;
    std::vector<double> waitUs;
    /** wait minus the model's single-row predict time. */
    std::vector<double> queueWaitUs;
    std::vector<double> lateUs;
    int64_t completedRows = 0;
    Clock::time_point start;
    Clock::time_point lastDone;

    double
    latencyQuantile(double q) const
    {
        return windowedQuantile(latency, kWindowSeconds, q,
                                kQuietLatencyWindow);
    }
};

class OpenLoop
{
  public:
    OpenLoop(serve::Server &server, const std::vector<ServedModel> &models,
             uint64_t seed, Report &report,
             std::vector<Answered> &answers)
        : server_(server), models_(models), rng_(seed),
          engine_(seed ^ 0x5bd1e995u), report_(report), answers_(answers)
    {
    }

    /**
     * Send rate x @p seconds requests at Poisson arrival times (the
     * process conditioned on its count: sorted uniform offsets), then
     * drain. When @p phase is null the requests are a warm-up:
     * answered and checked, not measured.
     */
    void
    run(double seconds, Phase *phase,
        const std::vector<double> &single_row_us)
    {
        std::uniform_real_distribution<double> offset(0.0, seconds);
        std::vector<double> arrivals(
            static_cast<size_t>(kRequestsPerSecond * seconds));
        for (double &t : arrivals)
            t = offset(engine_);
        std::sort(arrivals.begin(), arrivals.end());

        Clock::time_point start = Clock::now();
        if (phase != nullptr)
            phase->start = start;
        std::vector<Outstanding> outstanding;
        size_t sent = 0;
        while (sent < arrivals.size() || !outstanding.empty()) {
            if (sent < arrivals.size()) {
                Clock::time_point next =
                    start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(
                                    arrivals[sent]));
                if (Clock::now() >= next) {
                    send(next, phase, outstanding);
                    ++sent;
                }
            }
            poll(phase, single_row_us, outstanding);
        }
    }

  private:
    void
    send(Clock::time_point scheduled, Phase *phase,
         std::vector<Outstanding> &outstanding)
    {
        Outstanding request;
        request.id = nextId_++;
        request.model = static_cast<int>(rng_.uniformInt(0, 1));
        const ServedModel &model = models_[request.model];
        request.row = rng_.uniformInt(0, model.poolRows - 1);
        request.scheduled = scheduled;
        report_.attempted += 1;
        Clock::time_point t0 = Clock::now();
        try {
            Span span("serve.server", "predictAsync", request.id);
            request.future = server_.predictAsync(
                model.handle, model.row(request.row), 1);
        } catch (const std::exception &) {
            report_.failed += 1;
            return;
        }
        request.submitted = Clock::now();
        if (phase != nullptr) {
            phase->lateUs.push_back(microsBetween(scheduled, t0));
            phase->submitUs.push_back(
                microsBetween(t0, request.submitted));
        }
        outstanding.push_back(std::move(request));
    }

    void
    poll(Phase *phase, const std::vector<double> &single_row_us,
         std::vector<Outstanding> &outstanding)
    {
        for (size_t i = 0; i < outstanding.size();) {
            Outstanding &request = outstanding[i];
            if (request.future.wait_for(std::chrono::seconds(0)) !=
                std::future_status::ready) {
                ++i;
                continue;
            }
            Clock::time_point done = Clock::now();
            complete(request, done, phase, single_row_us);
            request = std::move(outstanding.back());
            outstanding.pop_back();
        }
    }

    void
    complete(Outstanding &request, Clock::time_point done, Phase *phase,
             const std::vector<double> &single_row_us)
    {
        Answered answer;
        answer.model = request.model;
        answer.firstRow = request.row;
        answer.numRows = 1;
        try {
            answer.values = request.future.get();
        } catch (const std::exception &) {
            report_.failed += 1;
            return;
        }
        Tracer::instance().add("serve.batcher", "wait", request.submitted,
                               done, 0, request.id);
        answers_.push_back(std::move(answer));
        if (phase == nullptr)
            return;
        double wait = microsBetween(request.submitted, done);
        phase->latency.emplace_back(
            std::chrono::duration<double>(request.scheduled - phase->start)
                .count(),
            microsBetween(request.scheduled, done));
        phase->lastDone = done;
        phase->waitUs.push_back(wait);
        if (!single_row_us.empty())
            phase->queueWaitUs.push_back(wait -
                                         single_row_us[request.model]);
        phase->completedRows += 1;
    }

    serve::Server &server_;
    const std::vector<ServedModel> &models_;
    Rng rng_;
    std::mt19937_64 engine_;
    Report &report_;
    std::vector<Answered> &answers_;
    int64_t nextId_ = 0;
};

} // namespace

void
runServeLight(const RunOptions &options, Report &report)
{
    std::vector<ServedModel> models = makeServedModels(options, kPoolRows);

    // Set-up: a fresh server (default options) loading both models,
    // repeated so setup_s is a median; the last one serves the run.
    std::unique_ptr<serve::Server> server;
    std::vector<double> setup_seconds;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        server.reset();
        Tracer::instance().setEnabled(options.trace &&
                                      rep + 1 == kSetupReps);
        Clock::time_point start = Clock::now();
        server = std::make_unique<serve::Server>();
        for (ServedModel &model : models) {
            Span span("serve.registry", "load " + model.name);
            Clock::time_point load_start = Clock::now();
            model.handle = server->loadModel(model.forest);
            traceCompile(
                server->registry().session(model.handle)->artifacts(),
                load_start, span.id());
        }
        setup_seconds.push_back(secondsSince(start));
        Tracer::instance().setEnabled(false);
    }

    report.samples["rss_after_setup_mb"] = peakRssMb();
    std::vector<Answered> answers;
    OpenLoop loop(*server, models, options.seed, report, answers);
    loop.run(kWarmupSeconds, nullptr, {});

    Phase untraced;
    double untraced_seconds = options.trace ? options.seconds / 2
                                            : options.seconds;
    loop.run(untraced_seconds, &untraced, {});
    report.samples["latency_samples"] =
        static_cast<double>(untraced.latency.size());
    report.samples["latency_p90_us"] = untraced.latencyQuantile(0.9);
    report.samples["latency_p99_us"] = untraced.latencyQuantile(0.99);

    if (!options.trace) {
        report.set("setup_s", median(setup_seconds), "s");
        // Rows over the time to the last answer: near the offered rate
        // unless the server falls behind.
        report.set("rows_per_s",
                   static_cast<double>(untraced.completedRows) /
                       std::chrono::duration<double>(untraced.lastDone -
                                                     untraced.start)
                           .count(),
                   "1/s");
        report.set("latency_p50_us", untraced.latencyQuantile(0.5), "us");
        report.set("peak_rss_mb", peakRssMb(), "MB");
        checkAnswers(report, *server, models, answers, options.corrupt);
        return;
    }

    std::vector<double> single_row_us;
    for (const ServedModel &model : models) {
        single_row_us.push_back(singleRowMicros(*server, model));
        report.set("runtime.single_row_us." + model.name,
                   single_row_us.back(), "us");
    }
    Phase traced;
    Tracer::instance().setEnabled(true);
    loop.run(options.seconds - untraced_seconds, &traced, single_row_us);
    Tracer::instance().setEnabled(false);

    report.set("trace.overhead_pct",
               (traced.latencyQuantile(0.5) / untraced.latencyQuantile(0.5) -
                1.0) * 100.0,
               "%");
    report.set("serve.submit_us", median(traced.submitUs), "us");
    report.set("serve.wait_us.p50", median(traced.waitUs), "us");
    report.set("serve.wait_us.p99", quantile(traced.waitUs, 0.99), "us");
    report.set("serve.batcher.queue_wait_us", median(traced.queueWaitUs),
               "us");
    report.set("loadgen.late_p99_us", quantile(traced.lateUs, 0.99), "us");
    report.set("loadgen.latency_p90_us", traced.latencyQuantile(0.9),
               "us");
    report.set("loadgen.latency_p99_us", traced.latencyQuantile(0.99),
               "us");
    report.set("loadgen.latency_samples",
               static_cast<double>(traced.latency.size()), "count");
    reportServeLayers(report, *server, models, nullptr);
    checkAnswers(report, *server, models, answers, options.corrupt);
}

} // namespace perfbench
