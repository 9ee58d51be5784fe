/**
 * @file
 * wire-mixed: a closed loop over loopback TCP to an in-process
 * WireServer. Three predict connections, one thread each, send
 * requests of seeded sizes (mostly 1 row, some 16, a few 256) to
 * higgs and covtype; one admin connection interleaves a LOAD of a
 * resident model (a dedup hit), STATS, and EVICT plus re-LOAD of a
 * small third model (a real compile), so registry writes run beside
 * predict reads.
 */
#include <algorithm>
#include <memory>
#include <random>
#include <stdexcept>
#include <thread>

#include "common/rng.h"
#include "layers.h"
#include "serve/client.h"
#include "serve/wire.h"
#include "serving.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

using namespace treebeard;

namespace {

constexpr int kPredictConnections = 3;
constexpr double kWarmupSeconds = 0.5;
/** Throughput and latency percentiles are taken per window of this
 * length (see windowedQuantile). */
constexpr double kWindowSeconds = 1.0;
constexpr int kSetupReps = 3;
constexpr int64_t kPoolRows = 4096;
/**
 * Admin cycle: LOAD hit, STATS, EVICT + LOAD of the small model. A
 * cycle costs ~0.1-0.3 s (a LOAD ships and hashes the model's JSON),
 * so the period keeps the admin stream from taking a core of its own.
 */
constexpr double kAdminPeriodSeconds = 0.5;
/**
 * Request sizes in rows and their count per cycle of 200 requests,
 * split evenly between the two models: every cycle asks for the same
 * work, so throughput does not ride on a random mix.
 */
constexpr int64_t kSizes[] = {1, 16, 256};
constexpr int kSizeCounts[] = {170, 24, 6};

enum class Phase { kWarmup, kUntraced, kTraced };

struct Request
{
    int model = 0;
    int64_t firstRow = 0;
    int64_t numRows = 0;
    Phase phase = Phase::kWarmup;
    /** Seconds after the measured phases began. */
    double sentAt = 0.0;
    double micros = 0.0;
};

/** One predict connection's log. */
struct Connection
{
    std::vector<Request> requests;
    std::vector<Answered> answers;
    int64_t attempted = 0;
    int64_t failed = 0;
};

struct AdminLog
{
    std::vector<double> loadHitMs;
    std::vector<double> loadMissMs;
    int64_t attempted = 0;
    int64_t failed = 0;
    std::vector<std::string> errors;
};

/** Phase boundaries, fixed before the connections start. */
struct Timeline
{
    Clock::time_point untracedStart;
    Clock::time_point tracedStart;
    Clock::time_point end;

    Phase
    at(Clock::time_point t) const
    {
        if (t < untracedStart)
            return Phase::kWarmup;
        return t < tracedStart ? Phase::kUntraced : Phase::kTraced;
    }
};

Clock::time_point
after(Clock::time_point t, double seconds)
{
    return t + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(seconds));
}

/** A seeded shuffle of one cycle of (model, rows) requests. */
std::vector<std::pair<int, int64_t>>
requestCycle(uint64_t seed)
{
    std::vector<std::pair<int, int64_t>> cycle;
    for (int i = 0; i < 3; ++i) {
        for (int k = 0; k < kSizeCounts[i]; ++k)
            cycle.emplace_back(k % 2, kSizes[i]);
    }
    std::mt19937_64 engine(seed);
    std::shuffle(cycle.begin(), cycle.end(), engine);
    return cycle;
}

/** "r<rows>", the size class of a request in metric names. */
std::string
sizeLabel(int64_t rows)
{
    std::string label = "r";
    label += std::to_string(rows);
    return label;
}

void
predictLoop(serve::Client &client, const std::vector<ServedModel> &models,
            uint64_t seed, const Timeline &timeline, Connection &log)
{
    Rng rng(seed);
    std::vector<std::pair<int, int64_t>> cycle = requestCycle(seed);
    for (size_t i = 0;; ++i) {
        Clock::time_point start = Clock::now();
        if (start >= timeline.end)
            break;
        Request request;
        std::tie(request.model, request.numRows) = cycle[i % cycle.size()];
        const ServedModel &model = models[request.model];
        request.firstRow =
            rng.uniformInt(0, model.poolRows - request.numRows);
        request.phase = timeline.at(start);
        request.sentAt =
            std::chrono::duration<double>(start - timeline.untracedStart)
                .count();
        log.attempted += 1;
        Answered answer;
        try {
            Span span("serve.client",
                      "predict " + sizeLabel(request.numRows),
                      static_cast<int64_t>(i));
            answer.values =
                client.predict(model.handle, model.row(request.firstRow),
                               request.numRows, model.numFeatures);
        } catch (const std::exception &) {
            log.failed += 1;
            continue;
        }
        request.micros = microsBetween(start, Clock::now());
        answer.model = request.model;
        answer.firstRow = request.firstRow;
        answer.numRows = request.numRows;
        log.requests.push_back(request);
        log.answers.push_back(std::move(answer));
    }
}

void
adminLoop(serve::Client &client, const ServedModel &resident,
          const model::Forest &small, const serve::ModelHandle &small_handle,
          const Timeline &timeline, AdminLog &log)
{
    auto op = [&](const char *what, auto &&call) {
        log.attempted += 1;
        try {
            call();
        } catch (const std::exception &error) {
            log.failed += 1;
            log.errors.push_back(std::string(what) + ": " + error.what());
        }
    };
    for (Clock::time_point next = Clock::now(); Clock::now() < timeline.end;
         next = after(next, kAdminPeriodSeconds)) {
        std::this_thread::sleep_until(std::min(next, timeline.end));
        if (Clock::now() >= timeline.end)
            break;
        bool measured = timeline.at(Clock::now()) != Phase::kWarmup;
        op("LOAD resident", [&] {
            Span span("serve.client", "LOAD hit");
            Clock::time_point t0 = Clock::now();
            if (client.loadModel(resident.forest) != resident.handle)
                throw std::runtime_error("handle changed");
            if (measured)
                log.loadHitMs.push_back(secondsSince(t0) * 1e3);
        });
        op("STATS", [&] { client.stats(); });
        op("EVICT", [&] {
            if (!client.evict(small_handle))
                throw std::runtime_error("small model was not resident");
        });
        op("LOAD small", [&] {
            Span span("serve.client", "LOAD miss");
            Clock::time_point t0 = Clock::now();
            if (client.loadModel(small) != small_handle)
                throw std::runtime_error("handle changed");
            if (measured)
                log.loadMissMs.push_back(secondsSince(t0) * 1e3);
        });
    }
}

/** Replay @p requests in-process through Server::predict. */
void
replay(serve::Server &server, const std::vector<ServedModel> &models,
       const Connection &connection, double seconds,
       std::map<int64_t, std::vector<double>> &micros, Report &report)
{
    Clock::time_point start = Clock::now();
    for (size_t i = 0; i < connection.requests.size(); ++i) {
        const Request &request = connection.requests[i];
        if (request.phase != Phase::kTraced)
            continue;
        if (secondsSince(start) > seconds)
            break;
        const ServedModel &model = models[request.model];
        Clock::time_point t0 = Clock::now();
        std::vector<float> values;
        {
            Span span("serve.server",
                      "predict " + sizeLabel(request.numRows),
                      static_cast<int64_t>(i));
            values = server.predict(model.handle,
                                    model.row(request.firstRow),
                                    request.numRows);
        }
        micros[request.numRows].push_back(microsBetween(t0, Clock::now()));
        if (values != connection.answers[i].values)
            report.fail(model.name +
                        ": in-process replay differs from the wire answer");
    }
}

/** Mean encode and decode time per request of the logged size mix. */
std::pair<double, double>
codecMicros(const std::vector<ServedModel> &models,
            const std::vector<Request> &requests)
{
    double encode_us = 0.0;
    double decode_us = 0.0;
    size_t count = std::min<size_t>(requests.size(), 3000);
    for (size_t i = 0; i < count; ++i) {
        const Request &request = requests[i];
        const ServedModel &model = models[request.model];
        std::vector<float> response(static_cast<size_t>(request.numRows),
                                    0.5f);
        Clock::time_point t0 = Clock::now();
        std::string request_frame;
        std::string response_frame;
        {
            Span span("serve.wire", "encode");
            request_frame = serve::wire::encodeFrame(
                serve::wire::Opcode::kPredict, serve::wire::Status::kOk,
                serve::wire::encodePredictPayload(
                    model.handle, model.row(request.firstRow),
                    request.numRows, model.numFeatures));
            response_frame = serve::wire::encodeFrame(
                serve::wire::Opcode::kPredict, serve::wire::Status::kOk,
                serve::wire::encodeFloatPayload(response));
        }
        Clock::time_point t1 = Clock::now();
        {
            Span span("serve.wire", "decode");
            serve::wire::FrameHeader header;
            std::string handle;
            uint32_t rows = 0;
            std::vector<float> values;
            auto bytes = [](const std::string &frame) {
                return reinterpret_cast<const unsigned char *>(
                    frame.data());
            };
            serve::wire::decodeFrameHeader(bytes(request_frame), &header);
            serve::wire::decodePredictPayload(
                request_frame.substr(serve::wire::kFrameHeaderBytes),
                &handle, &rows, &values);
            serve::wire::decodeFrameHeader(bytes(response_frame), &header);
            serve::wire::decodeFloatPayload(
                response_frame.substr(serve::wire::kFrameHeaderBytes),
                &values);
        }
        Clock::time_point t2 = Clock::now();
        encode_us += microsBetween(t0, t1);
        decode_us += microsBetween(t1, t2);
    }
    if (count == 0)
        return {0.0, 0.0};
    return {encode_us / count, decode_us / count};
}

} // namespace

void
runWireMixed(const RunOptions &options, Report &report)
{
    std::vector<ServedModel> models = makeServedModels(options, kPoolRows);
    model::Forest small = synthesizeModel("abalone", 0.02);

    // Set-up: server, the two predict models, listener, every
    // connection, and a LOAD of the small model over the wire;
    // repeated so setup_s is a median. The predict models load
    // in-process: a LOAD of covtype round-trips its 19 MB JSON through
    // client and server in one process, which would make the set-up's
    // memory, not the serving path's, set peak_rss_mb.
    // The last connection is the admin's.
    std::unique_ptr<serve::Server> server;
    std::unique_ptr<serve::WireServer> wire;
    std::vector<std::unique_ptr<serve::Client>> clients;
    serve::ModelHandle small_handle;
    std::vector<double> setup_seconds;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        clients.clear();
        wire.reset();
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
        wire = std::make_unique<serve::WireServer>(*server);
        for (int c = 0; c <= kPredictConnections; ++c) {
            clients.push_back(
                std::make_unique<serve::Client>("127.0.0.1", wire->port()));
        }
        {
            Span span("serve.client", "LOAD small");
            small_handle = clients.back()->loadModel(small);
        }
        setup_seconds.push_back(secondsSince(start));
        Tracer::instance().setEnabled(false);
    }

    report.samples["rss_after_setup_mb"] = peakRssMb();
    double untraced_seconds = options.trace ? options.seconds / 2
                                            : options.seconds;
    Timeline timeline;
    timeline.untracedStart = after(Clock::now(), kWarmupSeconds);
    timeline.tracedStart = after(timeline.untracedStart, untraced_seconds);
    timeline.end = after(timeline.untracedStart, options.seconds);

    std::vector<Connection> connections(kPredictConnections);
    AdminLog admin;
    {
        std::vector<std::thread> threads;
        for (int c = 0; c < kPredictConnections; ++c) {
            threads.emplace_back(predictLoop, std::ref(*clients[c]),
                                 std::cref(models),
                                 options.seed * 131 + c,
                                 std::cref(timeline),
                                 std::ref(connections[c]));
        }
        threads.emplace_back(adminLoop, std::ref(*clients.back()),
                             std::cref(models[0]),
                             std::cref(small), std::cref(small_handle),
                             std::cref(timeline), std::ref(admin));
        if (options.trace) {
            std::this_thread::sleep_until(timeline.tracedStart);
            Tracer::instance().setEnabled(true);
        }
        for (std::thread &thread : threads)
            thread.join();
        Tracer::instance().setEnabled(false);
    }

    std::vector<Answered> answers;
    std::map<Phase, std::vector<std::pair<double, double>>> latency;
    std::map<int64_t, double> window_rows;
    std::map<Phase, int64_t> rows;
    std::map<int64_t, std::vector<double>> client_us;
    for (Connection &connection : connections) {
        report.attempted += connection.attempted;
        report.failed += connection.failed;
        for (const Request &request : connection.requests) {
            latency[request.phase].emplace_back(request.sentAt,
                                                request.micros);
            if (request.phase == Phase::kUntraced)
                window_rows[static_cast<int64_t>(request.sentAt /
                                                 kWindowSeconds)] +=
                    request.numRows;
            rows[request.phase] += request.numRows;
            if (request.phase == Phase::kTraced)
                client_us[request.numRows].push_back(request.micros);
        }
        answers.insert(answers.end(), connection.answers.begin(),
                       connection.answers.end());
    }
    report.attempted += admin.attempted;
    report.failed += admin.failed;
    for (const std::string &error : admin.errors)
        report.fail("admin " + error);
    report.samples["latency_samples"] =
        static_cast<double>(latency[Phase::kUntraced].size());
    for (double q : {0.9, 0.99}) {
        report.samples[q == 0.9 ? "latency_p90_us" : "latency_p99_us"] =
            windowedQuantile(latency[Phase::kUntraced], kWindowSeconds, q,
                             kQuietLatencyWindow);
    }
    report.samples["admin_cycles"] =
        static_cast<double>(admin.loadMissMs.size());

    if (!options.trace) {
        report.set("setup_s", median(setup_seconds), "s");
        std::vector<double> window_rates;
        for (const auto &[index, count] : window_rows)
            window_rates.push_back(count / kWindowSeconds);
        report.set("rows_per_s", quantile(window_rates, kQuietRateWindow),
                   "1/s");
        report.set("latency_p50_us",
                   windowedQuantile(latency[Phase::kUntraced],
                                    kWindowSeconds, 0.5,
                                    kQuietLatencyWindow),
                   "us");
        report.set("peak_rss_mb", peakRssMb(), "MB");
        checkAnswers(report, *server, models, answers, options.corrupt);
        return;
    }

    double traced_seconds = options.seconds - untraced_seconds;
    double untraced_rate = rows[Phase::kUntraced] / untraced_seconds;
    double traced_rate = rows[Phase::kTraced] / traced_seconds;
    report.set("trace.overhead_pct",
               (untraced_rate / traced_rate - 1.0) * 100.0, "%");

    // The traced stream replayed in-process, one thread per
    // connection as on the wire: the server side of each request.
    std::vector<std::map<int64_t, std::vector<double>>> server_parts(
        kPredictConnections);
    std::vector<Report> replay_reports(kPredictConnections);
    {
        Tracer::instance().setEnabled(true);
        std::vector<std::thread> threads;
        for (int c = 0; c < kPredictConnections; ++c) {
            threads.emplace_back([&, c] {
                replay(*server, models, connections[c], traced_seconds,
                       server_parts[c], replay_reports[c]);
            });
        }
        for (std::thread &thread : threads)
            thread.join();
        Tracer::instance().setEnabled(false);
    }
    std::map<int64_t, std::vector<double>> server_us;
    for (int c = 0; c < kPredictConnections; ++c) {
        for (const std::string &error : replay_reports[c].errors)
            report.fail(error);
        for (auto &[size, values] : server_parts[c])
            server_us[size].insert(server_us[size].end(), values.begin(),
                                   values.end());
    }
    for (int64_t size : kSizes) {
        report.set("serve.client.predict_us." + sizeLabel(size),
                   median(client_us[size]), "us");
        report.set("serve.server.predict_us." + sizeLabel(size),
                   median(server_us[size]), "us");
    }
    report.set("serve.transport.tax_us",
               median(client_us[1]) - median(server_us[1]), "us");

    std::vector<Request> traced_requests;
    for (const Connection &connection : connections) {
        for (const Request &request : connection.requests) {
            if (request.phase == Phase::kTraced)
                traced_requests.push_back(request);
        }
    }
    Tracer::instance().setEnabled(true);
    auto [encode_us, decode_us] = codecMicros(models, traced_requests);
    Tracer::instance().setEnabled(false);
    report.set("serve.wire.encode_us", encode_us, "us");
    report.set("serve.wire.decode_us", decode_us, "us");
    report.set("serve.registry.load_hit_ms", median(admin.loadHitMs),
               "ms");
    report.set("serve.registry.load_miss_ms", median(admin.loadMissMs),
               "ms");
    report.set("loadgen.latency_p90_us",
               windowedQuantile(latency[Phase::kTraced], kWindowSeconds,
                                0.9, kQuietLatencyWindow),
               "us");
    report.set("loadgen.latency_p99_us",
               windowedQuantile(latency[Phase::kTraced], kWindowSeconds,
                                0.99, kQuietLatencyWindow),
               "us");
    report.set("loadgen.latency_samples",
               static_cast<double>(latency[Phase::kTraced].size()),
               "count");
    for (const ServedModel &model : models) {
        report.set("runtime.single_row_us." + model.name,
                   singleRowMicros(*server, model), "us");
    }
    reportServeLayers(report, *server, models, wire.get());
    checkAnswers(report, *server, models, answers, options.corrupt);
}

} // namespace perfbench
