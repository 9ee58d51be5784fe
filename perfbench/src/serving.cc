#include "serving.h"

#include "checks.h"
#include "layers.h"

namespace perfbench {

using namespace treebeard;

std::vector<ServedModel>
makeServedModels(const RunOptions &options, int64_t pool_rows)
{
    std::vector<ServedModel> models;
    uint64_t salt = 0;
    for (const char *name : {"higgs", "covtype"}) {
        ServedModel model;
        model.name = name;
        model.forest = synthesizeModel(name, options.scale);
        model.numFeatures = model.forest.numFeatures();
        model.poolRows = pool_rows;
        model.pool = makeRows(name, pool_rows, options.seed * 2 + salt++,
                              kServeNanFrac);
        models.push_back(std::move(model));
    }
    return models;
}

void
checkAnswers(Report &report, serve::Server &server,
             const std::vector<ServedModel> &models,
             std::vector<Answered> &answers, bool corrupt)
{
    Clock::time_point start = Clock::now();
    if (corrupt && !answers.empty())
        corruptOne(answers.front().values, report.attempted);
    for (size_t m = 0; m < models.size(); ++m) {
        const ServedModel &model = models[m];
        std::vector<float> rows;
        std::vector<float> served;
        for (const Answered &answer : answers) {
            if (answer.model != static_cast<int>(m))
                continue;
            const float *first = model.row(answer.firstRow);
            rows.insert(rows.end(), first,
                        first + answer.numRows * model.numFeatures);
            served.insert(served.end(), answer.values.begin(),
                          answer.values.end());
        }
        if (served.empty())
            continue;
        std::shared_ptr<const Session> session =
            server.registry().session(model.handle);
        std::vector<float> direct(served.size());
        session->predict(rows.data(),
                         static_cast<int64_t>(served.size()),
                         direct.data());
        checkClose(report, model.name + " responses vs direct predict",
                   served, direct, 0.0);
    }
    report.samples["check_s"] = secondsSince(start);
}

void
reportServeLayers(Report &report, serve::Server &server,
                  const std::vector<ServedModel> &models,
                  const serve::WireServer *wire)
{
    CompileLedger ledger;
    for (const ServedModel &model : models) {
        std::shared_ptr<const Session> session =
            server.registry().session(model.handle);
        ledger.add(session->artifacts(), session->artifacts().totalSeconds);
    }
    ledger.report(report);

    ServeCounters counters = readCounters(server, wire);
    report.set("serve.batcher.avg_batch_rows", counters.avgBatchRows,
               "rows");
    report.set("serve.registry.compiles",
               static_cast<double>(counters.registryCompiles), "count");
    report.set("serve.registry.hits",
               static_cast<double>(counters.registryHits), "count");
    report.set("serve.registry.evictions",
               static_cast<double>(counters.registryEvictions), "count");
    report.set("serve.transport.frames",
               static_cast<double>(counters.frames), "count");
    report.set("serve.transport.protocol_errors",
               static_cast<double>(counters.protocolErrors), "count");
    report.set("serve.transport.disconnects",
               static_cast<double>(counters.disconnects), "count");
    report.samples["batches"] = static_cast<double>(counters.batches);
    report.samples["requests_rejected"] =
        static_cast<double>(counters.requestsRejected);
}

double
singleRowMicros(serve::Server &server, const ServedModel &model)
{
    std::shared_ptr<const Session> session =
        server.registry().session(model.handle);
    std::vector<double> micros;
    float out = 0.0f;
    Clock::time_point start = Clock::now();
    for (int64_t i = 0; micros.size() < 200 || secondsSince(start) < 0.1;
         ++i) {
        const float *row = model.row(i % model.poolRows);
        Clock::time_point t0 = Clock::now();
        session->predict(row, 1, &out);
        micros.push_back(microsBetween(t0, Clock::now()));
    }
    return median(micros);
}

} // namespace perfbench
