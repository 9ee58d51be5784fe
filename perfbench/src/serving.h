/**
 * @file
 * Pieces the two serving workloads share: the served models and their
 * seeded row pools, the log of answered requests, and the bit-exact
 * check of every answer against a direct Session::predict.
 */
#ifndef PERFBENCH_SERVING_H
#define PERFBENCH_SERVING_H

#include <string>
#include <vector>

#include "common.h"
#include "serve/server.h"
#include "serve/transport.h"

namespace perfbench {

/** Share of input cells that are NaN on the serving workloads. */
constexpr double kServeNanFrac = 0.02;

struct ServedModel
{
    std::string name;
    treebeard::model::Forest forest;
    int32_t numFeatures = 0;
    /** Seeded request rows; requests read windows of this pool. */
    std::vector<float> pool;
    int64_t poolRows = 0;
    treebeard::serve::ModelHandle handle;

    const float *row(int64_t index) const
    {
        return pool.data() + index * numFeatures;
    }
};

/** higgs (cheap per row) and covtype (costly per row). */
std::vector<ServedModel> makeServedModels(const RunOptions &options,
                                          int64_t pool_rows);

/** One answered predict request. */
struct Answered
{
    int model = 0;
    int64_t firstRow = 0;
    int64_t numRows = 0;
    /** The response, numRows values. */
    std::vector<float> values;
};

/**
 * Every answer must be bit-identical to a direct Session::predict of
 * the same rows on the registry's session for its model.
 */
void checkAnswers(Report &report, treebeard::serve::Server &server,
                  const std::vector<ServedModel> &models,
                  std::vector<Answered> &answers, bool corrupt);

/**
 * Per-layer metrics every serving workload reports: compile passes of
 * the resident sessions and the registry/batcher/transport counters.
 */
void reportServeLayers(Report &report, treebeard::serve::Server &server,
                       const std::vector<ServedModel> &models,
                       const treebeard::serve::WireServer *wire);

/** Median time of a direct one-row Session::predict, in us. */
double singleRowMicros(treebeard::serve::Server &server,
                       const ServedModel &model);

} // namespace perfbench

#endif // PERFBENCH_SERVING_H
