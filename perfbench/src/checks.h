/**
 * @file
 * Output checks. Every workload compares what it measured against a
 * reference before it reports: offline points against
 * model::Forest::predictBatch within a tolerance derived from the
 * forest itself, serving responses bit-for-bit against a direct
 * Session::predict of the same rows.
 */
#ifndef PERFBENCH_CHECKS_H
#define PERFBENCH_CHECKS_H

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "model/forest.h"

namespace perfbench {

/**
 * Largest difference two f32 evaluations of one row may show when
 * they sum the same leaves in different orders: 2 * gamma_n * sum|x|
 * with n = trees + 1 terms (base score included) and sum|x| bounded by
 * |base| + sum over trees of the largest |leaf|.
 */
double reassociationTolerance(const treebeard::model::Forest &forest);

/**
 * Largest difference a quantized walk may show: any tree may land on
 * any of its leaves, so the bound is the sum over trees of (max leaf -
 * min leaf), plus reassociation. Computed from the forest, not read
 * from the compiler's QuantizationInfo.
 */
double leafRangeBound(const treebeard::model::Forest &forest);

/** Rows whose prediction differs from @p reference in any bit. */
int64_t countInexact(const std::vector<float> &values,
                     const std::vector<float> &reference);

/**
 * Compare @p values with @p reference within @p tolerance (0 = bit
 * identical); on a mismatch, fail @p report naming @p what.
 */
void checkClose(Report &report, const std::string &what,
                const std::vector<float> &values,
                const std::vector<float> &reference, double tolerance);

/** Flip the low mantissa bit of one value (the --corrupt self-test). */
void corruptOne(std::vector<float> &values, uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_H
