#include "checks.h"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <sstream>

namespace perfbench {

using namespace treebeard;

namespace {

/** Smallest and largest leaf value of @p tree. */
std::pair<double, double>
leafSpan(const model::DecisionTree &tree)
{
    double lo = INFINITY;
    double hi = -INFINITY;
    for (model::NodeIndex leaf : tree.leafIndices()) {
        double v = tree.node(leaf).threshold;
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }
    return {lo, hi};
}

bool
sameBits(float a, float b)
{
    uint32_t x = 0;
    uint32_t y = 0;
    std::memcpy(&x, &a, sizeof(x));
    std::memcpy(&y, &b, sizeof(y));
    return x == y;
}

/** Largest |values - reference| (NaN pairs count as equal). */
double
maxAbsError(const std::vector<float> &values,
            const std::vector<float> &reference)
{
    double worst = 0.0;
    for (size_t i = 0; i < values.size(); ++i) {
        if (std::isnan(values[i]) && std::isnan(reference[i]))
            continue;
        double err = std::fabs(static_cast<double>(values[i]) -
                               static_cast<double>(reference[i]));
        worst = std::isnan(err) ? INFINITY : std::max(worst, err);
    }
    return worst;
}

} // namespace

double
reassociationTolerance(const model::Forest &forest)
{
    double magnitude = std::fabs(forest.baseScore());
    for (int64_t t = 0; t < forest.numTrees(); ++t) {
        auto [lo, hi] = leafSpan(forest.tree(t));
        magnitude += std::max(std::fabs(lo), std::fabs(hi));
    }
    double n = static_cast<double>(forest.numTrees() + 1);
    double u = FLT_EPSILON / 2.0;
    return 2.0 * (n * u / (1.0 - n * u)) * magnitude;
}

double
leafRangeBound(const model::Forest &forest)
{
    double bound = 0.0;
    for (int64_t t = 0; t < forest.numTrees(); ++t) {
        auto [lo, hi] = leafSpan(forest.tree(t));
        bound += hi - lo;
    }
    return bound + reassociationTolerance(forest);
}

int64_t
countInexact(const std::vector<float> &values,
             const std::vector<float> &reference)
{
    int64_t count = 0;
    for (size_t i = 0; i < values.size(); ++i)
        count += sameBits(values[i], reference[i]) ? 0 : 1;
    return count;
}

void
checkClose(Report &report, const std::string &what,
           const std::vector<float> &values,
           const std::vector<float> &reference, double tolerance)
{
    std::ostringstream why;
    if (values.size() != reference.size()) {
        why << what << ": " << values.size() << " outputs, expected "
            << reference.size();
        report.fail(why.str());
        return;
    }
    if (tolerance == 0.0) {
        int64_t bad = countInexact(values, reference);
        if (bad != 0) {
            why << what << ": " << bad
                << " outputs not bit-identical to the reference";
            report.fail(why.str());
        }
        return;
    }
    double err = maxAbsError(values, reference);
    if (!(err <= tolerance)) {
        why << what << ": max |error| " << err << " exceeds tolerance "
            << tolerance;
        report.fail(why.str());
    }
}

void
corruptOne(std::vector<float> &values, uint64_t seed)
{
    if (values.empty())
        return;
    float &v = values[seed % values.size()];
    uint32_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    bits ^= 1u;
    std::memcpy(&v, &bits, sizeof(bits));
}

} // namespace perfbench
