#include "common.h"

#include <cstdio>

#include <sched.h>
#include <sys/resource.h>

#include "common/rng.h"
#include "data/synthetic.h"

namespace perfbench {

using namespace treebeard;

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char escaped[8];
            std::snprintf(escaped, sizeof(escaped), "\\u%04x", c);
            out += escaped;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

CpuRotation::CpuRotation()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &set))
            cpus_.push_back(cpu);
    }
}

CpuRotation::~CpuRotation()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int cpu : cpus_)
        CPU_SET(cpu, &set);
    if (!cpus_.empty())
        sched_setaffinity(0, sizeof(set), &set);
}

void
CpuRotation::next()
{
    if (cpus_.size() < 2)
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus_[position_++ % cpus_.size()], &set);
    sched_setaffinity(0, sizeof(set), &set);
}

double
peakRssMb()
{
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    // Linux reports ru_maxrss in KiB.
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::vector<float>
makeRows(const std::string &model_name, int64_t rows, uint64_t seed,
         double nan_frac)
{
    data::SyntheticModelSpec spec = data::benchmarkSpecByName(model_name);
    // Offsets 0 and 1 are the synthesizer's own; stay clear of them.
    data::Dataset dataset =
        data::generateFeatures(spec, rows, /*seed_offset=*/1000 + seed);
    const float *begin = dataset.rows();
    std::vector<float> values(begin, begin + rows * spec.numFeatures);
    if (nan_frac > 0.0) {
        Rng rng(seed * 0x9e3779b97f4a7c15ull + 17);
        for (float &v : values) {
            if (rng.bernoulli(nan_frac))
                v = std::nanf("");
        }
    }
    return values;
}

treebeard::model::Forest
synthesizeModel(const std::string &name, double scale)
{
    data::SyntheticModelSpec spec = data::benchmarkSpecByName(name);
    if (scale < 1.0) {
        spec.numTrees = std::max<int64_t>(
            1, static_cast<int64_t>(static_cast<double>(spec.numTrees) *
                                    scale));
        spec.trainingRows = std::min<int64_t>(spec.trainingRows, 500);
    }
    return data::synthesizeForest(spec);
}

} // namespace perfbench
