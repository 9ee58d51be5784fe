/**
 * @file
 * perfbench: the repository benchmark's workload binary.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--scale F] [--corrupt] [--trace-file PATH]
 *
 * Runs one workload and prints one JSON line: the output checks'
 * verdict, operation counts, metrics with units, sample counts and the
 * build's identity. Untraced runs report end-to-end metrics; traced
 * runs report per-layer metrics, including each layer's self time
 * derived from the recorded spans. perfbench/run.py wraps this binary
 * and owns the result format the benchmark publishes.
 */
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "trace.h"
#include "workloads.h"

namespace {

using namespace perfbench;

void
usage(const char *message)
{
    std::cerr << "perfbench: " << message << "\n"
              << "usage: perfbench --workload "
                 "offline-kernel|offline-jit|serve-light|wire-mixed "
                 "--seed N --seconds S --trace 0|1 [--scale F] "
                 "[--corrupt] [--trace-file PATH]\n";
    std::exit(2);
}

RunOptions
parseArgs(int argc, char **argv)
{
    RunOptions options;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + arg).c_str());
            return argv[++i];
        };
        if (arg == "--workload")
            options.workload = value();
        else if (arg == "--seed")
            options.seed = std::stoull(value());
        else if (arg == "--seconds")
            options.seconds = std::stod(value());
        else if (arg == "--trace")
            options.trace = value() != "0";
        else if (arg == "--scale")
            options.scale = std::stod(value());
        else if (arg == "--corrupt")
            options.corrupt = true;
        else if (arg == "--trace-file")
            options.traceFile = value();
        else
            usage(("unknown argument " + arg).c_str());
    }
    if (!(options.seconds > 0.0))
        usage("--seconds must be positive");
    if (!(options.scale > 0.0 && options.scale <= 1.0))
        usage("--scale must be in (0, 1]");
    return options;
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "null";
    std::ostringstream out;
    out.precision(17);
    out << value;
    return out.str();
}

void
printReport(const Report &report)
{
    std::ostringstream out;
    out << "{\"correct\":" << (report.correct ? "true" : "false")
        << ",\"attempted\":" << report.attempted
        << ",\"failed\":" << report.failed << ",\"metrics\":{";
    const char *sep = "";
    for (const auto &[name, metric] : report.metrics) {
        out << sep << jsonString(name) << ":{\"value\":"
            << jsonNumber(metric.value)
            << ",\"unit\":" << jsonString(metric.unit) << "}";
        sep = ",";
    }
    out << "},\"samples\":{";
    sep = "";
    for (const auto &[name, value] : report.samples) {
        out << sep << jsonString(name) << ":" << jsonNumber(value);
        sep = ",";
    }
    out << "},\"errors\":[";
    sep = "";
    for (const std::string &error : report.errors) {
        out << sep << jsonString(error);
        sep = ",";
    }
    out << "],\"build\":{\"compiler\":" << jsonString(PERFBENCH_COMPILER)
        << ",\"flags\":" << jsonString(PERFBENCH_CXX_FLAGS)
        << ",\"build_type\":" << jsonString(PERFBENCH_BUILD_TYPE) << "}}";
    std::cout << out.str() << std::endl;
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions options = parseArgs(argc, argv);
    Report report;
    try {
        if (options.workload == "offline-kernel")
            runOffline(options, /*jit=*/false, report);
        else if (options.workload == "offline-jit")
            runOffline(options, /*jit=*/true, report);
        else if (options.workload == "serve-light")
            runServeLight(options, report);
        else if (options.workload == "wire-mixed")
            runWireMixed(options, report);
        else
            usage(("unknown workload '" + options.workload + "'").c_str());
    } catch (const std::exception &error) {
        report.fail(std::string("workload aborted: ") + error.what());
    }

    if (options.trace) {
        for (const auto &[layer, ms] :
             Tracer::instance().selfMillisByLayer())
            report.set("span." + layer + ".self_ms", ms, "ms");
        report.samples["spans"] =
            static_cast<double>(Tracer::instance().size());
        if (!options.traceFile.empty())
            Tracer::instance().writeJson(options.traceFile);
    }
    printReport(report);
    return report.correct && report.failed == 0 ? 0 : 1;
}
