/**
 * @file
 * Adapters from what the library exposes to the benchmark's per-layer
 * names: compile pass traces to hir/mir/lir/analysis/codegen time, and
 * the serving stat structs (ServerStats, RegistryStats,
 * TransportStats) to one flat counter set. The stat structs are read
 * here and nowhere else, so reshaping them touches one file.
 */
#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include <cstdint>
#include <string>

#include "common.h"
#include "serve/server.h"
#include "serve/transport.h"
#include "treebeard/compiler.h"

namespace perfbench {

/** The layer a compile pass belongs to ("hir", "mir", "lir", ...). */
std::string passLayer(const std::string &pass_name);

/** Compile time summed per layer over any number of compilations. */
struct CompileLedger
{
    double hirTilingMs = 0.0;
    double hirReorderMs = 0.0;
    double mirPassesMs = 0.0;
    double lirLowerMs = 0.0;
    double verifyMs = 0.0;
    double jitCompileS = 0.0;
    double kernelCompileS = 0.0;
    double jitSessionCompileS = 0.0;

    /** Account one finished compilation (wall time @p seconds). */
    void add(const treebeard::CompilationArtifacts &artifacts,
             double seconds);

    /** Report the ledger under its per-layer metric names. */
    void report(Report &report) const;
};

/**
 * When tracing, record a compile's pass traces (and its system
 * compiler time) as child spans of the span @p parent that covered
 * it, laid end to end from @p start.
 */
void traceCompile(const treebeard::CompilationArtifacts &artifacts,
                  Clock::time_point start, int64_t parent);

/** Serving counters, flattened from the library's stat structs. */
struct ServeCounters
{
    int64_t registryHits = 0;
    int64_t registryCompiles = 0;
    int64_t registryEvictions = 0;
    int64_t requestsRejected = 0;
    int64_t batches = 0;
    double avgBatchRows = 0.0;
    int64_t frames = 0;
    int64_t protocolErrors = 0;
    int64_t disconnects = 0;
};

ServeCounters readCounters(const treebeard::serve::Server &server,
                           const treebeard::serve::WireServer *wire);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H
