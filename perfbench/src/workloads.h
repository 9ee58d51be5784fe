/**
 * @file
 * The benchmark's workloads. Each runs through public APIs only,
 * checks every output it measures, and fills a Report: end-to-end
 * metrics when untraced, per-layer metrics when traced.
 */
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "common.h"

namespace perfbench {

/** offline-kernel (@p jit false) and offline-jit (@p jit true). */
void runOffline(const RunOptions &options, bool jit, Report &report);

/** serve-light: in-process open loop of single-row requests. */
void runServeLight(const RunOptions &options, Report &report);

/** wire-mixed: closed loop over loopback TCP plus an admin stream. */
void runWireMixed(const RunOptions &options, Report &report);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
