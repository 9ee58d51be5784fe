#include "layers.h"

#include <chrono>

#include "trace.h"

namespace perfbench {

using namespace treebeard;

std::string
passLayer(const std::string &pass_name)
{
    if (pass_name.find("verify") != std::string::npos)
        return "analysis";
    if (pass_name.rfind("hir-", 0) == 0)
        return "hir";
    if (pass_name.rfind("mir-", 0) == 0 || pass_name == "lower-to-mir")
        return "mir";
    if (pass_name.rfind("lir-", 0) == 0 || pass_name == "lower-to-lir")
        return "lir";
    return "treebeard";
}

void
CompileLedger::add(const CompilationArtifacts &artifacts, double seconds)
{
    for (const ir::PassTrace &pass : artifacts.passTraces) {
        double ms = pass.seconds * 1000.0;
        std::string layer = passLayer(pass.name);
        if (pass.name == "hir-tiling")
            hirTilingMs += ms;
        else if (pass.name == "hir-reorder-trees")
            hirReorderMs += ms;
        else if (layer == "mir")
            mirPassesMs += ms;
        else if (layer == "lir")
            lirLowerMs += ms;
        else if (layer == "analysis")
            verifyMs += ms;
    }
    if (artifacts.backend == Backend::kSourceJit) {
        jitCompileS += artifacts.jitCompileSeconds;
        jitSessionCompileS += seconds;
    } else {
        kernelCompileS += seconds;
    }
}

void
CompileLedger::report(Report &report) const
{
    report.set("hir.tiling_ms", hirTilingMs, "ms");
    report.set("hir.reorder_ms", hirReorderMs, "ms");
    report.set("mir.passes_ms", mirPassesMs, "ms");
    report.set("lir.lower_ms", lirLowerMs, "ms");
    report.set("analysis.verify_ms", verifyMs, "ms");
    report.set("codegen.jit_compile_s", jitCompileS, "s");
    report.set("treebeard.compile_s.kernel", kernelCompileS, "s");
    report.set("treebeard.compile_s.jit", jitSessionCompileS, "s");
}

void
traceCompile(const CompilationArtifacts &artifacts,
             Clock::time_point start, int64_t parent)
{
    Tracer &tracer = Tracer::instance();
    if (!tracer.enabled() || parent == 0)
        return;
    Clock::time_point at = start;
    auto span = [&](const std::string &layer, const std::string &name,
                    double seconds) {
        Clock::time_point end =
            at + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(seconds));
        tracer.add(layer, name, at, end, parent, -1);
        at = end;
    };
    for (const ir::PassTrace &pass : artifacts.passTraces)
        span(passLayer(pass.name), pass.name, pass.seconds);
    if (artifacts.jitCompileSeconds > 0.0)
        span("codegen", "system-compiler", artifacts.jitCompileSeconds);
}

ServeCounters
readCounters(const serve::Server &server, const serve::WireServer *wire)
{
    ServeCounters counters;
    serve::ServerStats stats = server.stats();
    counters.registryHits = stats.registry.hits;
    counters.registryCompiles = stats.registry.compiles;
    counters.registryEvictions = stats.registry.evictions;
    counters.requestsRejected = stats.batching.requestsRejected;
    counters.batches = stats.batching.batchesExecuted;
    counters.avgBatchRows = stats.batching.averageBatchRows();
    if (wire != nullptr) {
        serve::TransportStats transport = wire->stats();
        counters.frames = transport.framesServed;
        counters.protocolErrors = transport.protocolErrors;
        counters.disconnects = transport.disconnects;
    }
    return counters;
}

} // namespace perfbench
