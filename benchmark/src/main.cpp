// bellamy_bench — the end-to-end benchmark program.
//
//   bellamy_bench --workload=NAME --seed=N [--seconds=S] [--trace=PATH]
//                 --json=PATH [--perturb-expected]
//
// Workloads: fit, sweep, serve-closed, serve-open, serve-mixed (see
// benchmark/README.md for what each exercises and why).  Every input is
// generated from --seed.  The report (metrics, gates, op counts) goes to
// --json; progress goes to stderr.  With --trace, spans around every call
// into a library layer are kept in memory and written to PATH as Chrome
// trace-event JSON at exit, and the layer probes run after the workload.
// --perturb-expected nudges one expected value by 1 ulp so the correctness
// gate can be shown to fire.  Exit status: 0 = all gates passed, 1 = a gate
// failed, 2 = usage error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <string>

#include "bench.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload=fit|sweep|serve-closed|serve-open|serve-mixed --seed=N\n"
               "          [--seconds=S] [--trace=PATH] --json=PATH [--perturb-expected]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Options options;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--workload=", 11) == 0) {
      options.workload = arg + 11;
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      options.seed = std::strtoull(arg + 7, nullptr, 10);
    } else if (std::strncmp(arg, "--seconds=", 10) == 0) {
      options.seconds = std::strtod(arg + 10, nullptr);
    } else if (std::strncmp(arg, "--trace=", 8) == 0) {
      options.trace_path = arg + 8;
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      options.json_path = arg + 7;
    } else if (std::strcmp(arg, "--perturb-expected") == 0) {
      options.perturb_expected = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (options.json_path.empty() || !(options.seconds > 0.0)) return usage(argv[0]);

  bench::Tracer tracer(!options.trace_path.empty());
  bench::Report report;
  bench::ProbeContext context;
  try {
    if (options.workload == "fit") {
      context = bench::run_fit(options, tracer, report);
    } else if (options.workload == "sweep") {
      context = bench::run_sweep(options, tracer, report);
    } else if (options.workload == "serve-closed" || options.workload == "serve-open" ||
               options.workload == "serve-mixed") {
      context = bench::run_serve(options, tracer, report);
    } else {
      return usage(argv[0]);
    }
    if (tracer.enabled()) bench::run_layer_probes(options, context, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", options.workload.c_str(), e.what());
    return 1;
  }

  if (tracer.enabled()) {
    report.metric("trace.spans", static_cast<double>(tracer.size()), "count");
    const std::map<std::string, double> self_ms = tracer.self_ms_by_layer();
    for (const char* layer : {"bench", "data", "core", "net"}) {
      const auto it = self_ms.find(layer);
      report.metric(std::string("trace.self_ms.") + layer, it == self_ms.end() ? 0.0 : it->second,
                    "ms");
    }
    if (!tracer.write_chrome_json(options.trace_path)) {
      std::fprintf(stderr, "cannot write trace %s\n", options.trace_path.c_str());
      return 1;
    }
  }
  if (!report.write_json(options)) {
    std::fprintf(stderr, "cannot write report %s\n", options.json_path.c_str());
    return 1;
  }
  return report.correct() ? 0 : 1;
}
