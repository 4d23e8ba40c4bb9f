// perfbench: Auric's end-to-end benchmark binary (see perfbench/README.md).
//
//   perfbench --workload serve|serve-hot|audit|replay --seed N --seconds S --trace 0|1
//             [--scratch DIR]
//
// Prints human-readable lines while it runs; the last stdout line is the
// result JSON. Exits 1 when an output check fails.
#include <cstdio>
#include <exception>
#include <stdexcept>

#include "harness/audit_workload.h"
#include "harness/probes.h"
#include "harness/replay_workload.h"
#include "harness/report.h"
#include "harness/serve_workload.h"
#include "util/args.h"

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    auric::util::Args args(argc, argv);
    RunConfig config;
    config.workload = args.get_string("workload", "", "serve | serve-hot | audit | replay");
    config.seed = static_cast<std::uint64_t>(args.get_int("seed", 1, "workload seed"));
    config.seconds = args.get_double("seconds", config.seconds, "measuring time of one run");
    config.trace = args.get_int("trace", 0, "1 = traced run reporting per-layer metrics") != 0;
    config.scratch_dir =
        args.get_string("scratch", config.scratch_dir, "directory for replay checkpoints");
    if (args.help_requested()) {
      std::fputs(args.usage().c_str(), stdout);
      return 0;
    }
    args.check_unknown();

    WorkloadResult result;
    if (!is_serve_workload(config.workload) && config.workload != "audit" &&
        config.workload != "replay") {
      throw std::invalid_argument("--workload must be serve, serve-hot, audit or replay");
    } else if (config.trace) {
      result = run_traced(config);
    } else if (is_serve_workload(config.workload)) {
      result = run_serve(config);
    } else if (config.workload == "audit") {
      result = run_audit(config);
    } else {
      result = run_replay(config);
    }
    const std::string line = finish(result);
    std::printf("%s\n", line.c_str());
    return result.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
