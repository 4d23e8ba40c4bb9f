// Shared experiment context for the benchmark harnesses.
//
// Every bench binary reproduces one table or figure of the paper over the
// same synthetic network, built from the same command-line knobs:
//   --seed     master seed (topology + ground truth derive from it)
//   --markets  number of markets (paper: 28)
//   --scale    base eNodeBs per market (sets dataset size; the paper's full
//              400K+ carriers corresponds to roughly --scale 1700)
// Each binary prints the paper's reported numbers next to the measured ones
// so bench_output.txt reads as a self-contained EXPERIMENTS record.
// Every binary also understands --metrics-out and --trace-out: after the
// body returns, the process-wide metrics registry is snapshotted to the
// given path (.prom / .csv / .json by extension) and the span trace is
// dumped as JSONL.
#pragma once

#include <memory>
#include <string>

#include "config/assignment.h"
#include "config/catalog.h"
#include "config/ground_truth.h"
#include "netsim/attributes.h"
#include "netsim/generator.h"
#include "netsim/topology.h"
#include "obs/metrics.h"
#include "util/args.h"

namespace auric::bench {

struct ExperimentContext {
  netsim::TopologyParams topo_params;
  config::GroundTruthParams gt_params;
  netsim::Topology topology;
  netsim::AttributeSchema schema;
  config::ParamCatalog catalog{std::vector<config::ParamDef>{}};
  config::ConfigAssignment assignment;
  std::unique_ptr<config::GroundTruthModel> ground_truth;
};

/// Declares the common flags on `args` and builds the context.
ExperimentContext make_context(util::Args& args);

/// The shared `auric_bench_phase_seconds{phase=...}` histogram for one named
/// bench phase. Time phases with `obs::ScopedTimer timer(phase_histogram("x"))`
/// so the printed number and the exported metric are the same measurement.
obs::Histogram& phase_histogram(const std::string& phase);

/// Standard wrapper: parses args, handles --help, runs `body`, reports
/// errors on stderr with a non-zero exit. Declares --metrics-out (dumped
/// after the body completes) and the live-plane flags, whose --trace-out is
/// written as the run ends.
int run_bench(int argc, char** argv, const char* title,
              int (*body)(util::Args& args));

}  // namespace auric::bench
