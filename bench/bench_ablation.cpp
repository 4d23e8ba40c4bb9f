// Ablations of Auric's design choices (DESIGN.md §8). Not a paper table —
// each arm isolates one mechanism so the contribution structure is visible:
//
//   A. voting threshold sweep (the paper fixes 75%)
//   B. chi-square significance sweep (the paper fixes p = 0.01)
//   C. proximity radius: global vs 1-hop vs 2-hop X2
//   D. dependency cap / support backoff (this reproduction's scale
//      refinement) on vs off
//   E. irrelevant-attribute elimination: chi-square-selected attributes vs
//      matching on ALL attributes (what makes CF beat k-NN, §3.2)
//   F. §6 performance-feedback extension: KPI-weighted local voting
#include <cstdio>

#include "common.h"
#include "eval/cf_eval.h"
#include "smartlaunch/kpi.h"
#include "util/strings.h"
#include "util/table.h"

namespace auric::bench {
namespace {

/// Mean per-market accuracy of the learner `options` over the first
/// `markets` markets, each learned and scored on its own.
double run(const ExperimentContext& ctx, core::AuricOptions options, int markets) {
  double sum = 0.0;
  for (int m = 0; m < markets; ++m) {
    options.market = static_cast<netsim::MarketId>(m);
    sum += eval::overall_accuracy(eval::evaluate_all(
        core::AuricEngine(ctx.topology, ctx.schema, ctx.catalog, ctx.assignment, options)));
  }
  return 100.0 * sum / markets;
}

int body(util::Args& args) {
  ExperimentContext ctx = make_context(args);
  const int markets = static_cast<int>(
      args.get_int("ablation-markets", 4, "markets evaluated per arm (cost knob)"));
  if (args.help_requested()) return 0;

  util::Table table({"arm", "configuration", "local CF accuracy %"});

  // A. Voting threshold sweep.
  for (double threshold : {0.55, 0.65, 0.75, 0.85, 0.95}) {
    core::AuricOptions options;
    options.vote_threshold = threshold;
    table.add_row({"A: vote threshold", util::format_fixed(threshold, 2),
                   util::format_fixed(run(ctx, options, markets), 2)});
  }

  // B. Chi-square significance sweep.
  for (double p : {0.05, 0.01, 0.001}) {
    core::AuricOptions options;
    options.p_value = p;
    table.add_row({"B: chi-square p", util::format_fixed(p, 3),
                   util::format_fixed(run(ctx, options, markets), 2)});
  }

  // C. Proximity radius.
  {
    core::AuricOptions global;
    global.use_proximity = false;
    table.add_row({"C: proximity", "global",
                   util::format_fixed(run(ctx, global, markets), 2)});
    for (int hops : {1, 2}) {
      core::AuricOptions options;
      options.proximity_hops = hops;
      table.add_row({"C: proximity", std::to_string(hops) + "-hop X2",
                     util::format_fixed(run(ctx, options, markets), 2)});
    }
  }

  // D. Dependency cap + backoff (the reproduction's scale refinement). The
  //    effect concentrates in the GLOBAL learner, whose only defense against
  //    fragmented peer groups is the backoff ladder (the local learner's
  //    global fallback already papers over most of it).
  {
    core::AuricOptions off;
    off.use_proximity = false;
    off.max_dependent = 0;   // keep every flagged attribute
    off.backoff_levels = 1;  // no backoff
    table.add_row({"D: cap+backoff (global)", "off (paper-literal exact match)",
                   util::format_fixed(run(ctx, off, markets), 2)});
    core::AuricOptions on;
    on.use_proximity = false;
    table.add_row({"D: cap+backoff (global)", "on (max_dependent=14, 5 levels)",
                   util::format_fixed(run(ctx, on, markets), 2)});
  }

  // E. Attribute elimination: setting p so high that nothing is eliminated
  //    makes CF behave like exact-match-on-everything (k-NN-flavored).
  {
    core::AuricOptions all_attrs;
    all_attrs.p_value = 1.0;  // every attribute "dependent"
    all_attrs.max_dependent = 0;
    all_attrs.backoff_levels = 1;
    table.add_row({"E: attr elimination", "off (match on all attributes)",
                   util::format_fixed(run(ctx, all_attrs, markets), 2)});
    core::AuricOptions selected;
    table.add_row({"E: attr elimination", "on (chi-square selected)",
                   util::format_fixed(run(ctx, selected, markets), 2)});
  }

  // F. Performance-feedback extension (§6): weight voters by KPI quality.
  {
    const smartlaunch::KpiModel kpi(ctx.topology, ctx.catalog, ctx.assignment);
    core::AuricOptions weighted;
    weighted.carrier_weights = kpi.all_qualities();
    table.add_row({"F: KPI-weighted votes", "on",
                   util::format_fixed(run(ctx, weighted, markets), 2)});
    core::AuricOptions plain;
    table.add_row({"F: KPI-weighted votes", "off",
                   util::format_fixed(run(ctx, plain, markets), 2)});
  }

  table.print();
  std::printf("\nexpected shapes: thresholds beyond ~0.85 starve the vote; p in\n"
              "[0.001, 0.05] barely matters; 1-hop proximity beats both global and 2-hop;\n"
              "the cap+backoff refinement recovers the global learner's fragmentation\n"
              "losses; matching on ALL attributes (no elimination) hurts — the paper's\n"
              "k-NN critique; KPI-weighted voting is near-neutral at the default noise\n"
              "level — its benefit concentrates where mis-configured voters are common\n"
              "(see the weighted-vote unit tests).\n");
  return 0;
}

}  // namespace
}  // namespace auric::bench

int main(int argc, char** argv) {
  return auric::bench::run_bench(argc, argv, "Ablations of Auric's design choices",
                                 auric::bench::body);
}
