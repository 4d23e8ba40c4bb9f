// Micro-benchmarks of the hot paths (google-benchmark). Not a paper
// experiment — these track the cost of the primitives every experiment is
// built from, so performance regressions surface immediately.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <numeric>
#include <utility>

#include "config/ground_truth.h"
#include "config/rulebook.h"
#include "io/launch_state.h"
#include "core/dependency.h"
#include "core/engine.h"
#include "core/model_watch.h"
#include "core/param_view.h"
#include "core/voting.h"
#include "ml/chi_square.h"
#include "ml/decision_tree.h"
#include "ml/dataset.h"
#include "netsim/attributes.h"
#include "netsim/generator.h"
#include "obs/metrics.h"
#include "obs/rules.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "serve/daemon.h"
#include "smartlaunch/controller.h"
#include "smartlaunch/ems.h"
#include "smartlaunch/replay.h"
#include "util/obs_flags.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace auric {
namespace {

/// Shared medium-sized world, built once.
struct World {
  netsim::Topology topo;
  netsim::AttributeSchema schema;
  config::ParamCatalog catalog = config::ParamCatalog::standard();
  config::ConfigAssignment assignment;
  std::vector<std::vector<netsim::AttrCode>> codes;
  std::unique_ptr<core::AttrWords> words;

  explicit World(int num_markets = 4, int enodebs_per_market = 40) {
    netsim::TopologyParams params;
    params.seed = 3;
    params.num_markets = num_markets;
    params.base_enodebs_per_market = enodebs_per_market;
    topo = netsim::generate_topology(params);
    schema = netsim::AttributeSchema::standard(topo);
    assignment = config::GroundTruthModel(topo, schema, catalog).assign();
    codes = schema.encode_all(topo);
    words = std::make_unique<core::AttrWords>(schema, codes);
  }
};

const World& world() {
  static const World w;
  return w;
}

/// The replay-default window (28 markets x 55 eNodeBs/market, ~13.5K
/// carriers): the relearn acceptance bar — incremental >= 5x cheaper than a
/// full rebuild — is pinned to this world, not the smaller shared one.
const World& relearn_world() {
  static const World w(28, 55);
  return w;
}

void BM_TopologyGeneration(benchmark::State& state) {
  netsim::TopologyParams params;
  params.num_markets = 2;
  params.base_enodebs_per_market = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(netsim::generate_topology(params));
  }
  state.SetItemsProcessed(state.iterations() * params.base_enodebs_per_market * 2);
}
BENCHMARK(BM_TopologyGeneration)->Arg(10)->Arg(40);

void BM_GroundTruthAssign(benchmark::State& state) {
  const World& w = world();
  const config::GroundTruthModel model(w.topo, w.schema, w.catalog);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.assign());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(w.assignment.total_configured()));
}
BENCHMARK(BM_GroundTruthAssign);

void BM_ChiSquareTest(benchmark::State& state) {
  util::Rng rng(1);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<std::int32_t> x(n);
  std::vector<std::int32_t> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = static_cast<std::int32_t>(rng.uniform_int(0, 9));
    y[i] = static_cast<std::int32_t>(rng.uniform_int(0, 19));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::chi_square_independence(x, y, 10, 20));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ChiSquareTest)->Arg(1000)->Arg(100000);

void BM_DependencyScan(benchmark::State& state) {
  const World& w = world();
  const core::ParamView view =
      core::build_param_view(w.topo, w.catalog, w.assignment, w.catalog.id_of("pMax"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::learn_dependencies(view, w.codes, w.schema, {}));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(view.rows()));
}
BENCHMARK(BM_DependencyScan);

// The pair-wise scan: 2 x 14 attribute tables per view, over the X2 edges of
// the pair-wise parameter with the most configured edges.
void BM_DependencyScanPairwise(benchmark::State& state) {
  const World& w = world();
  std::size_t widest = 0;
  for (std::size_t pi = 1; pi < w.assignment.pairwise.size(); ++pi) {
    if (w.assignment.pairwise[pi].configured_count() >
        w.assignment.pairwise[widest].configured_count()) {
      widest = pi;
    }
  }
  const core::ParamView view = core::build_param_view(w.topo, w.catalog, w.assignment,
                                                      w.catalog.pairwise_ids()[widest]);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::learn_dependencies(view, w.codes, w.schema, {}));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(view.rows()));
  state.SetLabel(w.catalog.at(view.param).name);
}
BENCHMARK(BM_DependencyScanPairwise);

void BM_VotingModelBuild(benchmark::State& state) {
  const World& w = world();
  const config::ParamId param = w.catalog.id_of("pMax");
  const core::ParamView view = core::build_param_view(w.topo, w.catalog, w.assignment, param);
  const core::DependencyModel deps = core::learn_dependencies(view, w.codes, w.schema, {});
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::VotingModel(view, deps.dependent, *w.words));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(view.rows()));
}
BENCHMARK(BM_VotingModelBuild);

void BM_LeaveOneOutVote(benchmark::State& state) {
  const World& w = world();
  const config::ParamId param = w.catalog.id_of("pMax");
  const core::ParamView view = core::build_param_view(w.topo, w.catalog, w.assignment, param);
  const core::DependencyModel deps = core::learn_dependencies(view, w.codes, w.schema, {});
  const core::VotingModel model(view, deps.dependent, *w.words);
  std::size_t row = 0;
  for (auto _ : state) {
    const core::GroupKey key = model.key_for(view.carrier[row], view.neighbor[row]);
    benchmark::DoNotOptimize(model.vote_excluding(key, view.label[row], 0.75));
    row = (row + 1) % view.rows();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LeaveOneOutVote);

void BM_LocalVote(benchmark::State& state) {
  const World& w = world();
  const config::ParamId param = w.catalog.id_of("pMax");
  const core::ParamView view = core::build_param_view(w.topo, w.catalog, w.assignment, param);
  const core::DependencyModel deps = core::learn_dependencies(view, w.codes, w.schema, {});
  const core::VotingModel model(view, deps.dependent, *w.words);
  core::LabelMatrix matrix(w.topo.carrier_count(), 1);
  matrix.assign_column(0, view, "pMax");
  const core::LabelColumn labels = matrix.column(0);
  std::size_t row = 0;
  for (auto _ : state) {
    const core::GroupKey key = model.key_for(view.carrier[row], view.neighbor[row]);
    benchmark::DoNotOptimize(core::local_vote(labels, *w.words, model.mask(), key,
                                              w.topo.neighborhood(view.carrier[row]),
                                              static_cast<std::int64_t>(view.entity[row]), 0.75));
    row = (row + 1) % view.rows();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LocalVote);

// The global ladder's miss path: a carrier outside the topology whose
// strongest dependent holds a value the inventory never saw (its field
// packs to all ones), so every backoff level keys on it and every level's
// probe runs to an empty slot. Probe length at the table's load decides it.
void BM_GlobalVoteUnseen(benchmark::State& state) {
  const World& w = world();
  const config::ParamId param = w.catalog.id_of("pMax");
  const core::ParamView view = core::build_param_view(w.topo, w.catalog, w.assignment, param);
  const core::DependencyModel deps = core::learn_dependencies(view, w.codes, w.schema, {});
  const core::BackoffVoting voting(view, deps.dependent, *w.words, 5);
  std::vector<std::uint64_t> words;
  for (const netsim::Carrier& c : w.topo.carriers) {
    std::vector<netsim::AttrCode> codes = w.schema.encode(c);
    codes[deps.dependent.front().attr] = netsim::AttributeSchema::kUnseen;
    words.push_back(w.words->pack(codes));
  }
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(voting.vote_word(words[next], netsim::kInvalidCarrier, 0.75));
    next = (next + 1) % words.size();
  }
  state.SetItemsProcessed(state.iterations() * voting.level_count());
}
BENCHMARK(BM_GlobalVoteUnseen);

void BM_DecisionTreeFit(benchmark::State& state) {
  const World& w = world();
  const config::ParamId param = w.catalog.id_of("pMax");
  const core::ParamView view = core::build_param_view(w.topo, w.catalog, w.assignment, param);
  const ml::CategoricalDataset data = core::to_categorical_dataset(view, w.schema, w.codes);
  std::vector<std::size_t> rows(data.rows());
  for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  for (auto _ : state) {
    ml::DecisionTree tree;
    tree.fit(data, rows);
    benchmark::DoNotOptimize(tree.node_count());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(rows.size()));
}
BENCHMARK(BM_DecisionTreeFit);

void BM_OneHotEncode(benchmark::State& state) {
  const World& w = world();
  const config::ParamId param = w.catalog.id_of("pMax");
  const core::ParamView view = core::build_param_view(w.topo, w.catalog, w.assignment, param);
  const ml::CategoricalDataset data = core::to_categorical_dataset(view, w.schema, w.codes);
  const ml::OneHotEncoder encoder(data);
  std::vector<std::size_t> rows(data.rows());
  for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.encode(data, rows));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(rows.size()));
}
BENCHMARK(BM_OneHotEncode);

const core::AuricEngine& recommend_engine() {
  const World& w = world();
  static const core::AuricEngine engine(w.topo, w.schema, w.catalog, w.assignment);
  return engine;
}

void BM_EngineRecommendCarrier(benchmark::State& state) {
  const World& w = world();
  const core::AuricEngine& engine = recommend_engine();
  netsim::CarrierId carrier = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.recommend_singular(carrier));
    carrier = static_cast<netsim::CarrierId>((carrier + 1) %
                                             static_cast<netsim::CarrierId>(
                                                 w.topo.carrier_count()));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(w.catalog.singular_ids().size()));
}
BENCHMARK(BM_EngineRecommendCarrier);

// Every pair-wise parameter of one X2 relation: the local ladder over the
// subject's neighbourhood reads each candidate's buckets of the pair-wise
// label rows. Relations are walked in Topology::edges order.
void BM_EngineRecommendPairwise(benchmark::State& state) {
  const World& w = world();
  const core::AuricEngine& engine = recommend_engine();
  std::size_t edge = 0;
  for (auto _ : state) {
    const netsim::X2Edge& relation = w.topo.edges[edge];
    benchmark::DoNotOptimize(engine.recommend_pairwise(relation.from, relation.to));
    edge = (edge + 1) % w.topo.edge_count();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(w.catalog.pairwise_ids().size()));
}
BENCHMARK(BM_EngineRecommendPairwise);

// BM_EngineRecommendCarrier walks carriers in id order, so consecutive
// requests share most of their neighbours' rows and stay in the private
// caches. This arm visits the inventory in a seeded permutation and evicts
// the private caches (untimed) before every request: the per-request
// footprint a served request sees under uniform traffic.
void BM_EngineRecommendCarrierCold(benchmark::State& state) {
  const World& w = world();
  const core::AuricEngine& engine = recommend_engine();
  std::vector<netsim::CarrierId> order(w.topo.carrier_count());
  std::iota(order.begin(), order.end(), 0);
  util::Rng rng(17);
  rng.shuffle(order);
  // Reading twice the largest private cache replaces every line in it.
  std::size_t private_bytes = 2 << 20;
  for (const auto& cache : benchmark::CPUInfo::Get().caches) {
    if (cache.num_sharing <= 1) private_bytes = std::max<std::size_t>(private_bytes, cache.size);
  }
  std::vector<std::uint64_t> sweep(2 * private_bytes / sizeof(std::uint64_t), 1);
  std::size_t next = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < sweep.size(); i += 64 / sizeof(std::uint64_t)) sum += sweep[i];
    benchmark::DoNotOptimize(sum);
    state.ResumeTiming();
    benchmark::DoNotOptimize(engine.recommend_singular(order[next]));
    next = (next + 1) % order.size();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(w.catalog.singular_ids().size()));
}
// Each iteration pays an untimed sweep of a few MB, so the count is fixed
// rather than grown to fill the default minimum time.
BENCHMARK(BM_EngineRecommendCarrierCold)->Iterations(2000);

// The same walk with a ModelWatch attached: prices the per-recommendation
// telemetry (pre-resolved instruments, relaxed atomics). The §17 budget is
// <5% over BM_EngineRecommendCarrier — eyeball the pair in any report; CI
// gates both through the shared 25% baseline window.
void BM_ModelWatchRecommend(benchmark::State& state) {
  const World& w = world();
  static obs::MetricsRegistry registry;
  static const core::ModelWatch watch(w.catalog, registry);
  static core::AuricEngine engine(w.topo, w.schema, w.catalog, w.assignment);
  engine.set_watch(&watch);
  netsim::CarrierId carrier = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.recommend_singular(carrier));
    carrier = static_cast<netsim::CarrierId>((carrier + 1) %
                                             static_cast<netsim::CarrierId>(
                                                 w.topo.carrier_count()));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(w.catalog.singular_ids().size()));
}
BENCHMARK(BM_ModelWatchRecommend);

// --- Relearn: full rebuild vs incremental delta-apply ----------------------
//
// BM_RelearnFull prices the from-scratch learn the weekly relearn cadence
// used to pay on every refresh. BM_RelearnIncremental toggles a resident
// engine between the inventory and a day's worth of slot churn (one launch
// cohort's reconfiguration), pricing AuricEngine::incremental_relearn — the
// acceptance bar is >= 5x cheaper than the full rebuild on this world.
// BM_RelearnParallel prices the full learn at 1 and 4 learn threads: output
// is byte-identical at any width (test_relearn), so this arm is purely a
// wall-clock observation (flat on the 1-core CI runner, scaling elsewhere).

/// A day's churn: ~21 carriers re-homed onto another carrier's values across
/// every singular column, plus the leading edges of every pairwise column.
/// Values are copied from existing slots so the label alphabet is stable —
/// the steady-state delta path, not the rebuild escape hatch.
config::ConfigAssignment day_churn(const World& w) {
  config::ConfigAssignment churned = w.assignment;
  const auto churn = [](config::ParamColumn& column) {
    const std::size_t n = column.entities();
    for (std::size_t e = 0; e < 21 && e < n; ++e) {
      const config::ValueIndex v = std::as_const(column).value[(e + 37) % n];
      column.set(e, v, column.intended_of(e), config::Cause::kDefault);
    }
  };
  for (auto& column : churned.singular) churn(column);
  for (auto& column : churned.pairwise) churn(column);
  return churned;
}

void BM_RelearnFull(benchmark::State& state) {
  const World& w = relearn_world();
  for (auto _ : state) {
    core::AuricEngine engine(w.topo, w.schema, w.catalog, w.assignment);
    benchmark::DoNotOptimize(&engine);
  }
}
BENCHMARK(BM_RelearnFull)->Unit(benchmark::kMillisecond);

void BM_RelearnIncremental(benchmark::State& state) {
  const World& w = relearn_world();
  static core::AuricEngine engine(w.topo, w.schema, w.catalog, w.assignment);
  static const config::ConfigAssignment churned = day_churn(w);
  bool forward = true;
  for (auto _ : state) {
    engine.incremental_relearn(forward ? churned : w.assignment);
    forward = !forward;
  }
}
BENCHMARK(BM_RelearnIncremental)->Unit(benchmark::kMillisecond);

void BM_RelearnParallel(benchmark::State& state) {
  const World& w = relearn_world();
  core::AuricOptions options;
  options.learn_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    core::AuricEngine engine(w.topo, w.schema, w.catalog, w.assignment, options);
    benchmark::DoNotOptimize(&engine);
  }
}
BENCHMARK(BM_RelearnParallel)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

// --- SmartLaunch push / sharded replay -------------------------------------
//
// The push arm prices one EMS round trip (lock, apply, unlock) — the unit
// the launch stream is made of. The sharded-replay arm runs a small but
// complete operation window at 1/4/8 EMS shards on a worker pool forced to
// one thread per shard; on a multi-core runner the N>1 arms must show the
// shard-parallel speedup, and CI fails the build if any arm regresses.

void BM_EmsPush(benchmark::State& state) {
  const World& w = world();
  smartlaunch::EmsOptions options;
  options.flaky_timeout_prob = 0.0;
  smartlaunch::EmsSimulator ems(w.topo.carrier_count(), options);
  const std::vector<config::MoSetting> settings = {
      {"ENodeBFunction", w.catalog.id_of("pMax"), 3},
      {"ENodeBFunction", w.catalog.id_of("crsGain"), 1}};
  netsim::CarrierId carrier = 0;
  for (auto _ : state) {
    ems.lock(carrier);
    benchmark::DoNotOptimize(ems.push(carrier, settings));
    ems.unlock(carrier);
    carrier = static_cast<netsim::CarrierId>(
        (carrier + 1) % static_cast<netsim::CarrierId>(w.topo.carrier_count()));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(settings.size()));
}
BENCHMARK(BM_EmsPush);

void BM_ShardedReplay(benchmark::State& state) {
  const auto shards = static_cast<int>(state.range(0));
  // A wider world than the shared one so every shard stays populated (market
  // hashing clusters small topologies onto few shards).
  static const netsim::Topology topo = [] {
    netsim::TopologyParams params;
    params.seed = 11;
    params.num_markets = 16;
    params.base_enodebs_per_market = 4;
    return netsim::generate_topology(params);
  }();
  static const netsim::AttributeSchema schema = netsim::AttributeSchema::standard(topo);
  static const config::ParamCatalog catalog = config::ParamCatalog::standard();
  static const config::GroundTruthModel ground_truth(topo, schema, catalog);
  static const config::ConfigAssignment assignment = ground_truth.assign();

  util::set_worker_count(static_cast<std::size_t>(shards));
  if (shards > 1) util::TaskPool::shared().reserve(static_cast<std::size_t>(shards));

  smartlaunch::ReplayOptions options;
  options.days = 7;
  options.launches_per_day = 16;
  options.robust = true;
  options.shards = shards;
  for (auto _ : state) {
    smartlaunch::OperationReplay replay(topo, schema, catalog, ground_truth, assignment,
                                        options);
    benchmark::DoNotOptimize(replay.run());
  }
  util::set_worker_count(0);
  state.SetItemsProcessed(state.iterations() * options.days * options.launches_per_day);
}
BENCHMARK(BM_ShardedReplay)->Arg(1)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

// --- Checkpoint persistence -------------------------------------------------
//
// The arm prices one save() of a GROWN state image (a multi-week window's
// accumulated journal/quarantine/slot deltas) after a small per-iteration
// mutation — the shape every post-launch checkpoint has: the store appends
// only the delta. bytes_per_save (from auric_checkpoint_bytes_total) is the
// honest metric. fsync is off so the arm prices serialization + write
// volume, not the (noisy, device-bound) flush cost.

io::LaunchState grown_launch_state() {
  io::LaunchState s;
  for (int c = 0; c < 2000; ++c) {
    s.journal.emplace_back(static_cast<netsim::CarrierId>(c),
                           static_cast<std::uint64_t>(3 + c % 7));
  }
  for (int c = 0; c < 500; ++c) {
    s.quarantine.emplace_back(static_cast<netsim::CarrierId>(c * 4), 1 + c % 3);
  }
  for (int e = 0; e < 1500; ++e) {
    io::LaunchState::SlotWrite w;
    w.param_pos = 0;
    w.entity = static_cast<std::uint64_t>(e);
    w.value = e % 11;
    s.applied_slots.push_back(w);
  }
  s.relearn_applied_slots = s.applied_slots;
  s.ems.pushes_executed = 4000;
  s.progress = {{"day", "42"}, {"launches", "880"}, {"kpi", "0x1.8p-1"}};
  return s;
}

/// One day's worth of churn: a handful of journal offsets, one quarantine
/// bump, a few fresh slot writes and the progress counters.
void mutate_launch_state(io::LaunchState& s, std::uint64_t step) {
  for (int k = 0; k < 4; ++k) {
    auto& entry = s.journal[(step * 97 + static_cast<std::uint64_t>(k) * 13) % s.journal.size()];
    entry.second += 1;
  }
  s.quarantine[step % s.quarantine.size()].second += 1;
  auto& slot = s.applied_slots[(step * 31) % s.applied_slots.size()];
  slot.value = static_cast<std::int32_t>((slot.value + 1) % 11);
  s.ems.pushes_executed += 3;
  s.progress[1].second = std::to_string(880 + step);
}

void BM_CheckpointJournal(benchmark::State& state) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "auric_bench_ckpt_journal").string();
  std::filesystem::remove_all(dir);
  io::LaunchStateStore::Options options;
  options.fsync = false;
  const io::LaunchStateStore store(dir, options);
  io::LaunchState image = grown_launch_state();
  store.save(image);  // prime: the baseline snapshot is not what we price
  obs::Counter& bytes =
      obs::MetricsRegistry::global().counter("auric_checkpoint_bytes_total");
  const std::uint64_t bytes_before = bytes.value();
  std::uint64_t step = 0;
  for (auto _ : state) {
    mutate_launch_state(image, ++step);
    store.save(image);
  }
  state.counters["bytes_per_save"] = benchmark::Counter(
      static_cast<double>(bytes.value() - bytes_before) /
      static_cast<double>(state.iterations()));
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_CheckpointJournal)->Unit(benchmark::kMicrosecond);

// --- Observability primitives ---------------------------------------------
//
// The instrumented hot paths (EMS push, executor retry loop, recommend) pay
// one counter increment or histogram observe per event; these arms price
// that per-event cost so the ≤2% overhead budget is checkable from the
// bench output. The lookup arm prices a full registry resolution, which
// call sites do once and cache — it must stay off hot paths.

void BM_ObsCounterInc(benchmark::State& state) {
  obs::Counter& counter =
      obs::MetricsRegistry::global().counter("bench_micro_counter", "bench arm");
  for (auto _ : state) {
    counter.inc();
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsCounterInc);

void BM_ObsCounterLookupAndInc(benchmark::State& state) {
  auto& registry = obs::MetricsRegistry::global();
  for (auto _ : state) {
    registry.counter("bench_micro_labeled", "bench arm", {{"kind", "lookup"}}).inc();
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsCounterLookupAndInc);

void BM_ObsHistogramObserve(benchmark::State& state) {
  obs::Histogram& histogram = obs::MetricsRegistry::global().histogram(
      "bench_micro_histogram", obs::default_latency_bounds_ms(), "bench arm");
  double v = 0.1;
  for (auto _ : state) {
    histogram.observe(v);
    v = v < 9000.0 ? v * 1.7 : 0.1;
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsHistogramObserve);

void BM_ObsScopedSpan(benchmark::State& state) {
  obs::TraceRecorder& recorder = obs::TraceRecorder::global();
  recorder.set_enabled(true);
  for (auto _ : state) {
    obs::ScopedSpan span("bench.span");
    benchmark::DoNotOptimize(span.id());
  }
  recorder.clear();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsScopedSpan);

void BM_ObsServeTrace(benchmark::State& state) {
  // The spans of one served /recommend: the listener's root plus 4
  // children, tail retention on and the trace dropped (the common case).
  obs::TraceRecorder& recorder = obs::TraceRecorder::global();
  const obs::SpanNameId root_name = recorder.intern("http.", "/recommend");
  for (auto _ : state) {
    obs::ScopedSpan root(root_name, recorder, obs::ScopedSpan::kTraceRoot);
    { obs::ScopedSpan request("serve.recommend"); }
    { obs::ScopedSpan admission("serve.admission"); }
    { obs::ScopedSpan bulkhead("serve.bulkhead"); }
    { obs::ScopedSpan engine("core.recommend"); }
    benchmark::DoNotOptimize(root.id());
  }
  if (state.thread_index() == 0) recorder.clear();
  state.SetItemsProcessed(state.iterations() * 5);
}
BENCHMARK(BM_ObsServeTrace)->Threads(1)->Threads(4);

void BM_ObsScopedSpanDisabled(benchmark::State& state) {
  obs::TraceRecorder& recorder = obs::TraceRecorder::global();
  recorder.set_enabled(false);
  for (auto _ : state) {
    obs::ScopedSpan span("bench.span");
    benchmark::DoNotOptimize(span.id());
  }
  recorder.set_enabled(true);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsScopedSpanDisabled);

void BM_ObsTraceContextScope(benchmark::State& state) {
  // The per-task cost TaskPool pays to stitch traces across the fan-out:
  // capture, install, restore.
  const obs::TraceContext ctx{obs::TraceId{1, 2}, 3, 0};
  for (auto _ : state) {
    obs::TraceContextScope scope(ctx);
    benchmark::DoNotOptimize(obs::current_trace_context().span);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsTraceContextScope);

void BM_ObsTraceparentParse(benchmark::State& state) {
  // Per-request header cost on the serve plane.
  const std::string header = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01";
  for (auto _ : state) {
    std::optional<obs::Traceparent> parsed = obs::parse_traceparent(header);
    benchmark::DoNotOptimize(parsed);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsTraceparentParse);

void BM_ObsHistogramObserveExemplar(benchmark::State& state) {
  // observe() with exemplars on and a live trace context — the extra cost
  // over BM_ObsHistogramObserve is the exemplar spinlock write.
  obs::Histogram& histogram = obs::MetricsRegistry::global().histogram(
      "bench_micro_exemplar_hist", obs::default_latency_bounds_ms(), "bench arm");
  histogram.enable_exemplars();
  obs::TraceContextScope scope(obs::TraceContext{obs::TraceId{0, 99}, 7, 0});
  double v = 0.1;
  for (auto _ : state) {
    histogram.observe(v);
    v = v < 9000.0 ? v * 1.7 : 0.1;
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsHistogramObserveExemplar);

// --- Live plane ------------------------------------------------------------
//
// The live plane adds work per *sample tick*, not per event: one registry
// snapshot, one rule sweep, and (when scraped) one text render. At the
// default 100 ms cadence the per-tick cost below must amortize to <2% of a
// replay step, which these arms make checkable: tick cost × 10/s against
// the replay arm's per-second budget.

void BM_ObsSamplerTick(benchmark::State& state) {
  // A registry about the size a replay run carries (~60 instruments).
  obs::MetricsRegistry registry;
  for (int i = 0; i < 20; ++i) {
    registry.counter("tick_counter", "", {{"k", std::to_string(i)}}).inc(i);
    registry.gauge("tick_gauge", "", {{"k", std::to_string(i)}}).set(i);
    registry.histogram("tick_hist", obs::default_latency_bounds_ms(), "",
                       {{"k", std::to_string(i)}})
        .observe(i + 0.5);
  }
  obs::SamplerOptions options;
  options.capacity = 600;
  obs::Sampler sampler(registry, options);
  double t = 0.0;
  for (auto _ : state) {
    sampler.tick(t);
    t += 0.1;
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(registry.size()));
}
BENCHMARK(BM_ObsSamplerTick);

void BM_ObsRuleEvaluation(benchmark::State& state) {
  obs::MetricsRegistry registry;
  registry.counter("bad_total").inc(1);
  registry.counter("all_total").inc(100);
  registry.gauge("depth").set(3.0);
  obs::RuleEngine engine(registry);
  engine.load_text(
      "depth_high,threshold,depth,>,100\n"
      "bad_rate,rate_over_window,bad_total,>,50,10\n"
      "heartbeat,absence,all_total,>,0\n"
      "burn,burn_rate,bad_total/all_total,>,0.9,5,30\n");
  obs::Sampler sampler(registry);
  double t = 0.0;
  sampler.tick(t);
  for (auto _ : state) {
    t += 0.1;
    sampler.tick(t);
    engine.evaluate(sampler, t);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(engine.size()));
}
BENCHMARK(BM_ObsRuleEvaluation);

void BM_ObsScrapeRender(benchmark::State& state) {
  obs::MetricsRegistry registry;
  for (int i = 0; i < 20; ++i) {
    registry.counter("scrape_counter", "a counter", {{"k", std::to_string(i)}}).inc(i);
    registry.histogram("scrape_hist", obs::default_latency_bounds_ms(), "a histogram",
                       {{"k", std::to_string(i)}})
        .observe(i + 0.5);
  }
  const util::LivePlane plane({}, registry);  // inert: routes, never listens
  for (auto _ : state) {
    benchmark::DoNotOptimize(plane.handle("GET", "/metrics"));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(registry.size()));
}
BENCHMARK(BM_ObsScrapeRender);

// --- Serve request plane ----------------------------------------------------
//
// BM_ServeRecommend prices the full in-process request path (admission ->
// deadline -> bulkhead -> engine snapshot -> recommend -> JSON) against a
// warmed daemon, all on the calling thread, as a connection thread runs it.
// BM_ServeAdmission prices the shed fast path (queue_high_water = 0) — the
// cost every request pays under overload, which must stay near-free (no
// engine work) for shedding to actually protect the daemon.

void BM_ServeRecommend(benchmark::State& state) {
  const World& w = world();
  static obs::MetricsRegistry registry;
  static const config::GroundTruthModel ground_truth(w.topo, w.schema, w.catalog);
  static serve::ServeDaemon daemon(w.topo, w.schema, w.catalog, w.assignment, ground_truth,
                                   serve::ServeOptions{}, registry);
  daemon.warm_up();
  obs::HttpRequest request;
  request.method = "GET";
  const auto carriers = static_cast<netsim::CarrierId>(w.topo.carrier_count());
  netsim::CarrierId carrier = 0;
  for (auto _ : state) {
    request.target = "/recommend?carrier=" + std::to_string(carrier);
    obs::HttpResponse response = daemon.handle(request);
    if (response.status != 200) state.SkipWithError("recommend returned non-200");
    benchmark::DoNotOptimize(response.body.data());
    carrier = static_cast<netsim::CarrierId>((carrier + 1) % carriers);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServeRecommend)->Unit(benchmark::kMicrosecond);

// BM_ServeDiff prices the same path on /diff: the SmartLaunch plan (every
// applicable slot's vendor value and recommendation) plus its render.
void BM_ServeDiff(benchmark::State& state) {
  const World& w = world();
  static obs::MetricsRegistry registry;
  static const config::GroundTruthModel ground_truth(w.topo, w.schema, w.catalog);
  static serve::ServeDaemon daemon(w.topo, w.schema, w.catalog, w.assignment, ground_truth,
                                   serve::ServeOptions{}, registry);
  daemon.warm_up();
  obs::HttpRequest request;
  request.method = "GET";
  const auto carriers = static_cast<netsim::CarrierId>(w.topo.carrier_count());
  netsim::CarrierId carrier = 0;
  for (auto _ : state) {
    request.target = "/diff?carrier=" + std::to_string(carrier);
    obs::HttpResponse response = daemon.handle(request);
    if (response.status != 200) state.SkipWithError("diff returned non-200");
    benchmark::DoNotOptimize(response.body.data());
    carrier = static_cast<netsim::CarrierId>((carrier + 1) % carriers);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServeDiff)->Unit(benchmark::kMicrosecond);

// The two layers under /diff: enumerating a carrier's slots with their MO
// paths, and the whole plan (slots, vendor values, one batched recommend).
void BM_ApplicableSlots(benchmark::State& state) {
  const World& w = world();
  const auto carriers = static_cast<netsim::CarrierId>(w.topo.carrier_count());
  netsim::CarrierId carrier = 0;
  std::size_t slots = 0;
  for (auto _ : state) {
    const auto refs = smartlaunch::applicable_slots(w.topo, w.catalog, w.assignment, carrier);
    slots += refs.size();
    benchmark::DoNotOptimize(refs.data());
    carrier = static_cast<netsim::CarrierId>((carrier + 1) % carriers);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(slots));
}
BENCHMARK(BM_ApplicableSlots);

void BM_PlanChangesDetailed(benchmark::State& state) {
  const World& w = world();
  static const config::GroundTruthModel ground_truth(w.topo, w.schema, w.catalog);
  static const config::Rulebook rulebook(ground_truth, w.catalog);
  static const core::AuricEngine engine(w.topo, w.schema, w.catalog, w.assignment);
  static const smartlaunch::LaunchController controller(engine, rulebook, w.assignment);
  const auto carriers = static_cast<netsim::CarrierId>(w.topo.carrier_count());
  netsim::CarrierId carrier = 0;
  for (auto _ : state) {
    std::size_t slots = 0;
    benchmark::DoNotOptimize(controller.plan_changes_detailed(carrier, nullptr, &slots));
    benchmark::DoNotOptimize(slots);
    carrier = static_cast<netsim::CarrierId>((carrier + 1) % carriers);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PlanChangesDetailed)->Unit(benchmark::kMicrosecond);

void BM_ServeAdmission(benchmark::State& state) {
  const World& w = world();
  static obs::MetricsRegistry registry;
  static const config::GroundTruthModel ground_truth(w.topo, w.schema, w.catalog);
  static serve::ServeDaemon daemon(w.topo, w.schema, w.catalog, w.assignment, ground_truth,
                                   [] {
                                     serve::ServeOptions options;
                                     options.queue_high_water = 0;  // shed everything
                                     return options;
                                   }(),
                                   registry);
  daemon.warm_up();
  obs::HttpRequest request;
  request.method = "GET";
  request.target = "/recommend?carrier=0";
  for (auto _ : state) {
    obs::HttpResponse response = daemon.handle(request);
    if (response.status != 503) state.SkipWithError("expected a shed (503)");
    benchmark::DoNotOptimize(response.body.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServeAdmission);

}  // namespace
}  // namespace auric

BENCHMARK_MAIN();
