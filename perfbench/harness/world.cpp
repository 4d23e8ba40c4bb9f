#include "harness/world.h"

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>

#include "harness/registry_delta.h"
#include "netsim/generator.h"
#include "util/rng.h"

namespace perfbench {

std::unique_ptr<World> build_world(const WorldOptions& options) {
  auto world = std::make_unique<World>();
  world->seed = options.seed;
  auric::netsim::TopologyParams params;
  params.seed = options.seed;
  params.num_markets = options.markets;
  params.base_enodebs_per_market = options.scale;

  Clock::time_point start = Clock::now();
  world->topology = auric::netsim::generate_topology(params);
  world->schema = auric::netsim::AttributeSchema::standard(world->topology);
  world->generate_s = seconds_since(start);

  start = Clock::now();
  auric::config::GroundTruthParams gt;
  gt.seed = options.seed + 6;
  world->ground_truth = std::make_unique<auric::config::GroundTruthModel>(
      world->topology, world->schema, world->catalog, gt);
  world->assignment = world->ground_truth->assign();
  world->assign_s = seconds_since(start);
  return world;
}

std::unique_ptr<auric::core::AuricEngine> learn_engine(
    const World& world, const auric::config::ConfigAssignment& assignment,
    LearnTiming* timing) {
  const RegistrySnapshot before = RegistrySnapshot::take();
  const Clock::time_point start = Clock::now();
  auto engine = std::make_unique<auric::core::AuricEngine>(world.topology, world.schema,
                                                           world.catalog, assignment);
  const double wall = seconds_since(start);
  if (timing != nullptr) {
    const RegistrySnapshot after = RegistrySnapshot::take();
    const auto phase = [&](const char* name) {
      return delta(before, after, "auric_engine_phase_seconds", name).sum;
    };
    timing->wall_s = wall;
    timing->param_view_s = phase("param_view");
    timing->dependency_s = phase("dependency");
    timing->voting_s = phase("voting");
  }
  return engine;
}

std::vector<auric::netsim::CarrierId> seeded_sample(std::size_t carriers, std::uint64_t seed,
                                                    std::size_t count) {
  std::vector<auric::netsim::CarrierId> ids(carriers);
  std::iota(ids.begin(), ids.end(), 0);
  auric::util::Rng rng(seed);
  rng.shuffle(ids);
  ids.resize(std::min(count, carriers));
  return ids;
}

auric::config::ConfigAssignment churned_assignment(const World& world, std::uint64_t seed,
                                                   int carriers) {
  auric::config::ConfigAssignment copy = world.assignment;
  const std::vector<auric::netsim::CarrierId> ids = seeded_sample(
      world.topology.carrier_count(), seed, static_cast<std::size_t>(carriers));
  auric::util::Rng rng(stream_seed(seed, 1));
  const auto& singular = world.catalog.singular_ids();
  for (std::size_t si = 0; si < singular.size(); ++si) {
    const auto& domain = world.catalog.at(singular[si]).domain;
    auto& column = copy.singular[si].value;
    for (const auric::netsim::CarrierId c : ids) {
      auto& value = column[static_cast<std::size_t>(c)];
      if (value != auric::config::kUnset) {
        value = static_cast<auric::config::ValueIndex>(rng.uniform_int(0, domain.size() - 1));
      }
    }
  }
  return copy;
}

double peak_rss_mb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::atof(line + 6);
      break;
    }
  }
  std::fclose(status);
  return kb / 1024.0;
}

double process_cpu_s() {
  timespec used{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &used);
  return static_cast<double>(used.tv_sec) + static_cast<double>(used.tv_nsec) * 1e-9;
}

}  // namespace perfbench
