// The benchmark's world: the in-repo synthetic network at a chosen scale,
// its ground-truth configuration, and timed engine learns over it.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "config/assignment.h"
#include "config/catalog.h"
#include "config/ground_truth.h"
#include "core/engine.h"
#include "netsim/attributes.h"
#include "netsim/topology.h"

namespace perfbench {

/// Network shape. The defaults are the repository's default scale (28
/// markets x 55 eNodeBs, 13,470 carriers at topology seed 1), the world
/// `auric generate` and `auric serve` build without flags.
struct WorldOptions {
  std::uint64_t seed = 1;
  int markets = 28;
  int scale = 55;
};

/// Not movable: the ground-truth model keeps references into the world.
struct World {
  World() = default;
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  auric::netsim::Topology topology;
  auric::netsim::AttributeSchema schema;
  auric::config::ParamCatalog catalog = auric::config::ParamCatalog::standard();
  std::unique_ptr<auric::config::GroundTruthModel> ground_truth;
  auric::config::ConfigAssignment assignment;
  std::uint64_t seed = 1;   ///< topology seed (WorldOptions::seed)
  double generate_s = 0.0;  ///< topology generation + attribute schema
  double assign_s = 0.0;    ///< ground-truth model + configuration assignment
};

/// Generates the world, timing generation and assignment separately. The
/// ground-truth seed is the topology seed + 6, as in `auric generate`.
std::unique_ptr<World> build_world(const WorldOptions& options);

/// Wall time of one full engine learn, split by the engine's own phase
/// histograms (auric_engine_phase_seconds sums over the learn).
struct LearnTiming {
  double wall_s = 0.0;
  double param_view_s = 0.0;
  double dependency_s = 0.0;
  double voting_s = 0.0;
};

/// Learns an engine with default options over `assignment`.
std::unique_ptr<auric::core::AuricEngine> learn_engine(
    const World& world, const auric::config::ConfigAssignment& assignment,
    LearnTiming* timing = nullptr);

/// `count` distinct carrier ids out of [0, carriers): the prefix of a
/// seeded shuffle of the id space (the sampling core::diff_engines uses).
std::vector<auric::netsim::CarrierId> seeded_sample(std::size_t carriers, std::uint64_t seed,
                                                    std::size_t count);

/// A copy of the world's assignment with day-scale churn: `carriers` seeded
/// distinct carriers get every configured singular slot redrawn uniformly
/// from its parameter's domain.
auric::config::ConfigAssignment churned_assignment(const World& world, std::uint64_t seed,
                                                   int carriers);

/// An independent seed for sub-stream `stream` of workload seed `seed`
/// (SplitMix64 finalizer), so the traffic, the probes and the churn of one
/// run never share random draws.
inline std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Peak resident set (VmHWM) of this process in MiB; 0 when unreadable.
double peak_rss_mb();

/// CPU time this process has used, all threads, in seconds. Unlike wall
/// time it does not grow while the host keeps a virtual CPU waiting, so
/// CPU per operation stays steady when latency does not.
double process_cpu_s();

}  // namespace perfbench
