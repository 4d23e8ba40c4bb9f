// The ground-truth configuration model: a generative stand-in for the
// operational process that produced the paper's proprietary dataset.
//
// §2.4 and §4.3.3 of the paper describe how LTE configuration actually comes
// to be: rule-book defaults, per-attribute engineering rules, market teams
// with their own tuning styles, geographically local optimization, ongoing
// trials, stale leftovers of abandoned trials, and plain unexplained
// variation. This module turns that narrative into a parameterized
// generative model (DESIGN.md §6) so that
//   (a) the learners face the same statistical challenges the paper reports
//       (high variability, high skewness, locality), and
//   (b) every mismatch between a recommendation and the current network
//       value has a knowable cause, letting the evaluation reproduce the
//       engineer-labeling experiment (Fig. 12) with an oracle.
//
// Every per-slot decision is a pure function of (seed, parameter, entity)
// via hash_combine, so the assignment is order-independent and two runs with
// the same seed agree exactly even across different traversal orders.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "config/assignment.h"
#include "config/catalog.h"
#include "netsim/attributes.h"
#include "netsim/topology.h"

namespace auric::config {

struct GroundTruthParams {
  std::uint64_t seed = 7;

  /// Per (parameter, dependent attribute, attribute value): probability that
  /// engineering practice attaches a non-zero offset to that value.
  double attr_value_rule_prob = 0.35;

  /// Probability of an interaction offset on a pair of dependent-attribute
  /// values (captures rules like "urban AND high-band").
  double interaction_prob = 0.05;

  /// Number of carrier attributes a parameter depends on: uniform in
  /// [attrs_per_param_min, attrs_per_param_max].
  int attrs_per_param_min = 1;
  int attrs_per_param_max = 3;

  /// Per (parameter, market): base probability the market's team applies its
  /// own offset; scaled by a per-market tuning intensity in [0.4, 1.6].
  double market_style_base = 0.30;

  /// Sub-market location styles: for heavily tuned parameters (richness >=
  /// tac_style_min_richness), each tracking area independently carries its
  /// own tuning level with this probability. This is the paper's "the same
  /// parameters can have varying values across different locations" —
  /// exactly matchable by CF once the chi-square scan flags the tracking
  /// area code, but diluted across the one-hot columns for the sampled-
  /// feature learners.
  double tac_style_prob = 0.25;
  int tac_style_min_richness = 5;

  /// Local tuning pockets: fraction of parameters that have pockets, the
  /// fraction of sites covered, and the pocket size in sites.
  double pocket_param_prob = 0.45;
  double pocket_site_frac = 0.03;
  int pocket_sites = 4;

  /// Ongoing-trial pockets (cause (ii) of §4.3.3's "update learner" label).
  double trial_param_prob = 0.30;
  double trial_site_frac = 0.007;
  int trial_sites = 2;

  /// Fraction of parameters whose value responds to terrain (the attribute
  /// hidden from learners; cause (i) of "update learner").
  double terrain_param_prob = 0.18;

  /// Per configured slot: probability the slot kept a stale value from an
  /// abandoned trial (Fig. 12's "good recommendation" mass)...
  double stale_rate = 0.014;
  /// ...or carries an unexplained perturbation ("inconclusive" mass).
  double noise_rate = 0.017;
};

class GroundTruthModel {
 public:
  /// Builds the per-parameter plans (dependent attributes, offsets, pockets,
  /// trials). `topology` and `catalog` must outlive the model.
  GroundTruthModel(const netsim::Topology& topology, const netsim::AttributeSchema& schema,
                   const ParamCatalog& catalog, GroundTruthParams params = {});

  /// Materializes the full network configuration.
  ConfigAssignment assign() const;

  /// The value (+ intended + cause) for one singular parameter on one
  /// carrier. `si` is a position in catalog.singular_ids().
  void assign_singular(std::size_t si, netsim::CarrierId carrier, ValueIndex& value,
                       ValueIndex& intended, Cause& cause) const;

  /// Same for one pair-wise parameter on one directed X2 edge. `pi` is a
  /// position in catalog.pairwise_ids(). `relation_representative` says
  /// whether edge.to is edge.from's lowest-id neighbor of edge.to's
  /// frequency: a PairScope::kPerFrequencyRelation parameter is configured
  /// on that edge only.
  void assign_pairwise(std::size_t pi, const netsim::X2Edge& edge, bool relation_representative,
                       ValueIndex& value, ValueIndex& intended, Cause& cause) const;

  /// Dependent carrier-side attribute indices the model actually wired for
  /// parameter `p` (catalog id). Exposed so integration tests can check that
  /// Auric's chi-square scan discovers the true dependency structure.
  const std::vector<std::size_t>& true_dependent_attrs(ParamId p) const;

  /// Accessors used by the vendor-config generator and the rule-book
  /// exporter: intent value with ONLY rule-book-expressible components
  /// (default + attribute rules; no market styles, pockets, terrain).
  ValueIndex rulebook_value(ParamId p, const netsim::Carrier& carrier) const;
  ValueIndex rulebook_value(ParamId p, const netsim::Carrier& carrier,
                            const netsim::Carrier& neighbor) const;

  const GroundTruthParams& params() const { return params_; }

 private:
  struct ParamPlan {
    std::vector<std::size_t> dep_attrs;                 // carrier-side schema attrs
    std::vector<std::size_t> dep_neighbor_attrs;        // pairwise: neighbor-side attrs
    std::vector<std::vector<int>> attr_offsets;         // [dep attr][code] -> offset (steps)
    std::vector<std::vector<int>> neighbor_attr_offsets;
    std::vector<std::vector<int>> interaction_offsets;  // [code0][code1] for first two deps
    std::vector<int> market_offsets;                    // [market] (0 = untuned)
    std::vector<int> tac_offsets;                       // [tracking area] (0 = untuned)
    std::unordered_map<netsim::ENodeBId, int> pocket_offsets;  // site -> offset
    std::unordered_set<netsim::ENodeBId> trial_sites;
    int trial_offset = 0;
    int terrain_offsets[3] = {0, 0, 0};                 // per Terrain class
    int step_scale = 1;                                 // offset unit in domain indices
    int sign_mode = 0;  // tuning direction: +1 up-only, -1 down-only, 0 both
  };

  const netsim::Topology& topology_;
  const netsim::AttributeSchema& schema_;
  const ParamCatalog& catalog_;
  GroundTruthParams params_;
  std::vector<ParamPlan> plans_;  // one per catalog parameter
  std::vector<std::vector<netsim::AttrCode>> attr_codes_;  // [attr][carrier]

  ParamPlan build_plan(ParamId p);

  /// Deterministic uniform in [0,1) from structured key parts.
  double hash01(std::initializer_list<std::uint64_t> parts) const;

  /// True when parameter `p`'s feature is activated on `site`.
  bool feature_active(ParamId p, netsim::ENodeBId site) const;

  /// Intended value components shared by singular and pairwise assignment.
  int intent_offset(const ParamPlan& plan, ParamId p, const netsim::Carrier& carrier,
                    const netsim::Carrier* neighbor, Cause& cause) const;

  void assign_slot(ParamId p, const netsim::Carrier& carrier, const netsim::Carrier* neighbor,
                   std::uint64_t slot_key, ValueIndex& value, ValueIndex& intended,
                   Cause& cause) const;
};

}  // namespace auric::config
