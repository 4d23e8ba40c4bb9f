#include "config/ground_truth.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <stdexcept>

#include "util/rng.h"

namespace auric::config {

namespace {

using netsim::AttrCode;
using netsim::Carrier;
using netsim::CarrierId;
using netsim::ENodeBId;
using netsim::Terrain;
using netsim::X2Edge;
using util::hash_combine;

// Domain tags keeping the per-purpose hash streams independent.
constexpr std::uint64_t kTagActive = 0xAC71F3ULL;
constexpr std::uint64_t kTagSlot = 0x510717ULL;
constexpr std::uint64_t kTagStaleOff = 0x57A1E0ULL;
constexpr std::uint64_t kTagNoiseOff = 0x4015E0ULL;

/// Signed tuning level in [-max_level, -1] U [1, max_level] from a hash.
/// `sign_mode` biases the direction: +1 = upward only (defaults near the
/// bottom of the domain can only be tuned up, e.g. timers), -1 = downward
/// only, 0 = both directions.
int signed_level(std::uint64_t h, int max_level, int sign_mode = 0) {
  const int level = 1 + static_cast<int>(h % static_cast<std::uint64_t>(std::max(1, max_level)));
  if (sign_mode > 0) return level;
  if (sign_mode < 0) return -level;
  return ((h >> 32) & 1) != 0 ? level : -level;
}

/// rep[e] = 1 when edge e goes to its carrier's lowest-id neighbor of that
/// neighbor's frequency: the one edge of each frequency relation that a
/// per-relation parameter is configured on. A carrier's edges run in
/// ascending neighbor order, so the first edge seen per frequency is it.
std::vector<char> relation_representatives(const netsim::Topology& topology) {
  std::vector<char> rep(topology.edge_count(), 0);
  std::vector<int> seen;
  for (std::size_t c = 0; c < topology.carrier_count(); ++c) {
    seen.clear();
    for (std::size_t e = topology.edge_offsets[c]; e < topology.edge_offsets[c + 1]; ++e) {
      const int freq = topology.carrier(topology.edges[e].to).frequency_mhz;
      if (std::find(seen.begin(), seen.end(), freq) == seen.end()) {
        seen.push_back(freq);
        rep[e] = 1;
      }
    }
  }
  return rep;
}

}  // namespace

GroundTruthModel::GroundTruthModel(const netsim::Topology& topology,
                                   const netsim::AttributeSchema& schema,
                                   const ParamCatalog& catalog, GroundTruthParams params)
    : topology_(topology), schema_(schema), catalog_(catalog), params_(params) {
  attr_codes_ = schema_.encode_all(topology_);
  plans_.reserve(catalog_.size());
  for (std::size_t p = 0; p < catalog_.size(); ++p) {
    plans_.push_back(build_plan(static_cast<ParamId>(p)));
  }
}

double GroundTruthModel::hash01(std::initializer_list<std::uint64_t> parts) const {
  return static_cast<double>(hash_combine(parts) >> 11) * 0x1.0p-53;
}

GroundTruthModel::ParamPlan GroundTruthModel::build_plan(ParamId p) {
  const ParamDef& def = catalog_.at(p);
  ParamPlan plan;
  plan.step_scale = std::max(1, def.domain.size() / 48);

  // Tuning direction: defaults parked near a domain boundary leave room in
  // only one direction (timers near the bottom are tuned up, thresholds near
  // the top are tuned down). Without this, large offsets clamp onto the
  // boundary and the value population collapses.
  plan.sign_mode = def.default_index < def.domain.size() / 4
                       ? 1
                       : (def.default_index > 3 * def.domain.size() / 4 ? -1 : 0);
  const int sign_mode = plan.sign_mode;

  util::Rng rng(hash_combine({params_.seed, 0x9AA7ULL, static_cast<std::uint64_t>(p)}));

  // Engineering practice tunes most parameters predominantly in one
  // direction (raise a timer, lower a threshold); the per-parameter
  // dominant direction drives the heavy skewness of Fig. 4.
  const int dominant_sign = rng.bernoulli(0.5) ? 1 : -1;
  const auto draw_level = [&](int max_level) {
    if (sign_mode != 0) return signed_level(rng(), max_level, sign_mode);
    const int sign = rng.bernoulli(0.85) ? dominant_sign : -dominant_sign;
    return signed_level(rng(), max_level, sign);
  };

  // --- Dependent carrier attributes ---
  // Pool excludes market / tracking_area_code (market tuning is modeled
  // separately as "market styles") and the dynamic neighbor count.
  struct Candidate {
    const char* name;
    double weight;
  };
  static constexpr Candidate kPool[] = {
      {"carrier_frequency", 3.0}, {"morphology", 3.0},     {"channel_bandwidth", 2.0},
      {"carrier_type", 1.5},      {"hardware", 1.5},       {"cell_size", 1.5},
      {"dl_mimo_mode", 1.0},      {"software_version", 1.0}, {"vendor", 1.0},
      {"carrier_info", 1.0},      {"neighbor_channel", 1.0},
  };
  const int want = static_cast<int>(
      rng.uniform_int(params_.attrs_per_param_min, params_.attrs_per_param_max));
  std::vector<double> weights;
  for (const auto& cand : kPool) weights.push_back(cand.weight);
  while (static_cast<int>(plan.dep_attrs.size()) < want) {
    const std::size_t pick = rng.weighted_index(weights);
    if (weights[pick] == 0.0) continue;
    weights[pick] = 0.0;  // without replacement
    plan.dep_attrs.push_back(schema_.index_of(kPool[pick].name));
  }
  std::sort(plan.dep_attrs.begin(), plan.dep_attrs.end());

  // Pairwise parameters can additionally depend on the neighbor's layer.
  if (def.kind == ParamKind::kPairwise && rng.bernoulli(0.6)) {
    plan.dep_neighbor_attrs.push_back(schema_.index_of(
        rng.bernoulli(0.7) ? "carrier_frequency" : "morphology"));
  }

  const int attr_level = std::clamp(def.richness / 3, 1, 14);
  const auto make_offsets = [&](std::size_t attr) {
    std::vector<int> offsets(schema_.cardinality(attr), 0);
    for (std::size_t code = 0; code < offsets.size(); ++code) {
      if (rng.bernoulli(params_.attr_value_rule_prob)) {
        offsets[code] = draw_level(attr_level) * plan.step_scale;
      }
    }
    return offsets;
  };
  for (std::size_t attr : plan.dep_attrs) plan.attr_offsets.push_back(make_offsets(attr));
  for (std::size_t attr : plan.dep_neighbor_attrs) {
    plan.neighbor_attr_offsets.push_back(make_offsets(attr));
  }

  // Interaction rules over the first two dependent attributes ("urban AND
  // high band"-style engineering rules).
  if (plan.dep_attrs.size() >= 2) {
    const std::size_t c0 = schema_.cardinality(plan.dep_attrs[0]);
    const std::size_t c1 = schema_.cardinality(plan.dep_attrs[1]);
    plan.interaction_offsets.assign(c0, std::vector<int>(c1, 0));
    for (std::size_t i = 0; i < c0; ++i) {
      for (std::size_t j = 0; j < c1; ++j) {
        if (rng.bernoulli(params_.interaction_prob)) {
          plan.interaction_offsets[i][j] = draw_level(attr_level) * plan.step_scale;
        }
      }
    }
  }

  // --- Market styles ---
  // Engineering teams do not invent arbitrary values: per parameter there is
  // a small menu of alternative tuning levels in circulation (richer menus
  // for heavily hand-tuned parameters), and each tuning market picks one.
  // This keeps low-richness parameters near the paper's <=10 distinct values
  // while letting high-richness ones spread (Fig. 2).
  const int market_level = std::clamp(def.richness / 2, 1, 21);
  std::vector<int> level_menu(static_cast<std::size_t>(
      std::clamp(def.richness / 3, 2, 48)));
  for (int& level : level_menu) level = draw_level(market_level) * plan.step_scale;

  // Sub-market location styles, keyed by tracking area (see
  // GroundTruthParams::tac_style_prob).
  std::size_t max_tac = 0;
  for (const netsim::Carrier& c : topology_.carriers) {
    max_tac = std::max(max_tac, static_cast<std::size_t>(c.tracking_area_code));
  }
  plan.tac_offsets.assign(max_tac + 1, 0);
  if (def.richness >= params_.tac_style_min_richness) {
    for (int& offset : plan.tac_offsets) {
      if (rng.bernoulli(params_.tac_style_prob)) {
        offset = level_menu[static_cast<std::size_t>(rng()) % level_menu.size()];
      }
    }
  }

  plan.market_offsets.assign(topology_.markets.size(), 0);
  for (std::size_t m = 0; m < topology_.markets.size(); ++m) {
    // Per-market tuning intensity: some engineering teams tune much more
    // aggressively than others (drives the Fig. 3 market variability and the
    // low-accuracy markets of Fig. 11).
    const double intensity =
        0.4 + 1.2 * hash01({params_.seed, 0x1A7E45ULL, static_cast<std::uint64_t>(m)});
    if (rng.bernoulli(std::min(1.0, params_.market_style_base * intensity))) {
      plan.market_offsets[m] =
          level_menu[static_cast<std::size_t>(rng()) % level_menu.size()];
    }
  }

  // --- Geographic pockets: local tuning, and ongoing trials ---
  const auto grow_pocket = [&](ENodeBId seed_site, int max_sites) {
    std::vector<ENodeBId> pocket;
    std::deque<ENodeBId> frontier{seed_site};
    std::unordered_set<ENodeBId> seen{seed_site};
    while (!frontier.empty() && static_cast<int>(pocket.size()) < max_sites) {
      const ENodeBId site = frontier.front();
      frontier.pop_front();
      pocket.push_back(site);
      for (ENodeBId next : topology_.site_neighbors[static_cast<std::size_t>(site)]) {
        if (seen.insert(next).second) frontier.push_back(next);
      }
    }
    return pocket;
  };

  const std::size_t site_count = topology_.enodebs.size();
  if (rng.bernoulli(params_.pocket_param_prob) && site_count > 0) {
    const int target_sites =
        std::max(1, static_cast<int>(std::lround(params_.pocket_site_frac *
                                                 static_cast<double>(site_count))));
    const int seeds = std::max(1, target_sites / std::max(1, params_.pocket_sites));
    for (int s = 0; s < seeds; ++s) {
      const auto seed_site = static_cast<ENodeBId>(
          rng.uniform_int(0, static_cast<std::int64_t>(site_count) - 1));
      // Pockets tune from the same circulating level menu as market teams.
      const int offset = level_menu[static_cast<std::size_t>(rng()) % level_menu.size()];
      for (ENodeBId site : grow_pocket(seed_site, params_.pocket_sites)) {
        plan.pocket_offsets.emplace(site, offset);  // first pocket wins on overlap
      }
    }
  }
  if (rng.bernoulli(params_.trial_param_prob) && site_count > 0) {
    const int target_sites =
        std::max(1, static_cast<int>(std::lround(params_.trial_site_frac *
                                                 static_cast<double>(site_count))));
    const int seeds = std::max(1, target_sites / std::max(1, params_.trial_sites));
    plan.trial_offset = draw_level(std::max(2, attr_level)) * plan.step_scale;
    for (int s = 0; s < seeds; ++s) {
      const auto seed_site = static_cast<ENodeBId>(
          rng.uniform_int(0, static_cast<std::int64_t>(site_count) - 1));
      for (ENodeBId site : grow_pocket(seed_site, params_.trial_sites)) {
        plan.trial_sites.insert(site);
      }
    }
  }

  // --- Hidden terrain dependence ---
  if (rng.bernoulli(params_.terrain_param_prob)) {
    plan.terrain_offsets[static_cast<int>(Terrain::kMountain)] =
        draw_level(attr_level) * plan.step_scale;
    plan.terrain_offsets[static_cast<int>(Terrain::kDenseHighRise)] =
        draw_level(attr_level) * plan.step_scale;
  }

  return plan;
}

bool GroundTruthModel::feature_active(ParamId p, ENodeBId site) const {
  const double activation = catalog_.at(p).activation;
  if (activation >= 1.0) return true;
  return hash01({params_.seed, kTagActive, static_cast<std::uint64_t>(p),
                 static_cast<std::uint64_t>(site)}) < activation;
}

int GroundTruthModel::intent_offset(const ParamPlan& plan, ParamId p, const Carrier& carrier,
                                    const Carrier* neighbor, Cause& cause) const {
  (void)p;
  // Override semantics, mirroring how rule-books actually compose: the most
  // specific applicable rule *replaces* broader ones rather than stacking.
  // Precedence: hidden terrain > local pocket > market style > neighbor
  // attribute rule > attribute interaction > carrier attribute rule.
  const int terrain_offset = plan.terrain_offsets[static_cast<int>(carrier.terrain)];
  if (terrain_offset != 0) {
    cause = Cause::kHiddenTerrain;
    return terrain_offset;
  }
  if (const auto it = plan.pocket_offsets.find(carrier.enodeb); it != plan.pocket_offsets.end()) {
    cause = Cause::kLocalPocket;
    return it->second;
  }
  const int tac_offset = plan.tac_offsets[static_cast<std::size_t>(carrier.tracking_area_code)];
  if (tac_offset != 0) {
    // Sub-market location style; attribute-expressible (tracking area code
    // is in the learner schema), hence tagged like a market style.
    cause = Cause::kMarketStyle;
    return tac_offset;
  }
  const int market_offset = plan.market_offsets[static_cast<std::size_t>(carrier.market)];
  if (market_offset != 0) {
    cause = Cause::kMarketStyle;
    return market_offset;
  }
  if (neighbor != nullptr) {
    for (std::size_t i = 0; i < plan.dep_neighbor_attrs.size(); ++i) {
      const AttrCode code =
          attr_codes_[plan.dep_neighbor_attrs[i]][static_cast<std::size_t>(neighbor->id)];
      if (code >= 0 && plan.neighbor_attr_offsets[i][static_cast<std::size_t>(code)] != 0) {
        cause = Cause::kAttributeRule;
        return plan.neighbor_attr_offsets[i][static_cast<std::size_t>(code)];
      }
    }
  }
  if (!plan.interaction_offsets.empty()) {
    const AttrCode c0 = attr_codes_[plan.dep_attrs[0]][static_cast<std::size_t>(carrier.id)];
    const AttrCode c1 = attr_codes_[plan.dep_attrs[1]][static_cast<std::size_t>(carrier.id)];
    if (c0 >= 0 && c1 >= 0) {
      const int inter =
          plan.interaction_offsets[static_cast<std::size_t>(c0)][static_cast<std::size_t>(c1)];
      if (inter != 0) {
        cause = Cause::kAttributeRule;
        return inter;
      }
    }
  }
  for (std::size_t i = plan.dep_attrs.size(); i-- > 0;) {
    const AttrCode code = attr_codes_[plan.dep_attrs[i]][static_cast<std::size_t>(carrier.id)];
    if (code >= 0 && plan.attr_offsets[i][static_cast<std::size_t>(code)] != 0) {
      cause = Cause::kAttributeRule;
      return plan.attr_offsets[i][static_cast<std::size_t>(code)];
    }
  }
  cause = Cause::kDefault;
  return 0;
}

void GroundTruthModel::assign_slot(ParamId p, const Carrier& carrier, const Carrier* neighbor,
                                   std::uint64_t slot_key, ValueIndex& value,
                                   ValueIndex& intended, Cause& cause) const {
  const ParamDef& def = catalog_.at(p);
  const ParamPlan& plan = plans_[static_cast<std::size_t>(p)];

  if (!feature_active(p, carrier.enodeb)) {
    value = intended = kUnset;
    cause = Cause::kDefault;
    return;
  }

  const int offset = intent_offset(plan, p, carrier, neighbor, cause);
  intended = def.domain.clamp(static_cast<std::int64_t>(def.default_index) + offset);
  value = intended;

  // Ongoing trial pockets: the carrier deliberately runs a non-majority
  // value that engineers are evaluating for network-wide roll-out.
  if (plan.trial_sites.contains(carrier.enodeb)) {
    value = def.domain.clamp(static_cast<std::int64_t>(intended) + plan.trial_offset);
    cause = Cause::kTrial;
    return;
  }

  const double u = hash01({params_.seed, kTagSlot, slot_key});
  if (u < params_.stale_rate) {
    const std::uint64_t h = hash_combine({params_.seed, kTagStaleOff, slot_key});
    value = def.domain.clamp(static_cast<std::int64_t>(intended) +
                             signed_level(h, 3, plan.sign_mode) * plan.step_scale);
    if (value != intended) cause = Cause::kStaleLeftover;
  } else if (u < params_.stale_rate + params_.noise_rate) {
    // Unexplained per-carrier perturbations live on a finer lattice than the
    // tuning rules: heavily hand-tuned parameters (high richness) pick up a
    // long tail of one-off values — this is what drives the paper's
    // ~200-distinct-value outlier parameter in Fig. 2.
    const std::uint64_t h = hash_combine({params_.seed, kTagNoiseOff, slot_key});
    const int noise_unit = std::max(1, plan.step_scale / 8);
    const int noise_span = std::max(2, def.richness / 8);
    value = def.domain.clamp(
        static_cast<std::int64_t>(intended) +
        static_cast<std::int64_t>(signed_level(h, noise_span, plan.sign_mode)) * noise_unit);
    if (value != intended) cause = Cause::kNoise;
  }
}

void GroundTruthModel::assign_singular(std::size_t si, CarrierId carrier, ValueIndex& value,
                                       ValueIndex& intended, Cause& cause) const {
  const ParamId p = catalog_.singular_ids().at(si);
  const Carrier& c = topology_.carrier(carrier);
  const std::uint64_t slot_key =
      hash_combine({static_cast<std::uint64_t>(p), static_cast<std::uint64_t>(carrier)});
  assign_slot(p, c, nullptr, slot_key, value, intended, cause);
}

void GroundTruthModel::assign_pairwise(std::size_t pi, const X2Edge& edge,
                                       bool relation_representative, ValueIndex& value,
                                       ValueIndex& intended, Cause& cause) const {
  const ParamId p = catalog_.pairwise_ids().at(pi);
  const ParamDef& def = catalog_.at(p);
  const Carrier& from = topology_.carrier(edge.from);
  const Carrier& to = topology_.carrier(edge.to);

  const bool intra = from.frequency_mhz == to.frequency_mhz;
  const bool class_match =
      (def.relation == RelationClass::kIntraFrequency) == intra;
  // A per-relation parameter is configured only on the representative edge
  // of its frequency relation; the relation's other edges are unset.
  const bool applicable =
      class_match && (def.scope != PairScope::kPerFrequencyRelation || relation_representative);
  if (!applicable) {
    value = intended = kUnset;
    cause = Cause::kDefault;
    return;
  }

  const std::uint64_t slot_key =
      hash_combine({static_cast<std::uint64_t>(p), static_cast<std::uint64_t>(edge.from),
                    static_cast<std::uint64_t>(edge.to)});
  assign_slot(p, from, &to, slot_key, value, intended, cause);
}

ConfigAssignment GroundTruthModel::assign() const {
  ConfigAssignment out;
  const std::size_t n_carriers = topology_.carrier_count();
  const std::size_t n_edges = topology_.edge_count();

  // Each column is decided into dense scratch, then packed at its
  // configured count.
  std::vector<ValueIndex> value(n_carriers);
  std::vector<ValueIndex> intended(n_carriers);
  std::vector<Cause> cause(n_carriers);

  out.singular.reserve(catalog_.singular_ids().size());
  for (std::size_t si = 0; si < catalog_.singular_ids().size(); ++si) {
    for (std::size_t c = 0; c < n_carriers; ++c) {
      assign_singular(si, static_cast<CarrierId>(c), value[c], intended[c], cause[c]);
    }
    out.singular.push_back(ParamColumn::from_dense(value, intended, cause));
  }

  out.pairwise.reserve(catalog_.pairwise_ids().size());
  value.resize(n_edges);
  intended.resize(n_edges);
  cause.resize(n_edges);
  const std::vector<char> representative = relation_representatives(topology_);
  for (std::size_t pi = 0; pi < catalog_.pairwise_ids().size(); ++pi) {
    for (std::size_t e = 0; e < n_edges; ++e) {
      assign_pairwise(pi, topology_.edges[e], representative[e] != 0, value[e], intended[e],
                      cause[e]);
    }
    out.pairwise.push_back(ParamColumn::from_dense(value, intended, cause));
  }
  return out;
}

const std::vector<std::size_t>& GroundTruthModel::true_dependent_attrs(ParamId p) const {
  return plans_.at(static_cast<std::size_t>(p)).dep_attrs;
}

ValueIndex GroundTruthModel::rulebook_value(ParamId p, const Carrier& carrier) const {
  return rulebook_value(p, carrier, carrier);
}

ValueIndex GroundTruthModel::rulebook_value(ParamId p, const Carrier& carrier,
                                            const Carrier& neighbor) const {
  const ParamDef& def = catalog_.at(p);
  const ParamPlan& plan = plans_[static_cast<std::size_t>(p)];
  // Same override precedence as intent_offset, restricted to the codified
  // (rule-book-expressible) components: attribute rules only.
  int offset = 0;
  if (def.kind == ParamKind::kPairwise) {
    for (std::size_t i = 0; i < plan.dep_neighbor_attrs.size() && offset == 0; ++i) {
      const AttrCode code =
          attr_codes_[plan.dep_neighbor_attrs[i]][static_cast<std::size_t>(neighbor.id)];
      if (code >= 0) offset = plan.neighbor_attr_offsets[i][static_cast<std::size_t>(code)];
    }
  }
  if (offset == 0 && !plan.interaction_offsets.empty()) {
    const AttrCode c0 = attr_codes_[plan.dep_attrs[0]][static_cast<std::size_t>(carrier.id)];
    const AttrCode c1 = attr_codes_[plan.dep_attrs[1]][static_cast<std::size_t>(carrier.id)];
    if (c0 >= 0 && c1 >= 0) {
      offset = plan.interaction_offsets[static_cast<std::size_t>(c0)][static_cast<std::size_t>(c1)];
    }
  }
  for (std::size_t i = plan.dep_attrs.size(); offset == 0 && i-- > 0;) {
    const AttrCode code = attr_codes_[plan.dep_attrs[i]][static_cast<std::size_t>(carrier.id)];
    if (code >= 0) offset = plan.attr_offsets[i][static_cast<std::size_t>(code)];
  }
  return def.domain.clamp(static_cast<std::int64_t>(def.default_index) + offset);
}

}  // namespace auric::config
