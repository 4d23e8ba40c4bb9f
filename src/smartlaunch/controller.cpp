#include "smartlaunch/controller.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "util/rng.h"

namespace auric::smartlaunch {

using config::CarrierConfig;
using config::MoSetting;
using config::ValueIndex;
using config::cell_mo_path;

std::vector<SlotRef> applicable_slots(const netsim::Topology& topology,
                                      const config::ParamCatalog& catalog,
                                      const config::ConfigAssignment& assignment,
                                      netsim::CarrierId carrier) {
  std::vector<SlotRef> slots;
  const netsim::Carrier& c = topology.carrier(carrier);
  const auto& singular_ids = catalog.singular_ids();
  const auto& pairwise_ids = catalog.pairwise_ids();
  const auto entity = static_cast<std::size_t>(carrier);
  const std::size_t begin = topology.edge_offsets[entity];
  const std::size_t end = topology.edge_offsets[entity + 1];

  // One cursor per pair-wise column over the carrier's edges, advanced in
  // edge-major, parameter-minor order.
  std::vector<config::ParamColumn::Range> cursors(pairwise_ids.size());
  std::size_t count = singular_ids.size();
  for (std::size_t pi = 0; pi < pairwise_ids.size(); ++pi) {
    cursors[pi] = assignment.pairwise[pi].range(begin, end);
    count += cursors[pi].end - cursors[pi].begin;
  }
  slots.reserve(count);

  // Each MO path is rendered once and copied into its slots: the cell path
  // once per carrier, the two relation paths once per configured X2 edge.
  const std::string cell_path = cell_mo_path(c);
  for (std::size_t si = 0; si < singular_ids.size(); ++si) {
    const std::size_t i = assignment.singular[si].find(entity);
    if (i == config::ParamColumn::npos) continue;
    slots.push_back({singular_ids[si], entity, netsim::kInvalidCarrier, cell_path, si, i});
  }

  std::string freq_path;
  std::string relation_path;
  for (std::size_t e = begin; e < end; ++e) {
    const netsim::Carrier* neighbor = nullptr;
    for (std::size_t pi = 0; pi < pairwise_ids.size(); ++pi) {
      config::ParamColumn::Range& r = cursors[pi];
      if (r.begin == r.end || assignment.pairwise[pi].entity(r.begin) != e) continue;
      const std::size_t i = r.begin++;
      if (neighbor == nullptr) {
        neighbor = &topology.carrier(topology.edges[e].to);
        freq_path = cell_path;
        config::append_freq_relation(freq_path, *neighbor);
        relation_path = freq_path;
        config::append_cell_relation(relation_path, *neighbor);
      }
      const config::ParamDef& def = catalog.at(pairwise_ids[pi]);
      slots.push_back({pairwise_ids[pi], e, neighbor->id,
                       def.scope == config::PairScope::kPerEdge ? relation_path : freq_path, pi,
                       i});
    }
  }
  return slots;
}

LaunchController::LaunchController(const core::AuricEngine& engine,
                                   const config::Rulebook& rulebook,
                                   const config::ConfigAssignment& assignment,
                                   VendorFaultOptions vendor_faults, PushPolicy push_policy,
                                   std::uint64_t seed)
    : engine_(&engine),
      rulebook_(&rulebook),
      assignment_(&assignment),
      vendor_faults_(vendor_faults),
      push_policy_(push_policy),
      seed_(seed) {}

CarrierConfig LaunchController::slots_to_config(
    netsim::CarrierId carrier,
    const std::function<ValueIndex(const SlotRef&)>& value_of) const {
  CarrierConfig out;
  out.carrier = carrier;
  for (const SlotRef& slot : applicable_slots(engine_->topology(), engine_->catalog(),
                                              *assignment_, carrier)) {
    const ValueIndex value = value_of(slot);
    if (value == config::kUnset) continue;
    out.settings.push_back({slot.mo_path, slot.param, value});
  }
  config::canonicalize(out);
  return out;
}

namespace {

/// Intended value of a slot (the engineering-practice target), read at the
/// entry applicable_slots recorded.
ValueIndex intended_of(const config::ParamCatalog& catalog,
                       const config::ConfigAssignment& assignment, const SlotRef& slot) {
  const bool singular = catalog.at(slot.param).kind == config::ParamKind::kSingular;
  return (singular ? assignment.singular : assignment.pairwise)[slot.column].intended_at(
      slot.entry);
}

}  // namespace

namespace {

/// The vendor's value for one slot, with faults injected deterministically.
ValueIndex vendor_value_of(const netsim::Topology& topology,
                           const config::ParamCatalog& catalog,
                           const config::ConfigAssignment& assignment,
                           const config::Rulebook& rulebook,
                           const VendorFaultOptions& faults, std::uint64_t seed,
                           netsim::CarrierId carrier, const SlotRef& slot) {
  const netsim::Carrier& c = topology.carrier(carrier);
  const bool stale_template =
      static_cast<double>(
          util::hash_combine({seed, 0x57A1EULL, static_cast<std::uint64_t>(carrier)}) >> 11) *
          0x1.0p-53 <
      faults.stale_template_prob;
  const std::uint64_t slot_hash = util::hash_combine(
      {seed, 0xF4B1ULL, static_cast<std::uint64_t>(carrier),
       static_cast<std::uint64_t>(slot.param), static_cast<std::uint64_t>(slot.entity)});
  const double u = static_cast<double>(slot_hash >> 11) * 0x1.0p-53;

  if (stale_template && u < faults.stale_slot_frac) {
    // Out-of-date template: the codified rule-book value, which misses the
    // market team's newer tuning.
    return slot.neighbor == netsim::kInvalidCarrier
               ? rulebook.lookup(slot.param, c)
               : rulebook.lookup(slot.param, c, topology.carrier(slot.neighbor));
  }
  ValueIndex value = intended_of(catalog, assignment, slot);
  if (u > 1.0 - faults.typo_prob) {
    // Data-entry typo: off by one tuning step.
    const config::ParamDef& def = catalog.at(slot.param);
    const int step_scale = std::max(1, def.domain.size() / 48);
    value = def.domain.clamp(static_cast<std::int64_t>(value) +
                             ((slot_hash >> 60) & 1 ? step_scale : -step_scale));
  }
  return value;
}

}  // namespace

CarrierConfig LaunchController::vendor_config(netsim::CarrierId carrier) const {
  return slots_to_config(carrier, [&](const SlotRef& slot) {
    return vendor_value_of(engine_->topology(), engine_->catalog(), *assignment_, *rulebook_,
                           vendor_faults_, seed_, carrier, slot);
  });
}

std::vector<LaunchController::PlannedChange> LaunchController::plan_changes_detailed(
    netsim::CarrierId carrier, std::vector<PlannedChange>* vendor,
    std::size_t* slot_count) const {
  const std::vector<SlotRef> slots =
      applicable_slots(engine_->topology(), engine_->catalog(), *assignment_, carrier);
  if (slot_count != nullptr) *slot_count = slots.size();
  std::vector<core::SlotQuery> queries;
  queries.reserve(slots.size());
  for (const SlotRef& slot : slots) queries.push_back({slot.param, slot.neighbor});
  const std::vector<core::Recommendation> recs =
      engine_->recommend_slots(carrier, queries, /*exclude_self=*/true);

  std::vector<PlannedChange> changes;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const SlotRef& slot = slots[i];
    const ValueIndex from_vendor =
        vendor_value_of(engine_->topology(), engine_->catalog(), *assignment_, *rulebook_,
                        vendor_faults_, seed_, carrier, slot);
    if (vendor != nullptr) vendor->push_back({slot, from_vendor, from_vendor});
    const core::Recommendation& rec = recs[i];
    if (rec.source == core::RecommendationSource::kRulebookDefault) continue;
    if (rec.support < push_policy_.min_support || rec.votes < push_policy_.min_votes) continue;
    if (rec.value == from_vendor) continue;
    changes.push_back({slot, from_vendor, rec.value});
  }
  return changes;
}

double LaunchController::launch_quality(netsim::CarrierId carrier,
                                        const std::vector<PlannedChange>& changes,
                                        std::size_t applied, const KpiOptions& kpi) const {
  applied = std::min(applied, changes.size());
  const config::ParamCatalog& catalog = engine_->catalog();
  double quality = 1.0;
  for (const SlotRef& slot :
       applicable_slots(engine_->topology(), catalog, *assignment_, carrier)) {
    ValueIndex value = vendor_value_of(engine_->topology(), catalog, *assignment_, *rulebook_,
                                       vendor_faults_, seed_, carrier, slot);
    // The applied prefix of the plan overrides the vendor value. Slot
    // identity is (param, entity): MO paths can collide across freq
    // relations, slots cannot.
    for (std::size_t i = 0; i < applied; ++i) {
      if (changes[i].slot.param == slot.param && changes[i].slot.entity == slot.entity) {
        value = changes[i].new_value;
        break;
      }
    }
    const ValueIndex intended = intended_of(catalog, *assignment_, slot);
    if (value == config::kUnset || value == intended) continue;
    const config::ParamDef& def = catalog.at(slot.param);
    const int step_scale = std::max(1, def.domain.size() / 48);
    const double deviation =
        std::fabs(static_cast<double>(value - intended)) / static_cast<double>(step_scale);
    quality -= kpi.penalty_per_deviation * std::min(3.0, deviation);
  }
  if (applied > 0 && applied < changes.size()) {
    quality -= kpi.partial_apply_penalty * static_cast<double>(changes.size() - applied);
  }
  return std::max(kpi.min_quality, quality);
}

CarrierConfig LaunchController::intent_config(netsim::CarrierId carrier) const {
  return slots_to_config(carrier, [&](const SlotRef& slot) {
    return intended_of(engine_->catalog(), *assignment_, slot);
  });
}

CarrierConfig LaunchController::auric_config(netsim::CarrierId carrier) const {
  return slots_to_config(carrier, [&](const SlotRef& slot) {
    const core::Recommendation rec =
        engine_->recommend(slot.param, carrier, slot.neighbor, /*exclude_self=*/true);
    // Only strongly vote-backed recommendations are push candidates: default
    // fallbacks carry no information the vendor config lacks, and thin or
    // contested votes do not justify touching a carrier (PushPolicy).
    if (rec.source == core::RecommendationSource::kRulebookDefault) return config::kUnset;
    if (rec.support < push_policy_.min_support || rec.votes < push_policy_.min_votes) {
      return config::kUnset;
    }
    return rec.value;
  });
}

std::vector<MoSetting> LaunchController::plan_changes(netsim::CarrierId carrier) const {
  return config::diff_config(vendor_config(carrier), auric_config(carrier));
}

}  // namespace auric::smartlaunch
