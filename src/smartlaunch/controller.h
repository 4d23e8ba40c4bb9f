// SmartLaunch configuration controller (§5).
//
// For a newly launched carrier the controller
//   1. obtains the vendor-generated initial configuration (rule-book driven,
//      with realistic faults: stale rule-book templates and typos),
//   2. obtains Auric's recommendations and keeps the vote-backed ones
//      (rule-book-default fallbacks are never pushed — the vendor config
//      already encodes the rule-book, so pushing defaults could only undo
//      local knowledge),
//   3. diffs the two and emits only the mismatching settings, rendered as
//      managed-object writes for the EMS.
#pragma once

#include <cstdint>
#include <vector>

#include "config/assignment.h"
#include "config/catalog.h"
#include "config/managed_object.h"
#include "config/rulebook.h"
#include "core/engine.h"
#include "netsim/topology.h"
#include "smartlaunch/kpi.h"
#include "util/rng.h"

namespace auric::smartlaunch {

/// One configurable slot of a carrier: a singular parameter, or a pair-wise
/// parameter toward one neighbor relation.
struct SlotRef {
  config::ParamId param = 0;
  std::size_t entity = 0;  ///< carrier id (singular) or edge index (pairwise)
  netsim::CarrierId neighbor = netsim::kInvalidCarrier;
  std::string mo_path;
  std::size_t column = 0;  ///< position in catalog singular_ids() / pairwise_ids()
  std::size_t entry = 0;   ///< the slot's entry position in its assignment column
};

/// Enumerates the configured slots of `carrier` (its activation profile),
/// with vendor MO paths, in canonical order. Each slot's `entry` holds while
/// `assignment` gains or loses no configured slot.
std::vector<SlotRef> applicable_slots(const netsim::Topology& topology,
                                      const config::ParamCatalog& catalog,
                                      const config::ConfigAssignment& assignment,
                                      netsim::CarrierId carrier);

struct VendorFaultOptions {
  /// Probability the integrating vendor used an out-of-date rule-book
  /// template for this carrier (affects a block of parameters).
  double stale_template_prob = 0.10;
  /// Fraction of the carrier's slots a stale template corrupts.
  double stale_slot_frac = 0.50;
  /// Independent per-slot typo probability (off-by-one step-scale error).
  double typo_prob = 0.002;
};

/// Production push policy: a change is only pushed when its recommendation
/// carries strong evidence. §5 of the paper describes the conservative
/// stance ("we conservatively avoid ... to prevent any potential service
/// disruption"); a thinly supported vote that merely disagrees with the
/// vendor is not worth touching a carrier for.
struct PushPolicy {
  double min_support = 0.90;
  std::int32_t min_votes = 8;
};

class LaunchController {
 public:
  LaunchController(const core::AuricEngine& engine, const config::Rulebook& rulebook,
                   const config::ConfigAssignment& assignment,
                   VendorFaultOptions vendor_faults = {}, PushPolicy push_policy = {},
                   std::uint64_t seed = 4242);

  /// The vendor's initial configuration for `carrier` (faults injected
  /// deterministically per carrier).
  config::CarrierConfig vendor_config(netsim::CarrierId carrier) const;

  /// The engineering-intent configuration (ground-truth oracle; used by the
  /// pipeline's post-check KPI verdict, never by the controller's decision).
  config::CarrierConfig intent_config(netsim::CarrierId carrier) const;

  /// Auric's vote-backed desired configuration for `carrier`. Slots whose
  /// recommendation fell back to the rule-book default are omitted.
  config::CarrierConfig auric_config(netsim::CarrierId carrier) const;

  /// Settings to push: auric_config minus vendor_config.
  std::vector<config::MoSetting> plan_changes(netsim::CarrierId carrier) const;

  /// One planned change with its slot identity (so callers can write the
  /// value back into a ConfigAssignment — see OperationReplay).
  struct PlannedChange {
    SlotRef slot;
    config::ValueIndex vendor_value = config::kUnset;
    config::ValueIndex new_value = config::kUnset;
  };

  /// Slot-resolved variant of plan_changes: the vendor value of every
  /// applicable slot plus the push-policy-approved Auric corrections.
  /// `vendor` receives every slot's vendor value when non-null (the launch
  /// configuration the carrier goes on air with); `slot_count` receives the
  /// number of applicable slots when non-null (what vendor->size() would
  /// be, without copying the slots). The slots' recommendations reach an
  /// attached ModelWatch as one batch.
  std::vector<PlannedChange> plan_changes_detailed(netsim::CarrierId carrier,
                                                   std::vector<PlannedChange>* vendor = nullptr,
                                                   std::size_t* slot_count = nullptr) const;

  /// Service quality `carrier` would show on air with its vendor
  /// configuration overlaid by the first `applied` of `changes` (the state a
  /// faulted push leaves behind). The score uses the KpiModel deviation math
  /// against engineering intent, plus KpiOptions::partial_apply_penalty per
  /// unapplied change when 0 < applied < changes.size() — the post-check
  /// oracle behind the KPI-gated rollback.
  double launch_quality(netsim::CarrierId carrier, const std::vector<PlannedChange>& changes,
                        std::size_t applied, const KpiOptions& kpi = {}) const;

 private:
  const core::AuricEngine* engine_;
  const config::Rulebook* rulebook_;
  const config::ConfigAssignment* assignment_;
  VendorFaultOptions vendor_faults_;
  PushPolicy push_policy_;
  std::uint64_t seed_;

  config::CarrierConfig slots_to_config(
      netsim::CarrierId carrier,
      const std::function<config::ValueIndex(const SlotRef&)>& value_of) const;
};

}  // namespace auric::smartlaunch
