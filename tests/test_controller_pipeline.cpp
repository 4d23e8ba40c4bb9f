#include <algorithm>

#include <gtest/gtest.h>

#include "config/ground_truth.h"
#include "config/rulebook.h"
#include "core/engine.h"
#include "smartlaunch/controller.h"
#include "smartlaunch/pipeline.h"
#include "test_helpers.h"
#include "util/strings.h"

namespace auric::smartlaunch {
namespace {

// End-to-end smartlaunch fixture over a small generated network with real
// ground truth (so vendor/intent/auric configs are all meaningful).
struct Fixture {
  netsim::Topology topo = test::small_generated_topology(11, 2, 16);
  netsim::AttributeSchema schema = netsim::AttributeSchema::standard(topo);
  config::ParamCatalog catalog = config::ParamCatalog::standard();
  config::GroundTruthModel ground_truth{topo, schema, catalog, make_gt()};
  config::ConfigAssignment assignment = ground_truth.assign();
  core::AuricEngine engine{topo, schema, catalog, assignment};
  config::Rulebook rulebook{ground_truth, catalog};

  static config::GroundTruthParams make_gt() {
    config::GroundTruthParams params;
    params.seed = 21;
    return params;
  }
};

TEST(ApplicableSlots, EnumeratesConfiguredSlotsWithPaths) {
  Fixture f;
  const auto slots = applicable_slots(f.topo, f.catalog, f.assignment, 0);
  EXPECT_GT(slots.size(), 10u);
  for (const SlotRef& slot : slots) {
    EXPECT_FALSE(slot.mo_path.empty());
    const bool pairwise = f.catalog.at(slot.param).kind == config::ParamKind::kPairwise;
    EXPECT_EQ(pairwise, slot.neighbor != netsim::kInvalidCarrier);
    if (pairwise) {
      EXPECT_NE(slot.mo_path.find("EUtranFreqRelation"), std::string::npos);
    }
  }
}

TEST(ApplicableSlots, MatchThePerSlotFormatReferenceOnEveryCarrier) {
  // applicable_slots renders each MO path once per carrier or edge; the
  // reference formats every slot's whole path with util::format.
  const netsim::Topology topo = test::small_generated_topology(7, 2, 5);
  const netsim::AttributeSchema schema = netsim::AttributeSchema::standard(topo);
  const config::ParamCatalog catalog = config::ParamCatalog::standard();
  const config::ConfigAssignment assignment =
      config::GroundTruthModel(topo, schema, catalog).assign();
  std::size_t pairwise_slots = 0;
  for (const netsim::Carrier& c : topo.carriers) {
    std::vector<SlotRef> expected;
    for (std::size_t si = 0; si < catalog.singular_ids().size(); ++si) {
      const auto entity = static_cast<std::size_t>(c.id);
      if (assignment.singular[si].value[entity] == config::kUnset) continue;
      expected.push_back({catalog.singular_ids()[si], entity, netsim::kInvalidCarrier,
                          util::format("ENodeBFunction=%d/EUtranCellFDD=%d-%d-%d", c.enodeb,
                                       c.enodeb, c.face, c.frequency_mhz),
                          si, assignment.singular[si].find(entity)});
    }
    const std::size_t begin = topo.edge_offsets[static_cast<std::size_t>(c.id)];
    const std::size_t end = topo.edge_offsets[static_cast<std::size_t>(c.id) + 1];
    for (std::size_t e = begin; e < end; ++e) {
      const netsim::Carrier& n = topo.carrier(topo.edges[e].to);
      for (std::size_t pi = 0; pi < catalog.pairwise_ids().size(); ++pi) {
        if (assignment.pairwise[pi].value[e] == config::kUnset) continue;
        const config::ParamDef& def = catalog.at(catalog.pairwise_ids()[pi]);
        std::string path = util::format("ENodeBFunction=%d/EUtranCellFDD=%d-%d-%d", c.enodeb,
                                        c.enodeb, c.face, c.frequency_mhz) +
                           util::format("/EUtranFreqRelation=%d", n.frequency_mhz);
        if (def.scope == config::PairScope::kPerEdge) {
          path += util::format("/EUtranCellRelation=%d", n.id);
        }
        expected.push_back({catalog.pairwise_ids()[pi], e, n.id, path, pi,
                            assignment.pairwise[pi].find(e)});
      }
    }
    const std::vector<SlotRef> slots = applicable_slots(topo, catalog, assignment, c.id);
    ASSERT_EQ(slots.size(), expected.size()) << "carrier " << c.id;
    for (std::size_t i = 0; i < slots.size(); ++i) {
      EXPECT_EQ(slots[i].param, expected[i].param);
      EXPECT_EQ(slots[i].entity, expected[i].entity);
      EXPECT_EQ(slots[i].neighbor, expected[i].neighbor);
      EXPECT_EQ(slots[i].column, expected[i].column);
      EXPECT_EQ(slots[i].entry, expected[i].entry);
      ASSERT_EQ(slots[i].mo_path, expected[i].mo_path) << "carrier " << c.id << " slot " << i;
    }
    pairwise_slots += slots.size() - std::count_if(slots.begin(), slots.end(), [](const SlotRef& s) {
                        return s.neighbor == netsim::kInvalidCarrier;
                      });
  }
  EXPECT_GT(pairwise_slots, 0u);
}

TEST(Controller, PlanMatchesThePerSlotReferenceAndCountsSlots) {
  // plan_changes_detailed asks the engine for all of a carrier's slots in one
  // batch; the reference asks recommend() one slot at a time.
  Fixture f;
  const LaunchController controller(f.engine, f.rulebook, f.assignment);
  const PushPolicy policy;
  std::size_t changes_seen = 0;
  for (netsim::CarrierId c = 0; c < 60; ++c) {
    std::vector<LaunchController::PlannedChange> vendor;
    std::size_t slot_count = 0;
    const auto changes = controller.plan_changes_detailed(c, &vendor, &slot_count);
    EXPECT_EQ(slot_count, vendor.size());
    EXPECT_EQ(slot_count, applicable_slots(f.topo, f.catalog, f.assignment, c).size());
    std::vector<LaunchController::PlannedChange> expected;
    for (const LaunchController::PlannedChange& slot : vendor) {
      const core::Recommendation rec = f.engine.recommend(slot.slot.param, c, slot.slot.neighbor);
      if (rec.source == core::RecommendationSource::kRulebookDefault) continue;
      if (rec.support < policy.min_support || rec.votes < policy.min_votes) continue;
      if (rec.value == slot.vendor_value) continue;
      expected.push_back({slot.slot, slot.vendor_value, rec.value});
    }
    ASSERT_EQ(changes.size(), expected.size()) << "carrier " << c;
    for (std::size_t i = 0; i < changes.size(); ++i) {
      EXPECT_EQ(changes[i].slot.param, expected[i].slot.param);
      EXPECT_EQ(changes[i].slot.entity, expected[i].slot.entity);
      EXPECT_EQ(changes[i].slot.mo_path, expected[i].slot.mo_path);
      EXPECT_EQ(changes[i].vendor_value, expected[i].vendor_value);
      EXPECT_EQ(changes[i].new_value, expected[i].new_value);
    }
    // The count-only form plans the same changes without the vendor copy.
    std::size_t count_only = 0;
    EXPECT_EQ(controller.plan_changes_detailed(c, nullptr, &count_only).size(), changes.size());
    EXPECT_EQ(count_only, slot_count);
    changes_seen += changes.size();
  }
  EXPECT_GT(changes_seen, 0u);
}

TEST(Controller, IntentConfigMatchesGroundTruthIntent) {
  Fixture f;
  const LaunchController controller(f.engine, f.rulebook, f.assignment);
  const config::CarrierConfig intent = controller.intent_config(0);
  EXPECT_EQ(intent.size(), applicable_slots(f.topo, f.catalog, f.assignment, 0).size());
}

TEST(Controller, CleanVendorNeedsFewChanges) {
  Fixture f;
  VendorFaultOptions no_faults;
  no_faults.stale_template_prob = 0.0;
  no_faults.typo_prob = 0.0;
  const LaunchController controller(f.engine, f.rulebook, f.assignment, no_faults);
  // Vendor == intent; Auric pushes only where its high-confidence vote
  // disagrees with intent, which is rare.
  std::size_t total_changes = 0;
  std::size_t total_slots = 0;
  for (netsim::CarrierId c = 0; c < 40; ++c) {
    total_changes += controller.plan_changes(c).size();
    total_slots += applicable_slots(f.topo, f.catalog, f.assignment, c).size();
  }
  EXPECT_LT(static_cast<double>(total_changes), 0.02 * static_cast<double>(total_slots));
}

TEST(Controller, StaleTemplatesTriggerPushes) {
  Fixture f;
  VendorFaultOptions always_stale;
  always_stale.stale_template_prob = 1.0;
  always_stale.stale_slot_frac = 1.0;
  always_stale.typo_prob = 0.0;
  const LaunchController stale(f.engine, f.rulebook, f.assignment, always_stale);
  VendorFaultOptions clean;
  clean.stale_template_prob = 0.0;
  clean.typo_prob = 0.0;
  const LaunchController good(f.engine, f.rulebook, f.assignment, clean);
  std::size_t stale_changes = 0;
  std::size_t clean_changes = 0;
  for (netsim::CarrierId c = 0; c < 40; ++c) {
    stale_changes += stale.plan_changes(c).size();
    clean_changes += good.plan_changes(c).size();
  }
  EXPECT_GT(stale_changes, clean_changes);
}

TEST(Controller, VendorConfigIsDeterministic) {
  Fixture f;
  const LaunchController controller(f.engine, f.rulebook, f.assignment);
  EXPECT_EQ(controller.vendor_config(5).settings, controller.vendor_config(5).settings);
}

TEST(Pipeline, NoChangeLaunchesLeaveCarrierUntouched) {
  Fixture f;
  VendorFaultOptions no_faults;
  no_faults.stale_template_prob = 0.0;
  no_faults.typo_prob = 0.0;
  const LaunchController controller(f.engine, f.rulebook, f.assignment, no_faults);
  EmsOptions reliable;
  reliable.flaky_timeout_prob = 0.0;
  EmsSimulator ems(f.topo.carrier_count(), reliable);
  const KpiModel kpi(f.topo, f.catalog, f.assignment);
  PipelineOptions options;
  options.premature_unlock_prob = 0.0;
  SmartLaunchPipeline pipeline(controller, ems, kpi, options);

  netsim::CarrierId no_change_carrier = netsim::kInvalidCarrier;
  for (netsim::CarrierId c = 0; c < 40; ++c) {
    if (controller.plan_changes(c).empty()) {
      no_change_carrier = c;
      break;
    }
  }
  ASSERT_NE(no_change_carrier, netsim::kInvalidCarrier);
  const LaunchRecord record = pipeline.launch(no_change_carrier);
  EXPECT_EQ(record.outcome, LaunchOutcome::kNoChangeNeeded);
  EXPECT_EQ(record.changes_applied, 0u);
  EXPECT_EQ(ems.state(no_change_carrier), CarrierState::kUnlocked);  // launched
}

TEST(Pipeline, PrematureUnlockBecomesFallout) {
  Fixture f;
  VendorFaultOptions always_stale;
  always_stale.stale_template_prob = 1.0;
  always_stale.stale_slot_frac = 1.0;
  const LaunchController controller(f.engine, f.rulebook, f.assignment, always_stale);
  EmsOptions reliable;
  reliable.flaky_timeout_prob = 0.0;
  EmsSimulator ems(f.topo.carrier_count(), reliable);
  const KpiModel kpi(f.topo, f.catalog, f.assignment);
  PipelineOptions options;
  options.premature_unlock_prob = 1.0;  // every engineer jumps the gun
  SmartLaunchPipeline pipeline(controller, ems, kpi, options);

  std::vector<netsim::CarrierId> cohort{0, 1, 2, 3, 4, 5, 6, 7};
  const SmartLaunchReport report = pipeline.run(cohort);
  EXPECT_EQ(report.launches, cohort.size());
  EXPECT_EQ(report.fallout_unlocked, report.change_recommended);
  EXPECT_EQ(report.implemented, 0u);
  EXPECT_EQ(report.parameters_changed, 0u);
}

TEST(Pipeline, UnlockBetweenPlanAndPushRejectsThePush) {
  // The race the paper's fall-outs come from: an engineer unlocks the
  // carrier out-of-band after the diff is planned but before the push
  // lands. The EMS must refuse the push and leave the config untouched.
  Fixture f;
  VendorFaultOptions always_stale;
  always_stale.stale_template_prob = 1.0;
  always_stale.stale_slot_frac = 1.0;
  const LaunchController controller(f.engine, f.rulebook, f.assignment, always_stale);
  EmsOptions reliable;
  reliable.flaky_timeout_prob = 0.0;
  EmsSimulator ems(f.topo.carrier_count(), reliable);

  netsim::CarrierId carrier = netsim::kInvalidCarrier;
  for (netsim::CarrierId c = 0; c < 40; ++c) {
    if (!controller.plan_changes(c).empty()) {
      carrier = c;
      break;
    }
  }
  ASSERT_NE(carrier, netsim::kInvalidCarrier);

  ems.lock(carrier);
  const std::vector<config::MoSetting> changes = controller.plan_changes(carrier);
  ems.unlock_out_of_band(carrier);
  const PushResult push = ems.push(carrier, changes);
  EXPECT_EQ(push.status, PushStatus::kRejectedUnlocked);
  EXPECT_EQ(push.applied, 0u);
  EXPECT_FALSE(push.transient);
  EXPECT_EQ(ems.state(carrier), CarrierState::kUnlocked);
  EXPECT_EQ(ems.pushes_executed(), 0u);  // the push never reached execution
}

TEST(Pipeline, ReportCountersAreConsistent) {
  Fixture f;
  const LaunchController controller(f.engine, f.rulebook, f.assignment);
  EmsSimulator ems(f.topo.carrier_count());
  const KpiModel kpi(f.topo, f.catalog, f.assignment);
  SmartLaunchPipeline pipeline(controller, ems, kpi);
  std::vector<netsim::CarrierId> cohort;
  for (netsim::CarrierId c = 0; c < 60; ++c) cohort.push_back(c);
  const SmartLaunchReport report = pipeline.run(cohort);
  EXPECT_EQ(report.launches, 60u);
  EXPECT_EQ(report.records.size(), 60u);
  EXPECT_EQ(report.implemented + report.fallout_unlocked + report.fallout_timeout,
            report.change_recommended);
  for (const LaunchRecord& record : report.records) {
    EXPECT_GE(record.post_quality, 0.0);
    EXPECT_LE(record.post_quality, 1.0);
    if (record.outcome == LaunchOutcome::kNoChangeNeeded) {
      EXPECT_EQ(record.changes_planned, 0u);
    }
  }
}

TEST(LaunchOutcomeNames, Stable) {
  EXPECT_STREQ(launch_outcome_name(LaunchOutcome::kImplemented), "implemented");
  EXPECT_STREQ(launch_outcome_name(LaunchOutcome::kFalloutTimeout), "fallout-timeout");
}

}  // namespace
}  // namespace auric::smartlaunch
