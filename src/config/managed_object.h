// Vendor managed-object (MO) modeling.
//
// §5 of the paper: "cellular equipment vendors provide a configuration
// schema where the configuration parameters are organized in the form of a
// hierarchical structure called managed objects". The SmartLaunch controller
// fills a vendor template with instance ids and pushes the resulting
// configuration file through the EMS. This module provides that
// representation: MO paths, per-carrier configuration snapshots, and diffs.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "config/catalog.h"
#include "netsim/topology.h"

namespace auric::config {

/// One parameter setting at a concrete MO instance, e.g.
///   path  = "ENodeBFunction=17/EUtranCellFDD=17-2-700/EUtranFreqRelation=1900"
///   param = id_of("threshXHigh"), value = domain index.
struct MoSetting {
  std::string mo_path;
  ParamId param = 0;
  ValueIndex value = kUnset;

  bool operator==(const MoSetting&) const = default;
};

/// A carrier's full configuration file: one MoSetting per configured slot,
/// ordered by (mo_path, param).
struct CarrierConfig {
  netsim::CarrierId carrier = netsim::kInvalidCarrier;
  std::vector<MoSetting> settings;

  std::size_t size() const { return settings.size(); }
};

/// MO path of a carrier's cell object:
/// "ENodeBFunction=<enodeb>/EUtranCellFDD=<enodeb>-<face>-<freq>".
std::string cell_mo_path(const netsim::Carrier& carrier);

/// Appends "/EUtranFreqRelation=<neighbor freq>" to a cell_mo_path(): the
/// frequency relation from the cell toward `neighbor`'s frequency, where
/// per-frequency-relation parameters live.
void append_freq_relation(std::string& cell_path, const netsim::Carrier& neighbor);

/// Appends "/EUtranCellRelation=<neighbor id>" to a frequency-relation path:
/// the individual cell relation, where per-edge parameters live.
void append_cell_relation(std::string& freq_path, const netsim::Carrier& neighbor);

/// Renders `config` as vendor CLI-style lines:
///   set <mo_path> <paramName> <value>
/// with values printed in raw (not index) units.
std::vector<std::string> render_config_commands(const CarrierConfig& config,
                                                const ParamCatalog& catalog);

/// Settings present in `desired` whose value differs from (or is absent in)
/// `current`. Both inputs must be sorted by (mo_path, param); output
/// preserves that order. This is the controller's "push only the
/// mismatches" primitive (§5).
std::vector<MoSetting> diff_config(const CarrierConfig& current, const CarrierConfig& desired);

/// Sorts settings into the canonical (mo_path, param) order.
void canonicalize(CarrierConfig& config);

}  // namespace auric::config
