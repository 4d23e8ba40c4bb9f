// Dependency learning: chi-square attribute selection (§3.2).
//
// For each configuration parameter, test every carrier attribute (and, for
// pair-wise parameters, every neighbor attribute) for independence against
// the parameter's values. Attributes for which independence is rejected at
// the configured significance level form the dependent set D(i); carriers
// matching a new carrier exactly on D(i) are its collaborative-filtering
// peers. Eliminating non-dependent attributes is what protects Auric from
// the irrelevant-attribute dilution that hurts k-NN (§3.2).
#pragma once

#include <string>
#include <vector>

#include "core/param_view.h"
#include "ml/chi_square.h"

namespace auric::core {

/// Reference to one attribute column: carrier-side or neighbor-side.
struct AttrRef {
  bool neighbor_side = false;
  std::size_t attr = 0;

  bool operator==(const AttrRef&) const = default;
};

struct DependencyTest {
  AttrRef ref;
  ml::ChiSquareResult result;
};

struct DependencyOptions {
  /// Chi-square significance level (the paper uses 0.01).
  double p_value = 0.01;
  /// Maximum dependent attributes retained, strongest first (<= 0 keeps
  /// all). Carrier attributes are heavily inter-correlated (MIMO mode
  /// follows hardware and band, cell size follows morphology, ...), so the
  /// chi-square scan legitimately flags correlated proxies alongside the
  /// causal attributes; matching exactly on every flagged attribute then
  /// fragments the peer groups below what a 75% vote can survive at
  /// sub-production dataset sizes. Capping at the strongest few keeps the
  /// groups statistically meaningful (see DESIGN.md §5).
  int max_dependent = 14;
};

struct DependencyModel {
  /// Attributes on which the parameter depends, strongest association first
  /// (ascending p-value, descending statistic), capped per options.
  std::vector<AttrRef> dependent;
  /// Every test that was run (for explainability and diagnostics).
  std::vector<DependencyTest> tests;
};

/// The sufficient statistics of one parameter's dependency scan: for every
/// attribute column (carrier side first, then — for pair-wise views — the
/// neighbor side, in schema order) the (attr code x class label) contingency
/// table over the learning population. Incremental relearn maintains this
/// per parameter so a drift-triggered re-test costs O(codes x labels) per
/// attribute instead of a fresh O(rows) scan; the integer counts are exactly
/// what a from-scratch scan would tally, so the re-test result is
/// bit-identical (DESIGN.md §18).
struct ContingencyState {
  std::vector<AttrRef> refs;              ///< test order of learn_dependencies
  std::vector<ml::ContingencyTable> tables;  ///< one per ref

  /// Adds (`delta` = +1) or removes (-1) one observation of `label` for the
  /// (carrier, neighbor) subject across every table.
  void apply(const std::vector<std::vector<netsim::AttrCode>>& attr_codes,
             netsim::CarrierId carrier, netsim::CarrierId neighbor, ml::ClassLabel label,
             std::int64_t delta);
};

/// Tallies `view` into fresh contingency tables (label dimension =
/// view.labels.size(), row dimension = the schema cardinality of each attr):
/// one ContingencyTable::build pass over the view's rows per attribute
/// column. Throws std::out_of_range for a code outside its table.
ContingencyState build_contingency(const ParamView& view,
                                   const std::vector<std::vector<netsim::AttrCode>>& attr_codes,
                                   const netsim::AttributeSchema& schema);

/// Runs the chi-square scan over maintained contingency state. This is THE
/// scan: learn_dependencies composes build_contingency with this function,
/// so a re-test over delta-maintained tables and a full rebuild share every
/// floating-point operation.
DependencyModel dependencies_from_contingency(const ContingencyState& state,
                                              DependencyOptions options = {});

/// Runs the chi-square scan for `view` per `options`.
/// `attr_codes` is AttributeSchema::encode_all output for the full topology.
DependencyModel learn_dependencies(const ParamView& view,
                                   const std::vector<std::vector<netsim::AttrCode>>& attr_codes,
                                   const netsim::AttributeSchema& schema,
                                   DependencyOptions options = {});

/// Human-readable name of an attribute reference ("morphology" or
/// "nbr_carrier_frequency").
std::string attr_ref_name(const AttrRef& ref, const netsim::AttributeSchema& schema);

}  // namespace auric::core
