// Network-wide configuration state plus the ground-truth bookkeeping that
// makes the paper's engineer-validation experiment (Fig. 12) measurable.
//
// For every configured slot — a (parameter, carrier) pair for singular
// parameters, a (parameter, X2 edge) pair for pair-wise ones — we store:
//   value     the value currently configured in the network,
//   intended  the value engineering practice would converge to (differs from
//             `value` only for trial / stale-leftover / noise slots),
//   cause     why the slot has the value it has.
// The learners only ever see `value`; `intended` and `cause` exist so the
// mismatch-labeling oracle can stand in for the paper's network engineers.
#pragma once

#include <cstdint>
#include <vector>

#include "config/catalog.h"

namespace auric::config {

/// Why a slot carries its current value (ground-truth knowledge; §4.3.3 of
/// the paper maps these onto the engineer labels of Fig. 12).
enum class Cause : std::uint8_t {
  kDefault = 0,        ///< national rule-book default
  kAttributeRule,      ///< offset driven by carrier attributes
  kMarketStyle,        ///< market engineering team's own tuning style
  kLocalPocket,        ///< geographically local tuning pocket
  kHiddenTerrain,      ///< driven by terrain, an attribute hidden from learners
  kTrial,              ///< ongoing trial / certification for network-wide roll-out
  kStaleLeftover,      ///< sub-optimal leftover from an abandoned past trial
  kNoise,              ///< unexplained per-carrier perturbation
};

const char* cause_name(Cause cause);

/// One parameter's configured slots over its entities: carrier ids for a
/// singular parameter, Topology::edges positions for a pair-wise one.
///
/// Only configured slots are stored (DESIGN.md §6): their entity ids in
/// ascending order, with parallel value / intended / cause arrays, 13 bytes
/// per configured slot. An absent entity reads kUnset. Entries are visited
/// in entity order, so a walk over the entries meets the slots in the order
/// a walk over every entity would, less the unset ones.
class ParamColumn {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Entry positions [begin, end).
  struct Range {
    std::size_t begin = 0;
    std::size_t end = 0;
  };

  /// The current values, addressed by entity id. They hold the entity ids
  /// too: a slot is configured exactly when it has a value here.
  class Values {
   public:
    /// The value of `entity`, or kUnset when it is not configured.
    ValueIndex operator[](std::size_t entity) const;
    /// The value cell of a configured `entity`, for an in-place change of
    /// its value. An absent entity yields a per-thread scratch cell that
    /// reads kUnset and keeps no write: ParamColumn::set configures and
    /// erases slots. Writing kUnset through a configured cell is not
    /// allowed (a configured slot always has a value).
    ValueIndex& operator[](std::size_t entity);

    bool operator==(const Values& other) const {
      return ids_ == other.ids_ && cells_ == other.cells_;
    }

   private:
    friend class ParamColumn;
    /// Position of the first entry whose entity is at least `entity`.
    std::size_t lower_bound(std::size_t entity) const;
    std::size_t find(std::size_t entity) const;

    std::size_t entities_ = 0;        ///< size of the entity id space
    std::vector<std::uint32_t> ids_;  ///< configured entity ids, ascending
    std::vector<ValueIndex> cells_;   ///< value per entry
  };

  ParamColumn() = default;
  /// An empty column over `entities` entity ids.
  explicit ParamColumn(std::size_t entities);

  /// A column from dense per-entity arrays of one length (kUnset = not
  /// configured), each array sized to its configured count.
  static ParamColumn from_dense(const std::vector<ValueIndex>& value,
                                const std::vector<ValueIndex>& intended,
                                const std::vector<Cause>& cause);

  Values value;

  /// Size of the entity id space (carrier count or edge count).
  std::size_t entities() const { return value.entities_; }
  /// Number of configured slots (entries).
  std::size_t configured_count() const { return value.ids_.size(); }

  /// Entry `i` of configured_count(), in ascending entity order.
  std::size_t entity(std::size_t i) const { return value.ids_[i]; }
  ValueIndex value_at(std::size_t i) const { return value.cells_[i]; }
  ValueIndex intended_at(std::size_t i) const { return intended_[i]; }
  Cause cause_at(std::size_t i) const { return cause_[i]; }

  /// Entry position of `entity`, or npos when it is not configured.
  std::size_t find(std::size_t entity) const { return value.find(entity); }
  /// Intended value of `entity`, or kUnset when it is not configured.
  ValueIndex intended_of(std::size_t entity) const;

  /// The entries whose entity lies in [first, last): one carrier's slot of a
  /// singular column is [c, c + 1), its edges of a pair-wise column are
  /// [edge_offsets[c], edge_offsets[c + 1]).
  Range range(std::size_t first, std::size_t last) const;

  /// Configures, updates or, for a kUnset `v`, erases the slot of `entity`.
  void set(std::size_t entity, ValueIndex v, ValueIndex intended, Cause cause);
  /// Changes the value (never kUnset) and cause of entry `i` in place; its
  /// intent stays. Writers of distinct entries may run concurrently.
  void update_at(std::size_t i, ValueIndex v, Cause cause);

  /// Build path: appends `entity`, which must follow every stored entity; a
  /// kUnset `v` appends nothing. reserve() the configured count first so
  /// the arrays come out exactly sized.
  void append(std::size_t entity, ValueIndex v, ValueIndex intended, Cause cause);
  void reserve(std::size_t entries);

  /// Heap bytes of the arrays, capacity included.
  std::size_t heap_bytes() const;

 private:
  std::vector<ValueIndex> intended_;
  std::vector<Cause> cause_;
};

/// Full network configuration.
///
/// `singular[si]` holds the parameter at position si of
/// ParamCatalog::singular_ids(), over carrier ids; `pairwise[pi]` the one at
/// position pi of ParamCatalog::pairwise_ids(), over Topology::edges.
struct ConfigAssignment {
  std::vector<ParamColumn> singular;
  std::vector<ParamColumn> pairwise;

  /// Total configured parameter values network-wide (the paper's "15M+
  /// configuration parameter values" headline count).
  std::size_t total_configured() const;

  /// Heap bytes of every column's arrays, capacity included.
  std::size_t heap_bytes() const;
};

}  // namespace auric::config
