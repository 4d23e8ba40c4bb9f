// Collaborative filtering by voting (§3.2).
//
// Carriers that match a target exactly on the dependent attributes form its
// peer group; the recommendation is the group's modal value, emitted only
// when its support reaches the voting threshold (75% in the paper).
//
// Every carrier's attribute codes are packed into one 64-bit word
// (AttrWords), so a peer-group key is a pair of masked words — the
// carrier's and the neighbor's — and an exact match on a dependent set is
// one AND and one compare per side (DESIGN.md §5). VotingModel
// pre-aggregates the peer groups of one dependent set in an open-addressing
// table, so a global recommendation (or a leave-one-out evaluation pass over
// millions of slots) is one probe; local (1-hop X2) voting scans the small
// neighborhood's cells of the engine's label stores directly.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/dependency.h"
#include "core/param_view.h"

namespace auric::core {

/// A peer-group key: the subject carrier's packed attribute word and the
/// neighbor's, each masked to the dependent fields of its side (neighbor is
/// 0 when no dependent is neighbor-side). Field order does not enter the
/// key, so a key names a dependent *set*.
struct GroupKey {
  std::uint64_t carrier = 0;
  std::uint64_t neighbor = 0;

  bool operator==(const GroupKey&) const = default;
};

/// Per-side field masks of a dependent set; same shape as a key.
using KeyMask = GroupKey;

/// One configured peer slot of a local vote (voting.cpp).
struct LocalPeer;

/// Every carrier's attribute codes packed into one word (DESIGN.md §5).
/// Attribute a occupies bit_width(cardinality(a)) bits — just enough for
/// codes 0..cardinality-1 plus the all-ones value, which marks
/// AttributeSchema::kUnseen and therefore never equals a real code. Fields
/// are laid out in schema order from bit 0.
class AttrWords {
 public:
  /// Packs `attr_codes` (AttributeSchema::encode_all output). Throws
  /// std::invalid_argument, naming every attribute and its width, when the
  /// schema's cardinalities need more than 64 bits.
  AttrWords(const netsim::AttributeSchema& schema,
            const std::vector<std::vector<netsim::AttrCode>>& attr_codes);

  std::uint64_t word(netsim::CarrierId carrier) const {
    return words_[static_cast<std::size_t>(carrier)];
  }

  /// Packs one carrier's codes (AttributeSchema::encode output), for
  /// carriers outside the topology.
  std::uint64_t pack(std::span<const netsim::AttrCode> codes) const;

  /// The code of `attr` stored in `word` (kUnseen for the all-ones field).
  netsim::AttrCode code(std::uint64_t word, std::size_t attr) const;

  /// The fields of `deps`, carrier-side refs in `carrier` and neighbor-side
  /// refs in `neighbor`.
  KeyMask mask(std::span<const AttrRef> deps) const;

 private:
  std::vector<unsigned> shift_;  // [attr]
  std::vector<unsigned> width_;  // [attr]
  std::vector<std::uint64_t> words_;  // [carrier]

  std::uint64_t field(std::size_t attr) const;
};

struct Vote {
  ml::ClassLabel label = -1;     ///< winning class (ParamView label space)
  std::int32_t count = 0;        ///< votes for the winner
  std::int32_t runner_up = 0;    ///< votes for the second-placed class (0 if unanimous)
  std::int32_t group_size = 0;   ///< total voters
  double support() const {
    return group_size > 0 ? static_cast<double>(count) / static_cast<double>(group_size) : 0.0;
  }
  /// Decisiveness of the win: (winner - runner-up) / group. 1.0 when the
  /// group is unanimous, -> 0 when the top two classes are nearly tied.
  double margin() const {
    return group_size > 0
               ? static_cast<double>(count - runner_up) / static_cast<double>(group_size)
               : 0.0;
  }
};

class VotingModel {
 public:
  /// Aggregates `view` into peer groups keyed by the dependent attributes of
  /// `deps`. `words` must pack the same encoding the dependency scan used
  /// and outlive the model.
  VotingModel(const ParamView& view, std::span<const AttrRef> deps, const AttrWords& words);

  /// Aggregates `finer`'s groups onto `deps`, a subset of finer.deps():
  /// O(finer's groups), not O(rows). Equal to a build over the rows because
  /// every row of a finer group shares its key on the subset.
  VotingModel(const VotingModel& finer, std::span<const AttrRef> deps);

  /// Key for a (carrier, neighbor) subject; neighbor may be kInvalidCarrier
  /// for singular parameters (then neighbor-side refs must be absent).
  GroupKey key_for(netsim::CarrierId carrier, netsim::CarrierId neighbor) const {
    return key_of(words_->word(carrier), neighbor);
  }

  /// Key for a subject given by its packed word (AttrWords::pack for a
  /// carrier outside the topology). The one key builder: throws
  /// std::logic_error when a neighbor-side dependent has no neighbor.
  GroupKey key_of(std::uint64_t carrier_word, netsim::CarrierId neighbor) const;

  /// Winning vote of the peer group, if the group exists and the winner's
  /// support is >= `threshold`.
  std::optional<Vote> vote(const GroupKey& key, double threshold) const;

  /// Leave-one-out vote: as `vote` but with one observation of `own_label`
  /// removed from the group (evaluation treats each carrier as new, §4.2).
  /// A group that holds no `own_label` votes in full.
  std::optional<Vote> vote_excluding(const GroupKey& key, ml::ClassLabel own_label,
                                     double threshold) const;

  /// Applies a signed vote delta for one observation: +1 adds a voter with
  /// `label` to the group (created when absent), -1 removes one. Pairs that
  /// reach zero votes and groups that reach zero voters are erased, so a
  /// delta-maintained model holds exactly the groups a from-scratch build
  /// over the same population would (winner/runner-up scans are
  /// order-independent over the (label, count) multiset, so equal multisets
  /// mean equal votes — DESIGN.md §18). Throws std::logic_error when a count
  /// would go negative.
  void adjust(const GroupKey& key, ml::ClassLabel label, std::int32_t delta);

  /// Rewrites every stored vote's label through `old_to_new` (index = old
  /// label code). Used when the label dictionary is re-coded in place — a
  /// value appeared or vanished and every dense code shifted. The map must
  /// be monotone over live labels so smallest-label tie-breaks survive the
  /// renumbering; a negative entry asserts that label holds no votes (it was
  /// dropped from the dictionary) and trips std::logic_error otherwise.
  void remap_labels(std::span<const ml::ClassLabel> old_to_new);

  /// Adopts `new_deps`, which must be a permutation of deps(). Keys name the
  /// dependent set, not its order, so the groups are untouched: O(|deps|).
  /// Throws std::logic_error on a non-permutation.
  void reorder_deps(std::span<const AttrRef> new_deps);

  std::size_t group_count() const { return groups_; }

  /// Slots the table holds, live or empty; each costs sizeof(Slot) = 16
  /// bytes, plus 8 on a level whose key fields pass 64 bits. A group of one
  /// label keeps its vote in its slot; only a group of two or more labels
  /// (or of one label past 0xFFFE) also holds a run of pairs.
  std::size_t slot_count() const { return slots_.size(); }

  /// Live (label, count) pairs in the groups' runs, 8 bytes each: one per
  /// label of every run-form group, equal to a fresh build's over the same
  /// population. Dead entries awaiting compaction (at most as many as the
  /// live ones past the first 64) are not counted.
  std::size_t pair_count() const { return pairs_.size() - garbage_; }

  /// The dependent attribute refs this model keys on.
  std::span<const AttrRef> deps() const { return deps_; }

  /// The key fields of deps().
  const KeyMask& mask() const { return mask_; }

  /// One peer group's aggregate: its dependent codes in deps() order, the
  /// modal value and the counts. Used by rule-book synthesis to export the
  /// learned structure.
  struct GroupSummary {
    std::vector<netsim::AttrCode> codes;
    ml::ClassLabel winner = -1;
    std::int32_t winner_count = 0;
    std::int32_t total = 0;
    double support() const {
      return total > 0 ? static_cast<double>(winner_count) / static_cast<double>(total) : 0.0;
    }
  };
  /// Every group, ordered by codes.
  std::vector<GroupSummary> group_summaries() const;

 private:
  /// One open-addressing slot. `key` is the low word of the group's packed
  /// key (gather()), and the low 15 bits of `displacement` how many slots
  /// past the key's home slot it sits (probe()). A slot has two forms
  /// (DESIGN.md §5):
  ///  - single, when kSingle is set: the group has one label, `size` holds
  ///    label + 1 and `begin` its count, so a vote reads only the slot;
  ///  - a run otherwise: the group's (label, count) pairs are
  ///    pairs_[begin, begin + size), and its voter total is their sum.
  /// A live group holds at least one pair with a count above 0, and a
  /// single label codes as 1..0xFFFF, so size == 0 marks an empty slot in
  /// either form. A run's size is bounded by the label alphabet, which
  /// check_label_width caps at 0xFFFF values.
  struct Slot {
    std::uint64_t key = 0;
    std::uint32_t begin = 0;
    std::uint16_t size = 0;
    std::uint16_t displacement = 0;

    bool single() const { return (displacement & kSingle) != 0; }
    /// Slots past the key's home slot.
    std::size_t offset() const { return displacement & kMaxDisplacement; }
    ml::ClassLabel single_label() const { return static_cast<ml::ClassLabel>(size) - 1; }
    std::int32_t single_count() const { return static_cast<std::int32_t>(begin); }
  };
  static_assert(sizeof(Slot) == 16, "a voting slot is a one-word key plus a packed vote or run");
  /// A key's dependent fields packed by runs_: one word, plus `high` on a
  /// level whose fields pass 64 bits (0 elsewhere).
  struct Packed {
    std::uint64_t low = 0;
    std::uint64_t high = 0;
  };
  /// Mask bits that move as one: the bits `mask` of a key word, rotated
  /// left by `rotate`, land in a packed word (plan_runs).
  struct Run {
    std::uint64_t mask = 0;
    int rotate = 0;
  };
  using LabelCount = std::pair<ml::ClassLabel, std::int32_t>;
  static constexpr std::size_t kNone = ~std::size_t{0};
  /// Longest run a Slot codes: one pair per label, at most 0xFFFF labels.
  static constexpr std::size_t kMaxRun = 0xFFFF;
  /// The displacement bit that marks a single-form slot, and the longest
  /// displacement the bits below it code.
  static constexpr std::uint16_t kSingle = 0x8000;
  static constexpr std::uint16_t kMaxDisplacement = 0x7FFF;
  /// Largest label a single-form slot codes (as label + 1 in 16 bits).
  static constexpr ml::ClassLabel kMaxSingleLabel = 0xFFFE;

  // The members a lookup reads come first, so they share cache lines.
  const AttrWords* words_;
  KeyMask mask_;
  std::vector<Slot> slots_;   // Robin Hood linear probing, any size, load <= 3/4
  /// How mask_'s bits pack. runs_[0, neighbor_run_) move carrier bits and
  /// runs_[neighbor_run_, high_run_) neighbor bits into the low word;
  /// runs_[high_run_, end) move neighbor bits into the high word.
  std::vector<Run> runs_;
  std::vector<LabelCount> pairs_;  // every run-form group's run, plus garbage_ dead entries
  std::uint8_t neighbor_run_ = 0;
  std::uint8_t high_run_ = 0;
  bool wide_ = false;         // the fields pass 64 bits: keys have a high word
  std::vector<std::uint64_t> high_;  // [slot] high key words; empty unless wide_
  std::vector<AttrRef> deps_;
  std::size_t groups_ = 0;
  std::size_t garbage_ = 0;        // dead entries of pairs_

  /// Computes runs_, neighbor_run_, high_run_ and wide_ from mask_.
  void plan_runs();
  Packed gather(const GroupKey& key) const;
  /// The inverse of gather: the masked words of a packed key.
  GroupKey scatter(const Packed& packed) const;
  Packed packed_at(std::size_t index) const {
    return {slots_[index].key, wide_ ? high_[index] : 0};
  }

  /// Builds the table from at most `n` observations (packed key, label,
  /// votes) that `for_each` enumerates.
  template <typename ForEach>
  void build(std::size_t n, ForEach&& for_each);

  std::size_t home(const Packed& key) const;
  /// The slot after `index`, wrapping to 0 past the last.
  std::size_t next(std::size_t index) const { return index + 1 == slots_.size() ? 0 : index + 1; }
  /// Slots from `from` forward to `to`, modulo the slot count.
  std::size_t distance(std::size_t from, std::size_t to) const {
    return to >= from ? to - from : to + slots_.size() - from;
  }
  bool holds(std::size_t index, const Packed& key) const {
    return slots_[index].size != 0 && slots_[index].key == key.low &&
           (!wide_ || high_[index] == key.high);
  }
  /// Slot of `key`, or the slot where inserting it keeps Robin Hood order;
  /// `start` is home(key).
  std::size_t probe(const Packed& key, std::size_t start) const;
  std::size_t find(const GroupKey& key) const;
  /// Slot of `key`, claiming one (size still 0) when absent.
  std::size_t claim(const Packed& key);
  /// Puts `key` in slot `index`, probe's answer for an absent key that sits
  /// `displacement` slots past its home, as an empty slot with size 0.
  void insert(std::size_t index, const Packed& key, std::size_t displacement);
  void erase_slot(std::size_t index);
  void rehash(std::size_t capacity);
  void append_pair(Slot& slot, ml::ClassLabel label, std::int32_t count);
  static bool fits_single(ml::ClassLabel label) { return label >= 0 && label <= kMaxSingleLabel; }
  /// Makes a slot hold `label`'s `count` votes alone: single form when the
  /// label fits it, else a one-pair run at the tail of pairs_.
  void set_single(Slot& slot, ml::ClassLabel label, std::int32_t count);
  /// Moves a run left with one label that fits the single form into its
  /// slot, the form a fresh build gives such a group.
  void settle(Slot& slot);
  void compact_pairs();
  std::span<const LabelCount> run(const Slot& slot) const {
    return {pairs_.data() + slot.begin, slot.size};
  }

  /// The slot's winning vote (see winner), read from the slot alone in the
  /// single form.
  std::optional<Vote> decide(const Slot& slot, ml::ClassLabel excluded, bool exclude_one,
                             double threshold) const;
  /// The run's winning vote; the group total is the run's sum.
  static std::optional<Vote> winner(std::span<const LabelCount> counts, ml::ClassLabel excluded,
                                    bool exclude_one, double threshold);
};

/// Voting with support-driven backoff.
///
/// The dependency scan orders attributes strongest-first; when the exact
/// match on all dependents yields no group or a vote below the threshold,
/// the weakest dependent is dropped and the (coarser, larger) group is
/// retried, up to `levels` times, before giving up. This keeps the 75%-vote
/// semantics of the paper while preventing inter-correlated attributes from
/// fragmenting peer groups below statistical usefulness (DESIGN.md §5).
class BackoffVoting {
 public:
  /// `deps` must be sorted strongest-first (learn_dependencies output).
  /// levels >= 1; level k matches on the first (|deps| - k) dependents.
  /// A vote at any level before the last also needs at least `min_voters`
  /// peers — a unanimous "vote" of one or two carriers is no evidence, and
  /// accepting it would let isolated noisy peers decide; the final level
  /// accepts any non-empty group (the best available evidence).
  BackoffVoting(const ParamView& view, std::span<const AttrRef> deps, const AttrWords& words,
                int levels = 3, int min_voters = 3);

  struct Decision {
    Vote vote;
    int level = 0;  ///< 0 = full dependent set, 1 = one dropped, ...
  };

  /// Global vote for (carrier, neighbor); tries levels in order.
  std::optional<Decision> vote(netsim::CarrierId carrier, netsim::CarrierId neighbor,
                               double threshold) const {
    return vote_word(words_->word(carrier), neighbor, threshold);
  }

  /// Global vote for a subject given by its packed word — AttrWords::pack
  /// of a carrier NOT present in the topology. kUnseen fields match no peer
  /// group, which realizes §6's bootstrap fallback. Neighbor-side refs
  /// still resolve against the topology via `neighbor`.
  std::optional<Decision> vote_word(std::uint64_t carrier_word, netsim::CarrierId neighbor,
                                    double threshold) const;

  /// Leave-one-out global vote (one observation of own_label removed).
  std::optional<Decision> vote_excluding(netsim::CarrierId carrier, netsim::CarrierId neighbor,
                                         ml::ClassLabel own_label, double threshold) const;

  /// Local vote over `candidates` with the same backoff ladder. `labels`
  /// is the parameter's column of the engine's label stores (or of a
  /// one-column store over a view); `exclude_entity`, when >= 0, is the
  /// subject's own carrier id (singular) or edge position (pair-wise).
  std::optional<Decision> local(const LabelColumn& labels,
                                std::span<const netsim::CarrierId> candidates,
                                netsim::CarrierId carrier, netsim::CarrierId neighbor,
                                std::int64_t exclude_entity, double threshold,
                                std::span<const double> carrier_weights = {}) const {
    return local_word(labels, candidates, words_->word(carrier), neighbor, exclude_entity,
                      threshold, carrier_weights);
  }

  /// Local vote for a subject given by its packed word (see vote_word);
  /// `candidates` is the subject's (planned) X2 neighborhood.
  std::optional<Decision> local_word(const LabelColumn& labels,
                                     std::span<const netsim::CarrierId> candidates,
                                     std::uint64_t carrier_word, netsim::CarrierId neighbor,
                                     std::int64_t exclude_entity, double threshold,
                                     std::span<const double> carrier_weights = {}) const;

  /// The same local vote for a caller holding only `view` and no label
  /// store: each candidate's rows are found by binary search over the
  /// carrier-sorted rows, and `exclude_row` (>= 0) is a view row. Decides
  /// exactly as the column overload on the view's one-column store. Needs a
  /// view from build_param_view: an engine's views hold no rows.
  std::optional<Decision> local(const ParamView& view,
                                std::span<const netsim::CarrierId> candidates,
                                netsim::CarrierId carrier, netsim::CarrierId neighbor,
                                std::int64_t exclude_row, double threshold,
                                std::span<const double> carrier_weights = {}) const;

  /// Applies a signed vote delta for one observation of (carrier, neighbor)
  /// across every backoff level (see VotingModel::adjust). The incremental
  /// relearn path uses this to keep all levels consistent with the day's
  /// slot deltas without rebuilding.
  void adjust(netsim::CarrierId carrier, netsim::CarrierId neighbor, ml::ClassLabel label,
              std::int32_t delta);

  /// Applies a label renumbering to every backoff level (see
  /// VotingModel::remap_labels).
  void remap_labels(std::span<const ml::ClassLabel> old_to_new);

  /// Adopts a re-ranked dependent list (`new_deps` must be a permutation of
  /// the current set). A backoff level whose prefix spans the same attribute
  /// set keeps its table as is — keys name the set — and a level whose
  /// prefix membership shifted (the dropped-weakest tail changed) is
  /// re-aggregated from the next finer level. The incremental relearn path
  /// uses this when a drift re-test re-ranks an unchanged dependent set —
  /// the common case — so an O(rows) voting rebuild becomes O(groups) at
  /// most.
  void reorder_deps(std::span<const AttrRef> new_deps);

  /// Dependent refs used at backoff level `level`.
  std::span<const AttrRef> deps_at(int level) const;

  /// The voting model at backoff `level` (0 = full dependent set); exposed
  /// for structural equality checks in tests and diagnostics.
  const VotingModel& model_at(int level) const {
    return models_.at(static_cast<std::size_t>(level));
  }

  int level_count() const { return static_cast<int>(models_.size()); }

 private:
  std::vector<AttrRef> deps_;
  const AttrWords* words_;
  std::vector<VotingModel> models_;  // [level] -> model on the prefix
  int min_voters_ = 3;

  bool accept(const Vote& vote, int level) const;

  /// The local ladder over peers gathered once for every level.
  std::optional<Decision> local_ladder(std::span<const LocalPeer> peers,
                                       std::uint64_t carrier_word, netsim::CarrierId neighbor,
                                       double threshold, bool weighted) const;
};

/// Local (geographical-proximity) vote: peers are the configured entities
/// of `labels` whose subject carrier lies in `candidates` (typically the
/// 1-hop X2 neighborhood of the target, §3.3) and whose packed words,
/// masked by `mask`, equal `key` — for a singular column the candidate's
/// own cell, for a pair-wise one each of its edges in Topology::edges order.
/// `exclude_entity` (the target's own carrier or edge during evaluation) is
/// skipped when >= 0. Returns the winning vote if support >= threshold.
///
/// `carrier_weights`, when non-empty (one weight per topology carrier),
/// implements the §6 performance-feedback extension: each voter contributes
/// its carrier's weight instead of 1, so carriers whose past configuration
/// changes improved service performance count for more. Vote counts are
/// then rounded weight totals and support is the weight fraction.
std::optional<Vote> local_vote(const LabelColumn& labels, const AttrWords& words,
                               const KeyMask& mask, const GroupKey& key,
                               std::span<const netsim::CarrierId> candidates,
                               std::int64_t exclude_entity, double threshold,
                               std::span<const double> carrier_weights = {});

}  // namespace auric::core
