// AuricEngine: the end-to-end recommender of Fig. 5.
//
// Learning phase (construction): for every one of the 65 range parameters,
// build the learning population over existing carriers, run the chi-square
// dependency scan, and aggregate the collaborative-filtering peer groups.
//
// Recommendation phase: for a (new) carrier — and a neighbor, for pair-wise
// parameters — produce a value per parameter using, in order:
//   1. local voting over the 1-hop X2 neighborhood (geographical proximity,
//      §3.3), when enabled;
//   2. global voting over all matching carriers;
//   3. the national rule-book default (§6's bootstrap fallback for carriers
//      whose peer group is empty or fails the 75% support threshold).
// Every recommendation carries its provenance and voting evidence so
// engineers can audit it (§5 "trust and interpretability").
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "config/assignment.h"
#include "config/catalog.h"
#include "core/dependency.h"
#include "core/param_view.h"
#include "core/voting.h"
#include "netsim/attributes.h"
#include "netsim/topology.h"

namespace auric::core {

struct AuricOptions {
  /// Chi-square significance level for dependency learning (paper: 0.01).
  double p_value = 0.01;
  /// Minimum voting support to emit a recommendation (paper: 0.75).
  double vote_threshold = 0.75;
  /// Use geographical proximity (local learner). When false the engine is
  /// the paper's "global learner".
  bool use_proximity = true;
  /// Neighborhood radius in X2 hops (paper: 1).
  int proximity_hops = 1;
  /// Dependent attributes retained, strongest first (see DependencyOptions).
  int max_dependent = 14;
  /// Support-driven backoff depth (see BackoffVoting).
  int backoff_levels = 5;
  /// Width of the per-parameter learn fan-out: > 1 builds the parameter
  /// tables on a private util::TaskPool of that many runners. Parameters are
  /// independent (the X2-locality argument of DESIGN.md §13 covers the learn
  /// path) and every build writes into its own pre-sized slot, so any width
  /// produces byte-identical models to the serial loop (CI-enforced).
  int learn_threads = 1;
  /// Learn over one market's subjects only (the paper's per-market
  /// protocol): peer groups, dependencies and label-matrix cells cover the
  /// carriers of `market` and the relations whose subject lies in it. Unset
  /// learns the whole inventory. A scoped engine cannot incremental_relearn.
  std::optional<netsim::MarketId> market;
  /// §6 performance-feedback extension: per-carrier local-vote weights, one
  /// per topology carrier. Empty = plain counting (what serving uses).
  std::vector<double> carrier_weights;
};

/// How a relearn refreshes the engine — shared by `auric replay
/// --relearn-mode` and the serve daemon's POST /relearn.
enum class RelearnMode {
  kFull = 0,     ///< rebuild every parameter table from scratch
  kIncremental,  ///< apply slot deltas in place (AuricEngine::incremental_relearn)
};

const char* relearn_mode_name(RelearnMode mode);

enum class RecommendationSource {
  kLocalVote = 0,     ///< 1-hop X2 neighborhood vote met the threshold
  kGlobalVote,        ///< network-wide peer-group vote met the threshold
  kRulebookDefault,   ///< bootstrap fallback: no vote met the threshold
};

const char* recommendation_source_name(RecommendationSource source);

struct Recommendation {
  config::ParamId param = 0;
  config::ValueIndex value = config::kUnset;
  RecommendationSource source = RecommendationSource::kRulebookDefault;
  std::int32_t votes = 0;       ///< votes for the winning value
  std::int32_t group_size = 0;  ///< peers that voted
  double support = 0.0;         ///< votes / group_size
  double margin = 0.0;          ///< (votes - runner-up) / group_size; 0 for defaults
};

class ModelWatch;

/// Knobs of AuricEngine::incremental_relearn.
struct IncrementalRelearnOptions {
  /// Re-test gate: a touched parameter re-runs its chi-square dependency
  /// scan when its changed-observation fraction (slot deltas / previous
  /// rows) reaches this. <= 0 re-tests every touched parameter — the exact
  /// mode, which makes incremental relearn bit-identical to a full rebuild
  /// (DESIGN.md §18). Parameters whose label set changed rebuild regardless.
  double drift_threshold = 0.0;
  /// Optional union trigger: with a watch attached, a parameter whose
  /// ModelWatch day-over-day drift p-value (auric_model_drift_chi2_p) falls
  /// below `watch_alpha` re-tests even below drift_threshold — the served
  /// distribution moved even if the inventory barely did.
  const ModelWatch* watch = nullptr;
  double watch_alpha = 0.01;
  /// Fan the per-parameter delta application across this many runners
  /// (private pool; indexed slots keep any width byte-identical to 1).
  int threads = 1;
};

/// What an incremental relearn actually did, for logs and tests.
struct IncrementalRelearnStats {
  std::size_t params_touched = 0;   ///< parameters with any slot delta
  std::size_t params_retested = 0;  ///< chi-square dependency scan re-ran
  std::size_t params_rebuilt = 0;   ///< voting tables rebuilt (dependent set changed)
  std::size_t params_remapped = 0;  ///< label alphabet spliced in place (value appeared/vanished)
  std::size_t rows_added = 0;
  std::size_t rows_erased = 0;
  std::size_t rows_updated = 0;
};

/// One slot of a carrier to recommend for: a singular parameter (no
/// neighbor) or a pair-wise parameter toward `neighbor`.
struct SlotQuery {
  config::ParamId param = 0;
  netsim::CarrierId neighbor = netsim::kInvalidCarrier;
};

class AuricEngine {
 public:
  /// Learns dependency and voting models for every parameter. O(total
  /// configured values) work; ~1s for the default benchmark topology.
  /// Throws std::invalid_argument when the schema's attribute cardinalities
  /// do not fit one packed 64-bit word (see AttrWords), or when a
  /// parameter has more distinct values than a label cell codes (see
  /// check_label_width).
  /// Engines are copyable: a copy shares the immutable attribute encoding
  /// and owns its own tables, so a clone can be incrementally relearned and
  /// shadow-audited against the original (the serve relearn path).
  AuricEngine(const netsim::Topology& topology, const netsim::AttributeSchema& schema,
              const config::ParamCatalog& catalog, const config::ConfigAssignment& assignment,
              AuricOptions options = {});

  /// Re-learns in place from the current `assignment`, touching only the
  /// parameters whose configured slots differ from the learned population
  /// (each parameter's assignment column is diffed against its label
  /// column): slot deltas (add/update/erase) are applied to the singular
  /// label-matrix cells, contingency tables and voting groups; a value
  /// appearing or vanishing splices the label alphabet in place (an exact
  /// monotone re-coding, no re-tally) and re-codes a singular parameter's
  /// matrix column; the pair-wise label rows are rebuilt by their one
  /// builder when any pair-wise parameter changed; the chi-square dependency
  /// scan re-runs only per `options` (see IncrementalRelearnOptions), and
  /// voting tables rebuild only when a parameter's dependent-set membership
  /// changed — a re-test that merely re-ranks the same set keeps the tables,
  /// whose keys name the set. With the default options the result is
  /// bit-identical to constructing a fresh engine over `assignment` — the
  /// models at O(day's delta) instead of O(inventory). The assignment must describe the same topology and
  /// catalog the engine was built over. A splice that would overflow a
  /// label cell throws std::invalid_argument before touching that
  /// parameter; so does an engine scoped to a market (AuricOptions::market).
  /// A throw mid-way leaves the engine part-relearned: relearn a copy when
  /// the assignment may be refused, as the serve daemon does.
  void incremental_relearn(const config::ConfigAssignment& assignment,
                           const IncrementalRelearnOptions& options = {},
                           IncrementalRelearnStats* stats = nullptr);

  const AuricOptions& options() const { return options_; }
  const netsim::Topology& topology() const { return *topology_; }
  const netsim::AttributeSchema& schema() const { return *schema_; }
  const config::ParamCatalog& catalog() const { return *catalog_; }

  /// `param`'s learned view without its rows: `param`, `pairwise` and the
  /// `labels` dictionary that decodes label_column(). rows() is 0 after
  /// construction; the label stores are the only per-row store.
  const ParamView& view(config::ParamId param) const;
  const DependencyModel& dependencies(config::ParamId param) const;
  /// The re-test sufficient statistics incremental_relearn maintains.
  const ContingencyState& contingency(config::ParamId param) const;
  const BackoffVoting& voting(config::ParamId param) const;

  /// `param`'s column of the engine's label stores — what the local vote
  /// reads (DESIGN.md §5).
  LabelColumn label_column(config::ParamId param) const;
  /// Label stores: the dense [carrier][singular position] matrix and the
  /// sparse pair-wise rows, columns by pair-wise position. Maintained by
  /// incremental_relearn exactly as a fresh build would lay them out.
  const LabelMatrix& singular_labels() const { return singular_labels_; }
  const PairLabelRows& pair_label_rows() const { return pair_label_rows_; }
  const std::vector<std::vector<netsim::AttrCode>>& attr_codes() const { return *attr_codes_; }

  /// Recommends a value for one parameter on `carrier` (singular) or on the
  /// relation carrier -> neighbor (pair-wise). When `exclude_self` is true
  /// and the slot is currently configured, the carrier's own observation is
  /// removed from the vote — this is the §4.2 protocol of treating each
  /// existing carrier as if it were new.
  Recommendation recommend(config::ParamId param, netsim::CarrierId carrier,
                           netsim::CarrierId neighbor = netsim::kInvalidCarrier,
                           bool exclude_self = true) const;

  /// All singular-parameter recommendations for `carrier`.
  std::vector<Recommendation> recommend_singular(netsim::CarrierId carrier,
                                                 bool exclude_self = true) const;

  /// All pair-wise recommendations for the relation carrier -> neighbor.
  std::vector<Recommendation> recommend_pairwise(netsim::CarrierId carrier,
                                                 netsim::CarrierId neighbor,
                                                 bool exclude_self = true) const;

  /// Recommendations for several slots of `carrier`, in `slots` order (what
  /// recommend() gives for each). An attached watch records them as one
  /// batch, as it does for recommend_singular/recommend_pairwise.
  std::vector<Recommendation> recommend_slots(netsim::CarrierId carrier,
                                              std::span<const SlotQuery> slots,
                                              bool exclude_self = true) const;

  /// True cold start (§3 of the paper): recommends for a carrier that is
  /// NOT in the learned inventory — a carrier being planned or integrated.
  /// `new_carrier` supplies the attributes; `x2_neighbors` is its planned
  /// X2 neighborhood (existing carrier ids) used for the local vote; for a
  /// pair-wise `param`, `neighbor` names the relation target. Attribute
  /// values never observed in the inventory match no peer group and fall to
  /// the rule-book default (§6 "bootstrapping the unobserved").
  Recommendation recommend_for(const netsim::Carrier& new_carrier,
                               std::span<const netsim::CarrierId> x2_neighbors,
                               config::ParamId param,
                               netsim::CarrierId neighbor = netsim::kInvalidCarrier) const;

  /// All singular recommendations for an out-of-inventory carrier.
  std::vector<Recommendation> recommend_for_all_singular(
      const netsim::Carrier& new_carrier,
      std::span<const netsim::CarrierId> x2_neighbors) const;

  /// Human-readable audit trail: dependent attributes with the carrier's
  /// values, vote counts and provenance.
  std::string explain(const Recommendation& rec, netsim::CarrierId carrier,
                      netsim::CarrierId neighbor = netsim::kInvalidCarrier) const;

  /// Attaches a per-parameter telemetry sink: every recommendation produced
  /// by recommend*/recommend_for* is mirrored into `watch` (see
  /// core/model_watch.h). Pass nullptr to detach. The watch must outlive the
  /// engine; recording is lock-free, so a watched engine stays safe to share
  /// across reader threads.
  void set_watch(const ModelWatch* watch) { watch_ = watch; }
  const ModelWatch* watch() const { return watch_; }

 private:
  const netsim::Topology* topology_;
  const netsim::AttributeSchema* schema_;
  const config::ParamCatalog* catalog_;
  AuricOptions options_;

  /// Shared, immutable after construction: voting models keep raw pointers
  /// into the packed words, so engine copies must alias the same storage for
  /// a clone's models to stay valid after the original is destroyed.
  std::shared_ptr<const std::vector<std::vector<netsim::AttrCode>>> attr_codes_;
  std::shared_ptr<const AttrWords> attr_words_;
  std::vector<ParamView> views_;              ///< by catalog param id; rows released after learn
  std::vector<std::size_t> positions_;        ///< kind_position by catalog param id
  LabelMatrix singular_labels_;
  PairLabelRows pair_label_rows_;
  std::vector<DependencyModel> dependencies_;
  std::vector<ContingencyState> contingency_;  ///< re-test sufficient statistics
  std::vector<BackoffVoting> voting_;
  const ModelWatch* watch_ = nullptr;

  /// Builds view + contingency + dependencies + voting, and a singular
  /// parameter's label-matrix column, for parameter `p` into the pre-sized
  /// slots, then releases the view's rows (thread-safe across distinct `p`:
  /// each writes its own cells).
  void learn_param(std::size_t p, const config::ConfigAssignment& assignment,
                   const DependencyOptions& dep_options,
                   std::vector<std::optional<BackoffVoting>>& voting_slots);

  /// recommend() without the watch record; the recommend* entry points
  /// publish to the watch (one decision, or one batch per call).
  Recommendation decide(config::ParamId param, netsim::CarrierId carrier,
                        netsim::CarrierId neighbor, bool exclude_self) const;

  /// Diffs parameter `p` against `assignment` and applies the delta to its
  /// models and, for a singular parameter, to its label-matrix column.
  /// Returns true when the parameter was touched.
  bool relearn_param(std::size_t p, const config::ConfigAssignment& assignment,
                     const IncrementalRelearnOptions& options, IncrementalRelearnStats& stats);

  /// The pair-wise label rows of `assignment`, coded through the views'
  /// dictionaries (the one builder; a serial pass after the fan-out).
  PairLabelRows build_pair_label_rows(const config::ConfigAssignment& assignment) const;
};

}  // namespace auric::core
