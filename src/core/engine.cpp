#include "core/engine.h"

#include <algorithm>
#include <array>
#include <functional>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "core/model_watch.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/parallel.h"
#include "util/strings.h"

namespace auric::core {

namespace {

/// Learning-phase timings (§4–5: dependency learning, matching, voting
/// model build) plus a learn counter. One histogram per phase so a relearn
/// regression is attributable to the phase that slowed down.
struct EngineMetrics {
  obs::Histogram& phase_param_view;
  obs::Histogram& phase_dependency;
  obs::Histogram& phase_voting;
  obs::Counter& learns;
  obs::Counter& incremental_relearns;
  obs::Histogram& incremental_seconds;
};

EngineMetrics& engine_metrics() {
  auto& reg = obs::MetricsRegistry::global();
  const auto phase = [&reg](const char* name) -> obs::Histogram& {
    return reg.histogram("auric_engine_phase_seconds", obs::default_seconds_bounds(),
                         "engine learning time by phase, per parameter (s)", {{"phase", name}});
  };
  static EngineMetrics m{
      phase("param_view"), phase("dependency"), phase("voting"),
      reg.counter("auric_engine_learns_total", "full engine (re)learns"),
      reg.counter("auric_engine_incremental_relearns_total", "in-place delta relearns"),
      reg.histogram("auric_engine_incremental_relearn_seconds", obs::default_seconds_bounds(),
                    "incremental relearn wall time (s)")};
  return m;
}

obs::Counter& recommendation_counter(RecommendationSource source) {
  static const auto counters = [] {
    std::array<obs::Counter*, 3> a{};
    auto& reg = obs::MetricsRegistry::global();
    for (int i = 0; i < 3; ++i) {
      a[static_cast<std::size_t>(i)] = &reg.counter(
          "auric_engine_recommendations_total", "recommendations served, by decision source",
          {{"source", recommendation_source_name(static_cast<RecommendationSource>(i))}});
    }
    return a;
  }();
  return *counters[static_cast<std::size_t>(source)];
}

}  // namespace

const char* recommendation_source_name(RecommendationSource source) {
  switch (source) {
    case RecommendationSource::kLocalVote: return "local-vote";
    case RecommendationSource::kGlobalVote: return "global-vote";
    case RecommendationSource::kRulebookDefault: return "rulebook-default";
  }
  return "?";
}

const char* relearn_mode_name(RelearnMode mode) {
  switch (mode) {
    case RelearnMode::kFull: return "full";
    case RelearnMode::kIncremental: return "incremental";
  }
  return "?";
}

AuricEngine::AuricEngine(const netsim::Topology& topology, const netsim::AttributeSchema& schema,
                         const config::ParamCatalog& catalog,
                         const config::ConfigAssignment& assignment, AuricOptions options)
    : topology_(&topology), schema_(&schema), catalog_(&catalog), options_(options) {
  obs::ScopedSpan span("engine.learn");
  EngineMetrics& metrics = engine_metrics();
  attr_codes_ = std::make_shared<const std::vector<std::vector<netsim::AttrCode>>>(
      schema.encode_all(topology));
  attr_words_ = std::make_shared<const AttrWords>(schema, *attr_codes_);
  const std::size_t n = catalog.size();
  views_.resize(n);
  positions_.resize(n);
  for (std::size_t p = 0; p < n; ++p) {
    positions_[p] = kind_position(catalog, static_cast<config::ParamId>(p));
  }
  dependencies_.resize(n);
  contingency_.resize(n);
  // Distinct parameters write distinct cells, so the learn fan-out fills
  // the singular matrix race-free; the pair-wise rows are filled after it.
  singular_labels_ = LabelMatrix(topology.carrier_count(), catalog.singular_ids().size());
  DependencyOptions dep_options;
  dep_options.p_value = options_.p_value;
  dep_options.max_dependent = options_.max_dependent;
  // Parameters are independent; every build writes its own pre-sized slot,
  // so the fan-out below is byte-identical to the serial loop at any width.
  std::vector<std::optional<BackoffVoting>> voting_slots(n);
  if (options_.learn_threads > 1 && n > 1) {
    // A private pool: the shared() pool's width belongs to the sharded
    // launch stream and must not steer how wide the learn fan-out runs.
    util::TaskPool pool(static_cast<std::size_t>(options_.learn_threads) - 1);
    std::vector<std::function<void()>> tasks;
    tasks.reserve(n);
    for (std::size_t p = 0; p < n; ++p) {
      tasks.push_back([this, p, &assignment, &dep_options, &voting_slots] {
        learn_param(p, assignment, dep_options, voting_slots);
      });
    }
    pool.run(std::move(tasks));
  } else {
    for (std::size_t p = 0; p < n; ++p) learn_param(p, assignment, dep_options, voting_slots);
  }
  voting_.reserve(n);
  for (std::size_t p = 0; p < n; ++p) voting_.push_back(std::move(*voting_slots[p]));
  pair_label_rows_ = build_pair_label_rows(assignment);
  metrics.learns.inc();
}

PairLabelRows AuricEngine::build_pair_label_rows(
    const config::ConfigAssignment& assignment) const {
  std::vector<const ml::LabelDictionary*> labels;
  labels.reserve(catalog_->pairwise_ids().size());
  for (config::ParamId param : catalog_->pairwise_ids()) labels.push_back(&view(param).labels);
  return PairLabelRows(*topology_, assignment.pairwise, labels, options_.market);
}

void AuricEngine::learn_param(std::size_t p, const config::ConfigAssignment& assignment,
                              const DependencyOptions& dep_options,
                              std::vector<std::optional<BackoffVoting>>& voting_slots) {
  EngineMetrics& metrics = engine_metrics();
  const auto param = static_cast<config::ParamId>(p);
  ParamView& view = views_[p];
  {
    // The view and, for a singular parameter, its serve-side layout, the
    // label-matrix column. A pair-wise parameter's cells are coded after the
    // fan-out (build_pair_label_rows), through the dictionary checked here.
    obs::ScopedTimer timer(metrics.phase_param_view);
    view = build_param_view(*topology_, *catalog_, assignment, param, options_.market);
    if (view.pairwise) {
      check_label_width(view.labels.size(), catalog_->at(param).name);
    } else {
      singular_labels_.assign_column(positions_[p], view, catalog_->at(param).name);
    }
  }
  {
    obs::ScopedTimer timer(metrics.phase_dependency);
    contingency_[p] = build_contingency(view, *attr_codes_, *schema_);
    dependencies_[p] = dependencies_from_contingency(contingency_[p], dep_options);
  }
  {
    obs::ScopedTimer timer(metrics.phase_voting);
    voting_slots[p].emplace(view, dependencies_[p].dependent, *attr_words_,
                            options_.backoff_levels);
  }
  // The label stores hold (or will hold) every row's label by entity:
  // release the rows, keeping the dictionary that decodes them.
  ParamView kept;
  kept.param = view.param;
  kept.pairwise = view.pairwise;
  kept.labels = std::move(view.labels);
  view = std::move(kept);
}

void AuricEngine::incremental_relearn(const config::ConfigAssignment& assignment,
                                      const IncrementalRelearnOptions& options,
                                      IncrementalRelearnStats* stats) {
  obs::ScopedSpan span("engine.incremental_relearn");
  EngineMetrics& metrics = engine_metrics();
  obs::ScopedTimer timer(metrics.incremental_seconds);
  if (options_.market) {
    // The diff against the label column below would read every
    // out-of-market slot as an add.
    throw std::invalid_argument("incremental_relearn: engine is scoped to one market");
  }
  if (assignment.singular.size() != catalog_->singular_ids().size() ||
      assignment.pairwise.size() != catalog_->pairwise_ids().size()) {
    throw std::invalid_argument("incremental_relearn: assignment does not match the catalog");
  }
  const std::size_t n = catalog_->size();
  std::vector<IncrementalRelearnStats> per_param(n);
  if (options.threads > 1 && n > 1) {
    util::TaskPool pool(static_cast<std::size_t>(options.threads) - 1);
    std::vector<std::function<void()>> tasks;
    tasks.reserve(n);
    for (std::size_t p = 0; p < n; ++p) {
      tasks.push_back([this, p, &assignment, &options, &per_param] {
        relearn_param(p, assignment, options, per_param[p]);
      });
    }
    pool.run(std::move(tasks));
  } else {
    for (std::size_t p = 0; p < n; ++p) relearn_param(p, assignment, options, per_param[p]);
  }
  // The pair-wise rows are rebuilt, not patched: the same builder as a
  // fresh learn, over the relearned dictionaries. The old rows go first so
  // the two are never resident together.
  if (std::any_of(catalog_->pairwise_ids().begin(), catalog_->pairwise_ids().end(),
                  [&](config::ParamId param) {
                    return per_param[static_cast<std::size_t>(param)].params_touched > 0;
                  })) {
    pair_label_rows_ = PairLabelRows();
    pair_label_rows_ = build_pair_label_rows(assignment);
  }
  metrics.incremental_relearns.inc();
  if (stats != nullptr) {
    IncrementalRelearnStats total;
    for (const IncrementalRelearnStats& s : per_param) {
      total.params_touched += s.params_touched;
      total.params_retested += s.params_retested;
      total.params_rebuilt += s.params_rebuilt;
      total.params_remapped += s.params_remapped;
      total.rows_added += s.rows_added;
      total.rows_erased += s.rows_erased;
      total.rows_updated += s.rows_updated;
    }
    *stats = total;
  }
}

bool AuricEngine::relearn_param(std::size_t p, const config::ConfigAssignment& assignment,
                                const IncrementalRelearnOptions& options,
                                IncrementalRelearnStats& stats) {
  const auto param = static_cast<config::ParamId>(p);
  ParamView& view = views_[p];
  const std::size_t pos = positions_[p];
  const config::ParamColumn& col =
      view.pairwise ? assignment.pairwise.at(pos) : assignment.singular.at(pos);
  const LabelColumn cells = label_column(param);
  if (col.entities() != cells.entities()) {
    throw std::invalid_argument("incremental_relearn: assignment entity space mismatch");
  }

  // Slot deltas in entity order: one pass merges the learned label column's
  // configured cells (a singular column's carriers, a pair-wise column's
  // buckets) with the column's entries, decoding each cell through the
  // dictionary, so a learned slot the column no longer holds reads as an
  // erase and an entry with no learned cell as an add.
  // The same pass counts the learned rows per label: a brand-new value or a
  // vanished one shifts every dense label code (the dictionary is sorted),
  // which is the one thing deltas cannot patch — those parameters splice
  // their alphabet below.
  struct Change {
    std::size_t entity = 0;
    config::ValueIndex old_value = config::kUnset;  ///< kUnset = slot was unconfigured (add)
    config::ValueIndex new_value = config::kUnset;  ///< kUnset = slot got erased
  };
  std::vector<Change> changes;
  std::vector<std::int64_t> label_rows(view.labels.size(), 0);
  std::size_t rows_before = 0;
  std::size_t next = 0;  // the column's first entry not yet merged
  const auto add_entries_before = [&](std::size_t entity) {
    for (; next < col.configured_count() && col.entity(next) < entity; ++next) {
      changes.push_back({col.entity(next), config::kUnset, col.value_at(next)});
    }
  };
  cells.for_each([&](std::size_t e, ml::ClassLabel label) {
    add_entries_before(e);
    const config::ValueIndex old_value = view.labels.values[static_cast<std::size_t>(label)];
    ++label_rows[static_cast<std::size_t>(label)];
    ++rows_before;
    config::ValueIndex new_value = config::kUnset;
    if (next < col.configured_count() && col.entity(next) == e) new_value = col.value_at(next++);
    if (new_value != old_value) changes.push_back({e, old_value, new_value});
  });
  add_entries_before(col.entities());
  if (changes.empty()) return false;  // untouched parameter: models already exact

  stats.params_touched = 1;
  bool labels_changed = false;
  for (const Change& ch : changes) {
    if (ch.old_value == config::kUnset) {
      ++stats.rows_added;
    } else if (ch.new_value == config::kUnset) {
      ++stats.rows_erased;
    } else {
      ++stats.rows_updated;
    }
    if (ch.old_value != config::kUnset) {
      --label_rows[static_cast<std::size_t>(view.labels.code_of(ch.old_value))];
    }
    if (ch.new_value != config::kUnset) {
      const ml::ClassLabel code = view.labels.code_of(ch.new_value);
      if (code < 0) {
        labels_changed = true;
      } else {
        ++label_rows[static_cast<std::size_t>(code)];
      }
    }
  }
  if (!labels_changed) {
    labels_changed = std::any_of(label_rows.begin(), label_rows.end(),
                                 [](std::int64_t c) { return c == 0; });
  }
  // First-seen values of a splice, sorted. The spliced alphabet must still
  // fit a label cell; refuse before anything of this parameter moves.
  std::vector<config::ValueIndex> added;
  if (labels_changed) {
    for (const Change& ch : changes) {
      if (ch.new_value != config::kUnset && view.labels.code_of(ch.new_value) < 0) {
        added.push_back(ch.new_value);
      }
    }
    std::sort(added.begin(), added.end());
    added.erase(std::unique(added.begin(), added.end()), added.end());
    const auto kept = static_cast<std::size_t>(std::count_if(
        label_rows.begin(), label_rows.end(), [](std::int64_t c) { return c > 0; }));
    check_label_width(kept + added.size(), catalog_->at(param).name);
  }

  // Capture the old label codes before re-coding: the contingency and
  // voting deltas below subtract the outgoing observation.
  struct Delta {
    netsim::CarrierId carrier = netsim::kInvalidCarrier;
    netsim::CarrierId neighbor = netsim::kInvalidCarrier;
    ml::ClassLabel old_label = -1;  ///< -1 = add
    ml::ClassLabel new_label = -1;  ///< -1 = erase
  };
  std::vector<Delta> deltas;
  if (!labels_changed) {
    deltas.reserve(changes.size());
    for (const Change& ch : changes) {
      Delta d;
      if (view.pairwise) {
        const netsim::X2Edge& edge = topology_->edges[ch.entity];
        d.carrier = edge.from;
        d.neighbor = edge.to;
      } else {
        d.carrier = static_cast<netsim::CarrierId>(ch.entity);
      }
      if (ch.old_value != config::kUnset) d.old_label = view.labels.code_of(ch.old_value);
      if (ch.new_value != config::kUnset) d.new_label = view.labels.code_of(ch.new_value);
      deltas.push_back(d);
    }
  }

  DependencyOptions dep_options;
  dep_options.p_value = options_.p_value;
  dep_options.max_dependent = options_.max_dependent;

  if (labels_changed) {
    // The value alphabet moved: splice the label dimension in place instead
    // of re-tallying the parameter. The dictionary is sorted, so the new
    // coding is a monotone renumbering of the old: merge first-seen values
    // into a mid dictionary, apply the day's deltas in mid coding, then
    // drop the values whose last row vanished. The integer tables come out
    // exactly what a fresh tally would produce, and a monotone relabeling
    // preserves every smallest-label tie-break — bit-identical models at
    // O(cells + votes + delta), not O(rows x attributes).
    ml::LabelDictionary mid;
    mid.values.reserve(view.labels.size() + added.size());
    std::merge(view.labels.values.begin(), view.labels.values.end(), added.begin(), added.end(),
               std::back_inserter(mid.values));
    std::vector<ml::ClassLabel> old_to_mid(view.labels.size());
    for (std::size_t c = 0; c < view.labels.size(); ++c) {
      old_to_mid[c] = mid.code_of(view.labels.values[c]);
    }

    // Post-delta row counts per mid label: label_rows already tracked the
    // old codes through the change arithmetic; first-seen values tally here.
    std::vector<std::int64_t> mid_rows(mid.size(), 0);
    for (std::size_t c = 0; c < label_rows.size(); ++c) {
      mid_rows[static_cast<std::size_t>(old_to_mid[c])] = label_rows[c];
    }
    for (const Change& ch : changes) {
      if (ch.new_value != config::kUnset && view.labels.code_of(ch.new_value) < 0) {
        ++mid_rows[static_cast<std::size_t>(mid.code_of(ch.new_value))];
      }
    }

    ml::LabelDictionary final_labels;
    std::vector<ml::ClassLabel> mid_to_final(mid.size(), -1);
    for (std::size_t c = 0; c < mid.size(); ++c) {
      if (mid_rows[c] > 0) {
        mid_to_final[c] = static_cast<ml::ClassLabel>(final_labels.values.size());
        final_labels.values.push_back(mid.values[c]);
      }
    }

    // Contingency: widen old -> mid, apply the deltas, compact mid -> final.
    const auto remap_columns = [](ml::ContingencyTable& table,
                                  std::span<const ml::ClassLabel> map, std::size_t new_cols) {
      ml::ContingencyTable next = ml::ContingencyTable::zeros(table.rows, new_cols);
      for (std::size_t r = 0; r < table.rows; ++r) {
        for (std::size_t c = 0; c < table.cols; ++c) {
          if (map[c] >= 0) next.at(r, static_cast<std::size_t>(map[c])) = table.at(r, c);
        }
      }
      next.total = table.total;
      table = std::move(next);
    };
    const auto entity_ends = [&](std::size_t e) {
      if (view.pairwise) {
        const netsim::X2Edge& edge = topology_->edges[e];
        return std::pair<netsim::CarrierId, netsim::CarrierId>(edge.from, edge.to);
      }
      return std::pair<netsim::CarrierId, netsim::CarrierId>(static_cast<netsim::CarrierId>(e),
                                                             netsim::kInvalidCarrier);
    };
    for (ml::ContingencyTable& table : contingency_[p].tables) {
      remap_columns(table, old_to_mid, mid.size());
    }
    voting_[p].remap_labels(old_to_mid);
    for (const Change& ch : changes) {
      const auto [carrier, neighbor] = entity_ends(ch.entity);
      if (ch.old_value != config::kUnset) {
        const ml::ClassLabel l = mid.code_of(ch.old_value);
        contingency_[p].apply(*attr_codes_, carrier, neighbor, l, -1);
        voting_[p].adjust(carrier, neighbor, l, -1);
      }
      if (ch.new_value != config::kUnset) {
        const ml::ClassLabel l = mid.code_of(ch.new_value);
        contingency_[p].apply(*attr_codes_, carrier, neighbor, l, 1);
        voting_[p].adjust(carrier, neighbor, l, 1);
      }
    }
    for (ml::ContingencyTable& table : contingency_[p].tables) {
      remap_columns(table, mid_to_final, final_labels.size());
    }
    voting_[p].remap_labels(mid_to_final);

    // Re-code a singular column in the final dictionary: every learned cell
    // moves through the composed old -> final map (a dropped label's cells
    // all changed, so the slot deltas below overwrite them). The pair-wise
    // rows are rebuilt after the fan-out instead.
    if (!view.pairwise) {
      std::vector<ml::ClassLabel> old_to_final(old_to_mid.size());
      for (std::size_t c = 0; c < old_to_mid.size(); ++c) {
        old_to_final[c] = mid_to_final[static_cast<std::size_t>(old_to_mid[c])];
      }
      cells.for_each([&](std::size_t e, ml::ClassLabel label) {
        singular_labels_.set(e, pos, old_to_final[static_cast<std::size_t>(label)]);
      });
    }
    view.labels = std::move(final_labels);
    stats.params_remapped = 1;
  }

  // 1. A singular label-matrix column: every slot delta writes its cell.
  if (!view.pairwise) {
    for (const Change& ch : changes) {
      singular_labels_.set(ch.entity, pos,
                           ch.new_value == config::kUnset ? -1 : view.labels.code_of(ch.new_value));
    }
  }

  // 2. Contingency deltas: the maintained tables now hold exactly the
  // integer counts a from-scratch tally of the new population would.
  for (const Delta& d : deltas) {
    if (d.old_label >= 0) {
      contingency_[p].apply(*attr_codes_, d.carrier, d.neighbor, d.old_label, -1);
    }
    if (d.new_label >= 0) {
      contingency_[p].apply(*attr_codes_, d.carrier, d.neighbor, d.new_label, 1);
    }
  }

  // 3. Drift-gated dependency re-test (auric_model_drift_chi2_p is the
  // union trigger when a ModelWatch rides along). A spliced alphabet always
  // re-tests: the contingency dimensions moved, so the cached p-values no
  // longer describe these tables.
  const double fraction = static_cast<double>(changes.size()) /
                          static_cast<double>(std::max<std::size_t>(rows_before, 1));
  bool retest = labels_changed || options.drift_threshold <= 0.0 ||
                fraction >= options.drift_threshold;
  if (!retest && options.watch != nullptr &&
      options.watch->drift_p(param) < options.watch_alpha) {
    retest = true;
  }
  if (retest) {
    DependencyModel next = dependencies_from_contingency(contingency_[p], dep_options);
    stats.params_retested = 1;
    if (next.dependent != dependencies_[p].dependent) {
      const bool same_set =
          next.dependent.size() == dependencies_[p].dependent.size() &&
          std::is_permutation(next.dependent.begin(), next.dependent.end(),
                              dependencies_[p].dependent.begin());
      if (same_set) {
        // The re-test only re-ranked the same dependent set: apply the day's
        // votes, then adopt the new order — free where a level's prefix set
        // is unchanged, since keys name the set. Votes ride first so a
        // backoff level whose prefix membership shifted (re-aggregated
        // inside reorder_deps from its already-updated finer level) is not
        // adjusted twice.
        for (const Delta& d : deltas) {
          if (d.old_label >= 0) voting_[p].adjust(d.carrier, d.neighbor, d.old_label, -1);
          if (d.new_label >= 0) voting_[p].adjust(d.carrier, d.neighbor, d.new_label, 1);
        }
        voting_[p].reorder_deps(next.dependent);
        dependencies_[p] = std::move(next);
        return true;
      } else {
        // The rows a fresh build aggregates, transient: the engine keeps
        // only the label column.
        dependencies_[p] = std::move(next);
        voting_[p] = BackoffVoting(build_param_view(*topology_, *catalog_, assignment, param),
                                   dependencies_[p].dependent, *attr_words_,
                                   options_.backoff_levels);
        stats.params_rebuilt = 1;
        return true;
      }
    } else {
      dependencies_[p] = std::move(next);
    }
  }

  // 4. Dependent set unchanged: the day's votes ride the existing tables.
  for (const Delta& d : deltas) {
    if (d.old_label >= 0) voting_[p].adjust(d.carrier, d.neighbor, d.old_label, -1);
    if (d.new_label >= 0) voting_[p].adjust(d.carrier, d.neighbor, d.new_label, 1);
  }
  return true;
}

const ParamView& AuricEngine::view(config::ParamId param) const {
  return views_.at(static_cast<std::size_t>(param));
}

const DependencyModel& AuricEngine::dependencies(config::ParamId param) const {
  return dependencies_.at(static_cast<std::size_t>(param));
}

const ContingencyState& AuricEngine::contingency(config::ParamId param) const {
  return contingency_.at(static_cast<std::size_t>(param));
}

const BackoffVoting& AuricEngine::voting(config::ParamId param) const {
  return voting_.at(static_cast<std::size_t>(param));
}

LabelColumn AuricEngine::label_column(config::ParamId param) const {
  const auto p = static_cast<std::size_t>(param);
  return view(param).pairwise ? pair_label_rows_.column(positions_[p])
                              : singular_labels_.column(positions_[p]);
}

Recommendation AuricEngine::recommend(config::ParamId param, netsim::CarrierId carrier,
                                      netsim::CarrierId neighbor, bool exclude_self) const {
  const Recommendation rec = decide(param, carrier, neighbor, exclude_self);
  if (watch_ != nullptr) watch_->record(rec);
  return rec;
}

Recommendation AuricEngine::decide(config::ParamId param, netsim::CarrierId carrier,
                                   netsim::CarrierId neighbor, bool exclude_self) const {
  const config::ParamDef& def = catalog_->at(param);
  const bool pairwise = def.kind == config::ParamKind::kPairwise;
  if (pairwise == (neighbor == netsim::kInvalidCarrier)) {
    throw std::invalid_argument("recommend: neighbor must be given exactly for pair-wise params");
  }

  const ParamView& v = view(param);
  const BackoffVoting& model = voting(param);
  const LabelColumn labels = label_column(param);

  Recommendation rec;
  rec.param = param;

  // The subject's own entity — its carrier, or its edge among the carrier's
  // edge range — and the label stored there (-1: not configured).
  std::int64_t self = -1;
  ml::ClassLabel self_label = -1;
  if (exclude_self) {
    if (!pairwise) {
      self = carrier;
    } else {
      const auto c = static_cast<std::size_t>(carrier);
      for (std::size_t e = topology_->edge_offsets[c]; e < topology_->edge_offsets[c + 1]; ++e) {
        if (topology_->edges[e].to == neighbor) {
          self = static_cast<std::int64_t>(e);
          break;
        }
      }
    }
    if (self >= 0) self_label = labels.label(static_cast<std::size_t>(self));
  }

  const auto adopt = [&](const Vote& vote, RecommendationSource source) {
    rec.value = v.labels.values[static_cast<std::size_t>(vote.label)];
    rec.votes = vote.count;
    rec.group_size = vote.group_size;
    rec.support = vote.support();
    rec.margin = vote.margin();
    rec.source = source;
    recommendation_counter(source).inc();
  };

  if (options_.use_proximity) {
    std::optional<BackoffVoting::Decision> decision;
    if (options_.proximity_hops == 1) {
      decision = model.local(labels, topology_->neighborhood(carrier), carrier, neighbor, self,
                             options_.vote_threshold, options_.carrier_weights);
    } else {
      const std::vector<netsim::CarrierId> hood =
          topology_->neighborhood_hops(carrier, options_.proximity_hops);
      decision = model.local(labels, hood, carrier, neighbor, self, options_.vote_threshold,
                             options_.carrier_weights);
    }
    if (decision) {
      adopt(decision->vote, RecommendationSource::kLocalVote);
      return rec;
    }
  }

  const std::optional<BackoffVoting::Decision> global =
      self_label >= 0
          ? model.vote_excluding(carrier, neighbor, self_label, options_.vote_threshold)
          : model.vote(carrier, neighbor, options_.vote_threshold);
  if (global) {
    adopt(global->vote, RecommendationSource::kGlobalVote);
    return rec;
  }

  // Bootstrap fallback (§6): no peer group with sufficient support — stick
  // with the rule-book default.
  rec.value = def.default_index;
  rec.source = RecommendationSource::kRulebookDefault;
  recommendation_counter(rec.source).inc();
  return rec;
}

std::vector<Recommendation> AuricEngine::recommend_singular(netsim::CarrierId carrier,
                                                            bool exclude_self) const {
  std::vector<Recommendation> out;
  out.reserve(catalog_->singular_ids().size());
  for (config::ParamId param : catalog_->singular_ids()) {
    out.push_back(decide(param, carrier, netsim::kInvalidCarrier, exclude_self));
  }
  if (watch_ != nullptr) watch_->record(std::span<const Recommendation>(out));
  return out;
}

std::vector<Recommendation> AuricEngine::recommend_pairwise(netsim::CarrierId carrier,
                                                            netsim::CarrierId neighbor,
                                                            bool exclude_self) const {
  std::vector<Recommendation> out;
  out.reserve(catalog_->pairwise_ids().size());
  for (config::ParamId param : catalog_->pairwise_ids()) {
    out.push_back(decide(param, carrier, neighbor, exclude_self));
  }
  if (watch_ != nullptr) watch_->record(std::span<const Recommendation>(out));
  return out;
}

std::vector<Recommendation> AuricEngine::recommend_slots(netsim::CarrierId carrier,
                                                         std::span<const SlotQuery> slots,
                                                         bool exclude_self) const {
  std::vector<Recommendation> out;
  out.reserve(slots.size());
  for (const SlotQuery& slot : slots) {
    out.push_back(decide(slot.param, carrier, slot.neighbor, exclude_self));
  }
  if (watch_ != nullptr) watch_->record(std::span<const Recommendation>(out));
  return out;
}

Recommendation AuricEngine::recommend_for(const netsim::Carrier& new_carrier,
                                          std::span<const netsim::CarrierId> x2_neighbors,
                                          config::ParamId param,
                                          netsim::CarrierId neighbor) const {
  const config::ParamDef& def = catalog_->at(param);
  const bool pairwise = def.kind == config::ParamKind::kPairwise;
  if (pairwise == (neighbor == netsim::kInvalidCarrier)) {
    throw std::invalid_argument(
        "recommend_for: neighbor must be given exactly for pair-wise params");
  }

  const ParamView& v = view(param);
  const BackoffVoting& model = voting(param);
  const std::uint64_t word = attr_words_->pack(schema_->encode(new_carrier));

  Recommendation rec;
  rec.param = param;
  const auto adopt = [&](const Vote& vote, RecommendationSource source) {
    rec.value = v.labels.values[static_cast<std::size_t>(vote.label)];
    rec.votes = vote.count;
    rec.group_size = vote.group_size;
    rec.support = vote.support();
    rec.margin = vote.margin();
    rec.source = source;
    recommendation_counter(source).inc();
    if (watch_ != nullptr) watch_->record(rec);
  };

  if (options_.use_proximity) {
    if (const auto decision =
            model.local_word(label_column(param), x2_neighbors, word, neighbor, -1,
                             options_.vote_threshold, options_.carrier_weights)) {
      adopt(decision->vote, RecommendationSource::kLocalVote);
      return rec;
    }
  }
  if (const auto decision = model.vote_word(word, neighbor, options_.vote_threshold)) {
    adopt(decision->vote, RecommendationSource::kGlobalVote);
    return rec;
  }
  rec.value = def.default_index;
  rec.source = RecommendationSource::kRulebookDefault;
  recommendation_counter(rec.source).inc();
  if (watch_ != nullptr) watch_->record(rec);
  return rec;
}

std::vector<Recommendation> AuricEngine::recommend_for_all_singular(
    const netsim::Carrier& new_carrier,
    std::span<const netsim::CarrierId> x2_neighbors) const {
  std::vector<Recommendation> out;
  out.reserve(catalog_->singular_ids().size());
  for (config::ParamId param : catalog_->singular_ids()) {
    out.push_back(recommend_for(new_carrier, x2_neighbors, param));
  }
  return out;
}

std::string AuricEngine::explain(const Recommendation& rec, netsim::CarrierId carrier,
                                 netsim::CarrierId neighbor) const {
  const config::ParamDef& def = catalog_->at(rec.param);
  std::string out = def.name + " = ";
  out += rec.value == config::kUnset ? "<none>"
                                     : util::format_fixed(def.domain.value(rec.value), 1);
  out += util::format(" [%s", recommendation_source_name(rec.source));
  if (rec.group_size > 0) {
    out += util::format(", support %d/%d (%.0f%%)", rec.votes, rec.group_size,
                        100.0 * rec.support);
  }
  out += "]";
  const DependencyModel& deps = dependencies(rec.param);
  if (!deps.dependent.empty()) {
    out += " matched on ";
    bool first = true;
    for (const AttrRef& ref : deps.dependent) {
      const netsim::CarrierId subject = ref.neighbor_side ? neighbor : carrier;
      if (subject == netsim::kInvalidCarrier) continue;
      if (!first) out += ", ";
      first = false;
      const netsim::AttrCode code = (*attr_codes_)[ref.attr][static_cast<std::size_t>(subject)];
      out += attr_ref_name(ref, *schema_) + "=" + schema_->value_label(ref.attr, code);
    }
  }
  return out;
}

}  // namespace auric::core
