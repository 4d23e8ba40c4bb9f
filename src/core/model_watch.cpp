#include "core/model_watch.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "ml/chi_square.h"
#include "util/strings.h"

namespace auric::core {

namespace {

/// Support/margin live in [0, 1]; ten even buckets line the histograms up
/// with the PSI bucketing so dashboards read off the same grid.
const std::vector<double>& unit_bounds() {
  static const std::vector<double> bounds = [] {
    std::vector<double> b;
    for (int i = 1; i <= 10; ++i) b.push_back(0.1 * i);
    return b;
  }();
  return bounds;
}

/// Upper clamp of ModelWatchOptions::support_buckets (a record() batch folds
/// the pooled support buckets on the stack).
constexpr int kMaxSupportBuckets = 64;

constexpr const char* kGateOutcomeNames[2] = {"rolled_back", "accepted"};

}  // namespace

ModelWatch::ModelWatch(const config::ParamCatalog& catalog, obs::MetricsRegistry& registry,
                       Options options)
    : catalog_(&catalog), options_(options) {
  options_.support_buckets = std::clamp(options_.support_buckets, 2, kMaxSupportBuckets);
  param_count_ = catalog.size();
  params_ = std::make_unique<ParamState[]>(param_count_);
  for (std::size_t p = 0; p < catalog.size(); ++p) {
    const config::ParamDef& def = catalog.at(static_cast<config::ParamId>(p));
    ParamState& st = params_[p];
    const obs::Labels param_label = {{"param", def.name}};
    for (int s = 0; s < 3; ++s) {
      st.sources[static_cast<std::size_t>(s)] = &registry.counter(
          "auric_model_recommendations_total",
          "recommendations by parameter and decision source",
          {{"param", def.name},
           {"source", recommendation_source_name(static_cast<RecommendationSource>(s))}});
    }
    st.gate_accepted =
        &registry.counter("auric_model_gate_outcomes_total",
                          "KPI-gate verdicts joined to the recommending parameter",
                          {{"param", def.name}, {"outcome", kGateOutcomeNames[1]}});
    st.gate_rolled_back =
        &registry.counter("auric_model_gate_outcomes_total",
                          "KPI-gate verdicts joined to the recommending parameter",
                          {{"param", def.name}, {"outcome", kGateOutcomeNames[0]}});
    st.support = &registry.histogram("auric_model_support", unit_bounds(),
                                     "vote support per recommendation", param_label);
    st.margin = &registry.histogram("auric_model_margin", unit_bounds(),
                                    "vote margin (winner - runner-up fraction)", param_label);
    st.coverage = &registry.gauge("auric_model_coverage",
                                  "voted fraction of the day's recommendations", param_label);
    st.drift_p = &registry.gauge("auric_model_drift_chi2_p",
                                 "day-over-day chi-square p-value of recommended values",
                                 param_label);
    st.drift_p->set(1.0);
    st.domain = def.domain.size();
    st.day_counts = std::make_unique<std::atomic<std::uint32_t>[]>(st.domain);
    for (std::size_t i = 0; i < st.domain; ++i) {
      st.day_counts[i].store(0, std::memory_order_relaxed);
    }
  }
  const auto buckets = static_cast<std::size_t>(options_.support_buckets);
  support_day_ = std::make_unique<std::atomic<std::uint64_t>[]>(buckets);
  for (std::size_t i = 0; i < buckets; ++i) {
    support_day_[i].store(0, std::memory_order_relaxed);
  }
  psi_gauge_ = &registry.gauge("auric_model_drift_psi",
                               "day-over-day PSI of the vote-support distribution");
  drifted_gauge_ = &registry.gauge("auric_model_drift_params_flagged",
                                   "parameters whose value distribution drifted (p < alpha)");
  days_counter_ = &registry.counter("auric_model_days_total", "days rolled by the model watch");
}

void ModelWatch::record(const Recommendation& rec) const {
  record(std::span<const Recommendation>(&rec, 1));
}

void ModelWatch::record(std::span<const Recommendation> recs) const {
  // Per-parameter instruments take one update per decision; the pooled
  // support buckets, shared by every parameter, fold locally and publish
  // one add per bucket.
  const int buckets = options_.support_buckets;
  std::array<std::uint64_t, kMaxSupportBuckets> support_day;
  std::fill_n(support_day.begin(), buckets, 0);
  for (const Recommendation& rec : recs) {
    const auto p = static_cast<std::size_t>(rec.param);
    if (p >= param_count_) continue;
    const ParamState& st = params_[p];
    st.sources[static_cast<std::size_t>(rec.source)]->inc();
    st.support->observe(rec.support);
    st.margin->observe(rec.margin);
    if (rec.value != config::kUnset && rec.value >= 0 &&
        static_cast<std::size_t>(rec.value) < st.domain) {
      st.day_counts[static_cast<std::size_t>(rec.value)].fetch_add(1, std::memory_order_relaxed);
    } else {
      st.day_unbinned.fetch_add(1, std::memory_order_relaxed);
    }
    if (rec.source == RecommendationSource::kRulebookDefault) {
      st.day_fallback.fetch_add(1, std::memory_order_relaxed);
    }
    ++support_day[static_cast<std::size_t>(
        std::min(buckets - 1, std::max(0, static_cast<int>(rec.support * buckets))))];
  }
  for (int b = 0; b < buckets; ++b) {
    const auto bucket = static_cast<std::size_t>(b);
    if (support_day[bucket] != 0) {
      support_day_[bucket].fetch_add(support_day[bucket], std::memory_order_relaxed);
    }
  }
}

void ModelWatch::record_gate_outcome(config::ParamId param, bool accepted) const {
  const auto p = static_cast<std::size_t>(param);
  if (p >= param_count_) return;
  (accepted ? params_[p].gate_accepted : params_[p].gate_rolled_back)->inc();
}

void ModelWatch::roll_day() {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t flagged = 0;
  for (std::size_t pi = 0; pi < param_count_; ++pi) {
    ParamState& st = params_[pi];
    std::vector<std::int64_t> today(st.domain, 0);
    std::int64_t today_total = 0;
    for (std::size_t i = 0; i < st.domain; ++i) {
      today[i] = static_cast<std::int64_t>(st.day_counts[i].exchange(0, std::memory_order_relaxed));
      today_total += today[i];
    }
    const std::int64_t total =
        today_total + st.day_unbinned.exchange(0, std::memory_order_relaxed);
    // Clamped: a decision recorded while the day rolls may land its value
    // and its fallback count on different days.
    const std::int64_t voted = std::max<std::int64_t>(
        0, total - st.day_fallback.exchange(0, std::memory_order_relaxed));
    if (total > 0) {
      st.last_coverage = static_cast<double>(voted) / static_cast<double>(total);
      st.coverage->set(st.last_coverage);
    }
    double p_value = 1.0;
    std::int64_t prev_total = 0;
    for (std::int64_t c : st.prev_counts) prev_total += c;
    if (prev_total > 0 && today_total > 0) {
      p_value = ml::chi_square_test(ml::ContingencyTable::from_rows({st.prev_counts, today}))
                    .p_value;
    }
    st.last_p = p_value;
    st.drift_p->set(p_value);
    if (p_value < options_.drift_alpha) ++flagged;
    if (today_total > 0) st.prev_counts = std::move(today);
  }

  const auto buckets = static_cast<std::size_t>(options_.support_buckets);
  std::vector<double> today_support(buckets, 0.0);
  double today_total = 0.0;
  for (std::size_t i = 0; i < buckets; ++i) {
    today_support[i] =
        static_cast<double>(support_day_[i].exchange(0, std::memory_order_relaxed));
    today_total += today_support[i];
  }
  double prev_total = 0.0;
  for (double c : prev_support_) prev_total += c;
  if (prev_total > 0.0 && today_total > 0.0) {
    // PSI with Laplace smoothing so empty buckets stay finite: psi =
    // sum_i (q_i - p_i) ln(q_i / p_i) over smoothed bucket fractions.
    double psi = 0.0;
    const double k = static_cast<double>(buckets);
    for (std::size_t i = 0; i < buckets; ++i) {
      const double p = (prev_support_[i] + 0.5) / (prev_total + 0.5 * k);
      const double q = (today_support[i] + 0.5) / (today_total + 0.5 * k);
      psi += (q - p) * std::log(q / p);
    }
    last_psi_ = psi;
    psi_gauge_->set(psi);
  }
  if (today_total > 0.0) prev_support_ = std::move(today_support);
  drifted_gauge_->set(static_cast<double>(flagged));
  ++days_;
  days_counter_->inc();
}

int ModelWatch::days_rolled() const {
  std::lock_guard<std::mutex> lock(mu_);
  return days_;
}

double ModelWatch::psi() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_psi_;
}

double ModelWatch::drift_p(config::ParamId param) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto p = static_cast<std::size_t>(param);
  if (p >= param_count_) return 1.0;
  return params_[p].last_p;
}

std::size_t ModelWatch::drifted_params() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t flagged = 0;
  for (std::size_t pi = 0; pi < param_count_; ++pi) {
    if (params_[pi].last_p < options_.drift_alpha) ++flagged;
  }
  return flagged;
}

std::string ModelWatch::modelz_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t flagged = 0;
  for (std::size_t pi = 0; pi < param_count_; ++pi) {
    if (params_[pi].last_p < options_.drift_alpha) ++flagged;
  }
  std::string out = util::format("{\"days\":%d,\"psi\":%.6g,\"drift_alpha\":%g,", days_,
                                 last_psi_, options_.drift_alpha);
  out += util::format("\"drifted_params\":%zu,\"params\":[", flagged);
  for (std::size_t p = 0; p < param_count_; ++p) {
    const ParamState& st = params_[p];
    const std::uint64_t local = st.sources[0]->value();
    const std::uint64_t global = st.sources[1]->value();
    const std::uint64_t fallback = st.sources[2]->value();
    if (p > 0) out += ",";
    out += util::format(
        "{\"param\":\"%s\",\"local\":%llu,\"global\":%llu,\"fallback\":%llu,"
        "\"coverage\":%.4f,\"gate_accepted\":%llu,\"gate_rolled_back\":%llu,"
        "\"drift_p\":%.6g}",
        catalog_->at(static_cast<config::ParamId>(p)).name.c_str(),
        static_cast<unsigned long long>(local), static_cast<unsigned long long>(global),
        static_cast<unsigned long long>(fallback), st.last_coverage,
        static_cast<unsigned long long>(st.gate_accepted->value()),
        static_cast<unsigned long long>(st.gate_rolled_back->value()), st.last_p);
  }
  out += "]}";
  return out;
}

}  // namespace auric::core
