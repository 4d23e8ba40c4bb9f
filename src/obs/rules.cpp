#include "obs/rules.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/render.h"

namespace auric::obs {

namespace {

// Splits one rule row on commas that sit outside {...} and "...".
std::vector<std::string> split_row(std::string_view line) {
  std::vector<std::string> cells;
  std::string cell;
  int brace_depth = 0;
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (quoted) {
      cell += c;
      if (c == '\\' && i + 1 < line.size()) {
        cell += line[++i];
      } else if (c == '"') {
        quoted = false;
      }
      continue;
    }
    switch (c) {
      case '"':
        quoted = true;
        cell += c;
        break;
      case '{':
        ++brace_depth;
        cell += c;
        break;
      case '}':
        if (brace_depth > 0) {
          --brace_depth;
        }
        cell += c;
        break;
      case ',':
        if (brace_depth == 0) {
          cells.push_back(std::move(cell));
          cell.clear();
        } else {
          cell += c;
        }
        break;
      default:
        cell += c;
    }
  }
  cells.push_back(std::move(cell));
  for (std::string& c : cells) {
    while (!c.empty() && (c.front() == ' ' || c.front() == '\t')) {
      c.erase(c.begin());
    }
    while (!c.empty() && (c.back() == ' ' || c.back() == '\t' || c.back() == '\r')) {
      c.pop_back();
    }
  }
  return cells;
}

AlertRule::Kind parse_kind(const std::string& text) {
  if (text == "threshold") return AlertRule::Kind::kThreshold;
  if (text == "rate_over_window") return AlertRule::Kind::kRateOverWindow;
  if (text == "absence") return AlertRule::Kind::kAbsence;
  if (text == "burn_rate") return AlertRule::Kind::kBurnRate;
  throw std::invalid_argument("unknown rule kind '" + text + "'");
}

AlertRule::Op parse_op(const std::string& text) {
  if (text == ">") return AlertRule::Op::kGt;
  if (text == ">=") return AlertRule::Op::kGe;
  if (text == "<") return AlertRule::Op::kLt;
  if (text == "<=") return AlertRule::Op::kLe;
  throw std::invalid_argument("unknown rule op '" + text + "'");
}

double parse_number(const std::string& text, const char* what) {
  try {
    std::size_t used = 0;
    double v = std::stod(text, &used);
    if (used != text.size()) {
      throw std::invalid_argument(text);
    }
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument(std::string("bad ") + what + " '" + text + "'");
  }
}

// Splits a trailing `:pNN` quantile suffix (outside braces) off a threshold
// selector, returning the quantile in [0, 1] or -1 when there is none.
double strip_quantile_suffix(std::string& selector) {
  std::size_t colon = selector.rfind(':');
  if (colon == std::string::npos || colon + 2 > selector.size() || selector[colon + 1] != 'p') {
    return -1.0;
  }
  if (selector.find('}', colon) != std::string::npos) {
    return -1.0;  // the ':' sits inside a label value, not after the braces
  }
  const std::string digits = selector.substr(colon + 2);
  if (digits.empty() || digits.find_first_not_of("0123456789.") != std::string::npos) {
    throw std::invalid_argument("bad quantile suffix ':" + selector.substr(colon + 1) + "'");
  }
  double pct = parse_number(digits, "quantile");
  if (pct <= 0.0 || pct >= 100.0) {
    throw std::invalid_argument("quantile suffix must be in (p0, p100), got 'p" + digits + "'");
  }
  selector.erase(colon);
  return pct / 100.0;
}

bool compare(AlertRule::Op op, double lhs, double rhs) {
  switch (op) {
    case AlertRule::Op::kGt:
      return lhs > rhs;
    case AlertRule::Op::kGe:
      return lhs >= rhs;
    case AlertRule::Op::kLt:
      return lhs < rhs;
    case AlertRule::Op::kLe:
      return lhs <= rhs;
  }
  return false;
}

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

const char* alert_kind_name(AlertRule::Kind kind) {
  switch (kind) {
    case AlertRule::Kind::kThreshold:
      return "threshold";
    case AlertRule::Kind::kRateOverWindow:
      return "rate_over_window";
    case AlertRule::Kind::kAbsence:
      return "absence";
    case AlertRule::Kind::kBurnRate:
      return "burn_rate";
  }
  return "unknown";
}

const char* alert_op_name(AlertRule::Op op) {
  switch (op) {
    case AlertRule::Op::kGt:
      return ">";
    case AlertRule::Op::kGe:
      return ">=";
    case AlertRule::Op::kLt:
      return "<";
    case AlertRule::Op::kLe:
      return "<=";
  }
  return "?";
}

RuleEngine::RuleEngine(MetricsRegistry& registry) : registry_(&registry) {}

void RuleEngine::add_rule(const AlertRule& rule) {
  if (rule.name.empty()) {
    throw std::invalid_argument("alert rule needs a name");
  }
  if (rule.fire_for < 1 || rule.resolve_for < 1) {
    throw std::invalid_argument("alert rule '" + rule.name + "': fire_for/resolve_for must be >= 1");
  }
  if (rule.kind == AlertRule::Kind::kBurnRate) {
    if (rule.numerator.name.empty() || rule.denominator.name.empty()) {
      throw std::invalid_argument("alert rule '" + rule.name + "': burn_rate needs num/den metrics");
    }
    if (rule.long_window_s <= rule.window_s) {
      throw std::invalid_argument("alert rule '" + rule.name +
                                  "': burn_rate long window must exceed the short window");
    }
  } else if (rule.metric.name.empty()) {
    throw std::invalid_argument("alert rule '" + rule.name + "': needs a metric selector");
  }
  if (rule.quantile >= 0 && rule.kind != AlertRule::Kind::kThreshold) {
    throw std::invalid_argument("alert rule '" + rule.name +
                                "': a quantile suffix is only valid on threshold rules");
  }
  if (rule.quantile >= 1.0) {
    throw std::invalid_argument("alert rule '" + rule.name + "': quantile must be < 1");
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (const RuleState& state : states_) {
    if (state.rule.name == rule.name) {
      throw std::invalid_argument("duplicate alert rule name '" + rule.name + "'");
    }
  }
  RuleState state;
  state.rule = rule;
  states_.push_back(std::move(state));
  // Pre-register the firing gauge so a healthy run still exports the rule.
  registry_->gauge("obs_alerts_firing", "1 while the named alert rule is firing",
                   {{"rule", rule.name}});
}

std::size_t RuleEngine::load_text(std::string_view text, std::string_view origin) {
  std::size_t added = 0;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t eol = text.find('\n', pos);
    std::string_view line =
        text.substr(pos, eol == std::string_view::npos ? std::string_view::npos : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++line_no;

    std::string_view trimmed = line;
    while (!trimmed.empty() && (trimmed.front() == ' ' || trimmed.front() == '\t')) {
      trimmed.remove_prefix(1);
    }
    while (!trimmed.empty() &&
           (trimmed.back() == ' ' || trimmed.back() == '\t' || trimmed.back() == '\r')) {
      trimmed.remove_suffix(1);
    }
    if (trimmed.empty() || trimmed.front() == '#') {
      continue;
    }
    std::vector<std::string> cells = split_row(trimmed);
    if (cells[0] == "name") {  // header row
      continue;
    }
    try {
      if (cells.size() < 5) {
        throw std::invalid_argument("need at least name,kind,metric,op,value");
      }
      AlertRule rule;
      rule.name = cells[0];
      rule.kind = parse_kind(cells[1]);
      if (rule.kind == AlertRule::Kind::kBurnRate) {
        // Split "num/den" on the first '/' outside braces.
        const std::string& m = cells[2];
        int depth = 0;
        std::size_t slash = std::string::npos;
        for (std::size_t i = 0; i < m.size(); ++i) {
          if (m[i] == '{') ++depth;
          else if (m[i] == '}') --depth;
          else if (m[i] == '/' && depth == 0) {
            slash = i;
            break;
          }
        }
        if (slash == std::string::npos) {
          throw std::invalid_argument("burn_rate metric must be 'num/den'");
        }
        rule.numerator = SeriesSelector::parse(std::string_view(m).substr(0, slash));
        rule.denominator = SeriesSelector::parse(std::string_view(m).substr(slash + 1));
      } else {
        std::string selector = cells[2];
        rule.quantile = strip_quantile_suffix(selector);
        rule.metric = SeriesSelector::parse(selector);
      }
      rule.op = parse_op(cells[3]);
      rule.value = parse_number(cells[4], "value");
      if (cells.size() > 5 && !cells[5].empty()) {
        rule.window_s = parse_number(cells[5], "window_s");
      }
      if (cells.size() > 6 && !cells[6].empty()) {
        rule.long_window_s = parse_number(cells[6], "long_window_s");
      }
      if (cells.size() > 7 && !cells[7].empty()) {
        rule.fire_for = static_cast<int>(parse_number(cells[7], "fire_for"));
      }
      if (cells.size() > 8 && !cells[8].empty()) {
        rule.resolve_for = static_cast<int>(parse_number(cells[8], "resolve_for"));
      }
      add_rule(rule);
      ++added;
    } catch (const std::invalid_argument& e) {
      std::ostringstream msg;
      msg << origin << ":" << line_no << ": " << e.what();
      throw std::invalid_argument(msg.str());
    }
  }
  return added;
}

std::size_t RuleEngine::load_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    throw std::runtime_error("cannot open rules file: " + path);
  }
  std::ostringstream buf;
  buf << file.rdbuf();
  return load_text(buf.str(), path);
}

void RuleEngine::set_log(std::function<void(const std::string&)> log) {
  std::lock_guard<std::mutex> lock(mu_);
  log_ = std::move(log);
}

bool RuleEngine::breached(const RuleState& state, const Sampler& sampler,
                          std::optional<double>* out) const {
  const AlertRule& rule = state.rule;
  switch (rule.kind) {
    case AlertRule::Kind::kThreshold: {
      std::optional<double> v = rule.quantile >= 0 ? sampler.quantile(rule.metric, rule.quantile)
                                                   : sampler.value(rule.metric);
      *out = v;
      return v && compare(rule.op, *v, rule.value);
    }
    case AlertRule::Kind::kRateOverWindow: {
      std::optional<double> r = sampler.rate(rule.metric, rule.window_s);
      *out = r;
      return r && compare(rule.op, *r, rule.value);
    }
    case AlertRule::Kind::kAbsence: {
      std::optional<double> v = sampler.value(rule.metric);
      *out = v;
      return !v.has_value();
    }
    case AlertRule::Kind::kBurnRate: {
      // Two-window burn rate: the error ratio must breach over BOTH the
      // short and the long window. The short window makes firing fast, the
      // long window keeps a brief spike from firing at all.
      std::optional<double> num_s = sampler.rate(rule.numerator, rule.window_s);
      std::optional<double> den_s = sampler.rate(rule.denominator, rule.window_s);
      std::optional<double> num_l = sampler.rate(rule.numerator, rule.long_window_s);
      std::optional<double> den_l = sampler.rate(rule.denominator, rule.long_window_s);
      if (!num_s || !den_s || !num_l || !den_l || *den_s <= 0 || *den_l <= 0) {
        out->reset();
        return false;
      }
      double ratio_s = *num_s / *den_s;
      double ratio_l = *num_l / *den_l;
      *out = ratio_s;
      return compare(rule.op, ratio_s, rule.value) && compare(rule.op, ratio_l, rule.value);
    }
  }
  out->reset();
  return false;
}

void RuleEngine::evaluate(const Sampler& sampler, double t) {
  std::vector<std::string> transitions;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++evaluations_;
    last_t_ = t;
    for (RuleState& state : states_) {
      std::optional<double> scalar;
      bool breach = breached(state, sampler, &scalar);
      state.last_value = scalar;
      if (breach) {
        ++state.breach_streak;
        state.ok_streak = 0;
      } else {
        ++state.ok_streak;
        state.breach_streak = 0;
      }
      if (!state.firing && state.breach_streak >= state.rule.fire_for) {
        state.firing = true;
        state.firing_since = t;
        ++state.times_fired;
        registry_->gauge("obs_alerts_firing", "", {{"rule", state.rule.name}}).set(1.0);
        registry_->counter("obs_alert_transitions_total", "alert firing/resolve transitions",
                           {{"rule", state.rule.name}, {"to", "firing"}})
            .inc();
        std::ostringstream msg;
        msg << "ALERT firing: " << state.rule.name << " (" << alert_kind_name(state.rule.kind)
            << " " << alert_op_name(state.rule.op) << " " << format_double(state.rule.value)
            << ", value=" << (scalar ? format_double(*scalar) : std::string("absent"))
            << ", t=" << format_double(t) << ")";
        transitions.push_back(msg.str());
      } else if (state.firing && state.ok_streak >= state.rule.resolve_for) {
        state.firing = false;
        registry_->gauge("obs_alerts_firing", "", {{"rule", state.rule.name}}).set(0.0);
        registry_->counter("obs_alert_transitions_total", "alert firing/resolve transitions",
                           {{"rule", state.rule.name}, {"to", "resolved"}})
            .inc();
        std::ostringstream msg;
        msg << "ALERT resolved: " << state.rule.name << " (t=" << format_double(t) << ")";
        transitions.push_back(msg.str());
      }
    }
  }
  // Log outside the lock; the logger may itself take locks (util::log).
  if (log_) {
    for (const std::string& line : transitions) {
      log_(line);
    }
  }
}

bool RuleEngine::healthy() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const RuleState& state : states_) {
    if (state.firing) {
      return false;
    }
  }
  return true;
}

std::vector<std::string> RuleEngine::firing() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  for (const RuleState& state : states_) {
    if (state.firing) {
      out.push_back(state.rule.name);
    }
  }
  return out;
}

std::vector<RuleState> RuleEngine::states() const {
  std::lock_guard<std::mutex> lock(mu_);
  return states_;
}

std::size_t RuleEngine::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return states_.size();
}

std::uint64_t RuleEngine::evaluations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evaluations_;
}

std::string RuleEngine::healthz_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"status\":\"";
  bool any_firing = false;
  for (const RuleState& state : states_) {
    any_firing = any_firing || state.firing;
  }
  out += any_firing ? "alerting" : "ok";
  out += "\",\"rules\":" + std::to_string(states_.size());
  out += ",\"evaluations\":" + std::to_string(evaluations_);
  out += ",\"firing\":[";
  bool first = true;
  for (const RuleState& state : states_) {
    if (!state.firing) {
      continue;
    }
    if (!first) {
      out += ',';
    }
    first = false;
    out += "{\"rule\":\"";
    util::append_json_escaped(out, state.rule.name);
    out += "\",\"kind\":\"";
    out += alert_kind_name(state.rule.kind);
    out += "\",\"since\":" + format_double(state.firing_since);
    out += ",\"value\":";
    out += state.last_value ? format_double(*state.last_value) : "null";
    out += '}';
  }
  out += "]}";
  return out;
}

}  // namespace auric::obs
