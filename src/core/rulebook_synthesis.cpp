#include "core/rulebook_synthesis.h"

#include "util/strings.h"

namespace auric::core {

bool SynthesizedRule::overrides_default(const config::ParamCatalog& catalog) const {
  return value != catalog.at(param).default_index;
}

SynthesizedRulebook synthesize_rulebook(const AuricEngine& engine,
                                        RulebookSynthesisOptions options) {
  SynthesizedRulebook book;
  const config::ParamCatalog& catalog = engine.catalog();
  for (std::size_t p = 0; p < catalog.size(); ++p) {
    const auto param = static_cast<config::ParamId>(p);
    const ParamView& view = engine.view(param);
    // The level-0 groups: the full dependent-attribute match.
    const VotingModel& model = engine.voting(param).model_at(0);
    const auto deps = model.deps();
    for (const VotingModel::GroupSummary& group : model.group_summaries()) {
      if (group.total < options.min_carriers) continue;
      if (group.support() < options.min_support) continue;
      SynthesizedRule rule;
      rule.param = param;
      rule.value = view.labels.values[static_cast<std::size_t>(group.winner)];
      rule.support = group.support();
      rule.carriers = group.total;
      for (std::size_t d = 0; d < deps.size(); ++d) {
        rule.conditions.emplace_back(deps[d], group.codes[d]);
      }
      if (!options.include_default_rules && !rule.overrides_default(catalog)) continue;
      book.rules.push_back(std::move(rule));
    }
  }
  return book;
}

std::vector<const SynthesizedRule*> SynthesizedRulebook::rules_for(
    config::ParamId param) const {
  std::vector<const SynthesizedRule*> out;
  for (const SynthesizedRule& rule : rules) {
    if (rule.param == param) out.push_back(&rule);
  }
  return out;
}

std::string SynthesizedRulebook::render(const netsim::AttributeSchema& schema,
                                        const config::ParamCatalog& catalog) const {
  std::string out;
  config::ParamId current = -1;
  for (const SynthesizedRule& rule : rules) {
    const config::ParamDef& def = catalog.at(rule.param);
    if (rule.param != current) {
      current = rule.param;
      out += util::format("\n%s (default %s):\n", def.name.c_str(),
                          util::format_fixed(def.domain.value(def.default_index), 1).c_str());
    }
    out += "  IF ";
    for (std::size_t i = 0; i < rule.conditions.size(); ++i) {
      if (i != 0) out += " AND ";
      const auto& [ref, code] = rule.conditions[i];
      out += attr_ref_name(ref, schema) + " = " + schema.value_label(ref.attr, code);
    }
    out += util::format(" THEN %s = %s   (support %.0f%%, %d carriers)\n", def.name.c_str(),
                        util::format_fixed(def.domain.value(rule.value), 1).c_str(),
                        100.0 * rule.support, rule.carriers);
  }
  return out;
}

}  // namespace auric::core
