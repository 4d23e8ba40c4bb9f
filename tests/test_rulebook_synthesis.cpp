#include "core/rulebook_synthesis.h"

#include <gtest/gtest.h>

#include "test_helpers.h"

namespace auric::core {
namespace {

struct Fixture {
  netsim::Topology topo = test::chain_topology(8, 4);
  config::ParamCatalog catalog = test::tiny_catalog();
  config::ConfigAssignment assignment = test::tiny_assignment(topo);
  netsim::AttributeSchema schema = netsim::AttributeSchema::standard(topo);
  AuricEngine engine{topo, schema, catalog, assignment};
};

TEST(RulebookSynthesis, ExportsTheBandRule) {
  Fixture f;
  RulebookSynthesisOptions options;
  options.min_carriers = 4;
  options.include_default_rules = true;
  const SynthesizedRulebook book = synthesize_rulebook(f.engine, options);
  ASSERT_FALSE(book.rules.empty());
  // Every exported rule is fully supported (the fixture is noiseless) and
  // carries the band-determined value.
  for (const SynthesizedRule& rule : book.rules) {
    EXPECT_GE(rule.support, 0.75);
    EXPECT_GE(rule.carriers, 4);
    if (rule.param == 0) {
      EXPECT_TRUE(rule.value == 3 || rule.value == 7);
    }
  }
  EXPECT_FALSE(book.rules_for(0).empty());
}

TEST(RulebookSynthesis, MinCarriersFiltersAnecdotes) {
  Fixture f;
  RulebookSynthesisOptions strict;
  strict.min_carriers = 1000;  // nothing in a 24-carrier fixture qualifies
  EXPECT_TRUE(synthesize_rulebook(f.engine, strict).rules.empty());
}

TEST(RulebookSynthesis, DefaultRulesAreSkippedByDefault) {
  Fixture f;
  // Make the low-band value equal the catalog default (5): those groups stop
  // being interesting rules.
  for (const netsim::Carrier& c : f.topo.carriers) {
    if (c.band == netsim::Band::kLow) {
      f.assignment.singular[0].set(static_cast<std::size_t>(c.id), 5, 5,
                                   config::Cause::kAttributeRule);
    }
  }
  const AuricEngine engine(f.topo, f.schema, f.catalog, f.assignment);
  RulebookSynthesisOptions options;
  options.min_carriers = 4;
  const SynthesizedRulebook book = synthesize_rulebook(engine, options);
  for (const SynthesizedRule& rule : book.rules) {
    EXPECT_TRUE(rule.overrides_default(f.catalog));
    if (rule.param == 0) {
      EXPECT_EQ(rule.value, 7);  // only the mid-band rule remains
    }
  }
}

TEST(RulebookSynthesis, RenderIsHumanReadable) {
  Fixture f;
  RulebookSynthesisOptions options;
  options.min_carriers = 4;
  options.include_default_rules = true;
  const SynthesizedRulebook book = synthesize_rulebook(f.engine, options);
  const std::string text = book.render(f.schema, f.catalog);
  EXPECT_NE(text.find("IF "), std::string::npos);
  EXPECT_NE(text.find(" THEN toySingular = "), std::string::npos);
  EXPECT_NE(text.find("support"), std::string::npos);
}

TEST(RulebookSynthesis, DeterministicOrdering) {
  Fixture f;
  RulebookSynthesisOptions options;
  options.min_carriers = 2;
  options.include_default_rules = true;
  const SynthesizedRulebook a = synthesize_rulebook(f.engine, options);
  const SynthesizedRulebook b = synthesize_rulebook(f.engine, options);
  ASSERT_EQ(a.rules.size(), b.rules.size());
  for (std::size_t i = 0; i < a.rules.size(); ++i) {
    EXPECT_EQ(a.rules[i].value, b.rules[i].value);
    EXPECT_EQ(a.rules[i].conditions, b.rules[i].conditions);
  }
}

}  // namespace
}  // namespace auric::core
