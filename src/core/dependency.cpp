#include "core/dependency.h"

#include <algorithm>
#include <stdexcept>

namespace auric::core {

void ContingencyState::apply(const std::vector<std::vector<netsim::AttrCode>>& attr_codes,
                             netsim::CarrierId carrier, netsim::CarrierId neighbor,
                             ml::ClassLabel label, std::int64_t delta) {
  for (std::size_t i = 0; i < refs.size(); ++i) {
    const AttrRef& ref = refs[i];
    const netsim::CarrierId subject = ref.neighbor_side ? neighbor : carrier;
    if (subject == netsim::kInvalidCarrier) {
      throw std::logic_error("ContingencyState: neighbor-side ref without a neighbor");
    }
    tables[i].apply(attr_codes[ref.attr][static_cast<std::size_t>(subject)], label, delta);
  }
}

ContingencyState build_contingency(const ParamView& view,
                                   const std::vector<std::vector<netsim::AttrCode>>& attr_codes,
                                   const netsim::AttributeSchema& schema) {
  ContingencyState state;
  const std::size_t num_attrs = schema.attribute_count();
  state.refs.reserve(view.pairwise ? 2 * num_attrs : num_attrs);
  for (std::size_t a = 0; a < num_attrs; ++a) state.refs.push_back({false, a});
  if (view.pairwise) {
    for (std::size_t a = 0; a < num_attrs; ++a) state.refs.push_back({true, a});
  }
  state.tables.reserve(state.refs.size());
  for (const AttrRef& ref : state.refs) {
    state.tables.push_back(ml::ContingencyTable::build(
        attr_codes[ref.attr], ref.neighbor_side ? view.neighbor : view.carrier, view.label,
        schema.cardinality(ref.attr), view.labels.size()));
  }
  return state;
}

DependencyModel dependencies_from_contingency(const ContingencyState& state,
                                              DependencyOptions options) {
  DependencyModel model;
  model.tests.reserve(state.refs.size());
  for (std::size_t i = 0; i < state.refs.size(); ++i) {
    DependencyTest test;
    test.ref = state.refs[i];
    test.result = ml::chi_square_test(state.tables[i]);
    model.tests.push_back(std::move(test));
  }

  // Rejected tests, strongest association first.
  std::vector<const DependencyTest*> rejected;
  for (const DependencyTest& test : model.tests) {
    if (test.result.dependent(options.p_value)) rejected.push_back(&test);
  }
  std::stable_sort(rejected.begin(), rejected.end(),
                   [](const DependencyTest* a, const DependencyTest* b) {
                     if (a->result.p_value != b->result.p_value) {
                       return a->result.p_value < b->result.p_value;
                     }
                     return a->result.statistic > b->result.statistic;
                   });
  if (options.max_dependent > 0 &&
      rejected.size() > static_cast<std::size_t>(options.max_dependent)) {
    rejected.resize(static_cast<std::size_t>(options.max_dependent));
  }
  for (const DependencyTest* test : rejected) model.dependent.push_back(test->ref);
  return model;
}

DependencyModel learn_dependencies(const ParamView& view,
                                   const std::vector<std::vector<netsim::AttrCode>>& attr_codes,
                                   const netsim::AttributeSchema& schema,
                                   DependencyOptions options) {
  return dependencies_from_contingency(build_contingency(view, attr_codes, schema), options);
}

std::string attr_ref_name(const AttrRef& ref, const netsim::AttributeSchema& schema) {
  return (ref.neighbor_side ? "nbr_" : "") + schema.name(ref.attr);
}

}  // namespace auric::core
