// Shared fixtures for the Auric test suite.
#pragma once

#include <cctype>
#include <string_view>
#include <vector>

#include "config/assignment.h"
#include "config/catalog.h"
#include "netsim/attributes.h"
#include "netsim/generator.h"
#include "netsim/topology.h"

namespace auric::test {

/// A hand-built 2-eNodeB / 2-market topology with deterministic attributes,
/// used by tests that need to reason about exact neighbor sets and codes.
/// Layout: eNodeB 0 (market 0) carriers {0: 700 MHz, 1: 1900 MHz} on face 0;
/// eNodeB 1 (market 0) carriers {2: 700 MHz, 3: 1900 MHz} on face 0;
/// eNodeB 2 (market 1) carriers {4: 700 MHz, 5: 1900 MHz} on face 0.
/// X2: complete within eNodeBs; same-frequency between eNodeBs 0 and 1.
inline netsim::Topology tiny_topology() {
  using namespace netsim;
  Topology topo;
  topo.markets.resize(2);
  topo.markets[0] = {0, "Market 1", Timezone::kEastern, {40.0, -75.0}, 1.0};
  topo.markets[1] = {1, "Market 2", Timezone::kCentral, {41.0, -90.0}, 1.0};

  const auto add_enodeb = [&](MarketId market, GeoPoint where) {
    ENodeB e;
    e.id = static_cast<ENodeBId>(topo.enodebs.size());
    e.market = market;
    e.location = where;
    e.morphology = Morphology::kUrban;
    e.faces.resize(3);
    topo.enodebs.push_back(e);
    return e.id;
  };
  const auto add_carrier = [&](ENodeBId enodeb, int mhz) {
    Carrier c;
    c.id = static_cast<CarrierId>(topo.carriers.size());
    c.enodeb = enodeb;
    c.market = topo.enodebs[static_cast<std::size_t>(enodeb)].market;
    c.face = 0;
    c.frequency_mhz = mhz;
    c.band = mhz < 1000 ? Band::kLow : Band::kMid;
    c.morphology = Morphology::kUrban;
    c.bandwidth_mhz = mhz < 1000 ? 10 : 20;
    c.location = topo.enodebs[static_cast<std::size_t>(enodeb)].location;
    c.cell_size_miles = 1;
    c.neighbor_channel = 444;
    topo.enodebs[static_cast<std::size_t>(enodeb)].faces[0].push_back(c.id);
    topo.enodebs[static_cast<std::size_t>(enodeb)].carriers.push_back(c.id);
    topo.carriers.push_back(c);
    return c.id;
  };

  const ENodeBId e0 = add_enodeb(0, {40.00, -75.00});
  const ENodeBId e1 = add_enodeb(0, {40.02, -75.00});
  const ENodeBId e2 = add_enodeb(1, {41.00, -90.00});
  add_carrier(e0, 700);   // 0
  add_carrier(e0, 1900);  // 1
  add_carrier(e1, 700);   // 2
  add_carrier(e1, 1900);  // 3
  add_carrier(e2, 700);   // 4
  add_carrier(e2, 1900);  // 5

  topo.neighbors.assign(6, {});
  const auto connect = [&](CarrierId a, CarrierId b) {
    topo.neighbors[static_cast<std::size_t>(a)].push_back(b);
    topo.neighbors[static_cast<std::size_t>(b)].push_back(a);
  };
  connect(0, 1);  // intra-site
  connect(2, 3);
  connect(4, 5);
  connect(0, 2);  // inter-site same frequency
  connect(1, 3);
  topo.site_neighbors.assign(3, {});
  topo.site_neighbors[0] = {1};
  topo.site_neighbors[1] = {0};
  topo.finalize_edges();
  topo.check_invariants();
  return topo;
}

/// A chain-of-sites topology with enough carriers for chi-square power at
/// p = 0.01. Market 0 has `m0_sites` sites, market 1 has `m1_sites`; every
/// site carries a 700 MHz carrier (id 2*site) and a 1900 MHz carrier
/// (id 2*site + 1) on face 0. X2: intra-site pair + same-frequency links
/// between consecutive sites of the same market.
inline netsim::Topology chain_topology(int m0_sites = 5, int m1_sites = 3) {
  using namespace netsim;
  Topology topo;
  topo.markets.resize(2);
  topo.markets[0] = {0, "Market 1", Timezone::kEastern, {40.0, -75.0}, 1.0};
  topo.markets[1] = {1, "Market 2", Timezone::kCentral, {41.0, -90.0}, 1.0};

  const auto add_site = [&](MarketId market, double lat) {
    ENodeB e;
    e.id = static_cast<ENodeBId>(topo.enodebs.size());
    e.market = market;
    e.location = {lat, market == 0 ? -75.0 : -90.0};
    e.morphology = Morphology::kSuburban;
    e.faces.resize(3);
    for (int mhz : {700, 1900}) {
      Carrier c;
      c.id = static_cast<CarrierId>(topo.carriers.size());
      c.enodeb = e.id;
      c.market = market;
      c.face = 0;
      c.frequency_mhz = mhz;
      c.band = mhz < 1000 ? Band::kLow : Band::kMid;
      c.morphology = e.morphology;
      c.bandwidth_mhz = mhz < 1000 ? 10 : 20;
      c.location = e.location;
      c.cell_size_miles = 2;
      c.neighbor_channel = 444;
      c.tracking_area_code = market * 16;
      e.faces[0].push_back(c.id);
      e.carriers.push_back(c.id);
      topo.carriers.push_back(c);
    }
    topo.enodebs.push_back(e);
    return topo.enodebs.back().id;
  };

  std::vector<ENodeBId> m0;
  std::vector<ENodeBId> m1;
  for (int s = 0; s < m0_sites; ++s) m0.push_back(add_site(0, 40.0 + 0.02 * s));
  for (int s = 0; s < m1_sites; ++s) m1.push_back(add_site(1, 41.0 + 0.02 * s));

  topo.neighbors.assign(topo.carriers.size(), {});
  topo.site_neighbors.assign(topo.enodebs.size(), {});
  const auto connect = [&](CarrierId a, CarrierId b) {
    topo.neighbors[static_cast<std::size_t>(a)].push_back(b);
    topo.neighbors[static_cast<std::size_t>(b)].push_back(a);
  };
  const auto chain = [&](const std::vector<ENodeBId>& sites) {
    for (std::size_t s = 0; s < sites.size(); ++s) {
      const auto& carriers = topo.enodebs[static_cast<std::size_t>(sites[s])].carriers;
      connect(carriers[0], carriers[1]);  // intra-site
      if (s + 1 < sites.size()) {
        const auto& next = topo.enodebs[static_cast<std::size_t>(sites[s + 1])].carriers;
        connect(carriers[0], next[0]);  // 700 <-> 700
        connect(carriers[1], next[1]);  // 1900 <-> 1900
        topo.site_neighbors[static_cast<std::size_t>(sites[s])].push_back(sites[s + 1]);
        topo.site_neighbors[static_cast<std::size_t>(sites[s + 1])].push_back(sites[s]);
      }
    }
  };
  chain(m0);
  chain(m1);
  topo.finalize_edges();
  topo.check_invariants();
  return topo;
}

/// A small generated network for statistical tests (deterministic).
inline netsim::Topology small_generated_topology(std::uint64_t seed = 3, int markets = 3,
                                                 int scale = 20) {
  netsim::TopologyParams params;
  params.seed = seed;
  params.num_markets = markets;
  params.base_enodebs_per_market = scale;
  return netsim::generate_topology(params);
}

/// A 2-parameter catalog (1 singular with a small domain, 1 pair-wise on
/// intra-frequency relations) for hand-built assignments.
inline config::ParamCatalog tiny_catalog() {
  using namespace config;
  std::vector<ParamDef> defs;
  ParamDef singular;
  singular.name = "toySingular";
  singular.kind = ParamKind::kSingular;
  singular.domain = ValueDomain(0, 1, 11);
  singular.default_index = 5;
  defs.push_back(singular);
  ParamDef pairwise;
  pairwise.name = "toyPairwise";
  pairwise.kind = ParamKind::kPairwise;
  pairwise.relation = RelationClass::kIntraFrequency;
  pairwise.scope = PairScope::kPerEdge;
  pairwise.domain = ValueDomain(0, 0.5, 21);
  pairwise.default_index = 4;
  defs.push_back(pairwise);
  return ParamCatalog(std::move(defs));
}

/// An assignment over tiny_topology() + tiny_catalog() where the singular
/// parameter equals 3 on low-band carriers and 7 on mid-band carriers, and
/// the pair-wise parameter equals 2 on every intra-frequency edge.
inline config::ConfigAssignment tiny_assignment(const netsim::Topology& topo) {
  using namespace config;
  ConfigAssignment assignment;
  std::vector<ValueIndex> value(topo.carrier_count());
  for (const netsim::Carrier& c : topo.carriers) {
    value[static_cast<std::size_t>(c.id)] = c.band == netsim::Band::kLow ? 3 : 7;
  }
  assignment.singular.push_back(ParamColumn::from_dense(
      value, value, std::vector<Cause>(topo.carrier_count(), Cause::kAttributeRule)));
  value.assign(topo.edge_count(), kUnset);
  for (std::size_t e = 0; e < topo.edge_count(); ++e) {
    const auto& edge = topo.edges[e];
    if (topo.carrier(edge.from).frequency_mhz == topo.carrier(edge.to).frequency_mhz) {
      value[e] = 2;
    }
  }
  assignment.pairwise.push_back(ParamColumn::from_dense(
      value, value, std::vector<Cause>(topo.edge_count(), Cause::kDefault)));
  return assignment;
}

/// The column's intended values and causes, entry by entry.
inline std::vector<config::ValueIndex> intended_entries(const config::ParamColumn& col) {
  std::vector<config::ValueIndex> out;
  for (std::size_t i = 0; i < col.configured_count(); ++i) out.push_back(col.intended_at(i));
  return out;
}
inline std::vector<config::Cause> cause_entries(const config::ParamColumn& col) {
  std::vector<config::Cause> out;
  for (std::size_t i = 0; i < col.configured_count(); ++i) out.push_back(col.cause_at(i));
  return out;
}

/// Sets the value of `entity`, keeping its intended value and cause: a
/// newly configured slot gets intended kUnset and cause kDefault, and kUnset
/// erases the slot.
inline void set_value(config::ParamColumn& col, std::size_t entity, config::ValueIndex value) {
  const std::size_t i = col.find(entity);
  col.set(entity, value, col.intended_of(entity),
          i == config::ParamColumn::npos ? config::Cause::kDefault : col.cause_at(i));
}

/// True when `text` is exactly one RFC 8259 JSON value (objects, arrays,
/// strings with escapes, numbers, true/false/null). Strict about what a
/// parser rejects: raw control characters inside strings, bad escapes,
/// trailing garbage.
class JsonChecker {
 public:
  static bool valid(std::string_view text) {
    JsonChecker c{text};
    return c.value() && (c.skip_ws(), c.pos_ == text.size());
  }

 private:
  explicit JsonChecker(std::string_view text) : s_(text) {}

  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\r' ||
                                s_[pos_] == '\t')) {
      ++pos_;
    }
  }
  bool eat(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }
  bool string() {
    if (!eat('"')) return false;
    while (pos_ < s_.size()) {
      const auto c = static_cast<unsigned char>(s_[pos_++]);
      if (c == '"') return true;
      if (c < 0x20) return false;
      if (c != '\\') continue;
      if (pos_ >= s_.size()) return false;
      const char e = s_[pos_++];
      if (e == 'u') {
        for (int i = 0; i < 4; ++i, ++pos_) {
          if (pos_ >= s_.size() || !std::isxdigit(static_cast<unsigned char>(s_[pos_]))) {
            return false;
          }
        }
      } else if (std::string_view("\"\\/bfnrt").find(e) == std::string_view::npos) {
        return false;
      }
    }
    return false;
  }
  bool digits() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_]))) ++pos_;
    return pos_ > start;
  }
  bool number() {
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    if (!digits()) return false;
    if (pos_ < s_.size() && s_[pos_] == '.' && (++pos_, !digits())) return false;
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
      if (!digits()) return false;
    }
    return true;
  }
  bool value() {
    skip_ws();
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
        ++pos_;
        if (eat('}')) return true;
        do {
          if (!string() || !eat(':') || !value()) return false;
        } while (eat(','));
        return eat('}');
      case '[':
        ++pos_;
        if (eat(']')) return true;
        do {
          if (!value()) return false;
        } while (eat(','));
        return eat(']');
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

}  // namespace auric::test
