#include "io/inventory.h"

#include <algorithm>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string_view>

#include "util/csv.h"
#include "util/csv_reader.h"
#include "util/log.h"
#include "util/strings.h"

namespace auric::io {

namespace {

using netsim::Band;
using netsim::CarrierType;
using netsim::MimoMode;
using netsim::Morphology;
using netsim::Terrain;
using netsim::Timezone;

// --- enum <-> string; serialization reuses the display names so the CSVs
// are the same vocabulary engineers see in reports. ---

template <typename Enum, int N>
Enum parse_enum(std::string_view text, const char* (*name_of)(Enum), const char* what) {
  for (int i = 0; i < N; ++i) {
    const auto candidate = static_cast<Enum>(i);
    if (text == name_of(candidate)) return candidate;
  }
  throw std::invalid_argument(std::string(what) + ": unknown value '" + std::string(text) + "'");
}

Morphology parse_morphology(std::string_view text) {
  return parse_enum<Morphology, 3>(text, netsim::morphology_name, "morphology");
}
Terrain parse_terrain(std::string_view text) {
  return parse_enum<Terrain, 3>(text, netsim::terrain_name, "terrain");
}
CarrierType parse_carrier_type(std::string_view text) {
  return parse_enum<CarrierType, 3>(text, netsim::carrier_type_name, "carrier_type");
}
MimoMode parse_mimo(std::string_view text) {
  return parse_enum<MimoMode, 3>(text, netsim::mimo_mode_name, "mimo");
}
Timezone parse_timezone(std::string_view text) {
  return parse_enum<Timezone, 4>(text, netsim::timezone_name, "timezone");
}

Band band_of_frequency(int mhz) {
  if (mhz <= 850) return Band::kLow;
  if (mhz <= 2100) return Band::kMid;
  return Band::kHigh;
}

std::string path_in(const std::string& dir, const char* file) {
  return (std::filesystem::path(dir) / file).string();
}

/// Header validation for operator-produced files: every required column must
/// exist (error naming the file and the missing columns), and columns we do
/// not understand are skipped with a warning rather than silently ignored —
/// an operator who typo'd "frequencyMhz" should hear about it.
void check_headers(const util::CsvTable& csv, std::initializer_list<const char*> required,
                   std::initializer_list<const char*> optional = {}) {
  std::string missing;
  for (const char* column : required) {
    if (!csv.has_column(column)) missing += (missing.empty() ? "" : ", ") + std::string(column);
  }
  if (!missing.empty()) {
    throw std::invalid_argument(csv.source() + ": missing required column(s): " + missing);
  }
  for (const std::string& header : csv.headers()) {
    const auto known = [&](std::initializer_list<const char*> names) {
      return std::any_of(names.begin(), names.end(),
                         [&](const char* name) { return header == name; });
    };
    if (!known(required) && !known(optional)) {
      util::log_warn(csv.source() + ": ignoring unknown column '" + header + "'");
    }
  }
}

/// Bounds check with file + line context for values whose domain the schema
/// defines (latitudes, faces, ...).
void check_range(const util::CsvTable& csv, std::size_t row, const char* column, double value,
                 double lo, double hi) {
  if (value < lo || value > hi) {
    throw std::invalid_argument(csv.context(row) + ", column " + column + ": value " +
                                util::format("%g", value) + " outside [" +
                                util::format("%g", lo) + ", " + util::format("%g", hi) + "]");
  }
}

}  // namespace

void save_topology(const netsim::Topology& topology, const std::string& dir) {
  std::filesystem::create_directories(dir);

  {
    util::CsvWriter csv(path_in(dir, "markets.csv"),
                        {"id", "name", "timezone", "lat", "lon", "size_multiplier"});
    for (const netsim::Market& m : topology.markets) {
      csv.add_row({std::to_string(m.id), m.name, netsim::timezone_name(m.timezone),
                   util::format("%.6f", m.center.lat_deg), util::format("%.6f", m.center.lon_deg),
                   util::format("%.4f", m.size_multiplier)});
    }
  }
  {
    util::CsvWriter csv(path_in(dir, "enodebs.csv"),
                        {"id", "market", "lat", "lon", "morphology", "terrain"});
    for (const netsim::ENodeB& e : topology.enodebs) {
      csv.add_row({std::to_string(e.id), std::to_string(e.market),
                   util::format("%.6f", e.location.lat_deg),
                   util::format("%.6f", e.location.lon_deg),
                   netsim::morphology_name(e.morphology), netsim::terrain_name(e.terrain)});
    }
  }
  {
    util::CsvWriter csv(
        path_in(dir, "carriers.csv"),
        {"id", "enodeb", "face", "frequency_mhz", "carrier_type", "carrier_info",
         "bandwidth_mhz", "mimo", "hardware", "cell_size_miles", "tracking_area_code", "vendor",
         "neighbor_channel", "software_version"});
    for (const netsim::Carrier& c : topology.carriers) {
      csv.add_row({std::to_string(c.id), std::to_string(c.enodeb), std::to_string(c.face),
                   std::to_string(c.frequency_mhz), netsim::carrier_type_name(c.type),
                   std::to_string(c.carrier_info), std::to_string(c.bandwidth_mhz),
                   netsim::mimo_mode_name(c.mimo), std::to_string(c.hardware),
                   std::to_string(c.cell_size_miles), std::to_string(c.tracking_area_code),
                   std::to_string(c.vendor), std::to_string(c.neighbor_channel),
                   std::to_string(c.software_version)});
    }
  }
  {
    util::CsvWriter csv(path_in(dir, "x2.csv"), {"from", "to"});
    for (const netsim::X2Edge& edge : topology.edges) {
      if (edge.from < edge.to) {  // undirected: store each link once
        csv.add_row({std::to_string(edge.from), std::to_string(edge.to)});
      }
    }
  }
}

netsim::Topology load_topology(const std::string& dir) {
  netsim::Topology topo;

  const util::CsvTable markets = util::CsvTable::load(path_in(dir, "markets.csv"));
  check_headers(markets, {"id", "name", "timezone", "lat", "lon", "size_multiplier"});
  topo.markets.resize(markets.row_count());
  for (std::size_t r = 0; r < markets.row_count(); ++r) {
    const auto id = static_cast<netsim::MarketId>(markets.field_int(r, "id"));
    if (id < 0 || static_cast<std::size_t>(id) >= topo.markets.size()) {
      throw std::invalid_argument(markets.context(r) + ": ids must be dense 0..N-1, got " +
                                  std::to_string(id));
    }
    netsim::Market& m = topo.markets[static_cast<std::size_t>(id)];
    m.id = id;
    m.name = markets.field(r, "name");
    try {
      m.timezone = parse_timezone(markets.field(r, "timezone"));
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument(markets.context(r) + ": " + e.what());
    }
    check_range(markets, r, "lat", markets.field_double(r, "lat"), -90.0, 90.0);
    check_range(markets, r, "lon", markets.field_double(r, "lon"), -180.0, 180.0);
    m.center = {markets.field_double(r, "lat"), markets.field_double(r, "lon")};
    m.size_multiplier = markets.field_double(r, "size_multiplier");
    check_range(markets, r, "size_multiplier", m.size_multiplier, 0.0, 1000.0);
  }

  const util::CsvTable enodebs = util::CsvTable::load(path_in(dir, "enodebs.csv"));
  check_headers(enodebs, {"id", "market", "lat", "lon", "morphology", "terrain"});
  topo.enodebs.resize(enodebs.row_count());
  for (std::size_t r = 0; r < enodebs.row_count(); ++r) {
    const auto id = static_cast<netsim::ENodeBId>(enodebs.field_int(r, "id"));
    if (id < 0 || static_cast<std::size_t>(id) >= topo.enodebs.size()) {
      throw std::invalid_argument(enodebs.context(r) + ": ids must be dense 0..N-1, got " +
                                  std::to_string(id));
    }
    netsim::ENodeB& e = topo.enodebs[static_cast<std::size_t>(id)];
    e.id = id;
    e.market = static_cast<netsim::MarketId>(enodebs.field_int(r, "market"));
    if (e.market < 0 || static_cast<std::size_t>(e.market) >= topo.markets.size()) {
      throw std::invalid_argument(enodebs.context(r) + ": unknown market " +
                                  std::to_string(e.market));
    }
    check_range(enodebs, r, "lat", enodebs.field_double(r, "lat"), -90.0, 90.0);
    check_range(enodebs, r, "lon", enodebs.field_double(r, "lon"), -180.0, 180.0);
    e.location = {enodebs.field_double(r, "lat"), enodebs.field_double(r, "lon")};
    try {
      e.morphology = parse_morphology(enodebs.field(r, "morphology"));
      e.terrain = parse_terrain(enodebs.field(r, "terrain"));
    } catch (const std::invalid_argument& e2) {
      throw std::invalid_argument(enodebs.context(r) + ": " + e2.what());
    }
    e.faces.resize(3);
  }

  const util::CsvTable carriers = util::CsvTable::load(path_in(dir, "carriers.csv"));
  check_headers(carriers,
                {"id", "enodeb", "face", "frequency_mhz", "carrier_type", "carrier_info",
                 "bandwidth_mhz", "mimo", "hardware", "cell_size_miles", "tracking_area_code",
                 "vendor", "neighbor_channel", "software_version"});
  topo.carriers.resize(carriers.row_count());
  for (std::size_t r = 0; r < carriers.row_count(); ++r) {
    const auto id = static_cast<netsim::CarrierId>(carriers.field_int(r, "id"));
    if (id < 0 || static_cast<std::size_t>(id) >= topo.carriers.size()) {
      throw std::invalid_argument(carriers.context(r) + ": ids must be dense 0..N-1, got " +
                                  std::to_string(id));
    }
    netsim::Carrier& c = topo.carriers[static_cast<std::size_t>(id)];
    c.id = id;
    c.enodeb = static_cast<netsim::ENodeBId>(carriers.field_int(r, "enodeb"));
    if (c.enodeb < 0 || static_cast<std::size_t>(c.enodeb) >= topo.enodebs.size()) {
      throw std::invalid_argument(carriers.context(r) + ": unknown eNodeB " +
                                  std::to_string(c.enodeb) + " for carrier " +
                                  std::to_string(id));
    }
    netsim::ENodeB& site = topo.enodebs[static_cast<std::size_t>(c.enodeb)];
    c.market = site.market;
    c.face = static_cast<int>(carriers.field_int(r, "face"));
    check_range(carriers, r, "face", c.face, 0, static_cast<double>(site.faces.size()) - 1);
    c.frequency_mhz = static_cast<int>(carriers.field_int(r, "frequency_mhz"));
    check_range(carriers, r, "frequency_mhz", c.frequency_mhz, 1.0, 100000.0);
    c.band = band_of_frequency(c.frequency_mhz);
    try {
      c.type = parse_carrier_type(carriers.field(r, "carrier_type"));
      c.mimo = parse_mimo(carriers.field(r, "mimo"));
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument(carriers.context(r) + ": " + e.what());
    }
    c.carrier_info = static_cast<int>(carriers.field_int(r, "carrier_info"));
    c.morphology = site.morphology;
    c.bandwidth_mhz = static_cast<int>(carriers.field_int(r, "bandwidth_mhz"));
    check_range(carriers, r, "bandwidth_mhz", c.bandwidth_mhz, 1.0, 400.0);
    c.hardware = static_cast<int>(carriers.field_int(r, "hardware"));
    c.cell_size_miles = static_cast<int>(carriers.field_int(r, "cell_size_miles"));
    c.tracking_area_code = static_cast<int>(carriers.field_int(r, "tracking_area_code"));
    c.vendor = static_cast<int>(carriers.field_int(r, "vendor"));
    c.neighbor_channel = static_cast<int>(carriers.field_int(r, "neighbor_channel"));
    c.software_version = static_cast<int>(carriers.field_int(r, "software_version"));
    c.terrain = site.terrain;
    c.location = site.location;
    site.faces.at(static_cast<std::size_t>(c.face)).push_back(id);
    site.carriers.push_back(id);
  }

  const util::CsvTable x2 = util::CsvTable::load(path_in(dir, "x2.csv"));
  check_headers(x2, {"from", "to"});
  topo.neighbors.assign(topo.carriers.size(), {});
  for (std::size_t r = 0; r < x2.row_count(); ++r) {
    const auto from = static_cast<netsim::CarrierId>(x2.field_int(r, "from"));
    const auto to = static_cast<netsim::CarrierId>(x2.field_int(r, "to"));
    if (from < 0 || to < 0 || static_cast<std::size_t>(from) >= topo.carriers.size() ||
        static_cast<std::size_t>(to) >= topo.carriers.size()) {
      throw std::invalid_argument(x2.context(r) + ": X2 edge " + std::to_string(from) +
                                  " -> " + std::to_string(to) +
                                  " references an unknown carrier");
    }
    if (from == to) {
      // A self-relation is meaningless but harmless: skip it rather than
      // reject an otherwise usable operator export.
      util::log_warn(x2.context(r) + ": skipping X2 self-loop on carrier " +
                     std::to_string(from));
      continue;
    }
    topo.neighbors[static_cast<std::size_t>(from)].push_back(to);
    topo.neighbors[static_cast<std::size_t>(to)].push_back(from);
  }

  // Rebuild site adjacency from the carrier graph (inter-site links).
  topo.site_neighbors.assign(topo.enodebs.size(), {});
  for (std::size_t c = 0; c < topo.neighbors.size(); ++c) {
    const netsim::ENodeBId from_site = topo.carriers[c].enodeb;
    for (netsim::CarrierId n : topo.neighbors[c]) {
      const netsim::ENodeBId to_site = topo.carrier(n).enodeb;
      if (from_site != to_site) {
        topo.site_neighbors[static_cast<std::size_t>(from_site)].push_back(to_site);
      }
    }
  }

  topo.finalize_edges();
  topo.check_invariants();
  return topo;
}

namespace {

/// Pretty-prints a domain value the way render_config_commands does.
std::string raw_value_string(const config::ValueDomain& domain, config::ValueIndex index) {
  return util::format("%.6g", domain.value(index));
}

}  // namespace

void save_assignment(const netsim::Topology& topology, const config::ParamCatalog& catalog,
                     const config::ConfigAssignment& assignment, const std::string& dir) {
  std::filesystem::create_directories(dir);
  util::CsvWriter csv(path_in(dir, "config.csv"),
                      {"parameter", "from", "to", "value", "intended", "cause"});
  const auto emit = [&](const config::ParamDef& def, const config::ParamColumn& col,
                        std::size_t i, netsim::CarrierId from, netsim::CarrierId to) {
    csv.add_row({def.name, std::to_string(from),
                 to == netsim::kInvalidCarrier ? "" : std::to_string(to),
                 raw_value_string(def.domain, col.value_at(i)),
                 raw_value_string(def.domain, col.intended_at(i)),
                 config::cause_name(col.cause_at(i))});
  };
  for (std::size_t si = 0; si < assignment.singular.size(); ++si) {
    const config::ParamDef& def = catalog.at(catalog.singular_ids()[si]);
    const config::ParamColumn& col = assignment.singular[si];
    for (std::size_t i = 0; i < col.configured_count(); ++i) {
      emit(def, col, i, static_cast<netsim::CarrierId>(col.entity(i)), netsim::kInvalidCarrier);
    }
  }
  for (std::size_t pi = 0; pi < assignment.pairwise.size(); ++pi) {
    const config::ParamDef& def = catalog.at(catalog.pairwise_ids()[pi]);
    const config::ParamColumn& col = assignment.pairwise[pi];
    for (std::size_t i = 0; i < col.configured_count(); ++i) {
      const netsim::X2Edge& edge = topology.edges[col.entity(i)];
      emit(def, col, i, edge.from, edge.to);
    }
  }
}

namespace {

/// One config.csv row, parsed into its column's slot.
struct LoadedSlot {
  std::uint32_t entity = 0;
  config::ValueIndex value = config::kUnset;
  config::ValueIndex intended = config::kUnset;
  config::Cause cause = config::Cause::kDefault;
};

/// Packs one column's rows, given in file order, in entity order. A later
/// row for a slot replaces an earlier one.
config::ParamColumn pack_column(std::size_t entities, std::vector<LoadedSlot>& slots) {
  const auto by_entity = [](const LoadedSlot& a, const LoadedSlot& b) {
    return a.entity < b.entity;
  };
  if (!std::is_sorted(slots.begin(), slots.end(), by_entity)) {
    std::stable_sort(slots.begin(), slots.end(), by_entity);
  }
  const auto last_of_slot = [&](std::size_t i) {
    return i + 1 == slots.size() || slots[i + 1].entity != slots[i].entity;
  };
  std::size_t count = 0;
  for (std::size_t i = 0; i < slots.size(); ++i) count += last_of_slot(i) ? 1 : 0;
  config::ParamColumn col(entities);
  col.reserve(count);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (!last_of_slot(i)) continue;
    col.append(slots[i].entity, slots[i].value, slots[i].intended, slots[i].cause);
  }
  return col;
}

}  // namespace

config::ConfigAssignment load_assignment(const netsim::Topology& topology,
                                         const config::ParamCatalog& catalog,
                                         const std::string& dir) {
  std::vector<std::vector<LoadedSlot>> singular_rows(catalog.singular_ids().size());
  std::vector<std::vector<LoadedSlot>> pairwise_rows(catalog.pairwise_ids().size());

  // name -> (kind position, param id); cause name -> enum.
  std::map<std::string, std::pair<bool, std::size_t>> param_pos;
  for (std::size_t si = 0; si < catalog.singular_ids().size(); ++si) {
    param_pos[catalog.at(catalog.singular_ids()[si]).name] = {false, si};
  }
  for (std::size_t pi = 0; pi < catalog.pairwise_ids().size(); ++pi) {
    param_pos[catalog.at(catalog.pairwise_ids()[pi]).name] = {true, pi};
  }

  const util::CsvTable csv = util::CsvTable::load(path_in(dir, "config.csv"));
  check_headers(csv, {"parameter", "from", "to", "value"}, {"intended", "cause"});
  const bool has_ground_truth = csv.has_column("intended") && csv.has_column("cause");
  std::size_t unknown_params = 0;
  for (std::size_t r = 0; r < csv.row_count(); ++r) {
    const std::string& name = csv.field(r, "parameter");
    const auto it = param_pos.find(name);
    if (it == param_pos.end()) {
      // A parameter the catalog does not manage (operator feeds routinely
      // carry extra vendor parameters): skip it, keep the rest of the file.
      if (++unknown_params <= 5) {
        util::log_warn(csv.context(r) + ": skipping unknown parameter '" + name + "'");
      }
      continue;
    }
    const auto [pairwise, pos] = it->second;
    const config::ParamDef& def =
        catalog.at(pairwise ? catalog.pairwise_ids()[pos] : catalog.singular_ids()[pos]);
    const auto from = static_cast<netsim::CarrierId>(csv.field_int(r, "from"));
    if (from < 0 || static_cast<std::size_t>(from) >= topology.carrier_count()) {
      throw std::invalid_argument(csv.context(r) + ": unknown carrier " +
                                  std::to_string(from));
    }

    std::size_t slot = 0;
    std::vector<LoadedSlot>* rows = nullptr;
    if (pairwise) {
      if (csv.field(r, "to").empty()) {
        throw std::invalid_argument(csv.context(r) + ": pair-wise parameter " + name +
                                    " needs a 'to' carrier");
      }
      const auto to = static_cast<netsim::CarrierId>(csv.field_int(r, "to"));
      // Locate the directed edge from -> to.
      const std::size_t begin = topology.edge_offsets[static_cast<std::size_t>(from)];
      const std::size_t end = topology.edge_offsets[static_cast<std::size_t>(from) + 1];
      slot = end;
      for (std::size_t e = begin; e < end; ++e) {
        if (topology.edges[e].to == to) {
          slot = e;
          break;
        }
      }
      if (slot == end) {
        throw std::invalid_argument(csv.context(r) + ": no X2 relation " +
                                    std::to_string(from) + " -> " + std::to_string(to));
      }
      rows = &pairwise_rows[pos];
    } else {
      if (!csv.field(r, "to").empty()) {
        throw std::invalid_argument(csv.context(r) + ": singular parameter " + name +
                                    " must not name a 'to' carrier");
      }
      slot = static_cast<std::size_t>(from);
      rows = &singular_rows[pos];
    }

    const double raw = csv.field_double(r, "value");
    if (raw < def.domain.min() || raw > def.domain.max()) {
      // Out-of-domain vendor value: clamp to the nearest domain point (what
      // nearest_index does anyway) but tell the operator their feed and
      // Auric's catalog disagree about this parameter's range.
      util::log_warn(csv.context(r) + ": " + name + " = " + util::format("%g", raw) +
                     " outside domain [" + util::format("%g", def.domain.min()) + ", " +
                     util::format("%g", def.domain.max()) + "]; clamping");
    }
    LoadedSlot& loaded = rows->emplace_back();
    loaded.entity = static_cast<std::uint32_t>(slot);
    loaded.value = def.domain.nearest_index(raw);
    if (has_ground_truth) {
      loaded.intended = def.domain.nearest_index(csv.field_double(r, "intended"));
      const std::string& cause = csv.field(r, "cause");
      bool found = false;
      for (int i = 0; i <= static_cast<int>(config::Cause::kNoise); ++i) {
        if (cause == config::cause_name(static_cast<config::Cause>(i))) {
          loaded.cause = static_cast<config::Cause>(i);
          found = true;
          break;
        }
      }
      if (!found) {
        throw std::invalid_argument(csv.context(r) + ": unknown cause '" + cause + "'");
      }
    } else {
      loaded.intended = loaded.value;
    }
  }
  if (unknown_params > 5) {
    util::log_warn(csv.source() + ": skipped " + std::to_string(unknown_params) +
                   " rows with unknown parameters in total");
  }

  config::ConfigAssignment assignment;
  assignment.singular.reserve(singular_rows.size());
  for (std::vector<LoadedSlot>& slots : singular_rows) {
    assignment.singular.push_back(pack_column(topology.carrier_count(), slots));
    std::vector<LoadedSlot>().swap(slots);
  }
  assignment.pairwise.reserve(pairwise_rows.size());
  for (std::vector<LoadedSlot>& slots : pairwise_rows) {
    assignment.pairwise.push_back(pack_column(topology.edge_count(), slots));
    std::vector<LoadedSlot>().swap(slots);
  }
  return assignment;
}

}  // namespace auric::io
