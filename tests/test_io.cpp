#include "io/inventory.h"

#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>

#include <gtest/gtest.h>

#include "config/ground_truth.h"
#include "obs/metrics.h"
#include "test_helpers.h"
#include "util/csv_reader.h"

namespace auric {
namespace {

std::string temp_dir(const char* tag) {
  const auto dir = std::filesystem::temp_directory_path() / ("auric_io_" + std::string(tag));
  std::filesystem::remove_all(dir);
  return dir.string();
}

TEST(CsvParseLine, HandlesQuotingAndEscapes) {
  using util::parse_csv_line;
  EXPECT_EQ(parse_csv_line("a,b,c"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(parse_csv_line("\"a,b\",c"), (std::vector<std::string>{"a,b", "c"}));
  EXPECT_EQ(parse_csv_line("\"say \"\"hi\"\"\""), (std::vector<std::string>{"say \"hi\""}));
  EXPECT_EQ(parse_csv_line(""), (std::vector<std::string>{""}));
  EXPECT_EQ(parse_csv_line("x,"), (std::vector<std::string>{"x", ""}));
  EXPECT_THROW(parse_csv_line("\"unterminated"), std::invalid_argument);
  EXPECT_THROW(parse_csv_line("mid\"quote"), std::invalid_argument);
}

TEST(CsvTable, ParsesHeaderAndTypedFields) {
  std::istringstream in("id,name,score\n1,alpha,2.5\n2,\"b,eta\",3\n");
  const util::CsvTable table = util::CsvTable::parse(in);
  EXPECT_EQ(table.row_count(), 2u);
  EXPECT_EQ(table.field(0, "name"), "alpha");
  EXPECT_EQ(table.field(1, "name"), "b,eta");
  EXPECT_EQ(table.field_int(1, "id"), 2);
  EXPECT_DOUBLE_EQ(table.field_double(0, "score"), 2.5);
  EXPECT_TRUE(table.has_column("score"));
  EXPECT_FALSE(table.has_column("missing"));
  EXPECT_THROW(table.field(0, "missing"), std::out_of_range);
  EXPECT_THROW(table.field_int(0, "name"), std::invalid_argument);
}

TEST(CsvTable, RejectsMalformedInput) {
  std::istringstream arity("a,b\n1\n");
  EXPECT_THROW(util::CsvTable::parse(arity), std::invalid_argument);
  std::istringstream empty("");
  EXPECT_THROW(util::CsvTable::parse(empty), std::invalid_argument);
  EXPECT_THROW(util::CsvTable::load("/nonexistent/file.csv"), std::runtime_error);
}

std::string thrown_message(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

TEST(CsvTable, ErrorsNameSourceAndLineNumber) {
  // Arity mismatch on the 4th file line (header + blank + good row + bad).
  std::istringstream arity("a,b\n\n1,2\n3\n");
  const std::string arity_msg =
      thrown_message([&] { util::CsvTable::parse(arity, "feed.csv"); });
  EXPECT_NE(arity_msg.find("feed.csv line 4"), std::string::npos) << arity_msg;

  std::istringstream ok("id,score\n1,2.5\n\nx,oops\n");
  const util::CsvTable table = util::CsvTable::parse(ok, "scores.csv");
  EXPECT_EQ(table.source(), "scores.csv");
  ASSERT_EQ(table.row_count(), 2u);
  EXPECT_EQ(table.line(0), 2u);
  EXPECT_EQ(table.line(1), 4u);  // the blank line is counted, not stored

  const std::string int_msg = thrown_message([&] { (void)table.field_int(1, "id"); });
  EXPECT_NE(int_msg.find("scores.csv line 4"), std::string::npos) << int_msg;
  EXPECT_NE(int_msg.find("column id"), std::string::npos) << int_msg;
  const std::string dbl_msg = thrown_message([&] { (void)table.field_double(1, "score"); });
  EXPECT_NE(dbl_msg.find("scores.csv line 4"), std::string::npos) << dbl_msg;
}

TEST(CsvTable, TornFinalLineParsesAsDataByDefault) {
  // Backward-compatible default: a final line without its newline is still
  // a row. Only opt-in loaders (checkpoint recovery) treat it as torn.
  std::istringstream in("carrier,applied\n3,17\n9,4");
  const util::CsvTable table = util::CsvTable::parse(in, "journal.csv");
  ASSERT_EQ(table.row_count(), 2u);
  EXPECT_EQ(table.field(1, "applied"), "4");
}

TEST(CsvTable, TornFinalLineDroppedWhenTolerated) {
  const std::uint64_t before =
      obs::MetricsRegistry::global().counter("auric_csv_torn_tail_dropped_total").value();
  // The final record lost its terminator mid-field (crash during append);
  // the tolerant parse drops it instead of failing the whole load -- even
  // when the torn bytes are not parseable CSV at all.
  const util::CsvParseOptions tolerant{.tolerate_torn_tail = true};
  std::istringstream torn("carrier,applied\n3,17\n9,\"unbal");
  const util::CsvTable table = util::CsvTable::parse(torn, "journal.csv", tolerant);
  ASSERT_EQ(table.row_count(), 1u);
  EXPECT_EQ(table.field(0, "carrier"), "3");
  EXPECT_EQ(
      obs::MetricsRegistry::global().counter("auric_csv_torn_tail_dropped_total").value(),
      before + 1);

  // A properly terminated file loses nothing under the same options.
  std::istringstream whole("carrier,applied\n3,17\n9,4\n");
  EXPECT_EQ(util::CsvTable::parse(whole, "journal.csv", tolerant).row_count(), 2u);

  // The header is exempt: without it nothing is loadable, so a torn header
  // still fails loudly rather than yielding a silently empty table.
  std::istringstream header_only("carrier,app");
  EXPECT_THROW(util::CsvTable::parse(header_only, "journal.csv", tolerant),
               std::invalid_argument);
}

TEST(CsvTable, TypedAccessorsRejectTrailingGarbage) {
  std::istringstream in("n,x\n12x,3.5oops\n");
  const util::CsvTable table = util::CsvTable::parse(in, "t.csv");
  EXPECT_THROW((void)table.field_int(0, "n"), std::invalid_argument);
  EXPECT_THROW((void)table.field_double(0, "x"), std::invalid_argument);
}

TEST(InventoryIo, TopologyRoundTripsExactly) {
  const std::string dir = temp_dir("topo");
  const netsim::Topology original = test::small_generated_topology(9, 2, 12);
  io::save_topology(original, dir);
  const netsim::Topology loaded = io::load_topology(dir);

  ASSERT_EQ(loaded.carrier_count(), original.carrier_count());
  ASSERT_EQ(loaded.enodebs.size(), original.enodebs.size());
  ASSERT_EQ(loaded.markets.size(), original.markets.size());
  for (std::size_t c = 0; c < original.carrier_count(); ++c) {
    const netsim::Carrier& a = original.carriers[c];
    const netsim::Carrier& b = loaded.carriers[c];
    EXPECT_EQ(a.enodeb, b.enodeb);
    EXPECT_EQ(a.frequency_mhz, b.frequency_mhz);
    EXPECT_EQ(a.band, b.band);
    EXPECT_EQ(a.type, b.type);
    EXPECT_EQ(a.bandwidth_mhz, b.bandwidth_mhz);
    EXPECT_EQ(a.mimo, b.mimo);
    EXPECT_EQ(a.hardware, b.hardware);
    EXPECT_EQ(a.tracking_area_code, b.tracking_area_code);
    EXPECT_EQ(a.vendor, b.vendor);
    EXPECT_EQ(a.software_version, b.software_version);
    EXPECT_EQ(a.neighbors_same_enodeb, b.neighbors_same_enodeb);
    EXPECT_EQ(original.neighborhood(a.id), loaded.neighborhood(a.id));
  }
  for (std::size_t m = 0; m < original.markets.size(); ++m) {
    EXPECT_EQ(original.markets[m].name, loaded.markets[m].name);
    EXPECT_EQ(original.markets[m].timezone, loaded.markets[m].timezone);
  }
  EXPECT_NO_THROW(loaded.check_invariants());
  std::filesystem::remove_all(dir);
}

TEST(InventoryIo, AssignmentRoundTripsWithGroundTruth) {
  const std::string dir = temp_dir("assign");
  const netsim::Topology topo = test::small_generated_topology(4, 2, 10);
  const auto schema = netsim::AttributeSchema::standard(topo);
  const auto catalog = config::ParamCatalog::standard();
  const config::ConfigAssignment original =
      config::GroundTruthModel(topo, schema, catalog).assign();

  io::save_topology(topo, dir);
  io::save_assignment(topo, catalog, original, dir);
  const config::ConfigAssignment loaded = io::load_assignment(topo, catalog, dir);

  ASSERT_EQ(loaded.singular.size(), original.singular.size());
  for (std::size_t si = 0; si < original.singular.size(); ++si) {
    EXPECT_EQ(loaded.singular[si].value, original.singular[si].value);
    EXPECT_EQ(test::intended_entries(loaded.singular[si]),
              test::intended_entries(original.singular[si]));
    EXPECT_EQ(test::cause_entries(loaded.singular[si]), test::cause_entries(original.singular[si]));
  }
  for (std::size_t pi = 0; pi < original.pairwise.size(); ++pi) {
    EXPECT_EQ(loaded.pairwise[pi].value, original.pairwise[pi].value);
    EXPECT_EQ(test::intended_entries(loaded.pairwise[pi]),
              test::intended_entries(original.pairwise[pi]));
  }
  EXPECT_EQ(loaded.total_configured(), original.total_configured());
  std::filesystem::remove_all(dir);
}

TEST(InventoryIo, LoadRejectsDanglingReferences) {
  const std::string dir = temp_dir("bad");
  const netsim::Topology topo = test::tiny_topology();
  io::save_topology(topo, dir);
  // Corrupt x2.csv with an edge to a carrier that does not exist.
  {
    std::ofstream x2(std::filesystem::path(dir) / "x2.csv", std::ios::app);
    x2 << "0,999\n";
  }
  EXPECT_THROW(io::load_topology(dir), std::invalid_argument);
  std::filesystem::remove_all(dir);
}

TEST(InventoryIo, AssignmentWithoutGroundTruthColumnsDefaults) {
  const std::string dir = temp_dir("plain");
  const netsim::Topology topo = test::tiny_topology();
  const auto catalog = config::ParamCatalog::standard();
  io::save_topology(topo, dir);
  {
    std::ofstream cfg(std::filesystem::path(dir) / "config.csv");
    cfg << "parameter,from,to,value\n";
    cfg << "pMax,0,,30\n";
    cfg << "hysA3Offset,0,2,2.5\n";  // edge 0 -> 2 exists (same frequency)
  }
  const config::ConfigAssignment loaded = io::load_assignment(topo, catalog, dir);
  const config::ParamId pmax = catalog.id_of("pMax");
  const auto& ids = catalog.singular_ids();
  const std::size_t pos = static_cast<std::size_t>(
      std::find(ids.begin(), ids.end(), pmax) - ids.begin());
  EXPECT_EQ(loaded.singular[pos].value[0], catalog.at(pmax).domain.nearest_index(30.0));
  EXPECT_EQ(loaded.singular[pos].intended_of(0), loaded.singular[pos].value[0]);
  EXPECT_EQ(loaded.singular[pos].cause_at(loaded.singular[pos].find(0)), config::Cause::kDefault);
  EXPECT_EQ(loaded.total_configured(), 2u);
  std::filesystem::remove_all(dir);
}

TEST(InventoryIo, RowsInAnyOrderLoadInEntityOrderAndTheLastRowWins) {
  const std::string dir = temp_dir("order");
  const netsim::Topology topo = test::tiny_topology();
  const auto catalog = config::ParamCatalog::standard();
  io::save_topology(topo, dir);
  {
    std::ofstream cfg(std::filesystem::path(dir) / "config.csv");
    cfg << "parameter,from,to,value\n";
    cfg << "pMax,3,,30\n";
    cfg << "pMax,1,,20\n";
    cfg << "pMax,3,,10\n";  // a later row for carrier 3 replaces the first
    cfg << "pMax,0,,5\n";
  }
  const config::ConfigAssignment loaded = io::load_assignment(topo, catalog, dir);
  const config::ParamId pmax = catalog.id_of("pMax");
  const auto& ids = catalog.singular_ids();
  const config::ParamColumn& col = loaded.singular[static_cast<std::size_t>(
      std::find(ids.begin(), ids.end(), pmax) - ids.begin())];
  const config::ValueDomain& domain = catalog.at(pmax).domain;
  ASSERT_EQ(col.configured_count(), 3u);
  EXPECT_EQ(col.entity(0), 0u);
  EXPECT_EQ(col.entity(1), 1u);
  EXPECT_EQ(col.entity(2), 3u);
  EXPECT_EQ(col.value_at(0), domain.nearest_index(5.0));
  EXPECT_EQ(col.value_at(1), domain.nearest_index(20.0));
  EXPECT_EQ(col.value_at(2), domain.nearest_index(10.0));
  EXPECT_EQ(col.value[2], config::kUnset);
  std::filesystem::remove_all(dir);
}

TEST(InventoryIo, MissingColumnErrorNamesFileAndColumn) {
  const std::string dir = temp_dir("nocol");
  const netsim::Topology topo = test::tiny_topology();
  io::save_topology(topo, dir);
  {
    std::ofstream markets(std::filesystem::path(dir) / "markets.csv");
    markets << "id,name,lat,lon,size_multiplier\n";  // timezone dropped
    markets << "0,M,40,-75,1\n0,N,41,-90,1\n";
  }
  const std::string msg = thrown_message([&] { io::load_topology(dir); });
  EXPECT_NE(msg.find("markets.csv"), std::string::npos) << msg;
  EXPECT_NE(msg.find("timezone"), std::string::npos) << msg;
  std::filesystem::remove_all(dir);
}

TEST(InventoryIo, OutOfDomainValueErrorNamesFileAndLine) {
  const std::string dir = temp_dir("badlat");
  netsim::Topology topo = test::tiny_topology();
  io::save_topology(topo, dir);
  {
    std::ofstream enodebs(std::filesystem::path(dir) / "enodebs.csv");
    enodebs << "id,market,lat,lon,morphology,terrain\n";
    enodebs << "0,0,40.0,-75.0,urban,flat\n";
    enodebs << "1,0,140.0,-75.0,urban,flat\n";  // latitude out of range
    enodebs << "2,1,41.0,-90.0,urban,flat\n";
  }
  const std::string msg = thrown_message([&] { io::load_topology(dir); });
  EXPECT_NE(msg.find("enodebs.csv line 3"), std::string::npos) << msg;
  EXPECT_NE(msg.find("lat"), std::string::npos) << msg;
  std::filesystem::remove_all(dir);
}

TEST(InventoryIo, UnknownEnumValueErrorNamesFileAndLine) {
  const std::string dir = temp_dir("badenum");
  const netsim::Topology topo = test::tiny_topology();
  io::save_topology(topo, dir);
  {
    std::ofstream enodebs(std::filesystem::path(dir) / "enodebs.csv");
    enodebs << "id,market,lat,lon,morphology,terrain\n";
    enodebs << "0,0,40.0,-75.0,urbane,flat\n";  // typo'd morphology
    enodebs << "1,0,40.2,-75.0,urban,flat\n";
    enodebs << "2,1,41.0,-90.0,urban,flat\n";
  }
  const std::string msg = thrown_message([&] { io::load_topology(dir); });
  EXPECT_NE(msg.find("enodebs.csv line 2"), std::string::npos) << msg;
  EXPECT_NE(msg.find("urbane"), std::string::npos) << msg;
  std::filesystem::remove_all(dir);
}

TEST(InventoryIo, SelfLoopEdgesAreSkippedWithWarning) {
  const std::string dir = temp_dir("selfloop");
  const netsim::Topology original = test::tiny_topology();
  io::save_topology(original, dir);
  {
    std::ofstream x2(std::filesystem::path(dir) / "x2.csv", std::ios::app);
    x2 << "3,3\n";  // meaningless self-relation: skip, don't reject
  }
  const netsim::Topology loaded = io::load_topology(dir);
  EXPECT_EQ(loaded.edge_count(), original.edge_count());
  std::filesystem::remove_all(dir);
}

TEST(InventoryIo, UnknownConfigParameterIsSkippedWithWarning) {
  const std::string dir = temp_dir("unkparam");
  const netsim::Topology topo = test::tiny_topology();
  const auto catalog = config::ParamCatalog::standard();
  io::save_topology(topo, dir);
  {
    std::ofstream cfg(std::filesystem::path(dir) / "config.csv");
    cfg << "parameter,from,to,value\n";
    cfg << "vendorSecretKnob,0,,17\n";  // not in the catalog: skipped
    cfg << "pMax,0,,30\n";
  }
  const config::ConfigAssignment loaded = io::load_assignment(topo, catalog, dir);
  EXPECT_EQ(loaded.total_configured(), 1u);  // only the pMax row landed
  std::filesystem::remove_all(dir);
}

TEST(InventoryIo, AssignmentRejectsUnknownEntities) {
  const std::string dir = temp_dir("badcfg");
  const netsim::Topology topo = test::tiny_topology();
  const auto catalog = config::ParamCatalog::standard();
  io::save_topology(topo, dir);
  {
    std::ofstream cfg(std::filesystem::path(dir) / "config.csv");
    cfg << "parameter,from,to,value\n";
    cfg << "hysA3Offset,0,5,2.0\n";  // 0 -> 5 is not an X2 relation
  }
  EXPECT_THROW(io::load_assignment(topo, catalog, dir), std::invalid_argument);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace auric
