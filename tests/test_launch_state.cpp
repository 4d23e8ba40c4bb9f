#include "io/launch_state.h"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <random>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "util/log.h"

namespace auric::io {
namespace {

std::string temp_dir(const char* tag) {
  const auto dir =
      std::filesystem::temp_directory_path() / ("auric_launch_state_" + std::string(tag));
  std::filesystem::remove_all(dir);
  return dir.string();
}

std::string thrown_message(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

LaunchState sample_state() {
  LaunchState state;
  state.journal = {{3, 17}, {9, 2}};
  state.deferred = {4, 1, 8};
  state.quarantine = {{2, 1}, {7, 2}};
  state.breaker.state = util::CircuitBreaker::State::kOpen;
  state.breaker.consecutive_failures = 3;
  state.breaker.cooldown_remaining = 2;
  state.breaker.trips = 1;
  state.breaker.refusals = 4;
  state.ems.pushes_executed = 123;
  state.ems.lock_cycles = 7;
  state.ems.fault_stream = 0xDEADBEEFULL;
  state.ems.flap_stream = 42;
  state.ems.burst_stream = 0xFFFFFFFFFFFFFFFFULL;
  state.ems.unlocked = {1, 5};
  state.ems.repaired = {6};
  state.applied_slots = {{false, 2, 11, 5}, {true, 0, 190, 3}};
  state.relearn_applied_slots = {{false, 2, 11, 4}};
  state.progress = {{"day", "12"}, {"kpi", "0x1.8p-1"}};
  return state;
}

TEST(LaunchStateStore, ExistsOnlyAfterCommit) {
  const LaunchStateStore store(temp_dir("exists"));
  EXPECT_FALSE(store.exists());
  store.save(sample_state());
  EXPECT_TRUE(store.exists());
  store.clear();
  EXPECT_FALSE(store.exists());
}

TEST(LaunchStateStore, RoundTripsEveryField) {
  const LaunchStateStore store(temp_dir("roundtrip"));
  const LaunchState saved = sample_state();
  store.save(saved);
  const LaunchState loaded = store.load();

  EXPECT_EQ(loaded.journal, saved.journal);
  EXPECT_EQ(loaded.deferred, saved.deferred);
  EXPECT_EQ(loaded.quarantine, saved.quarantine);
  EXPECT_EQ(loaded.breaker.state, saved.breaker.state);
  EXPECT_EQ(loaded.breaker.consecutive_failures, saved.breaker.consecutive_failures);
  EXPECT_EQ(loaded.breaker.cooldown_remaining, saved.breaker.cooldown_remaining);
  EXPECT_EQ(loaded.breaker.trips, saved.breaker.trips);
  EXPECT_EQ(loaded.breaker.refusals, saved.breaker.refusals);
  EXPECT_EQ(loaded.ems.pushes_executed, saved.ems.pushes_executed);
  EXPECT_EQ(loaded.ems.fault_stream, saved.ems.fault_stream);
  EXPECT_EQ(loaded.ems.flap_stream, saved.ems.flap_stream);
  EXPECT_EQ(loaded.ems.burst_stream, saved.ems.burst_stream);
  EXPECT_EQ(loaded.ems.unlocked, saved.ems.unlocked);
  EXPECT_EQ(loaded.ems.repaired, saved.ems.repaired);
  ASSERT_EQ(loaded.applied_slots.size(), saved.applied_slots.size());
  for (std::size_t i = 0; i < saved.applied_slots.size(); ++i) {
    EXPECT_EQ(loaded.applied_slots[i].pairwise, saved.applied_slots[i].pairwise);
    EXPECT_EQ(loaded.applied_slots[i].param_pos, saved.applied_slots[i].param_pos);
    EXPECT_EQ(loaded.applied_slots[i].entity, saved.applied_slots[i].entity);
    EXPECT_EQ(loaded.applied_slots[i].value, saved.applied_slots[i].value);
  }
  EXPECT_EQ(loaded.relearn_applied_slots.size(), saved.relearn_applied_slots.size());
  EXPECT_EQ(loaded.progress, saved.progress);
  ASSERT_NE(loaded.find_progress("kpi"), nullptr);
  EXPECT_EQ(*loaded.find_progress("kpi"), "0x1.8p-1");
  EXPECT_EQ(loaded.find_progress("missing"), nullptr);
}

TEST(LaunchStateStore, SaveOverwritesPreviousCheckpoint) {
  const LaunchStateStore store(temp_dir("overwrite"));
  store.save(sample_state());
  LaunchState second;  // mostly empty
  second.progress = {{"day", "13"}};
  store.save(second);
  const LaunchState loaded = store.load();
  EXPECT_TRUE(loaded.journal.empty());
  EXPECT_TRUE(loaded.deferred.empty());
  ASSERT_NE(loaded.find_progress("day"), nullptr);
  EXPECT_EQ(*loaded.find_progress("day"), "13");
}

void corrupt(const std::string& dir, const char* file, const std::string& content) {
  std::ofstream out(std::filesystem::path(dir) / file);
  out << content;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::vector<std::filesystem::path> log_files(const std::string& dir, const std::string& id) {
  std::vector<std::filesystem::path> out;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(id + ".log", 0) == 0 && name.find(".csv") != std::string::npos) {
      out.push_back(entry.path());
    }
  }
  return out;
}

/// Sets the sealed byte length of stream `id` in progress.csv text.
std::string with_seal(const std::string& progress, const std::string& id, std::uint64_t sealed) {
  const std::string row = "__log." + id + ",";
  const std::size_t at = progress.find(row);
  if (at == std::string::npos) return progress;
  const std::size_t value = at + row.size();
  const std::size_t c1 = progress.find(':', value);
  const std::size_t c2 = progress.find(':', c1 + 1);
  return progress.substr(0, c1 + 1) + std::to_string(sealed) + progress.substr(c2);
}

/// Appends `record` to stream `id`'s log and extends its seal in
/// progress.csv, so the record counts as committed. Returns the log's file
/// name and the record's 1-based line number.
std::pair<std::string, std::size_t> append_committed(const std::string& dir, const std::string& id,
                                                     const std::string& record) {
  const auto logs = log_files(dir, id);
  if (logs.size() != 1) throw std::logic_error("expected one log for stream " + id);
  std::string content = read_file(logs[0]) + record;
  corrupt(dir, logs[0].filename().string().c_str(), content);
  const auto progress = std::filesystem::path(dir) / "progress.csv";
  corrupt(dir, "progress.csv", with_seal(read_file(progress), id, content.size()));
  const auto lines = static_cast<std::size_t>(std::count(content.begin(), content.end(), '\n'));
  return {logs[0].filename().string(), lines};
}

/// Loads `store` and expects a rejection that names the file and line in
/// `where` and contains `detail`.
void expect_rejected_at(const LaunchStateStore& store,
                        const std::pair<std::string, std::size_t>& where,
                        const std::string& detail) {
  const std::string msg = thrown_message([&] { (void)store.load(); });
  EXPECT_NE(msg.find(where.first), std::string::npos) << msg;
  EXPECT_NE(msg.find("line " + std::to_string(where.second) + ":"), std::string::npos) << msg;
  EXPECT_NE(msg.find(detail), std::string::npos) << msg;
}

TEST(LaunchStateStore, MalformedJournalNamesFileAndLine) {
  const LaunchStateStore store(temp_dir("bad_journal"));
  store.save(sample_state());
  const auto where = append_committed(store.dir(), "journal", "u,xyz,2,,,\n");
  EXPECT_EQ(where.first, "journal.log1.csv");
  expect_rejected_at(store, where, "'xyz' is not an integer");
}

TEST(LaunchStateStore, EraseOfAbsentJournalKeyRejected) {
  // Upserts make repeated keys legal in a log; the replay-side invariant is
  // that an erase names a key the log holds at that point.
  const LaunchStateStore store(temp_dir("erase_absent"));
  store.save(sample_state());
  const auto where = append_committed(store.dir(), "journal", "e,5,,,,\n");
  expect_rejected_at(store, where, "erase of absent key 5");
}

TEST(LaunchStateStore, UnknownBreakerStateNamesFileAndLine) {
  const LaunchStateStore store(temp_dir("bad_breaker"));
  store.save(sample_state());
  const auto where = append_committed(store.dir(), "breaker", "set,wedged,0,0,0,0\n");
  expect_rejected_at(store, where, "wedged");
}

TEST(LaunchStateStore, UnknownEmsKeyNamesFileAndLine) {
  const LaunchStateStore store(temp_dir("bad_ems"));
  store.save(sample_state());
  const auto where = append_committed(store.dir(), "ems", "set,warp_factor,9,,,\n");
  expect_rejected_at(store, where, "unknown key 'warp_factor'");
}

TEST(LaunchStateStore, SlotWritePairwiseFlagValidated) {
  const LaunchStateStore store(temp_dir("bad_applied"));
  store.save(sample_state());
  const auto where = append_committed(store.dir(), "applied", "u,2,0,0,1,\n");
  expect_rejected_at(store, where, "value 2 outside [0, 1]");
}

TEST(LaunchStateStore, DuplicateProgressKeyRejected) {
  const LaunchStateStore store(temp_dir("dup_progress"));
  store.save(sample_state());
  corrupt(store.dir(), "progress.csv", "key,value\nday,1\nday,2\n");
  const std::string msg = thrown_message([&] { (void)store.load(); });
  EXPECT_NE(msg.find("progress.csv"), std::string::npos) << msg;
  EXPECT_NE(msg.find("duplicate progress key"), std::string::npos) << msg;
}

TEST(LaunchStateStore, SealLessProgressRefused) {
  // A progress.csv with no __log. seals is the pre-journal layout; it must
  // be refused outright, not read as an empty checkpoint.
  const LaunchStateStore store(temp_dir("sealless"));
  store.save(sample_state());
  corrupt(store.dir(), "progress.csv", "key,value\nday,12\n");
  const std::string msg = thrown_message([&] { (void)store.load(); });
  EXPECT_NE(msg.find("progress.csv"), std::string::npos) << msg;
  EXPECT_NE(msg.find("pre-journal checkpoint layout is no longer read"), std::string::npos)
      << msg;
  EXPECT_THROW((void)store.load(), std::invalid_argument);
}

TEST(LaunchStateStore, RewriteLayoutOptionRejected) {
  LaunchStateStore::Options options;
  options.journal = false;
  EXPECT_THROW(LaunchStateStore(temp_dir("no_rewrite"), options), std::invalid_argument);
}

TEST(LaunchStateStore, MissingFileFailsLoudly) {
  const LaunchStateStore store(temp_dir("missing_file"));
  store.save(sample_state());
  const auto logs = log_files(store.dir(), "ems");
  ASSERT_EQ(logs.size(), 1u);
  std::filesystem::remove(logs[0]);
  EXPECT_THROW((void)store.load(), std::runtime_error);
}

LaunchState sharded_state() {
  LaunchState state;
  // Shard 0 and shard 1 carry deliberately different content so a swapped
  // or merged load would be caught.
  LaunchState::ShardState shard0;
  shard0.journal = {{3, 17}};
  shard0.deferred = {4};
  shard0.quarantine = {{2, 1}};
  shard0.breaker.state = util::CircuitBreaker::State::kOpen;
  shard0.breaker.trips = 1;
  shard0.ems.pushes_executed = 10;
  shard0.ems.fault_stream = 0xAAAA;
  shard0.ems.unlocked = {1};
  LaunchState::ShardState shard1;
  shard1.journal = {{9, 2}, {11, 5}};
  shard1.deferred = {};
  shard1.quarantine = {};
  shard1.breaker.state = util::CircuitBreaker::State::kClosed;
  shard1.ems.pushes_executed = 99;
  shard1.ems.fault_stream = 0xBBBB;
  shard1.ems.repaired = {6};
  state.shards = {shard0, shard1};
  state.applied_slots = {{false, 2, 11, 5}};
  state.progress = {{"day", "3"}, {"shards_note", "two"}};
  return state;
}

TEST(LaunchStateStore, ShardedStateRoundTripsPerShard) {
  const LaunchStateStore store(temp_dir("sharded_roundtrip"));
  const LaunchState saved = sharded_state();
  store.save(saved);
  const LaunchState loaded = store.load();

  ASSERT_EQ(loaded.shards.size(), 2u);
  for (std::size_t k = 0; k < 2; ++k) {
    EXPECT_EQ(loaded.shards[k].journal, saved.shards[k].journal) << "shard " << k;
    EXPECT_EQ(loaded.shards[k].deferred, saved.shards[k].deferred) << "shard " << k;
    EXPECT_EQ(loaded.shards[k].quarantine, saved.shards[k].quarantine) << "shard " << k;
    EXPECT_EQ(loaded.shards[k].breaker.state, saved.shards[k].breaker.state) << "shard " << k;
    EXPECT_EQ(loaded.shards[k].breaker.trips, saved.shards[k].breaker.trips) << "shard " << k;
    EXPECT_EQ(loaded.shards[k].ems.pushes_executed, saved.shards[k].ems.pushes_executed);
    EXPECT_EQ(loaded.shards[k].ems.fault_stream, saved.shards[k].ems.fault_stream);
    EXPECT_EQ(loaded.shards[k].ems.unlocked, saved.shards[k].ems.unlocked);
    EXPECT_EQ(loaded.shards[k].ems.repaired, saved.shards[k].ems.repaired);
  }
  // The reserved layout marker is store-internal, never caller progress.
  EXPECT_EQ(loaded.progress, saved.progress);
  EXPECT_EQ(loaded.find_progress("__shards"), nullptr);
}

TEST(LaunchStateStore, ShardedLayoutUsesSuffixedFiles) {
  const LaunchStateStore store(temp_dir("sharded_files"));
  store.save(sharded_state());
  const std::filesystem::path dir(store.dir());
  for (const char* base : {"journal", "deferred", "quarantine", "breaker", "ems"}) {
    EXPECT_TRUE(std::filesystem::exists(dir / (std::string(base) + ".0.log1.csv"))) << base;
    EXPECT_TRUE(std::filesystem::exists(dir / (std::string(base) + ".1.log1.csv"))) << base;
    EXPECT_TRUE(log_files(store.dir(), base).empty())
        << base << " flat log must not be written in sharded mode";
  }
}

TEST(LaunchStateStore, SingleShardLayoutHasNoShardsMarker) {
  const LaunchStateStore store(temp_dir("flat_marker"));
  store.save(sample_state());  // shards empty -> flat layout
  const std::string contents = read_file(std::filesystem::path(store.dir()) / "progress.csv");
  EXPECT_EQ(contents.find("__shards"), std::string::npos);
  const LaunchState loaded = store.load();
  EXPECT_TRUE(loaded.shards.empty());
}

TEST(LaunchStateStore, ReservedProgressKeyRejected) {
  const LaunchStateStore store(temp_dir("reserved_key"));
  LaunchState state = sample_state();
  state.progress.emplace_back("__shards", "4");
  EXPECT_THROW(store.save(state), std::invalid_argument);
}

TEST(LaunchStateStore, MissingShardFileFailsLoudly) {
  const LaunchStateStore store(temp_dir("missing_shard_file"));
  store.save(sharded_state());
  std::filesystem::remove(std::filesystem::path(store.dir()) / "ems.1.log1.csv");
  EXPECT_THROW((void)store.load(), std::runtime_error);
}

// --- Journal-layout behavior ----------------------------------------------

std::uint64_t checkpoint_bytes_total() {
  return obs::MetricsRegistry::global().counter("auric_checkpoint_bytes_total").value();
}

TEST(LaunchStateStore, JournalLayoutAppendsDeltasInsideCommit) {
  const LaunchStateStore store(temp_dir("journal_appends"));
  LaunchState state = sample_state();
  store.save(state);
  ASSERT_EQ(log_files(store.dir(), "journal").size(), 1u);
  const auto log_path = log_files(store.dir(), "journal")[0];
  const auto snapshot_size = std::filesystem::file_size(log_path);

  state.journal.push_back({12, 1});
  state.progress = {{"day", "13"}, {"kpi", "0x1.8p-1"}};
  store.save(state);
  // Same generation file, grown by one op record — not rewritten.
  ASSERT_TRUE(std::filesystem::exists(log_path));
  EXPECT_GT(std::filesystem::file_size(log_path), snapshot_size);

  // The seal in progress.csv is part of the commit.
  std::ifstream progress(std::filesystem::path(store.dir()) / "progress.csv");
  const std::string contents((std::istreambuf_iterator<char>(progress)),
                             std::istreambuf_iterator<char>());
  EXPECT_NE(contents.find("__log.journal"), std::string::npos);

  const LaunchState loaded = store.load();
  EXPECT_EQ(loaded.journal, state.journal);
  EXPECT_EQ(loaded.progress, state.progress);
}

TEST(LaunchStateStore, DeltaSaveWritesAFifthOfTheSnapshotBytes) {
  // A grown state image (the "400K carriers after a month" shape, scaled
  // down) with a one-launch delta: the delta save must write at most 1/5 of
  // the bytes of the first, full-snapshot save.
  LaunchState grown;
  for (netsim::CarrierId c = 0; c < 2000; ++c) grown.journal.push_back({c, 64});
  for (netsim::CarrierId c = 0; c < 500; ++c) grown.quarantine.push_back({c * 3, 1});
  for (std::uint32_t p = 0; p < 1500; ++p) grown.applied_slots.push_back({false, p, 77, 3});
  grown.ems.pushes_executed = 123456;
  grown.progress = {{"day", "29"}, {"kpi", "0x1.8p-1"}};

  LaunchState next = grown;
  next.journal.push_back({5000, 7});
  next.applied_slots.push_back({true, 0, 9, 2});
  next.ems.pushes_executed += 3;
  next.progress = {{"day", "30"}, {"kpi", "0x1.9p-1"}};

  const LaunchStateStore store(temp_dir("bytes_delta"));
  const std::uint64_t before = checkpoint_bytes_total();
  store.save(grown);
  const std::uint64_t snapshot_bytes = checkpoint_bytes_total() - before;
  store.save(next);
  const std::uint64_t delta_bytes = checkpoint_bytes_total() - before - snapshot_bytes;

  ASSERT_GT(delta_bytes, 0u);
  EXPECT_GE(snapshot_bytes, 5 * delta_bytes)
      << "snapshot save wrote " << snapshot_bytes << " bytes, delta save " << delta_bytes;
  EXPECT_EQ(store.load().journal, next.journal);
}

TEST(LaunchStateStore, CompactionAdvancesGenerationAndDropsOldLog) {
  LaunchStateStore::Options options;
  options.compact_min_bytes = 1;  // any appended tail beyond one byte compacts
  options.compact_factor = 0.0;
  const LaunchStateStore store(temp_dir("compaction"), options);
  LaunchState state = sample_state();
  store.save(state);
  const auto gen1 = log_files(store.dir(), "journal");
  ASSERT_EQ(gen1.size(), 1u);

  state.journal.push_back({21, 9});
  store.save(state);
  const auto gen2 = log_files(store.dir(), "journal");
  ASSERT_EQ(gen2.size(), 1u);
  EXPECT_NE(gen1[0], gen2[0]) << "compaction must move to a fresh generation";
  EXPECT_FALSE(std::filesystem::exists(gen1[0])) << "old generation must be cleaned up";

  const LaunchState loaded = store.load();
  EXPECT_EQ(loaded.journal, state.journal);
}

TEST(LaunchStateStore, TornJournalTailTruncatedOnLoad) {
  const LaunchStateStore store(temp_dir("torn_tail"));
  LaunchState state = sample_state();
  store.save(state);

  // A crash after the append but before the commit leaves bytes past the
  // seal; recovery must cut them off and replay only the committed region.
  const auto logs = log_files(store.dir(), "journal");
  ASSERT_EQ(logs.size(), 1u);
  const auto sealed_size = std::filesystem::file_size(logs[0]);
  {
    std::ofstream out(logs[0], std::ios::app);
    out << "u,999,1\nu,10";  // one whole uncommitted record + a torn one
  }

  const LaunchStateStore reopened(store.dir());
  const LaunchState loaded = reopened.load();
  EXPECT_EQ(loaded.journal, state.journal);
  EXPECT_EQ(reopened.load_stats().torn_tails_truncated, 1u);
  EXPECT_EQ(std::filesystem::file_size(logs[0]), sealed_size) << "tail must be cut off on disk";
}

TEST(LaunchStateStore, FreshStoreOverExistingJournalRebaselines) {
  const std::string dir = temp_dir("rebaseline");
  LaunchState state = sample_state();
  {
    const LaunchStateStore first(dir);
    first.save(state);
    state.journal.push_back({40, 2});
    first.save(state);
  }
  // A restarted process saves without loading: the store must not trust any
  // stale in-memory image, and the result must still round-trip.
  const LaunchStateStore second(dir);
  state.journal.push_back({41, 3});
  second.save(state);
  EXPECT_EQ(second.load().journal, state.journal);
}

TEST(LaunchStateStore, UnsortedJournalRejectedInJournalMode) {
  const LaunchStateStore store(temp_dir("unsorted"));
  LaunchState state = sample_state();
  state.journal = {{9, 2}, {3, 17}};
  EXPECT_THROW(store.save(state), std::invalid_argument);
}

TEST(LaunchStateStore, CrashPointCatalogIsStable) {
  const std::vector<std::string> expected = {
      "checkpoint.snapshot_write", "checkpoint.snapshot_fsync", "checkpoint.snapshot_rename",
      "checkpoint.append",         "checkpoint.append_fsync",   "checkpoint.predir_fsync",
      "checkpoint.progress_write", "checkpoint.progress_fsync", "checkpoint.progress_rename",
      "checkpoint.dir_fsync",      "checkpoint.cleanup",        "recover.truncate"};
  EXPECT_EQ(LaunchStateStore::crash_point_catalog(), expected);
}

TEST(LaunchStateStore, ClearRemovesShardFiles) {
  const LaunchStateStore store(temp_dir("sharded_clear"));
  store.save(sharded_state());
  store.clear();
  EXPECT_FALSE(store.exists());
  EXPECT_TRUE(std::filesystem::is_empty(store.dir()));
}

// --- Seeded op-log fuzz: hostile bytes in a committed checkpoint ---

/// A checkpoint directory as file name -> bytes.
using DirImage = std::map<std::string, std::string>;

DirImage read_dir(const std::string& dir) {
  DirImage image;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    image[entry.path().filename().string()] = read_file(entry.path());
  }
  return image;
}

void write_dir(const std::string& dir, const DirImage& image) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  for (const auto& [name, bytes] : image) {
    std::ofstream out(std::filesystem::path(dir) / name, std::ios::binary);
    out << bytes;
  }
}

/// A committed checkpoint whose logs hold snapshots plus appended tails of
/// every op kind (upserts, erases, pops, cuts, breaker sets).
DirImage committed_checkpoint(const std::string& dir, bool sharded) {
  LaunchStateStore::Options options;
  options.fsync = false;
  const LaunchStateStore store(dir, options);
  LaunchState state = sharded ? sharded_state() : sample_state();
  store.save(state);
  for (int step = 0; step < 3; ++step) {
    const auto churn = [step](auto& journal, auto& deferred, auto& quarantine, auto& breaker,
                              auto& ems) {
      if (!journal.empty()) journal.erase(journal.begin());
      journal.push_back({100 + step, static_cast<std::uint64_t>(step)});
      if (!deferred.empty()) deferred.erase(deferred.begin());
      deferred.push_back(50 + step);
      quarantine.push_back({200 + step, step + 1});
      breaker.state = step % 2 == 0 ? util::CircuitBreaker::State::kHalfOpen
                                    : util::CircuitBreaker::State::kClosed;
      breaker.trips += 1;
      ems.pushes_executed += 7;
      if (!ems.unlocked.empty()) ems.unlocked.pop_back();
      ems.repaired.push_back(300 + step);
    };
    if (sharded) {
      LaunchState::ShardState& b = state.shards[static_cast<std::size_t>(step) % 2];
      churn(b.journal, b.deferred, b.quarantine, b.breaker, b.ems);
    } else {
      churn(state.journal, state.deferred, state.quarantine, state.breaker, state.ems);
    }
    state.applied_slots.erase(state.applied_slots.begin());
    state.applied_slots.push_back({true, 5, static_cast<std::uint64_t>(400 + step), step});
    state.relearn_applied_slots = state.applied_slots;
    state.progress[0].second = std::to_string(20 + step);
    store.save(state);
  }
  return read_dir(dir);
}

/// Splits at `sep`, keeping empty parts, so join(split(t, c), c) == t.
std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts(1);
  for (const char c : text) {
    if (c == sep) {
      parts.emplace_back();
    } else {
      parts.back() += c;
    }
  }
  return parts;
}

std::string join(const std::vector<std::string>& parts, char sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

/// One mutant of `base`. A stream log gets a truncation, a byte flip, a
/// dropped, duplicated or swapped line, or an operand edit, and half the
/// time its seal is extended so the damage counts as committed.
/// progress.csv gets a seal edit: a seal field replaced, a row dropped or
/// duplicated, or the shard count changed.
DirImage mutate(const DirImage& base, std::mt19937_64& rng) {
  const auto pick = [&rng](std::size_t n) { return static_cast<std::size_t>(rng() % n); };
  static const std::vector<std::string> kOperands = {
      "",  "0", "1", "2", "-1", "+3", " 4", "7x", "x", "2147483647", "2147483648",
      "18446744073709551615", "18446744073709551616", "u", "e", "push", "pop", "clear",
      "set", "add", "cut", "open", "half_open", "wedged", "unlocked", "warp_factor",
      "pushes_executed", "\"q\"", "\"", "a\"b"};
  const auto operand = [&] { return kOperands[pick(kOperands.size())]; };
  DirImage image = base;
  auto it = std::next(image.begin(), static_cast<std::ptrdiff_t>(pick(image.size())));
  const std::string& name = it->first;
  std::string& bytes = it->second;
  std::vector<std::string> lines = split(bytes, '\n');
  const auto line_at = [&](std::size_t i) {
    return lines.begin() + static_cast<std::ptrdiff_t>(i);
  };

  if (name == "progress.csv") {
    const std::size_t row = 1 + pick(lines.size() - 1);
    std::string& line = lines[row];
    switch (pick(4)) {
      case 0: {
        std::vector<std::string> cells = split(line, ',');
        std::vector<std::string> seal = split(cells.back(), ':');
        std::string& field = seal[pick(seal.size())];
        const std::uint64_t was = field.find_first_not_of("0123456789") == std::string::npos
                                      ? std::stoull("0" + field)
                                      : 0;
        const std::string values[] = {std::to_string(was + 1), std::to_string(was - 1),
                                      std::to_string(was + 1 + pick(64)), operand()};
        field = values[pick(4)];
        cells.back() = join(seal, ':');
        line = join(cells, ',');
        break;
      }
      case 1:
        lines.erase(line_at(row));
        break;
      case 2:
        lines.insert(line_at(row), line);
        break;
      default:
        line = "__shards," + operand();
        break;
    }
    bytes = join(lines, '\n');
    return image;
  }

  switch (pick(6)) {
    case 0:
      bytes.resize(pick(bytes.size() + 1));
      break;
    case 1:
      bytes[pick(bytes.size())] = static_cast<char>(pick(256));
      break;
    case 2:
      lines.erase(line_at(pick(lines.size())));
      bytes = join(lines, '\n');
      break;
    case 3: {
      const std::size_t at = pick(lines.size());
      lines.insert(line_at(at), lines[at]);
      bytes = join(lines, '\n');
      break;
    }
    case 4:
      std::swap(lines[pick(lines.size())], lines[pick(lines.size())]);
      bytes = join(lines, '\n');
      break;
    default: {
      std::string& line = lines[pick(lines.size())];
      std::vector<std::string> fields = split(line, ',');
      fields[pick(fields.size())] = operand();
      line = join(fields, ',');
      bytes = join(lines, '\n');
      break;
    }
  }
  if (pick(2) == 0) {
    const std::string stream = name.substr(0, name.rfind(".log"));
    image.at("progress.csv") = with_seal(image.at("progress.csv"), stream, bytes.size());
  }
  return image;
}

TEST(LaunchStateStore, SeededFuzzedCheckpointsLoadOrFailNamingAFile) {
  std::mt19937_64 rng(20211);
  const std::string dir = temp_dir("fuzz_run");
  // Torn tails past a seal are repaired with a warning; keep the corpus quiet.
  const util::LogLevel level = util::log_level();
  util::set_log_level(util::LogLevel::kError);
  std::size_t loaded = 0;
  std::size_t rejected = 0;
  for (const bool sharded : {false, true}) {
    const DirImage base = committed_checkpoint(temp_dir("fuzz_base"), sharded);
    ASSERT_EQ(base.size(), sharded ? 13u : 8u);
    for (int i = 0; i < 400; ++i) {
      const DirImage mutant = mutate(base, rng);
      write_dir(dir, mutant);
      SCOPED_TRACE((sharded ? "sharded mutant " : "flat mutant ") + std::to_string(i));
      const LaunchStateStore store(dir);
      try {
        (void)store.load();
        ++loaded;
      } catch (const std::invalid_argument& e) {
        ++rejected;
        EXPECT_NE(std::string(e.what()).find(dir + "/"), std::string::npos) << e.what();
      } catch (const std::runtime_error& e) {
        ++rejected;
        EXPECT_NE(std::string(e.what()).find(dir + "/"), std::string::npos) << e.what();
      }
    }
  }
  util::set_log_level(level);
  // The corpus must exercise both outcomes, mostly the rejecting one.
  EXPECT_GT(loaded, 0u);
  EXPECT_GT(rejected, loaded);
}

}  // namespace
}  // namespace auric::io
