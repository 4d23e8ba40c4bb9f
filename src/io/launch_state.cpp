#include "io/launch_state.h"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>
#include <string_view>
#include <tuple>

#include "io/fault_fs.h"
#include "obs/metrics.h"
#include "util/csv.h"
#include "util/csv_reader.h"
#include "util/log.h"

namespace auric::io {

namespace {

/// Checkpoint instrumentation. writes/bytes/latency cover every committed
/// checkpoint; appends/compactions split out the per-stream log work;
/// torn_tails and replayed_records are the recovery path's evidence trail.
struct CheckpointMetrics {
  obs::Counter& writes;
  obs::Counter& bytes;
  obs::Counter& appends;
  obs::Counter& append_bytes;
  obs::Counter& compactions;
  obs::Counter& torn_tails;
  obs::Counter& replayed_records;
  obs::Histogram& latency_seconds;
};

CheckpointMetrics& checkpoint_metrics() {
  auto& reg = obs::MetricsRegistry::global();
  static CheckpointMetrics m{
      reg.counter("auric_checkpoint_writes_total", "launch-state checkpoints committed"),
      reg.counter("auric_checkpoint_bytes_total", "bytes written across all checkpoint files"),
      reg.counter("auric_checkpoint_appends_total", "journal-mode stream appends"),
      reg.counter("auric_checkpoint_append_bytes_total", "bytes appended to stream journals"),
      reg.counter("auric_checkpoint_compactions_total", "stream journals re-snapshotted"),
      reg.counter("auric_checkpoint_torn_tails_total",
                  "uncommitted journal tails truncated at recovery"),
      reg.counter("auric_checkpoint_replayed_records_total",
                  "journal op records replayed by load()"),
      reg.histogram("auric_checkpoint_write_seconds", obs::default_seconds_bounds(),
                    "end-to-end latency of one launch-state checkpoint (s)")};
  return m;
}

constexpr const char* kProgressFile = "progress.csv";

/// Progress key carrying the shard count of a sharded-layout checkpoint.
/// Living inside progress.csv makes the layout part of the atomic commit: a
/// crash between renames can never leave a checkpoint whose committed
/// progress disagrees about which stream logs to read.
constexpr const char* kShardsKey = "__shards";

/// Progress key prefix sealing one stream journal: `__log.<stream id>` with
/// value `<gen>:<sealed bytes>:<snapshot bytes>`. Every committed checkpoint
/// carries one per stream.
constexpr const char* kLogKeyPrefix = "__log.";

/// Header row of every stream journal. Ops use up to 1 + 5 operand columns.
constexpr const char* kOpHeader = "op,a,b,c,d,e\n";
constexpr std::size_t kOpArity = 6;

// FaultFs crash points, one per faultable operation the store performs.
// Grouped by path; see LaunchStateStore::crash_point_catalog().
constexpr const char* kPtSnapshotWrite = "checkpoint.snapshot_write";
constexpr const char* kPtSnapshotFsync = "checkpoint.snapshot_fsync";
constexpr const char* kPtSnapshotRename = "checkpoint.snapshot_rename";
constexpr const char* kPtAppend = "checkpoint.append";
constexpr const char* kPtAppendFsync = "checkpoint.append_fsync";
constexpr const char* kPtPredirFsync = "checkpoint.predir_fsync";
constexpr const char* kPtProgressWrite = "checkpoint.progress_write";
constexpr const char* kPtProgressFsync = "checkpoint.progress_fsync";
constexpr const char* kPtProgressRename = "checkpoint.progress_rename";
constexpr const char* kPtDirFsync = "checkpoint.dir_fsync";
constexpr const char* kPtCleanup = "checkpoint.cleanup";
constexpr const char* kPtRecoverTruncate = "recover.truncate";

std::string path_in(const std::string& dir, const std::string& file) {
  return (std::filesystem::path(dir) / file).string();
}

/// Stream id of a per-shard block: "journal" flat, "journal.2" for shard 2.
std::string block_id(const char* base, int shard) {
  if (shard < 0) return base;
  return std::string(base) + "." + std::to_string(shard);
}

/// Journal file of stream `id` at generation `gen`: "journal.2.log7.csv".
std::string log_file_name(const std::string& id, std::uint64_t gen) {
  return id + ".log" + std::to_string(gen) + ".csv";
}

bool all_digits(std::string_view text) {
  if (text.empty()) return false;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
  }
  return true;
}

constexpr const char* kStreamBases[] = {"journal", "deferred", "quarantine", "breaker",
                                        "ems", "applied", "relearn"};

/// True when `id` names a stream this store could own ("ems", "ems.3",
/// "applied"); cleanup only ever touches files whose names parse back to one.
bool valid_stream_id(const std::string& id) {
  std::string_view base(id);
  const std::size_t dot = base.find('.');
  if (dot != std::string_view::npos) {
    const std::string_view shard = base.substr(dot + 1);
    base = base.substr(0, dot);
    if (!all_digits(shard)) return false;
    if (base == "applied" || base == "relearn") return false;  // global streams
  }
  for (const char* known : kStreamBases) {
    if (base == known) return true;
  }
  return false;
}

/// Parses "journal.2.log7.csv" -> ("journal.2", 7). False for anything that
/// is not a stream journal of this store.
bool parse_log_name(const std::string& name, std::string& id, std::uint64_t& gen) {
  const std::string_view view(name);
  if (!view.ends_with(".csv")) return false;
  const std::size_t pos = name.rfind(".log");
  if (pos == std::string::npos || pos == 0) return false;
  const std::string_view digits = view.substr(pos + 4, view.size() - 4 - (pos + 4));
  if (!all_digits(digits)) return false;
  id = name.substr(0, pos);
  if (!valid_stream_id(id)) return false;
  gen = std::stoull(std::string(digits));
  return true;
}

std::string csv_body(const std::vector<std::string>& headers,
                     const std::vector<std::vector<std::string>>& rows) {
  std::string body;
  const auto add_row = [&body](const std::vector<std::string>& row) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i > 0) body += ',';
      body += util::CsvWriter::escape(row[i]);
    }
    body += '\n';
  };
  add_row(headers);
  for (const auto& row : rows) add_row(row);
  return body;
}

// --- Op record serialization ----------------------------------------------
// Every stream journal is a CSV of fixed arity kOpArity; unused operand
// columns stay empty. Operands are integers or breaker-state names, so no
// quoting is ever needed on the append path.

void add_op(std::string& out, std::initializer_list<std::string> fields) {
  std::size_t n = 0;
  for (const std::string& field : fields) {
    if (n > 0) out += ',';
    out += field;
    ++n;
  }
  for (; n < kOpArity; ++n) out += ',';
  out += '\n';
}

/// Ordered-map diff for the sorted keyed streams (apply journal,
/// quarantine): emits `u,<key>,<value>` upserts and `e,<key>` erases that
/// transform `prev` into `next`. With prev == nullptr emits the full
/// snapshot of `next` (the empty-to-next delta).
template <typename V>
std::string diff_map(const std::vector<std::pair<netsim::CarrierId, V>>* prev_p,
                     const std::vector<std::pair<netsim::CarrierId, V>>& next) {
  static const std::vector<std::pair<netsim::CarrierId, V>> kEmpty;
  const auto& prev = prev_p != nullptr ? *prev_p : kEmpty;
  std::string ops;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < prev.size() || j < next.size()) {
    if (j == next.size() || (i < prev.size() && prev[i].first < next[j].first)) {
      add_op(ops, {"e", std::to_string(prev[i].first)});
      ++i;
    } else if (i == prev.size() || next[j].first < prev[i].first) {
      add_op(ops, {"u", std::to_string(next[j].first), std::to_string(next[j].second)});
      ++j;
    } else {
      if (prev[i].second != next[j].second) {
        add_op(ops, {"u", std::to_string(next[j].first), std::to_string(next[j].second)});
      }
      ++i;
      ++j;
    }
  }
  return ops;
}

/// Deferred-queue diff. The breaker pops launches from the front and defers
/// new ones at the back, so the committed queue is almost always
/// `prev[d:] + pushes`: emit `pop,<d>` plus the pushes. Anything else (a
/// resort, a requeue) falls back to `clear` + full re-push.
std::string diff_queue(const std::vector<netsim::CarrierId>* prev_p,
                       const std::vector<netsim::CarrierId>& next) {
  static const std::vector<netsim::CarrierId> kEmpty;
  const auto& prev = prev_p != nullptr ? *prev_p : kEmpty;
  std::string ops;
  for (std::size_t d = 0; d <= prev.size(); ++d) {
    const std::size_t keep = prev.size() - d;
    if (keep > next.size() || !std::equal(prev.begin() + static_cast<std::ptrdiff_t>(d),
                                          prev.end(), next.begin())) {
      continue;
    }
    if (d > 0) add_op(ops, {"pop", std::to_string(d)});
    for (std::size_t k = keep; k < next.size(); ++k) {
      add_op(ops, {"push", std::to_string(next[k])});
    }
    return ops;
  }
  add_op(ops, {"clear"});
  for (const netsim::CarrierId carrier : next) {
    add_op(ops, {"push", std::to_string(carrier)});
  }
  return ops;
}

/// Append-mostly list diff (EMS unlocked/repaired): `cut,<key>,<len>` back
/// to the common prefix, then `add,<key>,<carrier>` for the rest.
std::string diff_list(const char* key, const std::vector<netsim::CarrierId>& prev,
                      const std::vector<netsim::CarrierId>& next) {
  std::size_t common = 0;
  while (common < prev.size() && common < next.size() && prev[common] == next[common]) {
    ++common;
  }
  std::string ops;
  if (common < prev.size()) add_op(ops, {"cut", key, std::to_string(common)});
  for (std::size_t k = common; k < next.size(); ++k) {
    add_op(ops, {"add", key, std::to_string(next[k])});
  }
  return ops;
}

std::string diff_ems(const LaunchState::EmsState* prev_p, const LaunchState::EmsState& next) {
  static const LaunchState::EmsState kEmpty;
  const auto& prev = prev_p != nullptr ? *prev_p : kEmpty;
  std::string ops;
  const auto scalar = [&ops](const char* key, std::uint64_t was, std::uint64_t now) {
    if (was != now) add_op(ops, {"set", key, std::to_string(now)});
  };
  scalar("pushes_executed", prev.pushes_executed, next.pushes_executed);
  scalar("lock_cycles", prev.lock_cycles, next.lock_cycles);
  scalar("fault_stream", prev.fault_stream, next.fault_stream);
  scalar("flap_stream", prev.flap_stream, next.flap_stream);
  scalar("burst_stream", prev.burst_stream, next.burst_stream);
  ops += diff_list("unlocked", prev.unlocked, next.unlocked);
  ops += diff_list("repaired", prev.repaired, next.repaired);
  return ops;
}

std::string diff_breaker(const util::CircuitBreaker::Snapshot* prev_p,
                         const util::CircuitBreaker::Snapshot& next) {
  static const util::CircuitBreaker::Snapshot kDefault;
  const auto& prev = prev_p != nullptr ? *prev_p : kDefault;
  if (prev.state == next.state && prev.consecutive_failures == next.consecutive_failures &&
      prev.cooldown_remaining == next.cooldown_remaining && prev.trips == next.trips &&
      prev.refusals == next.refusals) {
    return {};
  }
  std::string ops;
  add_op(ops, {"set", util::circuit_state_name(next.state),
               std::to_string(next.consecutive_failures),
               std::to_string(next.cooldown_remaining), std::to_string(next.trips),
               std::to_string(next.refusals)});
  return ops;
}

using SlotKey = std::tuple<bool, std::uint32_t, std::uint64_t>;

SlotKey slot_key(const LaunchState::SlotWrite& w) {
  return {w.pairwise, w.param_pos, w.entity};
}

std::string diff_slots(const std::vector<LaunchState::SlotWrite>* prev_p,
                       const std::vector<LaunchState::SlotWrite>& next) {
  static const std::vector<LaunchState::SlotWrite> kEmpty;
  const auto& prev = prev_p != nullptr ? *prev_p : kEmpty;
  std::string ops;
  const auto upsert = [&ops](const LaunchState::SlotWrite& w) {
    add_op(ops, {"u", w.pairwise ? "1" : "0", std::to_string(w.param_pos),
                 std::to_string(w.entity), std::to_string(w.value)});
  };
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < prev.size() || j < next.size()) {
    if (j == next.size() || (i < prev.size() && slot_key(prev[i]) < slot_key(next[j]))) {
      const LaunchState::SlotWrite& w = prev[i];
      add_op(ops, {"e", w.pairwise ? "1" : "0", std::to_string(w.param_pos),
                   std::to_string(w.entity)});
      ++i;
    } else if (i == prev.size() || slot_key(next[j]) < slot_key(prev[i])) {
      upsert(next[j]);
      ++j;
    } else {
      if (prev[i].value != next[j].value) upsert(next[j]);
      ++i;
      ++j;
    }
  }
  return ops;
}

/// One persisted stream: its id and the delta serializer (prev == nullptr
/// produces the full snapshot). The set and order of streams is a pure
/// function of the shard count, which is why the shard count lives in the
/// committed progress.csv.
struct StreamDef {
  std::string id;
  std::function<std::string(const LaunchState*, const LaunchState&)> ops;
};

std::vector<StreamDef> stream_defs(std::size_t shard_count) {
  std::vector<StreamDef> defs;
  const int blocks = shard_count == 0 ? 1 : static_cast<int>(shard_count);
  for (int b = 0; b < blocks; ++b) {
    const int shard = shard_count == 0 ? -1 : b;
    const auto shard_of = [shard](const LaunchState& s) -> const LaunchState::ShardState* {
      return shard < 0 ? nullptr : &s.shards[static_cast<std::size_t>(shard)];
    };
    defs.push_back({block_id("journal", shard),
                    [shard_of](const LaunchState* p, const LaunchState& n) {
                      const auto* block = shard_of(n);
                      const auto& next = block != nullptr ? block->journal : n.journal;
                      const auto* prev =
                          p == nullptr ? nullptr
                                       : (block != nullptr ? &shard_of(*p)->journal : &p->journal);
                      return diff_map(prev, next);
                    }});
    defs.push_back({block_id("deferred", shard),
                    [shard_of](const LaunchState* p, const LaunchState& n) {
                      const auto* block = shard_of(n);
                      const auto& next = block != nullptr ? block->deferred : n.deferred;
                      const auto* prev =
                          p == nullptr
                              ? nullptr
                              : (block != nullptr ? &shard_of(*p)->deferred : &p->deferred);
                      return diff_queue(prev, next);
                    }});
    defs.push_back({block_id("quarantine", shard),
                    [shard_of](const LaunchState* p, const LaunchState& n) {
                      const auto* block = shard_of(n);
                      const auto& next = block != nullptr ? block->quarantine : n.quarantine;
                      const auto* prev =
                          p == nullptr
                              ? nullptr
                              : (block != nullptr ? &shard_of(*p)->quarantine : &p->quarantine);
                      return diff_map(prev, next);
                    }});
    defs.push_back({block_id("breaker", shard),
                    [shard_of](const LaunchState* p, const LaunchState& n) {
                      const auto* block = shard_of(n);
                      const auto& next = block != nullptr ? block->breaker : n.breaker;
                      const auto* prev =
                          p == nullptr ? nullptr
                                       : (block != nullptr ? &shard_of(*p)->breaker : &p->breaker);
                      return diff_breaker(prev, next);
                    }});
    defs.push_back({block_id("ems", shard),
                    [shard_of](const LaunchState* p, const LaunchState& n) {
                      const auto* block = shard_of(n);
                      const auto& next = block != nullptr ? block->ems : n.ems;
                      const auto* prev =
                          p == nullptr ? nullptr
                                       : (block != nullptr ? &shard_of(*p)->ems : &p->ems);
                      return diff_ems(prev, next);
                    }});
  }
  defs.push_back({"applied", [](const LaunchState* p, const LaunchState& n) {
                    return diff_slots(p == nullptr ? nullptr : &p->applied_slots,
                                      n.applied_slots);
                  }});
  defs.push_back({"relearn", [](const LaunchState* p, const LaunchState& n) {
                    return diff_slots(p == nullptr ? nullptr : &p->relearn_applied_slots,
                                      n.relearn_applied_slots);
                  }});
  return defs;
}

// --- Op record replay -----------------------------------------------------

std::uint64_t to_u64(const std::string& ctx, const std::string& text) {
  try {
    std::size_t consumed = 0;
    const std::uint64_t value = std::stoull(text, &consumed);
    if (consumed != text.size() || text.empty() || text[0] == '-') {
      throw std::invalid_argument("trailing garbage");
    }
    return value;
  } catch (const std::exception&) {
    throw std::invalid_argument(ctx + ": '" + text + "' is not an unsigned 64-bit integer");
  }
}

long long to_int(const std::string& ctx, const std::string& text, long long lo, long long hi) {
  long long value = 0;
  try {
    std::size_t consumed = 0;
    value = std::stoll(text, &consumed);
    if (consumed != text.size()) throw std::invalid_argument("trailing garbage");
  } catch (const std::exception&) {
    throw std::invalid_argument(ctx + ": '" + text + "' is not an integer");
  }
  if (value < lo || value > hi) {
    throw std::invalid_argument(ctx + ": value " + std::to_string(value) + " outside [" +
                                std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  return value;
}

netsim::CarrierId to_carrier(const std::string& ctx, const std::string& text) {
  return static_cast<netsim::CarrierId>(
      to_int(ctx, text, 0, std::numeric_limits<std::int32_t>::max()));
}

/// Enforces that operand columns past the op's arity are empty — a torn or
/// bit-flipped record must not parse as a shorter valid one.
void require_blank(const std::string& ctx, const std::vector<std::string>& f,
                   std::size_t from) {
  for (std::size_t i = from; i < f.size(); ++i) {
    if (!f[i].empty()) {
      throw std::invalid_argument(ctx + ": unexpected operand '" + f[i] + "'");
    }
  }
}

/// Replayed image of one per-shard block, in map form so upserts and erases
/// are O(log n); canonicalized back to the sorted-vector form at the end.
struct BlockBuilder {
  std::map<netsim::CarrierId, std::uint64_t> journal;
  std::vector<netsim::CarrierId> deferred;
  std::map<netsim::CarrierId, int> quarantine;
  util::CircuitBreaker::Snapshot breaker;
  LaunchState::EmsState ems;
};

template <typename V, typename ParseValue>
void apply_map_op(const std::string& ctx, const std::vector<std::string>& f,
                  std::map<netsim::CarrierId, V>& target, ParseValue parse_value) {
  if (f[0] == "u") {
    require_blank(ctx, f, 3);
    target.insert_or_assign(to_carrier(ctx, f[1]), parse_value(ctx, f[2]));
  } else if (f[0] == "e") {
    require_blank(ctx, f, 2);
    if (target.erase(to_carrier(ctx, f[1])) == 0) {
      throw std::invalid_argument(ctx + ": erase of absent key " + f[1]);
    }
  } else {
    throw std::invalid_argument(ctx + ": unknown op '" + f[0] + "'");
  }
}

void apply_queue_op(const std::string& ctx, const std::vector<std::string>& f,
                    std::vector<netsim::CarrierId>& queue) {
  if (f[0] == "push") {
    require_blank(ctx, f, 2);
    queue.push_back(to_carrier(ctx, f[1]));
  } else if (f[0] == "pop") {
    require_blank(ctx, f, 2);
    const auto n = static_cast<std::size_t>(
        to_int(ctx, f[1], 1, static_cast<long long>(queue.size())));
    queue.erase(queue.begin(), queue.begin() + static_cast<std::ptrdiff_t>(n));
  } else if (f[0] == "clear") {
    require_blank(ctx, f, 1);
    queue.clear();
  } else {
    throw std::invalid_argument(ctx + ": unknown op '" + f[0] + "'");
  }
}

void apply_breaker_op(const std::string& ctx, const std::vector<std::string>& f,
                      util::CircuitBreaker::Snapshot& breaker) {
  if (f[0] != "set") throw std::invalid_argument(ctx + ": unknown op '" + f[0] + "'");
  try {
    breaker.state = util::circuit_state_from_name(f[1]);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(ctx + ": " + e.what());
  }
  breaker.consecutive_failures = static_cast<int>(to_int(ctx, f[2], 0, 1 << 20));
  breaker.cooldown_remaining = static_cast<int>(to_int(ctx, f[3], 0, 1 << 20));
  breaker.trips = static_cast<int>(to_int(ctx, f[4], 0, 1 << 30));
  breaker.refusals = static_cast<int>(to_int(ctx, f[5], 0, 1 << 30));
}

void apply_ems_op(const std::string& ctx, const std::vector<std::string>& f,
                  LaunchState::EmsState& ems) {
  const std::string& key = f[1];
  const auto list_of = [&](const std::string& name) -> std::vector<netsim::CarrierId>& {
    if (name == "unlocked") return ems.unlocked;
    if (name == "repaired") return ems.repaired;
    throw std::invalid_argument(ctx + ": unknown list '" + name + "'");
  };
  if (f[0] == "set") {
    require_blank(ctx, f, 3);
    std::uint64_t* slot = nullptr;
    if (key == "pushes_executed") slot = &ems.pushes_executed;
    else if (key == "lock_cycles") slot = &ems.lock_cycles;
    else if (key == "fault_stream") slot = &ems.fault_stream;
    else if (key == "flap_stream") slot = &ems.flap_stream;
    else if (key == "burst_stream") slot = &ems.burst_stream;
    if (slot == nullptr) throw std::invalid_argument(ctx + ": unknown key '" + key + "'");
    *slot = to_u64(ctx, f[2]);
  } else if (f[0] == "add") {
    require_blank(ctx, f, 3);
    list_of(key).push_back(to_carrier(ctx, f[2]));
  } else if (f[0] == "cut") {
    require_blank(ctx, f, 3);
    auto& list = list_of(key);
    const auto len = static_cast<std::size_t>(
        to_int(ctx, f[2], 0, static_cast<long long>(list.size())));
    list.resize(len);
  } else {
    throw std::invalid_argument(ctx + ": unknown op '" + f[0] + "'");
  }
}

void apply_slots_op(const std::string& ctx, const std::vector<std::string>& f,
                    std::map<SlotKey, std::int32_t>& slots) {
  const auto key_of = [&] {
    return SlotKey{to_int(ctx, f[1], 0, 1) != 0,
                   static_cast<std::uint32_t>(
                       to_int(ctx, f[2], 0, std::numeric_limits<std::uint32_t>::max())),
                   to_u64(ctx, f[3])};
  };
  if (f[0] == "u") {
    require_blank(ctx, f, 5);
    slots.insert_or_assign(key_of(), static_cast<std::int32_t>(to_int(
                                         ctx, f[4], 0, std::numeric_limits<std::int32_t>::max())));
  } else if (f[0] == "e") {
    require_blank(ctx, f, 4);
    if (slots.erase(key_of()) == 0) {
      throw std::invalid_argument(ctx + ": erase of absent slot key");
    }
  } else {
    throw std::invalid_argument(ctx + ": unknown op '" + f[0] + "'");
  }
}

/// Base name of a stream id ("journal.2" -> "journal").
std::string_view stream_base(const std::string& id) {
  const std::size_t dot = id.find('.');
  return dot == std::string::npos ? std::string_view(id)
                                  : std::string_view(id).substr(0, dot);
}

// --- File helpers ---------------------------------------------------------

long long checked_int(const util::CsvTable& csv, std::size_t row, const char* column,
                      long long lo, long long hi) {
  const long long value = csv.field_int(row, column);
  if (value < lo || value > hi) {
    throw std::invalid_argument(csv.context(row) + ", column " + column + ": value " +
                                std::to_string(value) + " outside [" + std::to_string(lo) +
                                ", " + std::to_string(hi) + "]");
  }
  return value;
}

void require_headers(const util::CsvTable& csv, std::initializer_list<const char*> required) {
  std::string missing;
  for (const char* column : required) {
    if (!csv.has_column(column)) missing += (missing.empty() ? "" : ", ") + std::string(column);
  }
  if (!missing.empty()) {
    throw std::invalid_argument(csv.source() + ": missing required column(s): " + missing);
  }
}

/// Writes `body` to `<dir>/<file>` via tmp + optional fsync + rename.
/// Returns the bytes written, for the checkpoint-size counter.
std::uintmax_t write_atomic(const std::string& dir, const std::string& file,
                            const std::string& body, bool fsync, const char* point_write,
                            const char* point_fsync, const char* point_rename) {
  FaultFs& fs = FaultFs::global();
  const std::string final_path = path_in(dir, file);
  const std::string tmp_path = final_path + ".tmp";
  fs.write_file(point_write, tmp_path, body);
  if (fsync) fs.sync_file(point_fsync, tmp_path);
  fs.rename_file(point_rename, tmp_path, final_path);
  return body.size();
}

// --- save-side validation -------------------------------------------------

template <typename V>
void require_sorted_unique(const char* what,
                           const std::vector<std::pair<netsim::CarrierId, V>>& entries) {
  for (std::size_t i = 1; i < entries.size(); ++i) {
    if (!(entries[i - 1].first < entries[i].first)) {
      throw std::invalid_argument(std::string("LaunchStateStore::save: ") + what +
                                  " must be sorted by carrier with unique keys");
    }
  }
}

void require_sorted_slots(const char* what, const std::vector<LaunchState::SlotWrite>& slots) {
  for (std::size_t i = 1; i < slots.size(); ++i) {
    if (!(slot_key(slots[i - 1]) < slot_key(slots[i]))) {
      throw std::invalid_argument(std::string("LaunchStateStore::save: ") + what +
                                  " must be sorted by (pairwise, param_pos, entity)");
    }
  }
}

}  // namespace

const std::string* LaunchState::find_progress(const std::string& key) const {
  for (const auto& [k, v] : progress) {
    if (k == key) return &v;
  }
  return nullptr;
}

LaunchStateStore::LaunchStateStore(std::string dir) : dir_(std::move(dir)) {}

LaunchStateStore::LaunchStateStore(std::string dir, Options options)
    : dir_(std::move(dir)), options_(options) {
  if (!options_.journal) {
    throw std::invalid_argument(
        "LaunchStateStore: Options::journal must be true (the journal is the only "
        "checkpoint layout)");
  }
}

bool LaunchStateStore::exists() const {
  return std::filesystem::exists(path_in(dir_, kProgressFile));
}

const std::vector<std::string>& LaunchStateStore::crash_point_catalog() {
  static const std::vector<std::string> kPoints = {
      kPtSnapshotWrite, kPtSnapshotFsync, kPtSnapshotRename,
      kPtAppend,        kPtAppendFsync,   kPtPredirFsync,
      kPtProgressWrite, kPtProgressFsync, kPtProgressRename,
      kPtDirFsync,      kPtCleanup,       kPtRecoverTruncate,
  };
  return kPoints;
}

void LaunchStateStore::save(const LaunchState& state) const {
  for (const auto& [key, value] : state.progress) {
    if (key.rfind("__", 0) == 0) {
      throw std::invalid_argument("LaunchStateStore::save: progress key '" + key +
                                  "' uses the reserved '__' prefix");
    }
  }
  {
    std::set<std::string> keys;
    for (const auto& [key, value] : state.progress) {
      if (!keys.insert(key).second) {
        throw std::invalid_argument("LaunchStateStore::save: duplicate progress key '" + key +
                                    "'");
      }
    }
  }
  CheckpointMetrics& metrics = checkpoint_metrics();
  obs::ScopedTimer timer(metrics.latency_seconds);
  std::filesystem::create_directories(dir_);

  // Journal replay reconstructs keyed streams through ordered maps, so the
  // diffed input must already be in map order or resume would not be
  // bit-identical.
  require_sorted_unique("journal", state.journal);
  require_sorted_unique("quarantine", state.quarantine);
  for (const LaunchState::ShardState& shard : state.shards) {
    require_sorted_unique("journal", shard.journal);
    require_sorted_unique("quarantine", shard.quarantine);
  }
  require_sorted_slots("applied_slots", state.applied_slots);
  require_sorted_slots("relearn_applied_slots", state.relearn_applied_slots);

  FaultFs& fs = FaultFs::global();
  const std::size_t shard_count = state.shards.size();
  const bool rebaseline = !primed_ || last_.shards.size() != shard_count;
  const std::vector<StreamDef> streams = stream_defs(shard_count);

  // All bookkeeping happens on a copy: if a write below throws (injected or
  // real), logs_ still describes the last COMMITTED checkpoint, and the next
  // save() repairs any uncommitted tails against those seals.
  std::map<std::string, StreamLog> logs;
  if (!rebaseline) logs = logs_;
  std::uintmax_t bytes = 0;
  std::uint64_t appends = 0;
  std::uintmax_t append_bytes = 0;
  std::uint64_t compactions = 0;
  bool renamed_any = false;

  std::uint64_t fresh_gen = 0;
  if (rebaseline) {
    // Never reuse a generation: a crashed earlier save may have left
    // same-named files behind, and gens must move forward monotonically.
    std::uint64_t max_gen = 0;
    if (std::filesystem::exists(dir_)) {
      for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
        if (!entry.is_regular_file()) continue;
        std::string id;
        std::uint64_t gen = 0;
        if (parse_log_name(entry.path().filename().string(), id, gen)) {
          max_gen = std::max(max_gen, gen);
        }
      }
    }
    fresh_gen = max_gen + 1;
  }

  const auto snapshot_stream = [&](const StreamDef& s, std::uint64_t gen) {
    const std::string body = std::string(kOpHeader) + s.ops(nullptr, state);
    bytes += write_atomic(dir_, log_file_name(s.id, gen), body, options_.fsync,
                          kPtSnapshotWrite, kPtSnapshotFsync, kPtSnapshotRename);
    logs[s.id] = StreamLog{gen, body.size(), body.size()};
    renamed_any = true;
  };

  for (const StreamDef& s : streams) {
    if (rebaseline) {
      snapshot_stream(s, fresh_gen);
      continue;
    }
    const auto it = logs.find(s.id);
    if (it == logs.end()) {
      throw std::logic_error("LaunchStateStore: no journal bookkeeping for stream " + s.id);
    }
    const std::string ops = s.ops(&last_, state);
    if (ops.empty()) continue;
    StreamLog& lg = it->second;
    const std::uint64_t tail = lg.sealed_bytes - lg.snapshot_bytes + ops.size();
    const auto threshold = std::max<std::uint64_t>(
        options_.compact_min_bytes,
        static_cast<std::uint64_t>(options_.compact_factor *
                                   static_cast<double>(lg.snapshot_bytes)));
    if (tail > threshold) {
      snapshot_stream(s, lg.gen + 1);
      ++compactions;
      continue;
    }
    const std::string path = path_in(dir_, log_file_name(s.id, lg.gen));
    // A crashed earlier save may have left an uncommitted tail past the
    // seal; cut it off so this append lands exactly at the sealed offset.
    std::error_code ec;
    const std::uintmax_t on_disk = std::filesystem::file_size(path, ec);
    if (ec) {
      throw std::runtime_error("LaunchStateStore: cannot stat " + path + ": " + ec.message());
    }
    if (on_disk < lg.sealed_bytes) {
      throw std::runtime_error("LaunchStateStore: " + path + " holds " +
                               std::to_string(on_disk) + " bytes, below its committed seal of " +
                               std::to_string(lg.sealed_bytes));
    }
    if (on_disk > lg.sealed_bytes) {
      fs.truncate_file(kPtRecoverTruncate, path, lg.sealed_bytes);
      metrics.torn_tails.inc();
    }
    fs.append_file(kPtAppend, path, ops);
    if (options_.fsync) fs.sync_file(kPtAppendFsync, path);
    lg.sealed_bytes += ops.size();
    bytes += ops.size();
    ++appends;
    append_bytes += ops.size();
  }

  // Make the renamed snapshot files durable before the commit that starts
  // referencing them (rename durability lives in the directory).
  if (options_.fsync && renamed_any) fs.sync_dir(kPtPredirFsync, dir_);

  // progress.csv is the single atomic commit point: the shard count, every
  // stream's seal, and the caller's counters land in one rename.
  std::vector<std::vector<std::string>> rows;
  if (shard_count > 0) rows.push_back({kShardsKey, std::to_string(shard_count)});
  for (const StreamDef& s : streams) {
    const StreamLog& lg = logs.at(s.id);
    rows.push_back({kLogKeyPrefix + s.id, std::to_string(lg.gen) + ":" +
                                              std::to_string(lg.sealed_bytes) + ":" +
                                              std::to_string(lg.snapshot_bytes)});
  }
  for (const auto& [key, value] : state.progress) rows.push_back({key, value});
  bytes += write_atomic(dir_, kProgressFile, csv_body({"key", "value"}, rows), options_.fsync,
                        kPtProgressWrite, kPtProgressFsync, kPtProgressRename);

  // Committed: from here on the in-memory cache must describe the new
  // checkpoint even if the trailing durability / cleanup steps throw.
  logs_ = std::move(logs);
  last_ = state;
  primed_ = true;
  metrics.writes.inc();
  metrics.bytes.inc(bytes);
  metrics.appends.inc(appends);
  metrics.append_bytes.inc(append_bytes);
  metrics.compactions.inc(compactions);

  if (options_.fsync) fs.sync_dir(kPtDirFsync, dir_);
  cleanup_unreferenced();
}

void LaunchStateStore::cleanup_unreferenced() const {
  FaultFs& fs = FaultFs::global();
  std::vector<std::string> doomed;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name == kProgressFile) continue;
    if (std::string_view(name).ends_with(".tmp")) {
      doomed.push_back(name);
      continue;
    }
    std::string id;
    std::uint64_t gen = 0;
    if (parse_log_name(name, id, gen)) {
      const auto it = logs_.find(id);
      if (it == logs_.end() || it->second.gen != gen) doomed.push_back(name);
    }
  }
  // Directory iteration order is unspecified; sort so the FaultFs op
  // sequence (and thus crash-matrix indices) is reproducible.
  std::sort(doomed.begin(), doomed.end());
  for (const std::string& name : doomed) fs.remove_file(kPtCleanup, path_in(dir_, name));
}

LaunchState LaunchStateStore::load() const {
  CheckpointMetrics& metrics = checkpoint_metrics();
  load_stats_ = LoadStats{};
  primed_ = false;
  logs_.clear();
  last_ = LaunchState{};

  LaunchState state;
  const util::CsvParseOptions tolerant{.tolerate_torn_tail = true};

  // progress.csv first: it is the commit record — its reserved rows decide
  // the layout (journal seals, shard count) everything else is read with.
  std::size_t shard_count = 0;
  std::map<std::string, StreamLog> logs;
  const util::CsvTable progress = util::CsvTable::load(path_in(dir_, kProgressFile), tolerant);
  require_headers(progress, {"key", "value"});
  std::set<std::string> keys_seen;
  for (std::size_t r = 0; r < progress.row_count(); ++r) {
    const std::string& key = progress.field(r, "key");
    if (!keys_seen.insert(key).second) {
      throw std::invalid_argument(progress.context(r) + ": duplicate progress key '" + key +
                                  "'");
    }
    if (key == kShardsKey) {
      shard_count = static_cast<std::size_t>(checked_int(progress, r, "value", 1, 1 << 16));
      continue;
    }
    if (key.rfind(kLogKeyPrefix, 0) == 0) {
      const std::string id = key.substr(std::string_view(kLogKeyPrefix).size());
      const std::string& value = progress.field(r, "value");
      const std::size_t c1 = value.find(':');
      const std::size_t c2 = c1 == std::string::npos ? std::string::npos
                                                     : value.find(':', c1 + 1);
      if (!valid_stream_id(id) || c2 == std::string::npos) {
        throw std::invalid_argument(progress.context(r) + ": malformed journal seal '" + key +
                                    "' = '" + value + "'");
      }
      const std::string ctx = progress.context(r);
      StreamLog lg;
      lg.gen = to_u64(ctx, value.substr(0, c1));
      lg.sealed_bytes = to_u64(ctx, value.substr(c1 + 1, c2 - c1 - 1));
      lg.snapshot_bytes = to_u64(ctx, value.substr(c2 + 1));
      logs[id] = lg;
      continue;
    }
    if (key.rfind("__", 0) == 0) {
      throw std::invalid_argument(progress.context(r) + ": unknown reserved key '" + key + "'");
    }
    state.progress.emplace_back(key, progress.field(r, "value"));
  }

  if (logs.empty()) {
    throw std::invalid_argument(path_in(dir_, kProgressFile) +
                                ": no __log. journal seals; the pre-journal checkpoint "
                                "layout is no longer read");
  }

  // Replay each sealed stream.
  const std::vector<StreamDef> streams = stream_defs(shard_count);
  if (streams.size() != logs.size()) {
    throw std::invalid_argument(path_in(dir_, kProgressFile) + ": expected " +
                                std::to_string(streams.size()) + " journal seals, found " +
                                std::to_string(logs.size()));
  }

  std::vector<BlockBuilder> blocks(shard_count == 0 ? 1 : shard_count);
  std::map<SlotKey, std::int32_t> applied;
  std::map<SlotKey, std::int32_t> relearn;

  for (const StreamDef& s : streams) {
    const auto it = logs.find(s.id);
    if (it == logs.end()) {
      throw std::invalid_argument(path_in(dir_, kProgressFile) +
                                  ": missing journal seal for stream " + s.id);
    }
    const StreamLog& lg = it->second;
    const std::string path = path_in(dir_, log_file_name(s.id, lg.gen));

    std::string content;
    {
      std::ifstream in(path, std::ios::binary);
      if (!in) throw std::runtime_error("LaunchStateStore: cannot open " + path);
      content.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
    }
    if (content.size() < lg.sealed_bytes) {
      throw std::invalid_argument(path + ": committed seal of " +
                                  std::to_string(lg.sealed_bytes) + " bytes exceeds file size " +
                                  std::to_string(content.size()));
    }
    if (content.size() > lg.sealed_bytes) {
      // Uncommitted tail from a crashed append: cut the file back to its
      // seal so the journal and the commit record agree again.
      FaultFs::global().truncate_file(kPtRecoverTruncate, path, lg.sealed_bytes);
      util::log_warn("launch-state recovery: truncated " + path + " from " +
                     std::to_string(content.size()) + " to sealed " +
                     std::to_string(lg.sealed_bytes) + " bytes");
      content.resize(lg.sealed_bytes);
      ++load_stats_.torn_tails_truncated;
      metrics.torn_tails.inc();
    }
    if (content.empty() || content.back() != '\n') {
      throw std::invalid_argument(path + ": committed journal region is not record-aligned");
    }

    // Which builder this stream replays into.
    const std::string_view base = stream_base(s.id);
    const std::size_t dot = s.id.find('.');
    const std::size_t shard =
        dot == std::string::npos ? 0 : static_cast<std::size_t>(std::stoull(s.id.substr(dot + 1)));
    BlockBuilder& block = blocks[shard < blocks.size() ? shard : 0];

    std::size_t line_no = 0;
    std::size_t pos = 0;
    while (pos < content.size()) {
      const std::size_t nl = content.find('\n', pos);
      const std::string line = content.substr(pos, nl - pos);
      pos = nl + 1;
      ++line_no;
      const std::string ctx = path + " line " + std::to_string(line_no);
      if (line_no == 1) {
        if (line + "\n" != kOpHeader) {
          throw std::invalid_argument(ctx + ": bad journal header '" + line + "'");
        }
        continue;
      }
      std::vector<std::string> fields;
      try {
        fields = util::parse_csv_line(line);
      } catch (const std::invalid_argument& e) {
        throw std::invalid_argument(ctx + ": " + e.what());
      }
      if (fields.size() != kOpArity) {
        throw std::invalid_argument(ctx + ": expected " + std::to_string(kOpArity) +
                                    " fields, got " + std::to_string(fields.size()));
      }
      if (base == "journal") {
        apply_map_op(ctx, fields, block.journal, to_u64);
      } else if (base == "quarantine") {
        apply_map_op(ctx, fields, block.quarantine,
                     [](const std::string& c, const std::string& t) {
                       return static_cast<int>(to_int(c, t, 0, 1 << 20));
                     });
      } else if (base == "deferred") {
        apply_queue_op(ctx, fields, block.deferred);
      } else if (base == "breaker") {
        apply_breaker_op(ctx, fields, block.breaker);
      } else if (base == "ems") {
        apply_ems_op(ctx, fields, block.ems);
      } else if (base == "applied") {
        apply_slots_op(ctx, fields, applied);
      } else if (base == "relearn") {
        apply_slots_op(ctx, fields, relearn);
      } else {
        throw std::invalid_argument(ctx + ": stream '" + s.id + "' has no replay rule");
      }
      ++load_stats_.records_replayed;
    }
  }

  // Canonicalize the replayed maps back into the sorted-vector state form.
  const auto block_out = [](BlockBuilder& b, LaunchState::ShardState& out) {
    out.journal.assign(b.journal.begin(), b.journal.end());
    out.deferred = std::move(b.deferred);
    out.quarantine.assign(b.quarantine.begin(), b.quarantine.end());
    out.breaker = b.breaker;
    out.ems = std::move(b.ems);
  };
  if (shard_count == 0) {
    LaunchState::ShardState flat;
    block_out(blocks[0], flat);
    state.journal = std::move(flat.journal);
    state.deferred = std::move(flat.deferred);
    state.quarantine = std::move(flat.quarantine);
    state.breaker = flat.breaker;
    state.ems = std::move(flat.ems);
  } else {
    state.shards.resize(shard_count);
    for (std::size_t k = 0; k < shard_count; ++k) block_out(blocks[k], state.shards[k]);
  }
  const auto slots_out = [](const std::map<SlotKey, std::int32_t>& slots) {
    std::vector<LaunchState::SlotWrite> out;
    out.reserve(slots.size());
    for (const auto& [key, value] : slots) {
      out.push_back({std::get<0>(key), std::get<1>(key), std::get<2>(key), value});
    }
    return out;
  };
  state.applied_slots = slots_out(applied);
  state.relearn_applied_slots = slots_out(relearn);

  metrics.replayed_records.inc(load_stats_.records_replayed);

  // Prime the diff cache: subsequent saves append against this image.
  logs_ = std::move(logs);
  last_ = state;
  primed_ = true;
  return state;
}

void LaunchStateStore::clear() const {
  primed_ = false;
  logs_.clear();
  last_ = LaunchState{};
  load_stats_ = LoadStats{};
  if (!std::filesystem::exists(dir_)) return;
  std::vector<std::filesystem::path> doomed;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (!entry.is_regular_file()) continue;
    std::string name = entry.path().filename().string();
    if (std::string_view(name).ends_with(".tmp")) name = name.substr(0, name.size() - 4);
    std::string id;
    std::uint64_t gen = 0;
    if (name == kProgressFile || parse_log_name(name, id, gen)) {
      doomed.push_back(entry.path());
    }
  }
  for (const auto& path : doomed) std::filesystem::remove(path);
}

}  // namespace auric::io
