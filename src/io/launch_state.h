// Crash-safe persistence for the fault-tolerant launch pipeline.
//
// The paper's deployment runs SmartLaunch against nightly inventory feeds;
// a push window that dies mid-run must pick up where it left off instead of
// re-planning launches whose changes are already on air. This module makes
// the pipeline's recovery state durable as a directory of small CSVs
// (matching the nightly-feed deployment model — plain files an operator can
// inspect and an external tool can produce).
//
// The recovery state is a set of STREAMS, five of them per EMS shard:
//
//   journal      per-carrier apply-journal offsets (settings landed)
//   deferred     the breaker's deferred launch queue, in order
//   quarantine   rolled-back carriers and their rollback counts
//   breaker      circuit-breaker dynamic state
//   ems          EMS simulator dynamic state (fault-stream positions,
//                push counter, unlocked/repaired carriers)
//
// plus two global ones:
//
//   applied      slot writes applied to the evolving network state since
//                the run started (delta vs. the initial assignment)
//   relearn      the same delta frozen at the last engine re-learn (the
//                state the current engine's models were trained on)
//
// and progress.csv, caller-defined key/value counters whose tmp+rename is
// the checkpoint's single atomic commit point (doubles stored as hexfloats
// so a resumed run's counters are bit-identical).
//
// Every stream lives in an append-only log (`journal.log3.csv`,
// `ems.2.log7.csv`, ...) of CSV op records. Each save() appends only the ops
// that transform the previously committed state into the new one, fsyncs the
// appended logs, and then commits by rewriting progress.csv (tmp + fsync +
// rename + directory fsync). progress.csv carries one reserved
// `__log.<stream>` row per log naming the generation and the SEALED byte
// length — bytes past the seal are an uncommitted tail from a crashed append,
// and recovery truncates them away before replaying the ops. When a log's
// appended tail outgrows its last full snapshot (Options::compact_factor) the
// stream is compacted: a fresh snapshot log at the next generation,
// tmp+fsync+renamed, with the old generation removed only after the commit
// that references the new one. Checkpoint cost is therefore O(day's deltas),
// not O(total state).
//
// Every write routes through io::FaultFs, so crash-injection tests can kill
// the store at any named operation; the crash-point catalog below is the
// matrix those tests iterate. load() validates everything it reads and
// reports malformed state with file + line context ("journal.log3.csv line
// 3: ...") — a corrupt checkpoint must fail loudly, never resume partially.
// The one tolerated defect is a log tail past its seal, which is cut off.
// A progress.csv without seals (the pre-journal layout) is refused.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "netsim/topology.h"
#include "util/retry.h"

namespace auric::io {

/// Everything the launch pipeline needs to survive a crash, as plain data
/// (no smartlaunch types: the io layer sits below the pipeline).
struct LaunchState {
  /// EMS simulator dynamic state; mirrors smartlaunch::EmsSimulator::Snapshot.
  struct EmsState {
    std::uint64_t pushes_executed = 0;
    std::uint64_t lock_cycles = 0;
    std::uint64_t fault_stream = 0;
    std::uint64_t flap_stream = 0;
    std::uint64_t burst_stream = 0;
    std::vector<netsim::CarrierId> unlocked;
    std::vector<netsim::CarrierId> repaired;
  };

  /// One configuration-slot write relative to the initial assignment (the
  /// replay's delta encoding of its evolving network state).
  struct SlotWrite {
    bool pairwise = false;
    std::uint32_t param_pos = 0;  ///< position in the singular/pairwise column list
    std::uint64_t entity = 0;     ///< carrier id (singular) or edge index (pairwise)
    std::int32_t value = 0;       ///< ValueIndex written (never kUnset)
  };

  /// The per-EMS-shard slice of the recovery state: one apply journal, one
  /// deferred queue, one quarantine, one breaker and one EMS simulator per
  /// shard (launches, retries and rollbacks are shard-local by design).
  struct ShardState {
    std::vector<std::pair<netsim::CarrierId, std::uint64_t>> journal;
    std::vector<netsim::CarrierId> deferred;
    std::vector<std::pair<netsim::CarrierId, int>> quarantine;
    util::CircuitBreaker::Snapshot breaker;
    EmsState ems;
  };

  /// Keyed streams (journal, quarantine, applied/relearn) must be sorted by
  /// key: the store persists them as ordered op logs and a resumed store
  /// diffs against the replayed (sorted) image. The pipeline already sorts
  /// its snapshots; save() rejects unsorted or duplicate-keyed input.
  std::vector<std::pair<netsim::CarrierId, std::uint64_t>> journal;
  std::vector<netsim::CarrierId> deferred;
  std::vector<std::pair<netsim::CarrierId, int>> quarantine;  ///< carrier, rollbacks
  util::CircuitBreaker::Snapshot breaker;
  EmsState ems;
  /// Sharded-pipeline layout: when non-empty, the five blocks above are
  /// persisted per shard (shards[k] -> journal.k.*, ...) and the flat
  /// fields are ignored; when empty, the flat single-shard layout is used.
  /// load() restores whichever layout the checkpoint committed.
  std::vector<ShardState> shards;
  std::vector<SlotWrite> applied_slots;          ///< delta vs. initial assignment
  std::vector<SlotWrite> relearn_applied_slots;  ///< delta at last engine re-learn
  /// Caller-defined counters, persisted in order. Keys must be unique; keys
  /// starting with "__" are reserved for the store's own markers (layout,
  /// journal seals) and save() rejects states that use them.
  std::vector<std::pair<std::string, std::string>> progress;

  const std::string* find_progress(const std::string& key) const;
};

class LaunchStateStore {
 public:
  struct Options {
    /// Must be true: the only layout is the journal; the constructor throws on false.
    bool journal = true;
    /// fsync appended logs / temp files before, and the directory after,
    /// the progress.csv commit rename. Off only for benches that price the
    /// serialization path without the (noisy) device-flush cost.
    bool fsync = true;
    /// Compaction trigger: a stream is re-snapshotted once its appended
    /// tail exceeds max(compact_min_bytes, compact_factor x snapshot size).
    std::uint64_t compact_min_bytes = 4096;
    double compact_factor = 4.0;
  };

  /// What the last load() had to repair; zero everywhere on a clean open.
  struct LoadStats {
    std::size_t torn_tails_truncated = 0;  ///< journal logs cut back to their seal
    std::size_t records_replayed = 0;      ///< journal op records applied
  };

  explicit LaunchStateStore(std::string dir);
  /// Throws std::invalid_argument when options.journal is false.
  LaunchStateStore(std::string dir, Options options);

  const std::string& dir() const { return dir_; }
  const Options& options() const { return options_; }

  /// True once a checkpoint has been committed (progress.csv exists).
  bool exists() const;

  /// Persists `state`: appends per-stream deltas and commits them via the
  /// progress.csv rename. A crash at any point leaves the previous committed
  /// checkpoint loadable. Throws std::runtime_error on I/O failure (the
  /// store stays usable: the next save() repairs any uncommitted tails).
  ///
  /// The store keeps the last committed image in memory to diff against;
  /// that cache is primed by load() or by the first save() (which writes
  /// full snapshot logs). Stores are stateful, not bound to one process:
  /// a fresh store over an existing directory re-baselines on first save.
  void save(const LaunchState& state) const;

  /// Loads and validates a checkpoint, repairing (truncating) any journal
  /// tail left unsealed by a crashed append. Malformed state throws
  /// std::invalid_argument naming the file and 1-based line; a progress.csv
  /// with no `__log.` seals (the pre-journal layout) throws too.
  LaunchState load() const;

  /// Repairs performed by the most recent load() on this store.
  const LoadStats& load_stats() const { return load_stats_; }

  /// Removes the checkpoint files (leaves unrelated files alone).
  void clear() const;

  /// Every named FaultFs crash point the store's write paths visit — the
  /// universe the crash-matrix tests iterate. Documented in DESIGN.md §14.
  static const std::vector<std::string>& crash_point_catalog();

 private:
  /// Per-stream journal bookkeeping, keyed by stream id ("journal",
  /// "ems.2", "applied", ...): committed generation, sealed byte length,
  /// and the size of the last full snapshot (the compaction yardstick).
  struct StreamLog {
    std::uint64_t gen = 0;
    std::uint64_t sealed_bytes = 0;
    std::uint64_t snapshot_bytes = 0;
  };

  void cleanup_unreferenced() const;

  std::string dir_;
  Options options_;
  // Commit cache: the last committed image and the per-stream
  // log positions. Mutable because save()/load() are logically const to
  // callers (the checkpoint directory is the real state); guarded by the
  // pipeline's single-writer discipline, not a lock.
  mutable bool primed_ = false;
  mutable LaunchState last_;
  mutable std::map<std::string, StreamLog> logs_;
  mutable LoadStats load_stats_;
};

}  // namespace auric::io
