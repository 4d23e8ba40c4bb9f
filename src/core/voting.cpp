#include "core/voting.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <string>

#include "util/strings.h"

namespace auric::core {

namespace {

/// Low `width` bits set.
std::uint64_t ones(unsigned width) { return width == 0 ? 0 : ~std::uint64_t{0} >> (64 - width); }

/// Smallest power-of-two slot count that holds `groups` at load <= 3/4.
std::size_t capacity_for(std::size_t groups) {
  std::size_t capacity = 8;
  while (capacity * 3 < groups * 4) capacity *= 2;
  return capacity;
}

}  // namespace

AttrWords::AttrWords(const netsim::AttributeSchema& schema,
                     const std::vector<std::vector<netsim::AttrCode>>& attr_codes) {
  const std::size_t attrs = schema.attribute_count();
  if (attr_codes.size() != attrs) {
    throw std::invalid_argument("AttrWords: attribute columns do not match the schema");
  }
  unsigned bits = 0;
  for (std::size_t a = 0; a < attrs; ++a) {
    const auto width = static_cast<unsigned>(std::bit_width(schema.cardinality(a)));
    shift_.push_back(bits);
    width_.push_back(width);
    bits += width;
  }
  if (bits > 64) {
    std::string message = util::format(
        "packed attribute word needs %u bits, more than 64 (attribute value counts too large; "
        "bits per attribute:",
        bits);
    for (std::size_t a = 0; a < attrs; ++a) {
      message += util::format(" %s=%u", schema.name(a).c_str(), width_[a]);
    }
    throw std::invalid_argument(message + ")");
  }
  words_.assign(attrs == 0 ? 0 : attr_codes[0].size(), 0);
  for (std::size_t a = 0; a < attrs; ++a) {
    if (width_[a] == 0) continue;
    const std::uint64_t unseen = ones(width_[a]);
    for (std::size_t c = 0; c < words_.size(); ++c) {
      const netsim::AttrCode code = attr_codes[a][c];
      words_[c] |= (code < 0 ? unseen : static_cast<std::uint64_t>(code)) << shift_[a];
    }
  }
}

std::uint64_t AttrWords::field(std::size_t attr) const {
  return width_[attr] == 0 ? 0 : ones(width_[attr]) << shift_[attr];
}

std::uint64_t AttrWords::pack(std::span<const netsim::AttrCode> codes) const {
  std::uint64_t word = 0;
  for (std::size_t a = 0; a < width_.size(); ++a) {
    if (width_[a] == 0) continue;
    const std::uint64_t value =
        codes[a] < 0 ? ones(width_[a]) : static_cast<std::uint64_t>(codes[a]);
    word |= value << shift_[a];
  }
  return word;
}

netsim::AttrCode AttrWords::code(std::uint64_t word, std::size_t attr) const {
  if (width_[attr] == 0) return netsim::AttributeSchema::kUnseen;
  const std::uint64_t value = (word >> shift_[attr]) & ones(width_[attr]);
  return value == ones(width_[attr]) ? netsim::AttributeSchema::kUnseen
                                     : static_cast<netsim::AttrCode>(value);
}

KeyMask AttrWords::mask(std::span<const AttrRef> deps) const {
  KeyMask mask;
  for (const AttrRef& ref : deps) {
    (ref.neighbor_side ? mask.neighbor : mask.carrier) |= field(ref.attr);
  }
  return mask;
}

VotingModel::VotingModel(const ParamView& view, std::span<const AttrRef> deps,
                         const AttrWords& words)
    : deps_(deps.begin(), deps.end()), words_(&words), mask_(words.mask(deps_)) {
  build(view.rows(), [&](auto&& add) {
    for (std::size_t r = 0; r < view.rows(); ++r) {
      add(key_for(view.carrier[r], view.neighbor[r]), view.label[r], 1);
    }
  });
}

VotingModel::VotingModel(const VotingModel& finer, std::span<const AttrRef> deps)
    : deps_(deps.begin(), deps.end()), words_(finer.words_), mask_(words_->mask(deps_)) {
  if ((mask_.carrier & ~finer.mask_.carrier) != 0 ||
      (mask_.neighbor & ~finer.mask_.neighbor) != 0) {
    throw std::logic_error("VotingModel: coarsening onto attributes the finer model lacks");
  }
  build(finer.pairs_.size() - finer.garbage_, [&](auto&& add) {
    for (const Slot& slot : finer.slots_) {
      if (slot.size == 0) continue;
      const GroupKey key{slot.key.carrier & mask_.carrier, slot.key.neighbor & mask_.neighbor};
      for (const auto& [label, count] : finer.run(slot)) add(key, label, count);
    }
  });
}

template <typename ForEach>
void VotingModel::build(std::size_t n, ForEach&& for_each) {
  // Sized for n distinct keys, so no slot moves while observations point at
  // it; shrunk to the real group count at the end.
  rehash(capacity_for(n));
  struct Observation {
    std::uint32_t slot;
    ml::ClassLabel label;
    std::int32_t votes;
  };
  std::vector<Observation> observations;
  observations.reserve(n);
  // Observations per slot. A coarse group can hold far more than a Slot's
  // 16-bit size codes, so the tally lives here; size only marks the slot
  // claimed until the fold below.
  std::vector<std::uint32_t> bucket_end(slots_.size(), 0);
  for_each([&](const GroupKey& key, ml::ClassLabel label, std::int32_t votes) {
    const std::size_t index = claim(key);
    slots_[index].size = 1;
    ++bucket_end[index];
    observations.push_back({static_cast<std::uint32_t>(index), label, votes});
  });

  // Bucket the observations by group (counting sort over slots), then fold
  // each bucket into its distinct (label, count) run.
  std::uint32_t offset = 0;
  for (std::uint32_t& end : bucket_end) {
    const std::uint32_t count = end;
    end = offset;  // the bucket's begin, until the placement below advances it
    offset += count;
  }
  std::vector<LabelCount> staged(observations.size());
  for (const Observation& o : observations) staged[bucket_end[o.slot]++] = {o.label, o.votes};
  pairs_.reserve(staged.size());
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    Slot& slot = slots_[s];
    if (slot.size == 0) continue;
    const auto begin = static_cast<std::uint32_t>(pairs_.size());
    for (std::uint32_t i = s == 0 ? 0 : bucket_end[s - 1]; i < bucket_end[s]; ++i) {
      const auto it = std::find_if(pairs_.begin() + begin, pairs_.end(),
                                   [&](const LabelCount& p) { return p.first == staged[i].first; });
      if (it != pairs_.end()) {
        it->second += staged[i].second;
      } else {
        pairs_.push_back(staged[i]);
      }
    }
    const std::size_t size = pairs_.size() - begin;
    if (size > kMaxRun) throw std::logic_error("VotingModel: group has more labels than a run codes");
    slot.begin = begin;
    slot.size = slot.capacity = static_cast<std::uint16_t>(size);
  }
  pairs_.shrink_to_fit();
  if (capacity_for(groups_) < slots_.size()) rehash(capacity_for(groups_));
}

std::size_t VotingModel::home(const GroupKey& key) const {
  // MurmurHash3's 64-bit finalizer; the top bits pick the slot.
  std::uint64_t h = key.carrier ^ (key.neighbor * 0x9e3779b97f4a7c15ULL);
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  return static_cast<std::size_t>(h >> shift_);
}

std::size_t VotingModel::find(const GroupKey& key) const {
  const std::size_t wrap = slots_.size() - 1;
  for (std::size_t i = home(key);; i = (i + 1) & wrap) {
    const Slot& slot = slots_[i];
    if (slot.size == 0) return kNone;
    if (slot.key == key) return i;
  }
}

std::size_t VotingModel::claim(const GroupKey& key) {
  if ((groups_ + 1) * 4 > slots_.size() * 3) rehash(slots_.size() * 2);
  const std::size_t wrap = slots_.size() - 1;
  std::size_t i = home(key);
  for (; slots_[i].size != 0; i = (i + 1) & wrap) {
    if (slots_[i].key == key) return i;
  }
  slots_[i] = Slot{};
  slots_[i].key = key;
  ++groups_;
  return i;
}

void VotingModel::erase_slot(std::size_t index) {
  // Backward-shift deletion: pull later members of the probe run into the
  // hole unless that would move one before its home slot.
  const std::size_t wrap = slots_.size() - 1;
  std::size_t hole = index;
  for (std::size_t j = (index + 1) & wrap; slots_[j].size != 0; j = (j + 1) & wrap) {
    if (((j - home(slots_[j].key)) & wrap) >= ((j - hole) & wrap)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole] = Slot{};
  --groups_;
}

void VotingModel::rehash(std::size_t capacity) {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(capacity, Slot{});
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
  const std::size_t wrap = capacity - 1;
  for (const Slot& slot : old) {
    if (slot.size == 0) continue;
    std::size_t i = home(slot.key);
    while (slots_[i].size != 0) i = (i + 1) & wrap;
    slots_[i] = slot;
  }
}

void VotingModel::append_pair(Slot& slot, ml::ClassLabel label, std::int32_t count) {
  if (slot.size == kMaxRun) {
    throw std::logic_error("VotingModel: group has more labels than a run codes");
  }
  if (slot.size < slot.capacity) {
    pairs_[slot.begin + slot.size++] = {label, count};
    return;
  }
  if (slot.begin + slot.capacity != pairs_.size()) {
    // Move the full run to the tail, where it can grow in place.
    const std::size_t begin = pairs_.size();
    pairs_.resize(begin + slot.size);
    std::copy_n(pairs_.begin() + slot.begin, slot.size, pairs_.begin() + begin);
    garbage_ += slot.capacity;
    slot.begin = static_cast<std::uint32_t>(begin);
    slot.capacity = slot.size;
  }
  pairs_.emplace_back(label, count);
  ++slot.size;
  ++slot.capacity;
}

void VotingModel::compact_pairs() {
  std::vector<LabelCount> next;
  next.reserve(pairs_.size() - garbage_);
  for (Slot& slot : slots_) {
    if (slot.size == 0) continue;
    const auto begin = static_cast<std::uint32_t>(next.size());
    const auto pairs = run(slot);
    next.insert(next.end(), pairs.begin(), pairs.end());
    slot.begin = begin;
    slot.capacity = slot.size;
  }
  pairs_ = std::move(next);
  garbage_ = 0;
}

GroupKey VotingModel::key_of(std::uint64_t carrier_word, netsim::CarrierId neighbor) const {
  GroupKey key{carrier_word & mask_.carrier, 0};
  if (mask_.neighbor != 0) {
    if (neighbor == netsim::kInvalidCarrier) {
      throw std::logic_error("voting: neighbor-side dependency without a neighbor");
    }
    key.neighbor = words_->word(neighbor) & mask_.neighbor;
  }
  return key;
}

std::optional<Vote> VotingModel::winner(std::span<const LabelCount> counts,
                                        ml::ClassLabel excluded, bool exclude_one,
                                        double threshold) {
  Vote best;
  std::int32_t total = 0;
  for (const auto& [label, count] : counts) {
    total += count;
    std::int32_t c = count;
    if (exclude_one && label == excluded) --c;
    if (c > best.count || (c == best.count && best.label >= 0 && label < best.label)) {
      best.runner_up = best.count;
      best.label = label;
      best.count = c;
    } else if (c > best.runner_up) {
      best.runner_up = c;
    }
  }
  if (exclude_one) --total;
  best.group_size = total;
  if (total <= 0 || best.count <= 0) return std::nullopt;
  if (best.support() < threshold) return std::nullopt;
  return best;
}

std::vector<VotingModel::GroupSummary> VotingModel::group_summaries() const {
  std::vector<GroupSummary> out;
  out.reserve(groups_);
  for (const Slot& slot : slots_) {
    if (slot.size == 0) continue;
    GroupSummary summary;
    summary.codes.reserve(deps_.size());
    for (const AttrRef& ref : deps_) {
      summary.codes.push_back(
          words_->code(ref.neighbor_side ? slot.key.neighbor : slot.key.carrier, ref.attr));
    }
    for (const auto& [label, count] : run(slot)) {
      summary.total += count;
      if (count > summary.winner_count ||
          (count == summary.winner_count && summary.winner >= 0 && label < summary.winner)) {
        summary.winner = label;
        summary.winner_count = count;
      }
    }
    out.push_back(std::move(summary));
  }
  // Deterministic order independent of slot placement.
  std::sort(out.begin(), out.end(),
            [](const GroupSummary& a, const GroupSummary& b) { return a.codes < b.codes; });
  return out;
}

void VotingModel::adjust(const GroupKey& key, ml::ClassLabel label, std::int32_t delta) {
  if (delta == 0) return;
  std::size_t index = find(key);
  if (index == kNone) {
    if (delta < 0) throw std::logic_error("VotingModel::adjust: removing from an absent group");
    index = claim(key);
    Slot& slot = slots_[index];
    slot.begin = static_cast<std::uint32_t>(pairs_.size());
    append_pair(slot, label, delta);
    return;
  }
  Slot& slot = slots_[index];
  LabelCount* pairs = pairs_.data() + slot.begin;
  std::uint32_t i = 0;
  while (i < slot.size && pairs[i].first != label) ++i;
  if (i < slot.size) {
    pairs[i].second += delta;
    if (pairs[i].second < 0) throw std::logic_error("VotingModel::adjust: vote count went negative");
    if (pairs[i].second == 0) pairs[i] = pairs[--slot.size];
  } else {
    if (delta < 0) throw std::logic_error("VotingModel::adjust: removing an absent label");
    append_pair(slot, label, delta);
  }
  if (slot.size == 0) {  // the group's last voter left
    garbage_ += slot.capacity;
    erase_slot(index);
  }
  if (garbage_ > 64 && 2 * garbage_ > pairs_.size()) compact_pairs();
}

void VotingModel::remap_labels(std::span<const ml::ClassLabel> old_to_new) {
  for (const Slot& slot : slots_) {
    for (std::uint32_t i = slot.begin; i < slot.begin + slot.size; ++i) {
      ml::ClassLabel& label = pairs_[i].first;
      const ml::ClassLabel next = old_to_new[static_cast<std::size_t>(label)];
      if (next < 0) throw std::logic_error("VotingModel::remap_labels: dropping a live label");
      label = next;
    }
  }
}

void VotingModel::reorder_deps(std::span<const AttrRef> new_deps) {
  if (new_deps.size() != deps_.size() ||
      !std::is_permutation(new_deps.begin(), new_deps.end(), deps_.begin())) {
    throw std::logic_error("VotingModel::reorder_deps: not a permutation of deps()");
  }
  deps_.assign(new_deps.begin(), new_deps.end());
}

std::optional<Vote> VotingModel::vote(const GroupKey& key, double threshold) const {
  const std::size_t index = find(key);
  if (index == kNone) return std::nullopt;
  return winner(run(slots_[index]), -1, false, threshold);
}

std::optional<Vote> VotingModel::vote_excluding(const GroupKey& key, ml::ClassLabel own_label,
                                                double threshold) const {
  const std::size_t index = find(key);
  if (index == kNone) return std::nullopt;
  return winner(run(slots_[index]), own_label, true, threshold);
}

/// One configured peer slot of a local vote: the packed words of its
/// subject carrier and of its neighbor (0 for a singular slot), its label
/// and its voting weight.
struct LocalPeer {
  std::uint64_t carrier = 0;
  std::uint64_t neighbor = 0;
  ml::ClassLabel label = -1;
  double weight = 1.0;
};

namespace {

/// Per-thread peer buffer for a ladder, so steady state allocates nothing.
/// One ladder is live per thread at a time.
std::vector<LocalPeer>& peer_buffer() {
  thread_local std::vector<LocalPeer> peers;
  peers.clear();
  return peers;
}

double weight_of(std::span<const double> carrier_weights, netsim::CarrierId carrier) {
  return carrier_weights.empty() ? 1.0 : carrier_weights[static_cast<std::size_t>(carrier)];
}

/// Calls `visit(peer)` for every configured slot of `candidates` in
/// `labels` that matches `key` under `mask`. A ladder gathers once with the
/// coarsest level's mask, which every finer level's contains, so a slot it
/// rejects matches no level. Candidates come in order and, for a pair-wise
/// column, each candidate's edges in Topology::edges order — the order
/// every tally sums in.
template <typename Visit>
void for_each_peer(const LabelColumn& labels, const AttrWords& words, const KeyMask& mask,
                   const GroupKey& key, std::span<const netsim::CarrierId> candidates,
                   std::int64_t exclude_entity, std::span<const double> carrier_weights,
                   Visit&& visit) {
  for (netsim::CarrierId cand : candidates) {
    // Every slot of `cand` shares its carrier side: one compare decides them.
    const std::uint64_t word = words.word(cand);
    if ((word & mask.carrier) != key.carrier) continue;
    const double weight = weight_of(carrier_weights, cand);
    if (labels.topology == nullptr) {
      const ml::ClassLabel label = labels.label(static_cast<std::size_t>(cand));
      if (label >= 0 && cand != exclude_entity) visit(LocalPeer{word, 0, label, weight});
      continue;
    }
    // Pair-wise: the candidate's edges are one contiguous run of rows.
    const netsim::Topology& topo = *labels.topology;
    const auto c = static_cast<std::size_t>(cand);
    for (std::size_t e = topo.edge_offsets[c]; e < topo.edge_offsets[c + 1]; ++e) {
      const ml::ClassLabel label = labels.label(e);
      if (label < 0 || static_cast<std::int64_t>(e) == exclude_entity) continue;
      const std::uint64_t neighbor = words.word(topo.edges[e].to);
      if ((neighbor & mask.neighbor) != key.neighbor) continue;
      visit(LocalPeer{word, neighbor, label, weight});
    }
  }
}

/// The label tally of one local vote. Neighborhoods are small (tens of
/// carriers), so a flat scan of a small count vector beats any indexing.
/// The vector is per thread (one live tally per thread), so steady state
/// allocates nothing.
class LocalTally {
 public:
  LocalTally() : counts_(buffer()) { counts_.clear(); }

  void add(const LocalPeer& peer) {
    total_ += peer.weight;
    ++voters_;
    for (auto& [label, count] : counts_) {
      if (label == peer.label) {
        count += peer.weight;
        return;
      }
    }
    counts_.emplace_back(peer.label, peer.weight);
  }

  std::optional<Vote> vote(double threshold, bool weighted) const {
    if (voters_ == 0 || total_ <= 0.0) return std::nullopt;
    ml::ClassLabel best_label = -1;
    double best_weight = 0.0;
    double runner_weight = 0.0;
    for (const auto& [label, count] : counts_) {
      if (count > best_weight || (count == best_weight && best_label >= 0 && label < best_label)) {
        runner_weight = best_weight;
        best_label = label;
        best_weight = count;
      } else if (count > runner_weight) {
        runner_weight = count;
      }
    }
    if (best_weight / total_ < threshold) return std::nullopt;
    Vote best;
    best.label = best_label;
    best.count = static_cast<std::int32_t>(std::lround(best_weight));
    best.runner_up = static_cast<std::int32_t>(std::lround(runner_weight));
    best.group_size = voters_;
    // Vote::support() reports count/group_size; for weighted votes the
    // decisive quantity is the weight fraction, so re-derive counts such
    // that support() reflects it as closely as integer fields allow.
    if (weighted) {
      best.count = static_cast<std::int32_t>(std::lround(best_weight / total_ * voters_));
      best.runner_up = static_cast<std::int32_t>(std::lround(runner_weight / total_ * voters_));
    }
    return best;
  }

 private:
  using Counts = std::vector<std::pair<ml::ClassLabel, double>>;
  static Counts& buffer() {
    thread_local Counts counts;
    return counts;
  }

  Counts& counts_;
  double total_ = 0.0;
  std::int32_t voters_ = 0;
};

}  // namespace

std::optional<Vote> local_vote(const LabelColumn& labels, const AttrWords& words,
                               const KeyMask& mask, const GroupKey& key,
                               std::span<const netsim::CarrierId> candidates,
                               std::int64_t exclude_entity, double threshold,
                               std::span<const double> carrier_weights) {
  // One level: every visited peer matches, so tally as they come.
  LocalTally tally;
  for_each_peer(labels, words, mask, key, candidates, exclude_entity, carrier_weights,
                [&](const LocalPeer& peer) { tally.add(peer); });
  return tally.vote(threshold, !carrier_weights.empty());
}

BackoffVoting::BackoffVoting(const ParamView& view, std::span<const AttrRef> deps,
                             const AttrWords& words, int levels, int min_voters)
    : deps_(deps.begin(), deps.end()), words_(&words), min_voters_(min_voters) {
  if (levels < 1) throw std::invalid_argument("BackoffVoting: levels must be >= 1");
  // Level k matches on the strongest (|deps| - k) attributes; never go below
  // one attribute unless there are none at all. Each coarser level
  // aggregates the finer one's groups rather than the rows.
  const int max_levels =
      deps_.empty() ? 1 : std::min<int>(levels, static_cast<int>(deps_.size()));
  models_.reserve(static_cast<std::size_t>(max_levels));
  models_.emplace_back(view, deps_, words);
  for (int level = 1; level < max_levels; ++level) {
    VotingModel coarser(models_.back(), deps_at(level));
    models_.push_back(std::move(coarser));
  }
}

void BackoffVoting::adjust(netsim::CarrierId carrier, netsim::CarrierId neighbor,
                           ml::ClassLabel label, std::int32_t delta) {
  for (VotingModel& model : models_) {
    model.adjust(model.key_for(carrier, neighbor), label, delta);
  }
}

void BackoffVoting::remap_labels(std::span<const ml::ClassLabel> old_to_new) {
  for (VotingModel& model : models_) model.remap_labels(old_to_new);
}

void BackoffVoting::reorder_deps(std::span<const AttrRef> new_deps) {
  if (new_deps.size() != deps_.size() ||
      !std::is_permutation(new_deps.begin(), new_deps.end(), deps_.begin())) {
    throw std::logic_error("BackoffVoting::reorder_deps: dependent sets differ");
  }
  deps_.assign(new_deps.begin(), new_deps.end());
  // Level 0 spans the whole (unchanged) set, so a level whose membership
  // moved always has an up-to-date finer level to re-aggregate.
  for (std::size_t level = 0; level < models_.size(); ++level) {
    const auto prefix = deps_at(static_cast<int>(level));
    const auto old = models_[level].deps();
    if (std::is_permutation(prefix.begin(), prefix.end(), old.begin(), old.end())) {
      models_[level].reorder_deps(prefix);
    } else {
      models_[level] = VotingModel(models_[level - 1], prefix);
    }
  }
}

std::span<const AttrRef> BackoffVoting::deps_at(int level) const {
  return {deps_.data(), deps_.size() - static_cast<std::size_t>(level)};
}

bool BackoffVoting::accept(const Vote& vote, int level) const {
  return level + 1 >= level_count() || vote.group_size >= min_voters_;
}

std::optional<BackoffVoting::Decision> BackoffVoting::vote_word(std::uint64_t carrier_word,
                                                                netsim::CarrierId neighbor,
                                                                double threshold) const {
  for (int level = 0; level < level_count(); ++level) {
    const VotingModel& model = models_[static_cast<std::size_t>(level)];
    if (const auto v = model.vote(model.key_of(carrier_word, neighbor), threshold)) {
      if (accept(*v, level)) return Decision{*v, level};
    }
  }
  return std::nullopt;
}

std::optional<BackoffVoting::Decision> BackoffVoting::vote_excluding(
    netsim::CarrierId carrier, netsim::CarrierId neighbor, ml::ClassLabel own_label,
    double threshold) const {
  const std::uint64_t word = words_->word(carrier);
  for (int level = 0; level < level_count(); ++level) {
    const VotingModel& model = models_[static_cast<std::size_t>(level)];
    if (const auto v = model.vote_excluding(model.key_of(word, neighbor), own_label, threshold)) {
      if (accept(*v, level)) return Decision{*v, level};
    }
  }
  return std::nullopt;
}

std::optional<BackoffVoting::Decision> BackoffVoting::local_word(
    const LabelColumn& labels, std::span<const netsim::CarrierId> candidates,
    std::uint64_t carrier_word, netsim::CarrierId neighbor, std::int64_t exclude_entity,
    double threshold, std::span<const double> carrier_weights) const {
  const VotingModel& coarsest = models_.back();
  std::vector<LocalPeer>& peers = peer_buffer();
  for_each_peer(labels, *words_, coarsest.mask(), coarsest.key_of(carrier_word, neighbor),
                candidates, exclude_entity, carrier_weights,
                [&](const LocalPeer& peer) { peers.push_back(peer); });
  return local_ladder(peers, carrier_word, neighbor, threshold, !carrier_weights.empty());
}

std::optional<BackoffVoting::Decision> BackoffVoting::local(
    const ParamView& view, std::span<const netsim::CarrierId> candidates,
    netsim::CarrierId carrier, netsim::CarrierId neighbor, std::int64_t exclude_row,
    double threshold, std::span<const double> carrier_weights) const {
  // As for_each_peer(), over the view's rows.
  const std::uint64_t carrier_word = words_->word(carrier);
  const VotingModel& coarsest = models_.back();
  const KeyMask& mask = coarsest.mask();
  const GroupKey key = coarsest.key_of(carrier_word, neighbor);
  std::vector<LocalPeer>& peers = peer_buffer();
  for (netsim::CarrierId cand : candidates) {
    const std::uint64_t word = words_->word(cand);
    if ((word & mask.carrier) != key.carrier) continue;
    const auto [lo, hi] = std::equal_range(view.carrier.begin(), view.carrier.end(), cand);
    for (auto r = static_cast<std::size_t>(lo - view.carrier.begin());
         r < static_cast<std::size_t>(hi - view.carrier.begin()); ++r) {
      if (static_cast<std::int64_t>(r) == exclude_row) continue;
      const std::uint64_t nbr = view.pairwise ? words_->word(view.neighbor[r]) : 0;
      if ((nbr & mask.neighbor) != key.neighbor) continue;
      peers.push_back({word, nbr, view.label[r], weight_of(carrier_weights, cand)});
    }
  }
  return local_ladder(peers, carrier_word, neighbor, threshold, !carrier_weights.empty());
}

std::optional<BackoffVoting::Decision> BackoffVoting::local_ladder(
    std::span<const LocalPeer> peers, std::uint64_t carrier_word, netsim::CarrierId neighbor,
    double threshold, bool weighted) const {
  for (int level = 0; level < level_count(); ++level) {
    const VotingModel& model = models_[static_cast<std::size_t>(level)];
    const GroupKey key = model.key_of(carrier_word, neighbor);
    const KeyMask& mask = model.mask();
    LocalTally tally;
    for (const LocalPeer& peer : peers) {
      if ((peer.carrier & mask.carrier) == key.carrier &&
          (peer.neighbor & mask.neighbor) == key.neighbor) {
        tally.add(peer);
      }
    }
    if (const auto v = tally.vote(threshold, weighted)) {
      // Neighborhoods are small by construction; require the quorum at every
      // level here — the global vote is the backstop for thin neighborhoods.
      if (v->group_size >= min_voters_) return Decision{*v, level};
    }
  }
  return std::nullopt;
}

}  // namespace auric::core
