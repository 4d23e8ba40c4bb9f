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

/// Fewest slots that hold `groups` at load <= 3/4, ⌈groups·4/3⌉; at least
/// one, so every probe run ends at an empty slot.
std::size_t capacity_for(std::size_t groups) {
  return std::max<std::size_t>(1, (groups * 4 + 2) / 3);
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
    : words_(&words), mask_(words.mask(deps)), deps_(deps.begin(), deps.end()) {
  plan_runs();
  build(view.rows(), [&](auto&& add) {
    for (std::size_t r = 0; r < view.rows(); ++r) {
      add(gather(key_for(view.carrier[r], view.neighbor[r])), view.label[r], 1);
    }
  });
}

VotingModel::VotingModel(const VotingModel& finer, std::span<const AttrRef> deps)
    : words_(finer.words_), mask_(words_->mask(deps)), deps_(deps.begin(), deps.end()) {
  if ((mask_.carrier & ~finer.mask_.carrier) != 0 ||
      (mask_.neighbor & ~finer.mask_.neighbor) != 0) {
    throw std::logic_error("VotingModel: coarsening onto attributes the finer model lacks");
  }
  plan_runs();
  // One observation per single-form group and per live run pair.
  build(finer.groups_ + finer.pairs_.size() - finer.garbage_, [&](auto&& add) {
    for (std::size_t s = 0; s < finer.slots_.size(); ++s) {
      const Slot& slot = finer.slots_[s];
      if (slot.size == 0) continue;
      // Gathering with this level's runs drops the fields it does not key on.
      const Packed key = gather(finer.scatter(finer.packed_at(s)));
      if (slot.single()) {
        add(key, slot.single_label(), slot.single_count());
        continue;
      }
      for (const auto& [label, count] : finer.run(slot)) add(key, label, count);
    }
  });
}

void VotingModel::plan_runs() {
  // The carrier side keeps its bits in place, and the neighbor side rotates
  // whole into the free bits when some rotation fits: a key then packs with
  // one AND per side and one rotate.
  runs_.clear();
  if (mask_.carrier != 0) runs_.push_back({mask_.carrier, 0});
  neighbor_run_ = high_run_ = static_cast<std::uint8_t>(runs_.size());
  wide_ = false;
  if (mask_.neighbor == 0) return;
  for (int rotate = 0; rotate < 64; ++rotate) {
    if ((std::rotl(mask_.neighbor, rotate) & mask_.carrier) == 0) {
      runs_.push_back({mask_.neighbor, rotate});
      high_run_ = static_cast<std::uint8_t>(runs_.size());
      return;
    }
  }
  // Otherwise each run of adjacent mask bits packs in turn from bit 0,
  // carrier side first; the bits past 64 go to the high word.
  runs_.clear();
  unsigned to = 0;  // next free bit of the packed key
  for (const bool neighbor : {false, true}) {
    if (neighbor) neighbor_run_ = high_run_ = static_cast<std::uint8_t>(runs_.size());
    std::uint64_t rest = neighbor ? mask_.neighbor : mask_.carrier;
    while (rest != 0) {
      const auto from = static_cast<unsigned>(std::countr_zero(rest));
      auto width = static_cast<unsigned>(std::countr_one(rest >> from));
      if (to < 64 && to + width > 64) width = 64 - to;  // split where the low word ends
      const std::uint64_t run = ones(width) << from;
      runs_.push_back({run, static_cast<int>((to - from) % 64)});
      rest &= ~run;
      to += width;
      if (to <= 64) high_run_ = static_cast<std::uint8_t>(runs_.size());
    }
  }
  wide_ = to > 64;
}

// gather, home, probe and find are the lookup path of every vote: inlined
// into vote() and vote_excluding(), a lookup makes no call.
[[gnu::always_inline]] inline VotingModel::Packed VotingModel::gather(const GroupKey& key) const {
  Packed packed;
  std::size_t r = 0;
  for (; r < neighbor_run_; ++r) {
    packed.low |= std::rotl(key.carrier & runs_[r].mask, runs_[r].rotate);
  }
  for (; r < high_run_; ++r) {
    packed.low |= std::rotl(key.neighbor & runs_[r].mask, runs_[r].rotate);
  }
  for (; r < runs_.size(); ++r) {
    packed.high |= std::rotl(key.neighbor & runs_[r].mask, runs_[r].rotate);
  }
  return packed;
}

GroupKey VotingModel::scatter(const Packed& packed) const {
  // Runs land on disjoint bits, so rotating a packed word back and masking
  // recovers exactly one run's bits.
  GroupKey key;
  std::size_t r = 0;
  for (; r < neighbor_run_; ++r) {
    key.carrier |= std::rotr(packed.low, runs_[r].rotate) & runs_[r].mask;
  }
  for (; r < high_run_; ++r) {
    key.neighbor |= std::rotr(packed.low, runs_[r].rotate) & runs_[r].mask;
  }
  for (; r < runs_.size(); ++r) {
    key.neighbor |= std::rotr(packed.high, runs_[r].rotate) & runs_[r].mask;
  }
  return key;
}

template <typename ForEach>
void VotingModel::build(std::size_t n, ForEach&& for_each) {
  // Sized for n distinct keys, so nothing grows; shrunk to the real group
  // count at the end.
  rehash(capacity_for(n));
  struct Observation {
    std::uint32_t group;
    ml::ClassLabel label;
    std::int32_t votes;
  };
  std::vector<Observation> observations;
  observations.reserve(n);
  // Observations per group, numbered in order of first appearance. Inserts
  // move slots, so until the fold below a slot's `begin` holds its group's
  // number and its size only marks it claimed. A coarse group can hold far
  // more than a Slot's 16-bit size codes, so the tally lives here.
  std::vector<std::uint32_t> bucket_end(n, 0);
  for_each([&](const Packed& key, ml::ClassLabel label, std::int32_t votes) {
    Slot& slot = slots_[claim(key)];
    if (slot.size == 0) {
      slot.size = 1;
      slot.begin = static_cast<std::uint32_t>(groups_ - 1);
    }
    ++bucket_end[slot.begin];
    observations.push_back({slot.begin, label, votes});
  });

  // Bucket the observations by group (counting sort), then fold each
  // bucket into its distinct (label, count) run, in slot order; a run of
  // one label moves into its slot.
  std::uint32_t offset = 0;
  for (std::uint32_t& end : bucket_end) {
    const std::uint32_t count = end;
    end = offset;  // the bucket's begin, until the placement below advances it
    offset += count;
  }
  std::vector<LabelCount> staged(observations.size());
  for (const Observation& o : observations) staged[bucket_end[o.group]++] = {o.label, o.votes};
  pairs_.reserve(staged.size());
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    Slot& slot = slots_[s];
    if (slot.size == 0) continue;
    const auto begin = static_cast<std::uint32_t>(pairs_.size());
    const std::uint32_t group = slot.begin;
    for (std::uint32_t i = group == 0 ? 0 : bucket_end[group - 1]; i < bucket_end[group]; ++i) {
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
    if (size == 1) {
      const LabelCount only = pairs_.back();
      pairs_.pop_back();
      set_single(slot, only.first, only.second);
      continue;
    }
    slot.begin = begin;
    slot.size = static_cast<std::uint16_t>(size);
  }
  pairs_.shrink_to_fit();
  if (capacity_for(groups_) < slots_.size()) rehash(capacity_for(groups_));
}

[[gnu::always_inline]] inline std::size_t VotingModel::home(const Packed& key) const {
  // MurmurHash3's 64-bit finalizer, then a multiply-high range reduction
  // (Lemire's fastrange) onto any slot count.
  std::uint64_t h = key.low ^ (key.high * 0x9e3779b97f4a7c15ULL);
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  __extension__ typedef unsigned __int128 Wide;
  return static_cast<std::size_t>((static_cast<Wide>(h) * slots_.size()) >> 64);
}

[[gnu::always_inline]] inline std::size_t VotingModel::probe(const Packed& key,
                                                            std::size_t start) const {
  // Robin Hood order: a probe run holds its keys in the order of their home
  // slots, so a lookup stops at the first slot whose key sits closer to its
  // home than `key` would, without walking the rest of the run.
  for (std::size_t i = start, d = 0;; i = next(i), ++d) {
    if (slots_[i].size == 0 || slots_[i].offset() < d || holds(i, key)) return i;
  }
}

[[gnu::always_inline]] inline std::size_t VotingModel::find(const GroupKey& key) const {
  const Packed packed = gather(key);
  const std::size_t i = probe(packed, home(packed));
  return holds(i, packed) ? i : kNone;
}

std::size_t VotingModel::claim(const Packed& key) {
  // Grow to hold an eighth more groups than now, not double: a relearned
  // table stays near the size of a fresh build.
  if ((groups_ + 1) * 4 > slots_.size() * 3) rehash(capacity_for(groups_ + 1 + groups_ / 8));
  const std::size_t start = home(key);
  const std::size_t i = probe(key, start);
  if (holds(i, key)) return i;
  insert(i, key, distance(start, i));
  ++groups_;
  return i;
}

void VotingModel::insert(std::size_t index, const Packed& key, std::size_t displacement) {
  // Shift the rest of the probe run one slot on, into its first empty slot;
  // every shifted key keeps its order and its form and moves one further
  // from home.
  const auto displaced = [](std::size_t slots) {
    if (slots > kMaxDisplacement) throw std::logic_error("VotingModel: probe run too long");
    return static_cast<std::uint16_t>(slots);
  };
  std::size_t empty = index;
  while (slots_[empty].size != 0) empty = next(empty);
  for (std::size_t j = empty; j != index;) {
    const std::size_t before = j == 0 ? slots_.size() - 1 : j - 1;
    slots_[j] = slots_[before];
    slots_[j].displacement = static_cast<std::uint16_t>((slots_[j].displacement & kSingle) |
                                                        displaced(slots_[j].offset() + 1));
    if (wide_) high_[j] = high_[before];
    j = before;
  }
  slots_[index] = Slot{};
  slots_[index].key = key.low;
  slots_[index].displacement = displaced(displacement);
  if (wide_) high_[index] = key.high;
}

void VotingModel::erase_slot(std::size_t index) {
  // Backward-shift deletion: pull the rest of the probe run back one slot,
  // up to an empty slot or a key already at its home. A decrement leaves
  // the kSingle bit alone, since every pulled slot's offset is above 0.
  std::size_t hole = index;
  for (std::size_t j = next(hole); slots_[j].size != 0 && slots_[j].offset() != 0;
       j = next(j)) {
    slots_[hole] = slots_[j];
    --slots_[hole].displacement;
    if (wide_) high_[hole] = high_[j];
    hole = j;
  }
  slots_[hole] = Slot{};
  --groups_;
}

void VotingModel::rehash(std::size_t capacity) {
  const std::vector<Slot> old = std::move(slots_);
  const std::vector<std::uint64_t> old_high = std::move(high_);
  slots_.assign(capacity, Slot{});
  if (wide_) high_.assign(capacity, 0);
  for (std::size_t s = 0; s < old.size(); ++s) {
    if (old[s].size == 0) continue;
    const Packed key{old[s].key, wide_ ? old_high[s] : 0};
    const std::size_t start = home(key);
    const std::size_t i = probe(key, start);  // keys are distinct: where it goes
    insert(i, key, distance(start, i));
    slots_[i].begin = old[s].begin;
    slots_[i].size = old[s].size;
    slots_[i].displacement |= old[s].displacement & kSingle;
  }
}

void VotingModel::append_pair(Slot& slot, ml::ClassLabel label, std::int32_t count) {
  if (slot.size == kMaxRun) {
    throw std::logic_error("VotingModel: group has more labels than a run codes");
  }
  if (slot.begin + slot.size != pairs_.size()) {
    // Move the run to the tail, where it can grow in place.
    const std::size_t begin = pairs_.size();
    pairs_.resize(begin + slot.size);
    std::copy_n(pairs_.begin() + slot.begin, slot.size, pairs_.begin() + begin);
    garbage_ += slot.size;
    slot.begin = static_cast<std::uint32_t>(begin);
  }
  pairs_.emplace_back(label, count);
  ++slot.size;
}

void VotingModel::set_single(Slot& slot, ml::ClassLabel label, std::int32_t count) {
  if (!fits_single(label)) {
    slot.displacement &= kMaxDisplacement;
    slot.begin = static_cast<std::uint32_t>(pairs_.size());
    slot.size = 1;
    pairs_.emplace_back(label, count);
    return;
  }
  slot.displacement |= kSingle;
  slot.begin = static_cast<std::uint32_t>(count);
  slot.size = static_cast<std::uint16_t>(label + 1);
}

void VotingModel::settle(Slot& slot) {
  if (slot.single() || slot.size != 1 || !fits_single(pairs_[slot.begin].first)) return;
  const LabelCount only = pairs_[slot.begin];
  set_single(slot, only.first, only.second);
  ++garbage_;
}

void VotingModel::compact_pairs() {
  std::vector<LabelCount> next;
  next.reserve(pairs_.size() - garbage_);
  for (Slot& slot : slots_) {
    if (slot.size == 0 || slot.single()) continue;
    const auto begin = static_cast<std::uint32_t>(next.size());
    const auto pairs = run(slot);
    next.insert(next.end(), pairs.begin(), pairs.end());
    slot.begin = begin;
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
    if (exclude_one && label == excluded) {
      --c;
      --total;  // the excluded voter leaves the group only if the group holds it
    }
    if (c > best.count || (c == best.count && best.label >= 0 && label < best.label)) {
      best.runner_up = best.count;
      best.label = label;
      best.count = c;
    } else if (c > best.runner_up) {
      best.runner_up = c;
    }
  }
  best.group_size = total;
  if (total <= 0 || best.count <= 0) return std::nullopt;
  if (best.support() < threshold) return std::nullopt;
  return best;
}

std::vector<VotingModel::GroupSummary> VotingModel::group_summaries() const {
  std::vector<GroupSummary> out;
  out.reserve(groups_);
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    const Slot& slot = slots_[s];
    if (slot.size == 0) continue;
    const GroupKey key = scatter(packed_at(s));
    GroupSummary summary;
    summary.codes.reserve(deps_.size());
    for (const AttrRef& ref : deps_) {
      summary.codes.push_back(
          words_->code(ref.neighbor_side ? key.neighbor : key.carrier, ref.attr));
    }
    if (slot.single()) {
      summary.winner = slot.single_label();
      summary.winner_count = summary.total = slot.single_count();
    } else {
      for (const auto& [label, count] : run(slot)) {
        summary.total += count;
        if (count > summary.winner_count ||
            (count == summary.winner_count && summary.winner >= 0 && label < summary.winner)) {
          summary.winner = label;
          summary.winner_count = count;
        }
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
    index = claim(gather(key));
    set_single(slots_[index], label, delta);
    return;
  }
  Slot& slot = slots_[index];
  if (slot.single()) {
    const ml::ClassLabel only = slot.single_label();
    if (label != only) {
      if (delta < 0) throw std::logic_error("VotingModel::adjust: removing an absent label");
      // A second label: the group becomes a two-pair run at the tail.
      const std::int32_t count = slot.single_count();
      slot.displacement &= kMaxDisplacement;
      slot.begin = static_cast<std::uint32_t>(pairs_.size());
      slot.size = 2;
      pairs_.emplace_back(only, count);
      pairs_.emplace_back(label, delta);
      return;
    }
    const std::int32_t count = slot.single_count() + delta;
    if (count < 0) throw std::logic_error("VotingModel::adjust: vote count went negative");
    if (count == 0) {
      erase_slot(index);  // the group's last voter left
    } else {
      slot.begin = static_cast<std::uint32_t>(count);
    }
    return;
  }
  LabelCount* pairs = pairs_.data() + slot.begin;
  std::uint32_t i = 0;
  while (i < slot.size && pairs[i].first != label) ++i;
  if (i < slot.size) {
    pairs[i].second += delta;
    if (pairs[i].second < 0) throw std::logic_error("VotingModel::adjust: vote count went negative");
    if (pairs[i].second == 0) {
      pairs[i] = pairs[--slot.size];
      ++garbage_;
    }
  } else {
    if (delta < 0) throw std::logic_error("VotingModel::adjust: removing an absent label");
    append_pair(slot, label, delta);
  }
  settle(slot);
  if (slot.size == 0) erase_slot(index);  // the group's last voter left
  if (garbage_ > 64 && 2 * garbage_ > pairs_.size()) compact_pairs();
}

void VotingModel::remap_labels(std::span<const ml::ClassLabel> old_to_new) {
  const auto remap = [&](ml::ClassLabel label) {
    const ml::ClassLabel next = old_to_new[static_cast<std::size_t>(label)];
    if (next < 0) throw std::logic_error("VotingModel::remap_labels: dropping a live label");
    return next;
  };
  for (Slot& slot : slots_) {
    if (slot.single()) {
      set_single(slot, remap(slot.single_label()), slot.single_count());
      continue;
    }
    for (std::uint32_t i = slot.begin; i < slot.begin + slot.size; ++i) {
      pairs_[i].first = remap(pairs_[i].first);
    }
    settle(slot);
  }
}

void VotingModel::reorder_deps(std::span<const AttrRef> new_deps) {
  if (new_deps.size() != deps_.size() ||
      !std::is_permutation(new_deps.begin(), new_deps.end(), deps_.begin())) {
    throw std::logic_error("VotingModel::reorder_deps: not a permutation of deps()");
  }
  deps_.assign(new_deps.begin(), new_deps.end());
}

[[gnu::always_inline]] inline std::optional<Vote> VotingModel::decide(
    const Slot& slot, ml::ClassLabel excluded, bool exclude_one, double threshold) const {
  if (!slot.single()) return winner(run(slot), excluded, exclude_one, threshold);
  // winner() over the one pair, without reading pairs_.
  Vote best;
  best.label = slot.single_label();
  best.count = best.group_size = slot.single_count();
  if (exclude_one && best.label == excluded) {
    --best.count;
    --best.group_size;
  }
  if (best.group_size <= 0 || best.count <= 0 || best.support() < threshold) return std::nullopt;
  return best;
}

std::optional<Vote> VotingModel::vote(const GroupKey& key, double threshold) const {
  const std::size_t index = find(key);
  if (index == kNone) return std::nullopt;
  return decide(slots_[index], -1, false, threshold);
}

std::optional<Vote> VotingModel::vote_excluding(const GroupKey& key, ml::ClassLabel own_label,
                                                double threshold) const {
  const std::size_t index = find(key);
  if (index == kNone) return std::nullopt;
  return decide(slots_[index], own_label, true, threshold);
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
/// every tally sums in. The column's kind is decided once, outside the
/// candidate loop: tested per candidate it kept the singular loop from
/// holding the tally in registers and cost a single-level local vote ~45%
/// (EXPERIMENTS.md, "BM_LocalVote's regression").
template <typename Visit>
void for_each_peer(const LabelColumn& labels, const AttrWords& words, const KeyMask& mask,
                   const GroupKey& key, std::span<const netsim::CarrierId> candidates,
                   std::int64_t exclude_entity, std::span<const double> carrier_weights,
                   Visit&& visit) {
  if (labels.topology == nullptr) {
    for (netsim::CarrierId cand : candidates) {
      // Every slot of `cand` shares its carrier side: one compare decides them.
      const std::uint64_t word = words.word(cand);
      if ((word & mask.carrier) != key.carrier) continue;
      const ml::ClassLabel label = labels.carrier_label(static_cast<std::size_t>(cand));
      if (label >= 0 && cand != exclude_entity) {
        visit(LocalPeer{word, 0, label, weight_of(carrier_weights, cand)});
      }
    }
    return;
  }
  // Pair-wise: each candidate's configured edges are one bucket of cells.
  const netsim::Topology& topo = *labels.topology;
  for (netsim::CarrierId cand : candidates) {
    const std::uint64_t word = words.word(cand);
    if ((word & mask.carrier) != key.carrier) continue;
    const double weight = weight_of(carrier_weights, cand);
    const auto c = static_cast<std::size_t>(cand);
    const std::size_t edges = topo.edge_offsets[c];
    for (const PairCell& cell : labels.bucket(c)) {
      const std::size_t e = edges + cell.edge;
      if (static_cast<std::int64_t>(e) == exclude_entity) continue;
      const std::uint64_t neighbor = words.word(topo.edges[e].to);
      if ((neighbor & mask.neighbor) != key.neighbor) continue;
      visit(LocalPeer{word, neighbor, static_cast<ml::ClassLabel>(cell.label), weight});
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
