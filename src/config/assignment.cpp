#include "config/assignment.h"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <string>

namespace auric::config {

const char* cause_name(Cause cause) {
  switch (cause) {
    case Cause::kDefault: return "default";
    case Cause::kAttributeRule: return "attribute-rule";
    case Cause::kMarketStyle: return "market-style";
    case Cause::kLocalPocket: return "local-pocket";
    case Cause::kHiddenTerrain: return "hidden-terrain";
    case Cause::kTrial: return "trial";
    case Cause::kStaleLeftover: return "stale-leftover";
    case Cause::kNoise: return "noise";
  }
  return "?";
}

std::size_t ParamColumn::Values::lower_bound(std::size_t entity) const {
  return static_cast<std::size_t>(
      std::lower_bound(ids_.begin(), ids_.end(), entity,
                       [](std::uint32_t id, std::size_t e) { return id < e; }) -
      ids_.begin());
}

std::size_t ParamColumn::Values::find(std::size_t entity) const {
  const std::size_t i = lower_bound(entity);
  return i < ids_.size() && ids_[i] == entity ? i : npos;
}

ValueIndex ParamColumn::Values::operator[](std::size_t entity) const {
  const std::size_t i = find(entity);
  return i == npos ? kUnset : cells_[i];
}

ValueIndex& ParamColumn::Values::operator[](std::size_t entity) {
  const std::size_t i = find(entity);
  if (i != npos) return cells_[i];
  // Per thread, so a read through a mutable column writes no shared state.
  thread_local ValueIndex absent;
  absent = kUnset;
  return absent;
}

ParamColumn::ParamColumn(std::size_t entities) {
  if (entities > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("ParamColumn: entity space exceeds 32-bit ids");
  }
  value.entities_ = entities;
}

ParamColumn ParamColumn::from_dense(const std::vector<ValueIndex>& value,
                                    const std::vector<ValueIndex>& intended,
                                    const std::vector<Cause>& cause) {
  if (intended.size() != value.size() || cause.size() != value.size()) {
    throw std::invalid_argument("ParamColumn::from_dense: arrays differ in length");
  }
  ParamColumn col(value.size());
  col.reserve(value.size() -
              static_cast<std::size_t>(std::count(value.begin(), value.end(), kUnset)));
  for (std::size_t e = 0; e < value.size(); ++e) col.append(e, value[e], intended[e], cause[e]);
  return col;
}

ValueIndex ParamColumn::intended_of(std::size_t entity) const {
  const std::size_t i = find(entity);
  return i == npos ? kUnset : intended_[i];
}

ParamColumn::Range ParamColumn::range(std::size_t first, std::size_t last) const {
  const std::vector<std::uint32_t>& ids = value.ids_;
  Range r;
  r.begin = r.end = value.lower_bound(first);
  // The range holds at most last - first entries: step to its end.
  while (r.end < ids.size() && ids[r.end] < last) ++r.end;
  return r;
}

void ParamColumn::set(std::size_t entity, ValueIndex v, ValueIndex intended, Cause cause) {
  std::vector<std::uint32_t>& ids = value.ids_;
  const std::size_t i = value.lower_bound(entity);
  const auto at = static_cast<std::ptrdiff_t>(i);
  if (i < ids.size() && ids[i] == entity) {
    if (v == kUnset) {
      ids.erase(ids.begin() + at);
      value.cells_.erase(value.cells_.begin() + at);
      intended_.erase(intended_.begin() + at);
      cause_.erase(cause_.begin() + at);
      return;
    }
    value.cells_[i] = v;
    intended_[i] = intended;
    cause_[i] = cause;
    return;
  }
  if (v == kUnset) return;
  if (entity >= entities()) {
    throw std::out_of_range("ParamColumn::set: entity " + std::to_string(entity) + " of " +
                            std::to_string(entities()));
  }
  ids.insert(ids.begin() + at, static_cast<std::uint32_t>(entity));
  value.cells_.insert(value.cells_.begin() + at, v);
  intended_.insert(intended_.begin() + at, intended);
  cause_.insert(cause_.begin() + at, cause);
}

void ParamColumn::update_at(std::size_t i, ValueIndex v, Cause cause) {
  value.cells_[i] = v;
  cause_[i] = cause;
}

void ParamColumn::append(std::size_t entity, ValueIndex v, ValueIndex intended, Cause cause) {
  std::vector<std::uint32_t>& ids = value.ids_;
  if (entity >= entities() || (!ids.empty() && entity <= ids.back())) {
    throw std::invalid_argument("ParamColumn::append: entity " + std::to_string(entity) +
                                " is out of order or outside " + std::to_string(entities()));
  }
  if (v == kUnset) return;
  ids.push_back(static_cast<std::uint32_t>(entity));
  value.cells_.push_back(v);
  intended_.push_back(intended);
  cause_.push_back(cause);
}

void ParamColumn::reserve(std::size_t entries) {
  value.ids_.reserve(entries);
  value.cells_.reserve(entries);
  intended_.reserve(entries);
  cause_.reserve(entries);
}

std::size_t ParamColumn::heap_bytes() const {
  return value.ids_.capacity() * sizeof(std::uint32_t) +
         value.cells_.capacity() * sizeof(ValueIndex) +
         intended_.capacity() * sizeof(ValueIndex) + cause_.capacity() * sizeof(Cause);
}

std::size_t ConfigAssignment::total_configured() const {
  std::size_t total = 0;
  for (const ParamColumn& col : singular) total += col.configured_count();
  for (const ParamColumn& col : pairwise) total += col.configured_count();
  return total;
}

std::size_t ConfigAssignment::heap_bytes() const {
  std::size_t bytes = 0;
  for (const ParamColumn& col : singular) bytes += col.heap_bytes();
  for (const ParamColumn& col : pairwise) bytes += col.heap_bytes();
  return bytes;
}

}  // namespace auric::config
