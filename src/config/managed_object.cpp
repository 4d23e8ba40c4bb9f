#include "config/managed_object.h"

#include <algorithm>

#include "util/render.h"
#include "util/strings.h"

namespace auric::config {

std::string cell_mo_path(const netsim::Carrier& carrier) {
  std::string path = "ENodeBFunction=";
  util::append_int(path, carrier.enodeb);
  path += "/EUtranCellFDD=";
  util::append_int(path, carrier.enodeb);
  path += '-';
  util::append_int(path, carrier.face);
  path += '-';
  util::append_int(path, carrier.frequency_mhz);
  return path;
}

void append_freq_relation(std::string& cell_path, const netsim::Carrier& neighbor) {
  cell_path += "/EUtranFreqRelation=";
  util::append_int(cell_path, neighbor.frequency_mhz);
}

void append_cell_relation(std::string& freq_path, const netsim::Carrier& neighbor) {
  freq_path += "/EUtranCellRelation=";
  util::append_int(freq_path, neighbor.id);
}

std::vector<std::string> render_config_commands(const CarrierConfig& config,
                                                const ParamCatalog& catalog) {
  std::vector<std::string> lines;
  lines.reserve(config.settings.size());
  for (const MoSetting& s : config.settings) {
    const ParamDef& def = catalog.at(s.param);
    const double raw = def.domain.value(s.value);
    // Integer-valued domains print without a fraction, stepped reals with
    // one decimal (vendor CLIs are strict about numeric formats).
    const bool integral = def.domain.step() == static_cast<double>(
                              static_cast<long long>(def.domain.step())) &&
                          def.domain.min() == static_cast<double>(
                              static_cast<long long>(def.domain.min()));
    lines.push_back("set " + s.mo_path + " " + def.name + " " +
                    (integral ? std::to_string(static_cast<long long>(raw))
                              : util::format_fixed(raw, 1)));
  }
  return lines;
}

namespace {
bool setting_order(const MoSetting& a, const MoSetting& b) {
  if (a.mo_path != b.mo_path) return a.mo_path < b.mo_path;
  return a.param < b.param;
}
}  // namespace

void canonicalize(CarrierConfig& config) {
  std::sort(config.settings.begin(), config.settings.end(), setting_order);
}

std::vector<MoSetting> diff_config(const CarrierConfig& current, const CarrierConfig& desired) {
  std::vector<MoSetting> out;
  auto cur = current.settings.begin();
  for (const MoSetting& want : desired.settings) {
    while (cur != current.settings.end() && setting_order(*cur, want)) ++cur;
    const bool same = cur != current.settings.end() && cur->mo_path == want.mo_path &&
                      cur->param == want.param && cur->value == want.value;
    if (!same) out.push_back(want);
  }
  return out;
}

}  // namespace auric::config
