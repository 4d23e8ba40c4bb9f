#include "util/args.h"

#include <stdexcept>

#include "util/strings.h"

namespace auric::util {

Args::Args(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      continue;
    }
    if (!starts_with(arg, "--")) {
      throw std::invalid_argument("unexpected positional argument: " + std::string(arg));
    }
    arg.remove_prefix(2);
    const std::size_t eq = arg.find('=');
    if (eq != std::string_view::npos) {
      values_[std::string(arg.substr(0, eq))] = std::string(arg.substr(eq + 1));
    } else if (i + 1 < argc && !starts_with(argv[i + 1], "--")) {
      values_[std::string(arg)] = argv[++i];
    } else {
      values_[std::string(arg)] = "true";  // bare boolean flag
    }
  }
}

std::optional<std::string> Args::lookup(const std::string& name,
                                        const std::string& default_value,
                                        const std::string& help) {
  for (const Declared& d : declared_) {
    if (d.name == name) throw std::logic_error("flag --" + name + " declared twice");
  }
  declared_.push_back({name, default_value, help});
  const auto it = values_.find(name);
  if (it == values_.end()) return std::nullopt;
  consumed_[name] = true;
  return it->second;
}

std::string Args::get_string(const std::string& name, const std::string& default_value,
                             const std::string& help) {
  return lookup(name, default_value, help).value_or(default_value);
}

std::int64_t Args::get_int(const std::string& name, std::int64_t default_value,
                           const std::string& help) {
  const auto raw = lookup(name, std::to_string(default_value), help);
  if (!raw) return default_value;
  try {
    return std::stoll(*raw);
  } catch (const std::exception&) {
    throw std::invalid_argument("flag --" + name + " expects an integer, got '" + *raw + "'");
  }
}

double Args::get_double(const std::string& name, double default_value, const std::string& help) {
  const auto raw = lookup(name, format_fixed(default_value, 6), help);
  if (!raw) return default_value;
  try {
    return std::stod(*raw);
  } catch (const std::exception&) {
    throw std::invalid_argument("flag --" + name + " expects a number, got '" + *raw + "'");
  }
}

bool Args::get_bool(const std::string& name, bool default_value, const std::string& help) {
  const auto raw = lookup(name, default_value ? "true" : "false", help);
  if (!raw) return default_value;
  const std::string lowered = to_lower(*raw);
  if (lowered == "true" || lowered == "1" || lowered == "yes") return true;
  if (lowered == "false" || lowered == "0" || lowered == "no") return false;
  throw std::invalid_argument("flag --" + name + " expects a boolean, got '" + *raw + "'");
}

std::string Args::usage() const {
  std::string out = "usage: " + program_ + " [flags]\n";
  for (const auto& d : declared_) {
    out += format("  --%-28s %s (default: %s)\n", d.name.c_str(), d.help.c_str(),
                  d.default_value.c_str());
  }
  return out;
}

void Args::check_unknown() const {
  for (const auto& [name, value] : values_) {
    (void)value;
    if (consumed_.find(name) == consumed_.end()) {
      throw std::invalid_argument("unknown flag --" + name);
    }
  }
}

}  // namespace auric::util
