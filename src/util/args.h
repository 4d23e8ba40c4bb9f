// Minimal command-line flag parser for the bench harnesses and examples.
//
// Accepts flags of the form `--name=value` and `--name value`, plus bare
// `--name` for booleans. Unknown flags are an error so typos in experiment
// sweeps fail loudly instead of silently running the default configuration.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace auric::util {

class Args {
 public:
  /// Parses argv. Throws std::invalid_argument on malformed input.
  Args(int argc, const char* const* argv);

  /// Declares a flag with a default; returns the parsed or default value.
  /// Declaring is also how flags become "known" for the final validation.
  /// Each name is declared once: a second declaration throws
  /// std::logic_error naming the flag.
  std::string get_string(const std::string& name, const std::string& default_value,
                         const std::string& help = "");
  std::int64_t get_int(const std::string& name, std::int64_t default_value,
                       const std::string& help = "");
  double get_double(const std::string& name, double default_value,
                    const std::string& help = "");
  bool get_bool(const std::string& name, bool default_value, const std::string& help = "");

  /// True when --help was passed; callers should print usage() and exit 0.
  bool help_requested() const { return help_requested_; }

  /// Usage text assembled from every get_* declaration made so far.
  std::string usage() const;

  /// Throws std::invalid_argument if any provided flag was never declared.
  /// Call after all get_* declarations.
  void check_unknown() const;

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> consumed_;
  bool help_requested_ = false;

  struct Declared {
    std::string name;
    std::string default_value;
    std::string help;
  };
  std::vector<Declared> declared_;

  std::optional<std::string> lookup(const std::string& name, const std::string& default_value,
                                    const std::string& help);
};

}  // namespace auric::util
