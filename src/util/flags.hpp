// Minimal CLI flag parser for benches and examples.
//
// Flags are registered with defaults before parse(); "--name=value",
// "--name value" and bare boolean "--name" forms are accepted. A boolean
// value is one of true/false, 1/0, yes/no. An unregistered flag, a
// positional argument or a misspelled value is an error, so a typo never
// silently runs the defaults.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <ostream>
#include <string>

namespace perigee::util {

class Flags {
 public:
  void add_int(const std::string& name, std::int64_t def,
               const std::string& help);
  void add_double(const std::string& name, double def, const std::string& help);
  void add_string(const std::string& name, const std::string& def,
                  const std::string& help);
  void add_bool(const std::string& name, bool def, const std::string& help);

  // Returns false (after printing usage or an error) when --help was
  // requested, an argument is not a registered flag, or a registered flag
  // had an unparseable value.
  bool parse(int argc, const char* const* argv);

  std::int64_t get_int(const std::string& name) const;
  double get_double(const std::string& name) const;
  const std::string& get_string(const std::string& name) const;
  bool get_bool(const std::string& name) const;

  // Range check for an int flag a program would otherwise abort on (or
  // loop on) deep inside a run: false, after printing "bad --<name> value
  // '<v>' (want ...)" to stderr, when the value lies outside [lo, hi].
  // Call it right after parse(), before any work starts.
  bool int_in_range(
      const std::string& name, std::int64_t lo,
      std::int64_t hi = std::numeric_limits<std::int64_t>::max()) const;

  void print_usage(std::ostream& os) const;

 private:
  enum class Kind { Int, Double, String, Bool };
  struct Entry {
    Kind kind;
    std::string help;
    std::int64_t i = 0;
    double d = 0;
    std::string s;
    bool b = false;
  };
  const Entry& lookup(const std::string& name, Kind kind) const;

  std::map<std::string, Entry> entries_;
  std::string prog_ = "prog";
};

}  // namespace perigee::util
