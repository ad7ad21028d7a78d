#include "util/flags.hpp"

#include <cstdlib>
#include <iostream>

#include "util/assert.hpp"

namespace perigee::util {

void Flags::add_int(const std::string& name, std::int64_t def,
                    const std::string& help) {
  Entry e;
  e.kind = Kind::Int;
  e.help = help;
  e.i = def;
  entries_[name] = std::move(e);
}

void Flags::add_double(const std::string& name, double def,
                       const std::string& help) {
  Entry e;
  e.kind = Kind::Double;
  e.help = help;
  e.d = def;
  entries_[name] = std::move(e);
}

void Flags::add_string(const std::string& name, const std::string& def,
                       const std::string& help) {
  Entry e;
  e.kind = Kind::String;
  e.help = help;
  e.s = def;
  entries_[name] = std::move(e);
}

void Flags::add_bool(const std::string& name, bool def,
                     const std::string& help) {
  Entry e;
  e.kind = Kind::Bool;
  e.help = help;
  e.b = def;
  entries_[name] = std::move(e);
}

bool Flags::parse(int argc, const char* const* argv) {
  if (argc > 0) prog_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage(std::cout);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      std::cerr << "unknown flag '" << arg << "' (try --help)\n";
      return false;
    }
    std::string name = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_value = true;
    }
    auto it = entries_.find(name);
    if (it == entries_.end()) {
      std::cerr << "unknown flag '" << arg << "' (try --help)\n";
      return false;
    }
    Entry& e = it->second;
    if (!has_value && e.kind != Kind::Bool) {
      if (i + 1 >= argc) {
        std::cerr << "flag --" << name << " expects a value\n";
        return false;
      }
      value = argv[++i];
      has_value = true;
    }
    char* end = nullptr;
    switch (e.kind) {
      case Kind::Int:
        e.i = std::strtoll(value.c_str(), &end, 10);
        if (end == value.c_str() || *end != '\0') {
          std::cerr << "flag --" << name << ": bad integer '" << value << "'\n";
          return false;
        }
        break;
      case Kind::Double:
        e.d = std::strtod(value.c_str(), &end);
        if (end == value.c_str() || *end != '\0') {
          std::cerr << "flag --" << name << ": bad number '" << value << "'\n";
          return false;
        }
        break;
      case Kind::String:
        e.s = value;
        break;
      case Kind::Bool:
        if (!has_value || value == "true" || value == "1" || value == "yes") {
          e.b = true;
        } else if (value == "false" || value == "0" || value == "no") {
          e.b = false;
        } else {
          std::cerr << "flag --" << name << ": bad boolean '" << value << "'\n";
          return false;
        }
        break;
    }
  }
  return true;
}

bool Flags::int_in_range(const std::string& name, std::int64_t lo,
                         std::int64_t hi) const {
  const std::int64_t value = get_int(name);
  if (value >= lo && value <= hi) return true;
  std::cerr << "bad --" << name << " value '" << value << "' (want ";
  if (hi == std::numeric_limits<std::int64_t>::max()) {
    std::cerr << ">= " << lo;
  } else {
    std::cerr << lo << ".." << hi;
  }
  std::cerr << ")\n";
  return false;
}

const Flags::Entry& Flags::lookup(const std::string& name, Kind kind) const {
  auto it = entries_.find(name);
  PERIGEE_ASSERT_MSG(it != entries_.end(), "unregistered flag");
  PERIGEE_ASSERT_MSG(it->second.kind == kind, "flag type mismatch");
  return it->second;
}

std::int64_t Flags::get_int(const std::string& name) const {
  return lookup(name, Kind::Int).i;
}

double Flags::get_double(const std::string& name) const {
  return lookup(name, Kind::Double).d;
}

const std::string& Flags::get_string(const std::string& name) const {
  return lookup(name, Kind::String).s;
}

bool Flags::get_bool(const std::string& name) const {
  return lookup(name, Kind::Bool).b;
}

void Flags::print_usage(std::ostream& os) const {
  os << "usage: " << prog_ << " [flags]\n";
  for (const auto& [name, e] : entries_) {
    os << "  --" << name;
    switch (e.kind) {
      case Kind::Int:
        os << "=<int>      (default " << e.i << ")";
        break;
      case Kind::Double:
        os << "=<float>    (default " << e.d << ")";
        break;
      case Kind::String:
        os << "=<string>   (default '" << e.s << "')";
        break;
      case Kind::Bool:
        os << "             (default " << (e.b ? "true" : "false") << ")";
        break;
    }
    os << "  " << e.help << '\n';
  }
}

}  // namespace perigee::util
