#include "dcdl/common/flags.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <type_traits>

#include "dcdl/common/contract.hpp"

namespace dcdl {

Flags::Flags(int argc, char** argv) {
  DCDL_EXPECTS(argc >= 1);
  program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    std::string value;
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      value = argv[++i];
    } else {
      value = "true";  // bare boolean flag
    }
    // A second occurrence would silently replace the first (a repeated
    // --set keeps only its last key), so refuse it.
    if (!values_.emplace(name, std::move(value)).second) {
      std::fprintf(stderr, "%s: flag --%s given more than once\n",
                   program_.c_str(), name.c_str());
      std::exit(2);
    }
  }
}

namespace {

/// Parses all of `text` as a T; anything left over (a fraction on an
/// integer, a unit suffix) or a non-finite value exits with code 2.
template <typename T>
T parse_whole(const std::string& program, const std::string& name,
              const std::string& text, const char* expected) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  bool ok = ec == std::errc{} && ptr == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (!ok) {
    std::fprintf(stderr, "%s: --%s expects %s, got '%s'\n", program.c_str(),
                 name.c_str(), expected, text.c_str());
    std::exit(2);
  }
  return value;
}

}  // namespace

std::int64_t Flags::get_int(const std::string& name, std::int64_t default_value) {
  used_[name] = true;
  const auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  return parse_whole<std::int64_t>(program_, name, it->second, "an integer");
}

double Flags::get_double(const std::string& name, double default_value) {
  used_[name] = true;
  const auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  return parse_whole<double>(program_, name, it->second, "a finite number");
}

bool Flags::get_bool(const std::string& name, bool default_value) {
  used_[name] = true;
  const auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  return it->second != "false" && it->second != "0" && it->second != "no";
}

std::string Flags::get_string(const std::string& name,
                              const std::string& default_value) {
  used_[name] = true;
  const auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  return it->second;
}

int Flags::jobs() {
  const auto hw = static_cast<std::int64_t>(std::thread::hardware_concurrency());
  const std::int64_t n = get_int("jobs", hw > 0 ? hw : 1);
  return static_cast<int>(n > 0 ? n : 1);
}

int Flags::shards(int default_value) {
  const std::int64_t n = get_int("shards", default_value);
  if (n < 1) {
    std::fprintf(stderr, "%s: --shards must be >= 1 (got %s)\n",
                 program_.c_str(), values_.at("shards").c_str());
    std::exit(2);
  }
  return static_cast<int>(n);
}

std::string Flags::out(const std::string& default_path) {
  return get_string("out", default_path);
}

void Flags::check_unused() const {
  bool bad = false;
  for (const auto& [name, value] : values_) {
    if (!used_.count(name)) {
      std::fprintf(stderr, "%s: unknown flag --%s=%s\n", program_.c_str(),
                   name.c_str(), value.c_str());
      bad = true;
    }
  }
  if (bad) {
    std::fprintf(stderr, "known flags:");
    for (const auto& [name, was_used] : used_) {
      if (was_used) std::fprintf(stderr, " --%s", name.c_str());
    }
    std::fprintf(stderr, "\n");
    std::exit(2);
  }
}

}  // namespace dcdl
