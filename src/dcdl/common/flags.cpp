#include "dcdl/common/flags.hpp"

#include <cstdio>
#include <cstdlib>
#include <thread>

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
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";  // bare boolean flag
    }
  }
}

std::int64_t Flags::get_int(const std::string& name, std::int64_t default_value) {
  used_[name] = true;
  const auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  return std::strtoll(it->second.c_str(), nullptr, 10);
}

double Flags::get_double(const std::string& name, double default_value) {
  used_[name] = true;
  const auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  return std::strtod(it->second.c_str(), nullptr);
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

int Flags::shards() {
  const std::int64_t n = get_int("shards", 1);
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
