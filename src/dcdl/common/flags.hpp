// A tiny command-line flag parser for the bench/example binaries, so every
// experiment can be re-run with different parameters without recompiling.
// Syntax: --name=value or --name value; bools accept --name / --name=false.
// A flag given twice, or a numeric flag whose whole value does not parse
// (`--run_ms 0.5`, `--run_ms 1ms`), exits with code 2 naming the flag.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dcdl {

class Flags {
 public:
  /// Parses argv; a repeated flag exits with code 2. Unknown flags are
  /// reported by check_unused(), so call get_* for all flags first.
  Flags(int argc, char** argv);

  std::int64_t get_int(const std::string& name, std::int64_t default_value);
  double get_double(const std::string& name, double default_value);
  bool get_bool(const std::string& name, bool default_value);
  std::string get_string(const std::string& name, const std::string& default_value);

  /// --jobs N: worker-thread count shared by every bench/CLI entry point
  /// that can parallelize (campaign sweeps). Defaults to
  /// std::thread::hardware_concurrency() (at least 1).
  int jobs();

  /// --shards N: shards per simulation run (worker threads inside one run
  /// when N >= 2), shared by every bench/CLI entry point that builds
  /// networks. Defaults to `default_value`; a value below 1 exits with
  /// code 2.
  int shards(int default_value = 1);

  /// --out <path>: result-artifact path shared by every bench/CLI entry
  /// point that writes one; empty = no artifact.
  std::string out(const std::string& default_path = "");

  /// Call after all get_* calls: aborts if the command line contained a flag
  /// that was never queried (almost always a typo in an experiment sweep).
  void check_unused() const;

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> used_;
  std::vector<std::string> positional_;
  std::string program_;
};

}  // namespace dcdl
