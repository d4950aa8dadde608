#pragma once
// Tiny command-line parser for the bench/example binaries.
// Supports `--flag`, `--key value` and `--key=value`; anything else is kept
// as a positional argument. Unknown keys are allowed (benches share a parser
// but consume different subsets).

#include <cstdint>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace rechord::util {

class Cli {
 public:
  Cli(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& key) const;
  /// Boolean flag: true for bare `--key`, `--key 1`, `--key=true` etc.;
  /// false when absent or given an explicit falsy value (`--key 0`,
  /// `--key=false`). Used for --full-scan / --profile.
  [[nodiscard]] bool get_flag(const std::string& key) const;
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const;
  /// Numeric accessors parse STRICTLY: the whole value must be a valid
  /// in-range number, and a malformed one (`--n 10x00`, `--seed abc`)
  /// throws std::invalid_argument naming the option -- a silently truncated
  /// typo would run a different experiment that looks fine. Absent keys and
  /// empty values still return the fallback.
  [[nodiscard]] std::int64_t get_int(const std::string& key,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;
  /// Comma-separated integer list, e.g. --sizes 5,15,25 (each element
  /// parsed strictly like get_int).
  [[nodiscard]] std::vector<std::int64_t> get_int_list(
      const std::string& key, std::vector<std::int64_t> fallback) const;

  // Shared scenario/export plumbing: every bench and example that can run a
  // registered scenario or emit CSV reads these two flags through the same
  // accessors, so the flag names stay uniform across binaries.
  /// `--scenario NAME` (empty when absent).
  [[nodiscard]] std::string scenario() const { return get("scenario", ""); }
  /// `--csv PATH` (empty = no CSV output).
  [[nodiscard]] std::string csv_path() const { return get("csv", ""); }

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }
  [[nodiscard]] const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> kv_;
  std::vector<std::string> positional_;
};

/// Runs a program's main body and turns a rejected command-line value --
/// the std::invalid_argument the option parsers throw (BenchConfig::from_cli,
/// engine_options_from_cli, ...) -- into its message on stderr and exit
/// code 2, instead of an abort on an uncaught exception. Every bench,
/// example and app main goes through it.
template <class Body>
int guarded_main(int argc, char** argv, Body body) {
  try {
    return body(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::cerr << argv[0] << ": " << e.what() << '\n';
    return 2;
  }
}

}  // namespace rechord::util
