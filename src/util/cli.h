// Minimal command-line flag parsing for the bench harness and examples.
// Supports `--key=value` and boolean `--flag`; everything else is
// positional. A malformed numeric value is an error (std::invalid_argument),
// which util::run_cli turns into exit code 2.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace ft::util {

class Cli {
 public:
  Cli(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback = "") const;
  /// The flag's value parsed as a whole base-10 integer / number, or
  /// `fallback` when the flag is absent. Throws std::invalid_argument
  /// naming the flag when the value does not parse completely
  /// (`--trials=abc`, `--trials=12x`, a bare `--trials`).
  [[nodiscard]] std::int64_t get_int(const std::string& key,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;

  /// Non-flag positional arguments, in order.
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

/// Run a binary's body (`int body()`): bad command-line input — the
/// std::invalid_argument that Cli and the flag validators throw — is
/// reported on stderr with exit code 2 instead of terminating the process.
template <typename Body>
int run_cli(const char* argv0, Body&& body) {
  try {
    return body();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s: error: %s\n", argv0, e.what());
    return 2;
  }
}

}  // namespace ft::util
