#include "util/cli.h"

#include <charconv>
#include <stdexcept>
#include <system_error>

namespace ft::util {

Cli::Cli(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else {
      flags_[arg] = "true";
    }
  }
}

bool Cli::has(const std::string& key) const { return flags_.count(key) > 0; }

std::string Cli::get(const std::string& key, const std::string& fallback) const {
  const auto it = flags_.find(key);
  return it == flags_.end() ? fallback : it->second;
}

namespace {

/// Parse all of `text` as a T, or throw std::invalid_argument naming the
/// flag: a partial or failed parse ("abc", "12x", "") is an error, never a
/// silent zero.
template <typename T>
T parse_whole(const std::string& key, const std::string& text,
              const char* what) {
  T value{};
  const char* const first = text.data();
  const char* const last = first + text.size();
  const auto [end, ec] = std::from_chars(first, last, value);
  if (ec != std::errc{} || end != last || text.empty()) {
    throw std::invalid_argument("--" + key + ": expected " + what +
                                ", got '" + text + "'");
  }
  return value;
}

}  // namespace

std::int64_t Cli::get_int(const std::string& key, std::int64_t fallback) const {
  const auto it = flags_.find(key);
  return it == flags_.end()
             ? fallback
             : parse_whole<std::int64_t>(key, it->second, "an integer");
}

double Cli::get_double(const std::string& key, double fallback) const {
  const auto it = flags_.find(key);
  return it == flags_.end() ? fallback
                            : parse_whole<double>(key, it->second, "a number");
}

bool Cli::get_bool(const std::string& key, bool fallback) const {
  const auto it = flags_.find(key);
  if (it == flags_.end()) return fallback;
  return it->second != "false" && it->second != "0" && it->second != "no";
}

}  // namespace ft::util
