#include "common/flags.h"

#include <charconv>
#include <cmath>

namespace uctr {

Result<FlagMap> ParseFlags(int argc, char** argv, int first) {
  FlagMap flags;
  for (int i = first; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.substr(0, 2) != "--" || arg.size() == 2) {
      return Status::InvalidArgument("unexpected argument '" +
                                     std::string(arg) + "'");
    }
    std::string key(arg.substr(2));
    std::string value = "1";
    if (size_t eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < argc &&
               std::string_view(argv[i + 1]).substr(0, 2) != "--") {
      value = argv[++i];
    }
    flags[key] = std::move(value);
  }
  return flags;
}

Result<uint64_t> ParseUnsigned(std::string_view text, uint64_t max) {
  if (text.empty()) {
    return Status::InvalidArgument("empty value, expected an integer");
  }
  uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("'" + std::string(text) +
                                     "' is not an unsigned decimal integer");
    }
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (value > (max - digit) / 10) {
      return Status::InvalidArgument("'" + std::string(text) +
                                     "' is larger than " +
                                     std::to_string(max));
    }
    value = value * 10 + digit;
  }
  return value;
}

Result<double> ParseFiniteDouble(std::string_view text) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || !std::isfinite(value)) {
    return Status::InvalidArgument("'" + std::string(text) +
                                   "' is not a finite decimal number");
  }
  return value;
}

const std::string* FlagReader::Find(const std::string& key) const {
  auto it = flags_.find(key);
  return it == flags_.end() ? nullptr : &it->second;
}

template <typename T>
T FlagReader::Take(const std::string& key, Result<T> parsed, T fallback) {
  if (parsed.ok()) return *parsed;
  if (status_.ok()) {
    status_ = Status::InvalidArgument("--" + key + ": " +
                                      parsed.status().message());
  }
  return fallback;
}

uint64_t FlagReader::Unsigned(const std::string& key, uint64_t fallback,
                              uint64_t max) {
  const std::string* text = Find(key);
  if (text == nullptr) return fallback;
  return Take(key, ParseUnsigned(*text, max), fallback);
}

int FlagReader::Int(const std::string& key, int fallback) {
  return static_cast<int>(Unsigned(key, static_cast<uint64_t>(fallback),
                                   std::numeric_limits<int>::max()));
}

double FlagReader::Double(const std::string& key, double fallback) {
  const std::string* text = Find(key);
  if (text == nullptr) return fallback;
  return Take(key, ParseFiniteDouble(*text), fallback);
}

}  // namespace uctr
