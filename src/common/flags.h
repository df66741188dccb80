#ifndef UCTR_COMMON_FLAGS_H_
#define UCTR_COMMON_FLAGS_H_

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"

namespace uctr {

/// \brief The command-line flags of one binary, keyed by name without the
/// leading "--".
using FlagMap = std::map<std::string, std::string>;

/// \brief Parses argv[first, argc): `--key value`, `--key=value`, or a
/// bare `--key` (value "1"). The token after `--key` is its value unless
/// it starts with "--" itself. Any other token is rejected: a stray
/// positional argument is a typo, not input.
Result<FlagMap> ParseFlags(int argc, char** argv, int first);

/// \brief Strict unsigned decimal: one or more ASCII digits and nothing
/// else (no sign, no whitespace, no trailing junk), at most `max`.
Result<uint64_t> ParseUnsigned(std::string_view text, uint64_t max);

/// \brief A finite decimal double spanning all of `text`. "nan", "inf",
/// and values outside a double's range are rejected.
Result<double> ParseFiniteDouble(std::string_view text);

/// \brief Upper bound of flags that set a thread or connection count:
/// each unit starts an OS thread, so a typo must not ask for millions.
inline constexpr uint64_t kMaxThreadsFlag = 1024;

/// \brief Typed, strict reads of a FlagMap. Each getter returns
/// `fallback` when the flag is absent. A malformed or out-of-range value
/// also returns `fallback` and records an InvalidArgument naming the
/// flag; status() keeps the first one. A binary reads all its numeric
/// flags, then checks status() once, before it starts any thread or
/// socket.
class FlagReader {
 public:
  explicit FlagReader(const FlagMap& flags) : flags_(flags) {}

  uint64_t Unsigned(const std::string& key, uint64_t fallback,
                    uint64_t max = std::numeric_limits<uint64_t>::max());
  /// \brief A non-negative value of an `int` field (timeouts, intervals).
  int Int(const std::string& key, int fallback);
  double Double(const std::string& key, double fallback);

  const Status& status() const { return status_; }

 private:
  /// The value of `key`, or null when the flag is absent.
  const std::string* Find(const std::string& key) const;
  /// `parsed` when it holds a value; otherwise records its error.
  template <typename T>
  T Take(const std::string& key, Result<T> parsed, T fallback);

  const FlagMap& flags_;
  Status status_;
};

}  // namespace uctr

#endif  // UCTR_COMMON_FLAGS_H_
