#ifndef UCTR_COMMON_NUMERIC_H_
#define UCTR_COMMON_NUMERIC_H_

#include <optional>
#include <string>
#include <string_view>

namespace uctr {

/// \brief Attempts to read a numeric value from messy table text.
///
/// Accepts plain numbers ("42", "-3.5", "1e6"), thousands separators
/// ("1,234,567"), currency prefixes ("$1,234.50", "US$3"), percentages
/// ("12.5%", parsed as 12.5), and accounting negatives ("(1,234)" == -1234).
/// Only decimal forms count: "nan", "inf", "infinity" and hex ("0x10") are
/// text, and so is a value out of a double's range, so the result is always
/// finite. Returns std::nullopt when the text is not numeric. This is the
/// single numeric gateway used by type inference, executors, and extraction, so
/// financial tables (TAT-QA) behave consistently everywhere.
std::optional<double> ParseNumber(std::string_view text);

/// \brief True when ParseNumber(text) succeeds.
bool LooksNumeric(std::string_view text);

/// \brief Renders a double compactly: integers without a decimal point,
/// otherwise up to `max_decimals` digits with trailing zeros stripped.
std::string FormatNumber(double value, int max_decimals = 4);

/// \brief Approximate equality with both absolute and relative tolerance,
/// the comparison used by denotation accuracy and executor predicates.
bool NearlyEqual(double a, double b, double abs_tol = 1e-6,
                 double rel_tol = 1e-6);

}  // namespace uctr

#endif  // UCTR_COMMON_NUMERIC_H_
