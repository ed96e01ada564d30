//===--- Format.h - Text formatting helpers --------------------*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small text-formatting helpers used by reports, benches and examples:
/// printf-style appending, human-readable byte counts, fixed-point
/// percentages, and a simple fixed-width table writer that renders the rows
/// the paper's figures report.
///
/// `appendf` is header-only so that `obs`, which `support` links against,
/// can use it without a link dependency back on `support`.
///
//===----------------------------------------------------------------------===//

#ifndef CHAMELEON_SUPPORT_FORMAT_H
#define CHAMELEON_SUPPORT_FORMAT_H

#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace chameleon {

/// Appends printf-style formatted text to \p Out. One call renders at most
/// 511 bytes; longer output is truncated.
inline void appendf(std::string &Out, const char *Fmt, ...)
    __attribute__((format(printf, 2, 3)));

inline void appendf(std::string &Out, const char *Fmt, ...) {
  char Buf[512];
  va_list Args;
  va_start(Args, Fmt);
  std::vsnprintf(Buf, sizeof(Buf), Fmt, Args);
  va_end(Args);
  Out += Buf;
}

/// Renders \p Bytes as a human readable quantity, e.g. "1.50 MiB".
std::string formatBytes(uint64_t Bytes);

/// Renders \p Fraction (0..1) as a percentage with one decimal, e.g. "42.5%".
std::string formatPercent(double Fraction);

/// Renders \p X with \p Decimals fractional digits.
std::string formatDouble(double X, int Decimals = 2);

/// Fixed-width plain-text table writer. Collects rows and renders them with
/// columns sized to the widest cell, the format used by every bench binary.
class TextTable {
public:
  /// Creates a table with the given column headers.
  explicit TextTable(std::vector<std::string> Headers);

  /// Appends one row; must have exactly as many cells as there are headers.
  void addRow(std::vector<std::string> Cells);

  /// Renders the table (headers, separator, rows) as a string.
  std::string render() const;

private:
  std::vector<std::string> Headers;
  std::vector<std::vector<std::string>> Rows;
};

} // namespace chameleon

#endif // CHAMELEON_SUPPORT_FORMAT_H
