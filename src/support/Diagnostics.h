//===--- Diagnostics.h - Positioned diagnostics ----------------*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The diagnostic model shared by the rule front end (parser and sema,
/// behind chameleon-rulelint and chameleon-rulefmt) and chameleon-checker.
/// A diagnostic carries a position, a severity, a stable identifier
/// ("sema-never-fires", "check-lock-rank", ...) that tools and golden tests
/// match on rather than the wording, and the symbol it is about. Messages
/// start lowercase and carry no final period.
///
/// Text renders as "file:line:col: severity: message [id]" (the file only
/// when known); JSON renders as one array whose objects all have the keys
/// file, line, col, severity, id, message and subject, so the three tools
/// share one parser downstream.
///
//===----------------------------------------------------------------------===//

#ifndef CHAMELEON_SUPPORT_DIAGNOSTICS_H
#define CHAMELEON_SUPPORT_DIAGNOSTICS_H

#include <cstdint>
#include <string>
#include <vector>

namespace chameleon {

/// How bad a diagnostic is. Rule-parse diagnostics are always errors; rule
/// sema distinguishes errors (the rule set is wrong) from warnings (it is
/// suspicious but loadable); checker findings are warnings that --Werror
/// promotes.
enum class Severity : uint8_t { Error, Warning, Note };

/// One positioned problem.
struct Diagnostic {
  /// Source file; empty where the producer sees only a buffer (the rule
  /// parser), in which case the CLI fills it in.
  std::string File;
  unsigned Line = 0;
  unsigned Col = 0;
  Severity Sev = Severity::Error;
  /// Stable identifier; empty for rule-parse errors.
  std::string ID;
  std::string Message;
  /// The symbol the finding is about (function, lock, tag, metric name);
  /// with ID and File it forms the checker's baseline fingerprint.
  std::string Subject;

  /// "file:line:col: severity: message [id]". A plain parse error (an
  /// error without an ID) drops the severity word: "line:col: message".
  std::string format() const;
};

/// True when any diagnostic in \p Diags is an error.
bool hasErrors(const std::vector<Diagnostic> &Diags);

/// True when any diagnostic in \p Diags is a warning.
bool hasWarnings(const std::vector<Diagnostic> &Diags);

/// Orders by (file, line, col, id); stable for equal keys.
void sortDiagnostics(std::vector<Diagnostic> &Diags);

/// Renders a diagnostic list, one per line.
std::string formatDiagnostics(const std::vector<Diagnostic> &Diags);

/// Renders a diagnostic list as one JSON array: the `--json` output of
/// chameleon-rulelint, chameleon-rulefmt and chameleon-checker.
std::string diagnosticsToJson(const std::vector<Diagnostic> &Diags);

} // namespace chameleon

#endif // CHAMELEON_SUPPORT_DIAGNOSTICS_H
