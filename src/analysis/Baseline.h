//===--- Baseline.h - Accepted-findings baseline file ----------*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The committed baseline (tools/checker_baseline.txt) holds the findings
/// the tree knowingly carries, one `baselineKey()` per line:
///
///     check-id|path/from/repo/root|subject
///
/// Keys are line-number free, so unrelated edits do not churn the file.
/// `#` starts a comment; blank lines are ignored. The checker drops any
/// diagnostic whose key is present and reports baseline entries that no
/// longer match anything as stale (so the file shrinks as debts are paid).
///
//===----------------------------------------------------------------------===//

#ifndef CHAMELEON_ANALYSIS_BASELINE_H
#define CHAMELEON_ANALYSIS_BASELINE_H

#include "support/Diagnostics.h"

#include <set>
#include <string>
#include <vector>

namespace chameleon::analysis {

/// A finding's position-independent fingerprint: "id|file|subject".
inline std::string baselineKey(const Diagnostic &D) {
  return D.ID + "|" + D.File + "|" + D.Subject;
}

struct Baseline {
  std::set<std::string> Keys;

  bool contains(const Diagnostic &D) const {
    return Keys.count(baselineKey(D)) != 0;
  }
};

/// Parses baseline text (not a path — the caller owns IO).
Baseline parseBaseline(const std::string &Text);

/// Renders \p Diags as baseline text: a header comment plus one sorted,
/// de-duplicated key per line.
std::string renderBaseline(const std::vector<Diagnostic> &Diags);

/// Keys in \p B matched by no diagnostic in \p Diags — stale entries that
/// should be deleted from the file.
std::vector<std::string>
staleBaselineKeys(const Baseline &B, const std::vector<Diagnostic> &Diags);

} // namespace chameleon::analysis

#endif // CHAMELEON_ANALYSIS_BASELINE_H
