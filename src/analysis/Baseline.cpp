//===--- Baseline.cpp - Accepted-findings baseline file -------------------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/Baseline.h"

#include <sstream>

namespace chameleon::analysis {

Baseline parseBaseline(const std::string &Text) {
  Baseline B;
  std::istringstream In(Text);
  std::string Line;
  while (std::getline(In, Line)) {
    // Trim trailing whitespace / CR and leading spaces.
    while (!Line.empty() && (Line.back() == '\r' || Line.back() == ' ' ||
                             Line.back() == '\t'))
      Line.pop_back();
    size_t Start = Line.find_first_not_of(" \t");
    if (Start == std::string::npos)
      continue;
    if (Line[Start] == '#')
      continue;
    B.Keys.insert(Line.substr(Start));
  }
  return B;
}

std::string renderBaseline(const std::vector<Diagnostic> &Diags) {
  std::set<std::string> Keys;
  for (const Diagnostic &D : Diags)
    Keys.insert(baselineKey(D));
  std::string Out =
      "# chameleon-checker baseline: findings the tree knowingly carries.\n"
      "# One `check-id|file|subject` key per line; regenerate with\n"
      "#   chameleon-checker --write-baseline <this file> src/ tools/ bench/\n"
      "# Prefer fixing or suppressing in-source over adding entries here.\n";
  for (const std::string &K : Keys) {
    Out += K;
    Out += '\n';
  }
  return Out;
}

std::vector<std::string>
staleBaselineKeys(const Baseline &B, const std::vector<Diagnostic> &Diags) {
  std::set<std::string> Live;
  for (const Diagnostic &D : Diags)
    Live.insert(baselineKey(D));
  std::vector<std::string> Stale;
  for (const std::string &K : B.Keys)
    if (!Live.count(K))
      Stale.push_back(K);
  return Stale;
}

} // namespace chameleon::analysis
