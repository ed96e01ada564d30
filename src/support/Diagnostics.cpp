//===--- Diagnostics.cpp - Positioned diagnostics -------------------------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Diagnostics.h"

#include "obs/Json.h"

#include <algorithm>
#include <tuple>

using namespace chameleon;

namespace {

const char *severityName(Severity S) {
  switch (S) {
  case Severity::Error:
    return "error";
  case Severity::Warning:
    return "warning";
  case Severity::Note:
    return "note";
  }
  return "error";
}

} // namespace

std::string Diagnostic::format() const {
  std::string Out;
  if (!File.empty())
    Out += File + ":";
  Out += std::to_string(Line) + ":" + std::to_string(Col) + ": ";
  if (Sev != Severity::Error || !ID.empty()) {
    Out += severityName(Sev);
    Out += ": ";
  }
  Out += Message;
  if (!ID.empty())
    Out += " [" + ID + "]";
  return Out;
}

bool chameleon::hasErrors(const std::vector<Diagnostic> &Diags) {
  return std::any_of(Diags.begin(), Diags.end(), [](const Diagnostic &D) {
    return D.Sev == Severity::Error;
  });
}

bool chameleon::hasWarnings(const std::vector<Diagnostic> &Diags) {
  return std::any_of(Diags.begin(), Diags.end(), [](const Diagnostic &D) {
    return D.Sev == Severity::Warning;
  });
}

void chameleon::sortDiagnostics(std::vector<Diagnostic> &Diags) {
  std::stable_sort(Diags.begin(), Diags.end(),
                   [](const Diagnostic &A, const Diagnostic &B) {
                     return std::tie(A.File, A.Line, A.Col, A.ID) <
                            std::tie(B.File, B.Line, B.Col, B.ID);
                   });
}

std::string
chameleon::formatDiagnostics(const std::vector<Diagnostic> &Diags) {
  std::string Out;
  for (const Diagnostic &D : Diags) {
    Out += D.format();
    Out += '\n';
  }
  return Out;
}

std::string
chameleon::diagnosticsToJson(const std::vector<Diagnostic> &Diags) {
  std::string Out = "[";
  for (size_t I = 0; I < Diags.size(); ++I) {
    const Diagnostic &D = Diags[I];
    Out += I ? ",\n  " : "\n  ";
    Out += "{\"file\": \"" + obs::json::escape(D.File) +
           "\", \"line\": " + std::to_string(D.Line) +
           ", \"col\": " + std::to_string(D.Col) + ", \"severity\": \"" +
           severityName(D.Sev) + "\", \"id\": \"" + obs::json::escape(D.ID) +
           "\", \"message\": \"" + obs::json::escape(D.Message) +
           "\", \"subject\": \"" + obs::json::escape(D.Subject) + "\"}";
  }
  Out += Diags.empty() ? "]\n" : "\n]\n";
  return Out;
}
