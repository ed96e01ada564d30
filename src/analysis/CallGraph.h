//===--- CallGraph.h - Cross-TU name-based call graph ----------*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A cross-TU index over every FunctionDef in a TreeModel, with the two
/// transitive properties the checks need: may-safepoint and may-allocate.
///
/// Call resolution is by name, with no types, so it is deliberately
/// conservative in one direction and forgiving in the other:
///
///  - `Class::name(...)` qualified calls resolve against that class only.
///  - Unqualified calls inside a member function try the enclosing class
///    first, then fall back to every definition of that name tree-wide.
///  - A call that resolves to *several* candidates propagates a property
///    only if ALL candidates have it. Name collisions are rampant at this
///    altitude (`add` is both List::add, which polls for safepoints, and
///    Counter::add, which must not), and any-candidate propagation would
///    mark most of the tree may-safepoint. All-candidates keeps the graph
///    honest at the cost of missing collisions between a hot name and a
///    polling one — the annotation macros exist to pin down exactly those.
///  - Calls to functions with no definition in the tree (std::, libc)
///    propagate nothing.
///
/// A function annotated CHAM_NO_SAFEPOINT is trusted as a non-propagating
/// *source*: its body is what check-safepoint-reach verifies, so treating
/// it as may-safepoint because of a violation inside it would double-count
/// the finding in every caller.
///
//===----------------------------------------------------------------------===//

#ifndef CHAMELEON_ANALYSIS_CALLGRAPH_H
#define CHAMELEON_ANALYSIS_CALLGRAPH_H

#include "analysis/Model.h"

#include <map>
#include <string>
#include <vector>

namespace chameleon::analysis {

/// Tree-wide function index. Building it merges AnnotatedDecls into the
/// matching definitions and runs the may-safepoint / may-allocate
/// fixpoints, writing the results into each FunctionDef in \p Model.
class FunctionIndex {
public:
  explicit FunctionIndex(TreeModel &Model);

  /// All definitions named \p Name (any class).
  const std::vector<FunctionDef *> &byName(const std::string &Name) const;

  /// All definitions of \p Class::Name.
  const std::vector<FunctionDef *> &byQualified(const std::string &Class,
                                                const std::string &Name) const;

  /// Candidate definitions for \p Call made from inside \p From, per the
  /// resolution rules above. Empty for unresolved (external) calls.
  std::vector<FunctionDef *> resolve(const FunctionDef &From,
                                     const CallSite &Call) const;

  /// True if \p Call, made from \p From, may reach a safepoint: every
  /// resolved candidate is may-safepoint (and there is at least one).
  bool callMaySafepoint(const FunctionDef &From, const CallSite &Call) const;

  /// True if \p Call may allocate from the C++ heap, same rule.
  bool callMayAllocate(const FunctionDef &From, const CallSite &Call) const;

  /// Shortest chain "f -> g -> h" from \p F to a may-safepoint seed (a
  /// CHAM_MAY_SAFEPOINT annotation or a CHAM_FAULT_GC site), as qualified
  /// names joined with " -> ". Empty when F is itself a seed or no chain
  /// is found within the depth cap.
  std::string explainSafepointPath(const FunctionDef &F) const;

private:
  void computeFixpoint(bool FunctionDef::*Prop,
                       bool (FunctionIndex::*Seed)(const FunctionDef &) const);
  bool safepointSeed(const FunctionDef &F) const;
  bool allocateSeed(const FunctionDef &F) const;

  std::vector<FunctionDef *> All;
  std::map<std::string, std::vector<FunctionDef *>> ByName;
  std::map<std::string, std::vector<FunctionDef *>> ByQualified;
  std::vector<FunctionDef *> Empty;
};

} // namespace chameleon::analysis

#endif // CHAMELEON_ANALYSIS_CALLGRAPH_H
