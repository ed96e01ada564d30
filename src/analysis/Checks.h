//===--- Checks.h - chameleon-checker check families -----------*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three check families chameleon-checker runs over a TreeModel, each
/// emitting diagnostics with a stable bracketed ID:
///
/// GC safety
///   check-safepoint-reach      CHAM_NO_SAFEPOINT function transitively
///                              reaches a may-safepoint call.
///   check-raw-across-safepoint raw HeapObject* / getAs<> reference local
///                              is live across a may-safepoint call
///                              (gcmole-style: the collector may run while
///                              the raw pointer is unrooted).
///
/// Lock discipline
///   check-lock-rank            lock acquired while holding another whose
///                              CHAM_LOCK_RANK is not strictly greater.
///   check-alloc-under-spinlock C++-heap allocation (direct or via a
///                              may-allocate callee) while a SpinLock is
///                              held — SpinLock.h forbids it because the
///                              allocator itself takes SpinLocks.
///
/// Project lints
///   check-metric-name          telemetry metric name off the
///                              `cham.<layer>.<name>` convention.
///   check-metric-dup           same metric name registered at several
///                              sites (or as conflicting kinds).
///   check-fault-tag-dup        CHAM_FAULT tag used at more than one site;
///                              tags must be unique tree-wide so a fault
///                              rule targets exactly one site.
///
/// All checks emit warnings; --Werror promotes them for CI.
///
//===----------------------------------------------------------------------===//

#ifndef CHAMELEON_ANALYSIS_CHECKS_H
#define CHAMELEON_ANALYSIS_CHECKS_H

#include "analysis/CallGraph.h"
#include "analysis/Model.h"
#include "support/Diagnostics.h"

#include <vector>

namespace chameleon::analysis {

/// Runs every check over \p Model (whose FunctionIndex fixpoints must
/// already be computed) and appends the findings, unsorted and
/// unsuppressed — the Analyzer applies waivers and the baseline.
void runAllChecks(const TreeModel &Model, const FunctionIndex &Index,
                  std::vector<Diagnostic> &Out);

/// Individual families, exposed for the golden-fixture tests.
void checkGcSafety(const TreeModel &Model, const FunctionIndex &Index,
                   std::vector<Diagnostic> &Out);
void checkLockDiscipline(const TreeModel &Model, const FunctionIndex &Index,
                         std::vector<Diagnostic> &Out);
void checkProjectLints(const TreeModel &Model, std::vector<Diagnostic> &Out);

} // namespace chameleon::analysis

#endif // CHAMELEON_ANALYSIS_CHECKS_H
