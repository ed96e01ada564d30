//===--- Model.h - Extracted source model for the checker ------*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The facts chameleon-checker's extractor distils from each translation
/// unit, and the tree-wide model the checks run over. Everything is
/// name-based: a "function" is a (class, name) pair, a call site is a bare
/// callee name resolved against the tree-wide index with the conservative
/// rules described in CallGraph.h. No types, no templates, no overload
/// resolution — the model is deliberately the same altitude as gcmole's.
///
//===----------------------------------------------------------------------===//

#ifndef CHAMELEON_ANALYSIS_MODEL_H
#define CHAMELEON_ANALYSIS_MODEL_H

#include "analysis/Lexer.h"

#include <cstdint>
#include <string>
#include <vector>

namespace chameleon::analysis {

/// One call site inside a function body.
struct CallSite {
  std::string Callee; ///< Unqualified callee name.
  /// Last class qualifier at the call ("GcHeap" in `GcHeap::get(...)`,
  /// empty for unqualified or member-access calls).
  std::string Qualifier;
  /// True for `x.f()` / `x->f()` (receiver unknown); false for free or
  /// qualified calls.
  bool MemberAccess = false;
  unsigned Line = 0;
  unsigned Col = 0;
  /// Index into the body token order; used to sequence facts within a
  /// function (declare-then-call-then-use patterns).
  uint32_t Seq = 0;
};

/// A lock acquisition inside a function body: an RAII guard
/// (SpinLockGuard, std::lock_guard / unique_lock / scoped_lock) or a
/// direct `X.lock()` / `X.lockCounted()` call.
struct LockAcquire {
  std::string LockName; ///< Last identifier of the lock expression.
  unsigned Line = 0;
  unsigned Col = 0;
  uint32_t Seq = 0;
  /// Brace depth (relative to the function body) the guard lives at; the
  /// lock is released when the depth drops below this. ~0u for direct
  /// lock() calls, released by a matching unlock() instead.
  uint32_t GuardDepth = ~0u;
  bool DirectLock = false; ///< `X.lock()` rather than an RAII guard.
  /// Acquired via SpinLockGuard specifically — known to hold a SpinLock
  /// even when the lock member cannot be resolved.
  bool SpinGuard = false;
  /// Sequence at which the lock is released: the closing brace of the
  /// guard's scope, the matching unlock() for a direct lock, or the end of
  /// the body when neither was seen.
  uint32_t ReleaseSeq = ~0u;
};

/// A direct `X.unlock()` call.
struct LockRelease {
  std::string LockName;
  uint32_t Seq = 0;
};

/// A C++-heap allocation the function performs directly: a `new`
/// expression, or a call to make_unique / malloc / calloc / realloc.
struct AllocSite {
  unsigned Line = 0;
  unsigned Col = 0;
  uint32_t Seq = 0;
};

/// A local that holds a raw reference into the GC heap: a declaration of
/// `HeapObject *x` / `HeapObject &x`, or a reference local whose
/// initializer goes through `getAs<...>()`. Holding one live across a
/// may-safepoint call is the gcmole hazard `check-raw-across-safepoint`.
struct RawRefLocal {
  std::string Name;
  unsigned Line = 0;
  unsigned Col = 0;
  uint32_t DeclSeq = 0;
  /// Every later use of the name in the same body, in order.
  struct UseRef {
    uint32_t Seq = 0;
    unsigned Line = 0;
  };
  std::vector<UseRef> Uses;
};

/// One function definition (free, member out-of-line, or member inline).
struct FunctionDef {
  std::string Name;      ///< Unqualified name.
  std::string ClassName; ///< Enclosing or qualifying class; empty if free.
  std::string File;
  unsigned Line = 0;
  unsigned Col = 0;
  bool MaySafepointAnnot = false; ///< CHAM_MAY_SAFEPOINT on the definition.
  bool NoSafepointAnnot = false;  ///< CHAM_NO_SAFEPOINT on the definition.
  /// Body contains CHAM_FAULT_GC (which can force a collection).
  bool HasFaultGcSite = false;

  std::vector<CallSite> Calls;
  std::vector<LockAcquire> Locks;
  std::vector<LockRelease> Unlocks;
  std::vector<AllocSite> Allocs;
  std::vector<RawRefLocal> RawRefs;

  /// -- Computed by FunctionIndex (CallGraph.h) -----------------------------
  /// Transitively may reach a GC safepoint.
  bool MaySafepoint = false;
  /// Transitively may allocate from the C++ heap.
  bool MayAllocate = false;

  std::string qualifiedName() const {
    return ClassName.empty() ? Name : ClassName + "::" + Name;
  }
};

/// An annotation on a member-function *declaration* (no body); merged into
/// the out-of-line definition by the call-graph index.
struct AnnotatedDecl {
  std::string Name;
  std::string ClassName;
  bool MaySafepoint = false;
  bool NoSafepoint = false;
};

/// A lock data member: `SpinLock Mu CHAM_LOCK_RANK(10);`.
struct LockMember {
  std::string Name;
  std::string ClassName;
  bool IsSpinLock = false; ///< SpinLock vs std::mutex family.
  int Rank = -1;           ///< CHAM_LOCK_RANK value; -1 when unranked.
  std::string File;
  unsigned Line = 0;
};

/// A telemetry metric registration site (CHAM_METRIC_* macro or a
/// Counter/Gauge/HdrHistogram member with a literal name).
struct MetricSite {
  std::string MetricName;
  std::string Kind; ///< "counter", "gauge", or "hdr".
  std::string File;
  unsigned Line = 0;
  unsigned Col = 0;
};

/// A CHAM_FAULT / CHAM_FAULT_GC injection point.
struct FaultSite {
  std::string Tag;
  std::string File;
  unsigned Line = 0;
  unsigned Col = 0;
};

/// Everything extracted from one file.
struct FileModel {
  std::string File;
  std::vector<FunctionDef> Functions;
  std::vector<AnnotatedDecl> AnnotatedDecls;
  std::vector<LockMember> LockMembers;
  std::vector<MetricSite> Metrics;
  std::vector<FaultSite> FaultSites;
  std::vector<Suppression> Suppressions;
  /// Tokens lexed from the file (excluding Eof) — analysis-speed stat.
  size_t Tokens = 0;
};

/// The cross-TU model the checks run over.
struct TreeModel {
  std::vector<FileModel> Files;
};

} // namespace chameleon::analysis

#endif // CHAMELEON_ANALYSIS_MODEL_H
