//===--- Checks.cpp - chameleon-checker check families --------------------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/Checks.h"

#include <map>
#include <set>
#include <string>

namespace chameleon::analysis {

namespace {

//===----------------------------------------------------------------------===//
// GC safety
//===----------------------------------------------------------------------===//

void checkSafepointReach(const FunctionDef &F, const FunctionIndex &Index,
                         std::vector<Diagnostic> &Out) {
  if (!F.NoSafepointAnnot)
    return;
  if (F.HasFaultGcSite) {
    Out.push_back({F.File, F.Line, F.Col, Severity::Warning,
                   "check-safepoint-reach",
                   "no-safepoint function '" + F.qualifiedName() +
                       "' contains a CHAM_FAULT_GC site, which can force a "
                       "collection",
                   F.qualifiedName()});
    return;
  }
  for (const CallSite &C : F.Calls) {
    if (!Index.callMaySafepoint(F, C))
      continue;
    auto Cands = Index.resolve(F, C);
    std::string Via = Cands.empty() ? C.Callee
                                    : Index.explainSafepointPath(*Cands[0]);
    std::string Msg = "no-safepoint function '" + F.qualifiedName() +
                      "' may reach a gc safepoint via call to '" + C.Callee +
                      "'";
    if (!Via.empty())
      Msg += " (" + Via + ")";
    Out.push_back({F.File, C.Line, C.Col, Severity::Warning,
                   "check-safepoint-reach", std::move(Msg),
                   F.qualifiedName()});
    return; // first offending call per function keeps the report readable
  }
}

void checkRawAcrossSafepoint(const FunctionDef &F, const FunctionIndex &Index,
                             std::vector<Diagnostic> &Out) {
  for (const RawRefLocal &R : F.RawRefs) {
    if (R.Uses.empty())
      continue;
    for (const CallSite &C : F.Calls) {
      if (C.Seq <= R.DeclSeq)
        continue;
      if (!Index.callMaySafepoint(F, C))
        continue;
      const RawRefLocal::UseRef *After = nullptr;
      for (const auto &U : R.Uses)
        if (U.Seq > C.Seq) {
          After = &U;
          break;
        }
      if (!After)
        continue;
      Out.push_back(
          {F.File, R.Line, R.Col, Severity::Warning,
           "check-raw-across-safepoint",
           "raw heap reference '" + R.Name + "' is live across "
           "may-safepoint call to '" + C.Callee + "' (line " +
               std::to_string(C.Line) + "); the collector may reclaim it "
               "before the use at line " + std::to_string(After->Line) +
               " — root it in a Handle or re-fetch after the call",
           F.qualifiedName() + ":" + R.Name});
      break; // one report per local
    }
  }
}

//===----------------------------------------------------------------------===//
// Lock discipline
//===----------------------------------------------------------------------===//

/// Tree-wide lock member index for resolving LockAcquire names.
class LockIndex {
public:
  explicit LockIndex(const TreeModel &Model) {
    for (const FileModel &FM : Model.Files)
      for (const LockMember &M : FM.LockMembers)
        ByName[M.Name].push_back(&M);
  }

  /// The member a lock expression in \p F most plausibly names: a member
  /// of F's own class when one matches, else the unique member of that
  /// name tree-wide, else null.
  const LockMember *resolve(const FunctionDef &F,
                            const std::string &Name) const {
    auto It = ByName.find(Name);
    if (It == ByName.end())
      return nullptr;
    for (const LockMember *M : It->second)
      if (M->ClassName == F.ClassName)
        return M;
    return It->second.size() == 1 ? It->second.front() : nullptr;
  }

private:
  std::map<std::string, std::vector<const LockMember *>> ByName;
};

std::string lockLabel(const LockMember *M, const std::string &FallbackName) {
  if (!M)
    return "'" + FallbackName + "'";
  std::string L = "'" + (M->ClassName.empty() ? M->Name
                                              : M->ClassName + "::" + M->Name) +
                  "'";
  if (M->Rank >= 0)
    L += " (rank " + std::to_string(M->Rank) + ")";
  return L;
}

void checkLockRank(const FunctionDef &F, const LockIndex &Locks,
                   std::vector<Diagnostic> &Out) {
  for (const LockAcquire &A : F.Locks) {
    const LockMember *MA = Locks.resolve(F, A.LockName);
    if (!MA || MA->Rank < 0)
      continue;
    for (const LockAcquire &B : F.Locks) {
      if (B.Seq <= A.Seq || B.Seq >= A.ReleaseSeq)
        continue;
      const LockMember *MB = Locks.resolve(F, B.LockName);
      if (!MB || MB->Rank < 0 || MB == MA)
        continue;
      if (MB->Rank < MA->Rank)
        continue;
      Out.push_back({F.File, B.Line, B.Col, Severity::Warning,
                     "check-lock-rank",
                     "acquiring " + lockLabel(MB, B.LockName) +
                         " while holding " + lockLabel(MA, A.LockName) +
                         "; lock ranks must strictly decrease along every "
                         "acquisition chain",
                     F.qualifiedName() + ":" + A.LockName + "<" + B.LockName});
    }
  }
}

void checkAllocUnderSpinLock(const FunctionDef &F, const FunctionIndex &Index,
                             const LockIndex &Locks,
                             std::vector<Diagnostic> &Out) {
  for (const LockAcquire &L : F.Locks) {
    const LockMember *M = Locks.resolve(F, L.LockName);
    // A resolved member decides; otherwise only a SpinLockGuard acquisition
    // is known to hold a SpinLock (std::lock_guard and direct lock() calls
    // on an unresolved name are assumed to be mutexes).
    bool Spin = M ? M->IsSpinLock : L.SpinGuard;
    if (!Spin)
      continue;
    for (const AllocSite &A : F.Allocs) {
      if (A.Seq <= L.Seq || A.Seq >= L.ReleaseSeq)
        continue;
      Out.push_back({F.File, A.Line, A.Col, Severity::Warning,
                     "check-alloc-under-spinlock",
                     "heap allocation while holding spinlock " +
                         lockLabel(M, L.LockName) +
                         "; spinlocked sections must never allocate (the "
                         "allocator takes these locks itself)",
                     F.qualifiedName() + ":" + L.LockName + ":new"});
    }
    for (const CallSite &C : F.Calls) {
      if (C.Seq <= L.Seq || C.Seq >= L.ReleaseSeq)
        continue;
      if (!Index.callMayAllocate(F, C))
        continue;
      Out.push_back({F.File, C.Line, C.Col, Severity::Warning,
                     "check-alloc-under-spinlock",
                     "call to '" + C.Callee + "' may allocate while holding "
                     "spinlock " + lockLabel(M, L.LockName) +
                         "; spinlocked sections must never allocate",
                     F.qualifiedName() + ":" + L.LockName + ":" + C.Callee});
    }
  }
}

//===----------------------------------------------------------------------===//
// Project lints
//===----------------------------------------------------------------------===//

bool isLowerSegment(const std::string &S, size_t Begin, size_t End) {
  if (Begin >= End)
    return false;
  for (size_t I = Begin; I < End; ++I) {
    char C = S[I];
    if (!((C >= 'a' && C <= 'z') || (C >= '0' && C <= '9') || C == '_'))
      return false;
  }
  return true;
}

const std::set<std::string> &metricLayers() {
  static const std::set<std::string> Layers = {
      "alloc",    "analysis", "apps",   "collections", "decision",
      "fault",    "fleet",    "gc",     "obs",         "online",
      "profiler", "rules",    "server",
  };
  return Layers;
}

void checkMetricNames(const TreeModel &Model, std::vector<Diagnostic> &Out) {
  for (const FileModel &FM : Model.Files)
    for (const MetricSite &M : FM.Metrics) {
      const std::string &N = M.MetricName;
      bool Ok = false;
      if (N.rfind("cham.", 0) == 0) {
        size_t LayerEnd = N.find('.', 5);
        if (LayerEnd != std::string::npos &&
            metricLayers().count(N.substr(5, LayerEnd - 5))) {
          // Remaining dotted segments must all be [a-z0-9_]+.
          Ok = true;
          size_t Seg = LayerEnd + 1;
          while (Ok && Seg <= N.size()) {
            size_t Dot = N.find('.', Seg);
            size_t End = Dot == std::string::npos ? N.size() : Dot;
            Ok = isLowerSegment(N, Seg, End);
            Seg = End + 1;
          }
        }
      }
      if (Ok)
        continue;
      Out.push_back({M.File, M.Line, M.Col, Severity::Warning,
                     "check-metric-name",
                     "metric name '" + N + "' does not match the "
                     "'cham.<layer>.<name>' convention (known layers: "
                     "alloc, analysis, apps, collections, decision, fault, "
                     "fleet, gc, obs, online, profiler, rules, server)",
                     N});
    }
}

void checkMetricDups(const TreeModel &Model, std::vector<Diagnostic> &Out) {
  std::map<std::string, std::vector<const MetricSite *>> ByName;
  for (const FileModel &FM : Model.Files)
    for (const MetricSite &M : FM.Metrics)
      ByName[M.MetricName].push_back(&M);
  for (auto &[Name, Sites] : ByName) {
    if (Sites.size() < 2)
      continue;
    const MetricSite *First = Sites.front();
    for (size_t I = 1; I < Sites.size(); ++I) {
      const MetricSite *M = Sites[I];
      std::string Extra = M->Kind != First->Kind
                              ? " with conflicting kind '" + M->Kind +
                                    "' (first is '" + First->Kind + "')"
                              : "";
      Out.push_back({M->File, M->Line, M->Col, Severity::Warning,
                     "check-metric-dup",
                     "metric '" + Name + "' is already registered at " +
                         First->File + ":" + std::to_string(First->Line) +
                         Extra + "; metrics must be registered in one place",
                     Name});
    }
  }
}

void checkFaultTagDups(const TreeModel &Model, std::vector<Diagnostic> &Out) {
  std::map<std::string, std::vector<const FaultSite *>> ByTag;
  for (const FileModel &FM : Model.Files)
    for (const FaultSite &S : FM.FaultSites)
      ByTag[S.Tag].push_back(&S);
  for (auto &[Tag, Sites] : ByTag) {
    if (Sites.size() < 2)
      continue;
    const FaultSite *First = Sites.front();
    for (size_t I = 1; I < Sites.size(); ++I) {
      const FaultSite *S = Sites[I];
      Out.push_back({S->File, S->Line, S->Col, Severity::Warning,
                     "check-fault-tag-dup",
                     "fault tag '" + Tag + "' is already used at " +
                         First->File + ":" + std::to_string(First->Line) +
                         "; tags must be unique so a fault rule targets "
                         "exactly one site",
                     Tag});
    }
  }
}

} // namespace

void checkGcSafety(const TreeModel &Model, const FunctionIndex &Index,
                   std::vector<Diagnostic> &Out) {
  for (const FileModel &FM : Model.Files)
    for (const FunctionDef &F : FM.Functions) {
      checkSafepointReach(F, Index, Out);
      checkRawAcrossSafepoint(F, Index, Out);
    }
}

void checkLockDiscipline(const TreeModel &Model, const FunctionIndex &Index,
                         std::vector<Diagnostic> &Out) {
  LockIndex Locks(Model);
  for (const FileModel &FM : Model.Files)
    for (const FunctionDef &F : FM.Functions) {
      checkLockRank(F, Locks, Out);
      checkAllocUnderSpinLock(F, Index, Locks, Out);
    }
}

void checkProjectLints(const TreeModel &Model, std::vector<Diagnostic> &Out) {
  checkMetricNames(Model, Out);
  checkMetricDups(Model, Out);
  checkFaultTagDups(Model, Out);
}

void runAllChecks(const TreeModel &Model, const FunctionIndex &Index,
                  std::vector<Diagnostic> &Out) {
  checkGcSafety(Model, Index, Out);
  checkLockDiscipline(Model, Index, Out);
  checkProjectLints(Model, Out);
}

} // namespace chameleon::analysis
