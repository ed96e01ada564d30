//===--- OnlineAdaptor.cpp - Fully-automatic online selection ------------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/OnlineAdaptor.h"

#include "obs/DecisionLog.h"
#include "obs/Trace.h"

using namespace chameleon;

namespace {
/// Trace-arg value for a (possibly null) context.
int64_t ctxArg(const ContextInfo *Info) {
  return Info ? static_cast<int64_t>(Info->id()) : -1;
}

/// Ledger record skeleton for a (possibly null) context.
obs::DecisionRecord ledgerRecord(const ContextInfo *Info,
                                 obs::DecisionKind Kind) {
  obs::DecisionRecord R;
  R.CtxId = Info ? Info->id() : ~0u;
  R.Epoch = obs::DecisionLog::instance().currentEpoch();
  R.Kind = Kind;
  return R;
}
} // namespace

OnlineAdaptor::Decision &
OnlineAdaptor::evaluateLocked(const ContextInfo *Info) {
  auto It = Cache.find(Info);
  bool NeedEval =
      It == Cache.end() || !It->second.Evaluated
      || Info->allocations() - It->second.AtAllocationCount
             >= ReevaluatePeriod;
  if (!NeedEval)
    return It->second;

  Evaluations.inc();
  CHAM_TRACE_INSTANT_ARG("online", "evaluate", "ctx", ctxArg(Info));
  // Preserve the migration backoff state across re-evaluations: a fresh
  // rule verdict does not forgive past aborts.
  Decision Fresh;
  if (It != Cache.end()) {
    Fresh.Aborts = It->second.Aborts;
    Fresh.RetryAtAllocations = It->second.RetryAtAllocations;
    Fresh.Pinned = It->second.Pinned;
  }
  Fresh.Evaluated = true;
  Fresh.AtAllocationCount = Info->allocations();
  std::vector<rules::Suggestion> Suggs;
  Engine.evaluateContext(*Info, Profiler, Suggs);
  for (const rules::Suggestion &S : Suggs)
    rules::foldSuggestion(Fresh.Plan, S);
  obs::DecisionLog &Ledger = obs::DecisionLog::instance();
  if (Ledger.enabled()) {
    obs::DecisionRecord Rec = ledgerRecord(Info, obs::DecisionKind::Choice);
    if (Fresh.Plan.Impl)
      Rec.Impl = static_cast<uint8_t>(implIndex(*Fresh.Plan.Impl));
    Rec.Capacity = Fresh.Plan.Capacity.value_or(0);
    Rec.Allocations = Fresh.AtAllocationCount;
    Ledger.record(Rec);
  }
  return Cache.insert_or_assign(Info, Fresh).first->second;
}

ImplKind OnlineAdaptor::chooseImpl(const ContextInfo *Info, AdtKind Adt,
                                   ImplKind Requested, uint32_t &Capacity) {
  if (!Info)
    return Requested;
  if (Info->foldedInstances() < WarmupDeaths)
    return Requested;

  std::lock_guard<std::mutex> Lock(Mu);
  std::optional<ImplKind> Chosen =
      evaluateLocked(Info).Plan.apply(Adt, Capacity);
  if (!Chosen || *Chosen == Requested)
    return Requested;
  Replacements.inc();
  CHAM_TRACE_INSTANT_ARG("online", "replace", "ctx", ctxArg(Info));
  return *Chosen;
}

std::optional<ImplKind> OnlineAdaptor::reviseImpl(const ContextInfo *Info,
                                                  AdtKind Adt,
                                                  ImplKind Current,
                                                  uint32_t &Capacity) {
  if (!Info)
    return std::nullopt;
  if (Info->foldedInstances() < WarmupDeaths)
    return std::nullopt;

  std::lock_guard<std::mutex> Lock(Mu);
  Decision &D = evaluateLocked(Info);
  if (D.Pinned)
    return std::nullopt;
  if (D.RetryAtAllocations != 0
      && Info->allocations() < D.RetryAtAllocations)
    return std::nullopt;
  std::optional<ImplKind> Target = D.Plan.apply(Adt, Capacity);
  if (!Target || *Target == Current)
    return std::nullopt;
  MigrationsRequested.inc();
  CHAM_TRACE_INSTANT_ARG("online", "migrate_request", "ctx", ctxArg(Info));
  return Target;
}

void OnlineAdaptor::onMigrationResult(const ContextInfo *Info,
                                      bool Committed) {
  std::lock_guard<std::mutex> Lock(Mu);
  Decision &D = Cache[Info];
  if (Committed) {
    MigrationsCommitted.inc();
    D.Aborts = 0;
    D.RetryAtAllocations = 0;
    return;
  }
  MigrationsAborted.inc();
  CHAM_TRACE_INSTANT_ARG("online", "migrate_abort", "ctx", ctxArg(Info));
  ++D.Aborts;
  obs::DecisionLog &Ledger = obs::DecisionLog::instance();
  if (D.Aborts >= MaxMigrationAborts) {
    if (!D.Pinned) {
      D.Pinned = true;
      PinnedContexts.inc();
      CHAM_TRACE_INSTANT_ARG("online", "pin", "ctx", ctxArg(Info));
      if (Ledger.enabled()) {
        obs::DecisionRecord Rec = ledgerRecord(Info, obs::DecisionKind::Pin);
        Rec.Rule = static_cast<int16_t>(
            D.Aborts > 0x7fff ? 0x7fff : D.Aborts);
        Ledger.record(Rec);
      }
    }
    return;
  }
  // Fewer than MaxMigrationAborts aborts reach here, so the shift is at
  // most MaxMigrationAborts - 2.
  static_assert((MigrationBackoffBase << (MaxMigrationAborts - 2))
                        >> (MaxMigrationAborts - 2)
                    == MigrationBackoffBase,
                "the longest backoff delay overflows");
  const uint64_t Delay = MigrationBackoffBase << (D.Aborts - 1);
  D.RetryAtAllocations = (Info ? Info->allocations() : 0) + Delay;
  if (Ledger.enabled()) {
    obs::DecisionRecord Rec = ledgerRecord(Info, obs::DecisionKind::Backoff);
    Rec.Rule = static_cast<int16_t>(D.Aborts > 0x7fff ? 0x7fff : D.Aborts);
    Rec.Allocations = D.RetryAtAllocations;
    Rec.Capacity = static_cast<uint32_t>(
        D.RetryAtAllocations > ~0u ? ~0u : D.RetryAtAllocations);
    Ledger.record(Rec);
  }
}

std::string OnlineAdaptor::describeContext(const ContextInfo *Info) const {
  if (!Info)
    return std::string();
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Cache.find(Info);
  if (It == Cache.end())
    return std::string();
  const Decision &D = It->second;
  std::string Out = "online: plan=";
  Out += D.Plan.Impl ? implKindName(*D.Plan.Impl) : "keep";
  if (D.Plan.Capacity)
    Out += " cap=" + std::to_string(*D.Plan.Capacity);
  if (D.Evaluated)
    Out += " evaluatedAtAlloc=" + std::to_string(D.AtAllocationCount);
  if (D.Aborts)
    Out += " consecutiveAborts=" + std::to_string(D.Aborts);
  if (D.RetryAtAllocations)
    Out += " retryAtAlloc=" + std::to_string(D.RetryAtAllocations);
  if (D.Pinned)
    Out += " pinned";
  return Out;
}
