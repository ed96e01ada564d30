//===--- OnlineAdaptor.h - Fully-automatic online selection ----*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fully-automatic replacement mode of §3.3.2 / §5.4: an
/// `OnlineSelector` that, at allocation time, evaluates the selection rules
/// against the context's profile accumulated *so far* (dead instances only)
/// and redirects the allocation to the suggested implementation. Decisions
/// are cached per context and periodically re-evaluated, addressing the
/// paper's "lack of stability" motivation: a context whose behaviour
/// drifts gets a fresh decision.
///
/// The adaptor is also the policy half of transactional live migration:
/// `reviseImpl` proposes a target implementation for an already-live
/// wrapper, and `onMigrationResult` applies exponential backoff to contexts
/// whose migrations keep aborting — after `MaxMigrationAborts` consecutive
/// aborts the context is permanently pinned to its current implementation.
///
//===----------------------------------------------------------------------===//

#ifndef CHAMELEON_CORE_ONLINEADAPTOR_H
#define CHAMELEON_CORE_ONLINEADAPTOR_H

#include "collections/CollectionRuntime.h"
#include "rules/RuleEngine.h"

#include <mutex>
#include <unordered_map>

namespace chameleon {

/// Rule-engine-backed online selector. Install on a CollectionRuntime via
/// `setOnlineSelector`; the profiler it reads must be that runtime's.
/// Thread-safe: the decision cache is mutex-guarded so concurrent mutators
/// can allocate and revise simultaneously.
class OnlineAdaptor : public OnlineSelector {
public:
  /// Do not decide before this many instances have died at the context
  /// (partial-information guard: "at what point of the execution can we
  /// decide", §3.3.2).
  static constexpr uint64_t WarmupDeaths = 8;
  /// Re-evaluate a cached decision after this many further allocations.
  static constexpr uint64_t ReevaluatePeriod = 256;
  /// After an aborted migration, wait this many further allocations from
  /// the context before proposing another one (doubled per consecutive
  /// abort: Base, 2*Base, 4*Base, ... until MaxMigrationAborts pins it).
  static constexpr uint64_t MigrationBackoffBase = 16;
  /// After this many consecutive aborted migrations, permanently pin the
  /// context to its current implementation (give up on live replacement;
  /// allocation-time redirection still applies to *new* instances).
  static constexpr unsigned MaxMigrationAborts = 5;

  OnlineAdaptor(const rules::RuleEngine &Engine,
                const SemanticProfiler &Profiler)
      : Engine(Engine), Profiler(Profiler) {}

  ImplKind chooseImpl(const ContextInfo *Info, AdtKind Adt,
                      ImplKind Requested, uint32_t &Capacity) override;

  std::optional<ImplKind> reviseImpl(const ContextInfo *Info, AdtKind Adt,
                                     ImplKind Current,
                                     uint32_t &Capacity) override;

  void onMigrationResult(const ContextInfo *Info, bool Committed) override;

  /// One line of per-context adaptation state (current plan, backoff, pin)
  /// for RuleEngine::explainContext.
  std::string describeContext(const ContextInfo *Info) const override;

  // The counters below are registry-backed (cham.online.*, DESIGN.md §11):
  // thread-safe on their own, so the accessors no longer take Mu.

  /// Number of allocations redirected to a different implementation.
  uint64_t replacements() const { return Replacements.value(); }

  /// Number of rule-engine evaluations performed.
  uint64_t evaluations() const { return Evaluations.value(); }

  /// Number of live migrations proposed via reviseImpl.
  uint64_t migrationsRequested() const { return MigrationsRequested.value(); }

  /// Number of proposed migrations the runtime committed.
  uint64_t migrationsCommitted() const { return MigrationsCommitted.value(); }

  /// Number of proposed migrations that aborted (injected or real failure).
  uint64_t migrationsAborted() const { return MigrationsAborted.value(); }

  /// Contexts permanently pinned after MaxMigrationAborts consecutive
  /// aborts.
  uint64_t pinnedContexts() const { return PinnedContexts.value(); }

private:
  struct Decision {
    /// The rules' verdict (rules::foldSuggestion), applied like a plan.
    PlanDecision Plan;
    uint64_t AtAllocationCount = 0;
    bool Evaluated = false;
    /// Consecutive aborted migrations for this context.
    unsigned Aborts = 0;
    /// Do not propose another migration until the context has allocated
    /// this many instances (exponential-backoff deadline).
    uint64_t RetryAtAllocations = 0;
    /// Permanently pinned: never propose a live migration again.
    bool Pinned = false;
  };

  /// Returns the cached decision for \p Info, re-running the rule engine
  /// when the cache entry is missing or stale. Caller must hold Mu.
  Decision &evaluateLocked(const ContextInfo *Info);

  const rules::RuleEngine &Engine;
  const SemanticProfiler &Profiler;
  mutable std::mutex Mu;
  std::unordered_map<const ContextInfo *, Decision> Cache;
  obs::Counter Replacements{"cham.online.replacements"};
  obs::Counter Evaluations{"cham.online.evaluations"};
  obs::Counter MigrationsRequested{"cham.online.migrations_requested"};
  obs::Counter MigrationsCommitted{"cham.online.migrations_committed"};
  obs::Counter MigrationsAborted{"cham.online.migrations_aborted"};
  obs::Counter PinnedContexts{"cham.online.pinned_contexts"};
};

} // namespace chameleon

#endif // CHAMELEON_CORE_ONLINEADAPTOR_H
