//===--- FaultInjector.h - Deterministic fault injection ------------------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seeded, site-tagged fault injection. Production code marks interesting
/// instants with CHAM_FAULT("site") (throw-only sites) or
/// CHAM_FAULT_GC("site", Heap) (sites that may additionally force a full
/// collection). A test or chaos harness arms a FaultPlan — an ordered list
/// of rules matching site names by glob and firing on an exact Nth hit or
/// with a seeded per-hit probability — and the marked code starts failing
/// deterministically.
///
/// Injected allocation failures (`FaultAction::FailAlloc`) are delivered as
/// a thrown InjectedFault, but only inside a FaultInjector::FailScope; the
/// runtime arms such a scope around transactional work that is prepared to
/// unwind (live migration). Outside any FailScope a matched failure is
/// counted as suppressed instead of thrown, so a plan with broad globs
/// cannot crash code that has no recovery story.
///
/// When no plan is armed the whole machinery is a single relaxed atomic
/// load.
///
//===----------------------------------------------------------------------===//

#ifndef CHAMELEON_SUPPORT_FAULTINJECTOR_H
#define CHAMELEON_SUPPORT_FAULTINJECTOR_H

#include "support/SplitMix64.h"

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace chameleon {

enum class FaultAction : uint8_t { None, FailAlloc, ForceGc };

/// Thrown (from CHAM_FAULT sites inside an armed FailScope) to simulate an
/// allocation failure. Deliberately not derived from std::exception: nothing
/// but the migration transaction may catch it, and a stray `catch (const
/// std::exception &)` must not swallow it silently.
struct InjectedFault {
  const char *Site;
};

struct FaultRule {
  /// Glob over site names; '*' matches any (possibly empty) run of
  /// characters, every other character matches itself.
  std::string SitePattern;
  FaultAction Action = FaultAction::FailAlloc;
  /// 1-based: fire on exactly the Nth matching hit. 0 = fire per-hit with
  /// \c Probability instead.
  uint64_t NthHit = 0;
  /// Per-hit fire chance, drawn from this rule's own seeded stream; the
  /// draw sequence depends only on (plan seed, rule index, hit count), so
  /// replaying a seed replays the exact fault schedule.
  double Probability = 0.0;
  /// Stop firing after this many deliveries (~0 = unlimited).
  uint64_t MaxFires = ~0ull;
};

struct FaultPlan {
  uint64_t Seed = 0;
  std::vector<FaultRule> Rules;
};

/// Snapshot of the injector's accounting. The counters themselves live in
/// the telemetry metrics registry (`cham.fault.*`, DESIGN.md §11); this
/// struct is the thin read the pre-telemetry callers keep using.
struct FaultStats {
  uint64_t Hits = 0;               ///< Injection points evaluated while armed.
  uint64_t AllocFailuresThrown = 0;///< FailAlloc actually delivered.
  uint64_t ForcedGcs = 0;          ///< ForceGc actually delivered.
  uint64_t SuppressedFailures = 0; ///< FailAlloc matched outside a FailScope.
};

/// \returns true when \p Site matches \p Pattern ('*' wildcards).
bool faultSiteMatch(const char *Pattern, const char *Site);

class FaultInjector {
public:
  /// The process-global injector all CHAM_FAULT sites consult.
  static FaultInjector &instance();

  static bool enabled() { return Armed.load(std::memory_order_relaxed); }
  static bool failScopeArmed() { return FailScopeDepth > 0; }

  /// Installs \p Plan and starts evaluating sites. Resets all counters.
  void arm(const FaultPlan &Plan);

  /// Stops evaluating sites. Rule state and counters survive until the next
  /// arm() so harnesses can report what actually fired.
  void disarm();

  /// Core decision for one injection-point hit. Called by the CHAM_FAULT
  /// macros only while enabled(). FailAlloc is only returned when
  /// \p AllowFail (the caller is inside a FailScope); ForceGc only when
  /// \p AllowGc (the site can tolerate a collection). The first rule whose
  /// action is deliverable wins, but every matching rule advances its hit
  /// counter and probability stream so outcomes stay seed-deterministic
  /// regardless of scope state.
  FaultAction evaluate(const char *Site, bool AllowFail, bool AllowGc);

  FaultStats stats() const;

  struct RuleReport {
    std::string SitePattern;
    uint64_t Hits = 0;
    uint64_t Fires = 0;
  };
  std::vector<RuleReport> ruleReports() const;

  /// RAII: while at least one FailScope is live on this thread, matched
  /// FailAlloc rules are thrown rather than suppressed.
  class FailScope {
  public:
    FailScope() { ++FailScopeDepth; }
    ~FailScope() { --FailScopeDepth; }
    FailScope(const FailScope &) = delete;
    FailScope &operator=(const FailScope &) = delete;
  };

private:
  struct RuleState {
    FaultRule Rule;
    SplitMix64 Rng{0};
    uint64_t Hits = 0;
    uint64_t Fires = 0;
  };

  inline static std::atomic<bool> Armed{false};
  inline static thread_local int FailScopeDepth = 0;

  mutable std::mutex Mu;
  std::vector<RuleState> Rules;
};

} // namespace chameleon

/// Throw-only injection point: may deliver FailAlloc (inside a FailScope).
#define CHAM_FAULT(SiteStr)                                                    \
  do {                                                                         \
    if (::chameleon::FaultInjector::enabled() &&                               \
        ::chameleon::FaultInjector::instance().evaluate(                       \
            SiteStr, ::chameleon::FaultInjector::failScopeArmed(),             \
            /*AllowGc=*/false) == ::chameleon::FaultAction::FailAlloc)         \
      throw ::chameleon::InjectedFault{SiteStr};                               \
  } while (false)

/// Injection point that may additionally force a full collection on the
/// given heap (any expression with a collect(bool) member).
#define CHAM_FAULT_GC(SiteStr, Heap)                                           \
  do {                                                                         \
    if (::chameleon::FaultInjector::enabled()) {                               \
      switch (::chameleon::FaultInjector::instance().evaluate(                 \
          SiteStr, ::chameleon::FaultInjector::failScopeArmed(),               \
          /*AllowGc=*/true)) {                                                 \
      case ::chameleon::FaultAction::FailAlloc:                                \
        throw ::chameleon::InjectedFault{SiteStr};                             \
      case ::chameleon::FaultAction::ForceGc:                                  \
        (Heap).collect(/*Forced=*/true);                                       \
        break;                                                                 \
      default:                                                                 \
        break;                                                                 \
      }                                                                        \
    }                                                                          \
  } while (false)

#endif // CHAMELEON_SUPPORT_FAULTINJECTOR_H
