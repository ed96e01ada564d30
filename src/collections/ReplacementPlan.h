//===--- ReplacementPlan.h - Context-keyed replacement decisions -*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A replacement plan maps allocation-context labels to corrective
/// decisions — the machine-applicable form of the paper's per-context
/// suggestions ("replace with ArrayMap", "set initial capacity"). Step 3 of
/// the paper's methodology (§5.2) notes the modification "is a replacement
/// step and hence can be easily automated"; the plan is that automation:
/// the factory consults it on every profiled allocation of a later run.
///
//===----------------------------------------------------------------------===//

#ifndef CHAMELEON_COLLECTIONS_REPLACEMENTPLAN_H
#define CHAMELEON_COLLECTIONS_REPLACEMENTPLAN_H

#include "collections/Kinds.h"

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>

namespace chameleon {

/// One corrective decision for an allocation context, whether it came from
/// an offline plan or from the online adaptor.
struct PlanDecision {
  /// Replace the backing implementation (nullopt = keep the requested one).
  std::optional<ImplKind> Impl;
  /// Set the initial capacity (nullopt = keep the requested one).
  std::optional<uint32_t> Capacity;

  bool empty() const { return !Impl && !Capacity; }

  /// Applies the decision to an allocation of \p Adt: sets \p Cap when the
  /// decision carries a capacity, and returns the decided implementation
  /// adapted to \p Adt (see adaptImplToAdt) — nullopt when the decision
  /// keeps the implementation or its target cannot back \p Adt.
  std::optional<ImplKind> apply(AdtKind Adt, uint32_t &Cap) const {
    if (Capacity)
      Cap = *Capacity;
    return Impl ? adaptImplToAdt(*Impl, Adt) : std::nullopt;
  }
};

/// Decisions keyed by `ContextInfo::label()` ("HashMap:site;caller;caller").
/// The factory reads the plan on every profiled allocation without a lock:
/// edit it only while no other thread allocates.
class ReplacementPlan {
public:
  /// Installs (or overwrites) the decision for a context label.
  void add(const std::string &ContextLabel, PlanDecision Decision) {
    Decisions[ContextLabel] = Decision;
  }

  /// The decision for a label, or null when the plan has none.
  const PlanDecision *lookup(const std::string &ContextLabel) const {
    auto It = Decisions.find(ContextLabel);
    return It == Decisions.end() ? nullptr : &It->second;
  }

  /// Number of planned contexts.
  size_t size() const { return Decisions.size(); }

  bool empty() const { return Decisions.empty(); }

  /// Drops all decisions.
  void clear() { Decisions.clear(); }

  /// Read access for reporting.
  const std::unordered_map<std::string, PlanDecision> &decisions() const {
    return Decisions;
  }

private:
  std::unordered_map<std::string, PlanDecision> Decisions;
};

} // namespace chameleon

#endif // CHAMELEON_COLLECTIONS_REPLACEMENTPLAN_H
