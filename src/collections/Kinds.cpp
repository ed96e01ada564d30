//===--- Kinds.cpp - ADT and implementation kinds ------------------------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "collections/Kinds.h"

#include "support/Assert.h"

#include <iterator>

using namespace chameleon;

namespace {

/// Everything the library states about one implementation kind apart from
/// its code (paper §4.2 "Available Implementations").
struct ImplKindRow {
  ImplKind Kind;
  const char *Name;
  AdtKind Adt;
  /// The initial capacity when the source requests none (java.util's 10
  /// for ArrayList, 16 for HashMap); for the SizeAdapting hybrids, the
  /// conversion threshold (16 worked for TVLA in §2.3).
  uint32_t DefaultCapacity;
  /// Holds at most a fixed number of elements.
  bool Bounded;
  /// Accepts only some contents: IntArrayList holds only ints, and
  /// HashedList drops duplicates.
  bool Restricted;
};

using enum ImplKind;
using enum AdtKind;

/// One row per ImplKind, in enum order.
constexpr ImplKindRow Rows[] = {
    // Kind           Name               ADT   Capacity Bounded Restricted
    {ArrayList,       "ArrayList",       List, 10,      false,  false},
    {LinkedList,      "LinkedList",      List, 0,       false,  false},
    {LazyArrayList,   "LazyArrayList",   List, 10,      false,  false},
    {SingletonList,   "SingletonList",   List, 1,       true,   false},
    {EmptyList,       "EmptyList",       List, 0,       true,   false},
    {IntArrayList,    "IntArrayList",    List, 10,      false,  true},
    {HashedList,      "HashedList",      List, 16,      false,  true},
    {HashSet,         "HashSet",         Set,  16,      false,  false},
    {ArraySet,        "ArraySet",        Set,  4,       false,  false},
    {LazySet,         "LazySet",         Set,  16,      false,  false},
    {LinkedHashSet,   "LinkedHashSet",   Set,  16,      false,  false},
    {SizeAdaptingSet, "SizeAdaptingSet", Set,  16,      false,  false},
    {HashMap,         "HashMap",         Map,  16,      false,  false},
    {ArrayMap,        "ArrayMap",        Map,  4,       false,  false},
    {LazyMap,         "LazyMap",         Map,  16,      false,  false},
    {SingletonMap,    "SingletonMap",    Map,  1,       true,   false},
    {SizeAdaptingMap, "SizeAdaptingMap", Map,  16,      false,  false},
};

constexpr bool rowsInEnumOrder() {
  for (unsigned I = 0; I < NumImplKinds; ++I)
    if (implIndex(Rows[I].Kind) != I)
      return false;
  return true;
}
static_assert(std::size(Rows) == NumImplKinds && rowsInEnumOrder(),
              "one row per ImplKind, in enum order");

const ImplKindRow &row(ImplKind Kind) {
  if (implIndex(Kind) >= NumImplKinds)
    CHAM_UNREACHABLE("unknown ImplKind");
  return Rows[implIndex(Kind)];
}

} // namespace

const char *chameleon::implKindName(ImplKind Kind) { return row(Kind).Name; }

std::optional<ImplKind> chameleon::parseImplKind(const std::string &Name) {
  for (unsigned I = 0; I < NumImplKinds; ++I) {
    ImplKind Kind = static_cast<ImplKind>(I);
    if (Name == implKindName(Kind))
      return Kind;
  }
  // "LinkedHashSet" as a *list* replacement target resolves to HashedList
  // at application time; the spelling is accepted directly above.
  return std::nullopt;
}

AdtKind chameleon::adtOfImpl(ImplKind Kind) { return row(Kind).Adt; }

const char *chameleon::adtKindName(AdtKind Kind) {
  switch (Kind) {
  case AdtKind::List:
    return "List";
  case AdtKind::Set:
    return "Set";
  case AdtKind::Map:
    return "Map";
  }
  CHAM_UNREACHABLE("unknown AdtKind");
}

bool chameleon::implSupportsAdt(ImplKind Impl, AdtKind Adt) {
  return adtOfImpl(Impl) == Adt;
}

uint32_t chameleon::defaultCapacityOf(ImplKind Kind) {
  return row(Kind).DefaultCapacity;
}

bool chameleon::implIsBounded(ImplKind Kind) { return row(Kind).Bounded; }

bool chameleon::implRestrictsContents(ImplKind Kind) {
  return row(Kind).Restricted;
}

std::optional<ImplKind> chameleon::adaptImplToAdt(ImplKind Impl,
                                                  AdtKind Adt) {
  if (adtOfImpl(Impl) == Adt)
    return Impl;
  if (Adt == AdtKind::List
      && (Impl == ImplKind::LinkedHashSet || Impl == ImplKind::HashSet))
    return ImplKind::HashedList;
  return std::nullopt;
}

std::optional<AdtKind> chameleon::adtOfSourceType(const std::string &Name) {
  if (Name == "Collection")
    return std::nullopt;
  if (Name == "List")
    return AdtKind::List;
  if (Name == "Set")
    return AdtKind::Set;
  if (Name == "Map")
    return AdtKind::Map;
  if (std::optional<ImplKind> Impl = defaultImplForSourceType(Name))
    return adtOfImpl(*Impl);
  return std::nullopt;
}

std::optional<ImplKind>
chameleon::defaultImplForSourceType(const std::string &Name) {
  if (Name == "List")
    return ImplKind::ArrayList;
  if (Name == "Set")
    return ImplKind::HashSet;
  if (Name == "Map")
    return ImplKind::HashMap;
  return parseImplKind(Name);
}
