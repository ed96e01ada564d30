//===--- Kinds.h - ADT and implementation kinds ----------------*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The vocabulary of abstract collection types and interchangeable backing
/// implementations (paper §4.2 "Available Implementations"). Every name the
/// rule language's `srcType` / `implType` productions can mention lives
/// here.
///
//===----------------------------------------------------------------------===//

#ifndef CHAMELEON_COLLECTIONS_KINDS_H
#define CHAMELEON_COLLECTIONS_KINDS_H

#include <cstdint>
#include <optional>
#include <string>

namespace chameleon {

/// The abstract data type a wrapper exposes.
enum class AdtKind : uint8_t { List, Set, Map };

/// Number of AdtKind values.
inline constexpr unsigned NumAdtKinds = 3;

/// A concrete backing implementation.
enum class ImplKind : uint8_t {
  // List implementations.
  ArrayList,     ///< resizable array, eager backing, §2.2 growth
  LinkedList,    ///< doubly-linked with an eager sentinel entry
  LazyArrayList, ///< ArrayList allocating its array on first update
  SingletonList, ///< holds at most one element in an inline field
  EmptyList,     ///< immutable empty list
  IntArrayList,  ///< ArrayList specialised to int elements (4-byte slots)
  HashedList,    ///< insertion-ordered hash structure behind a List
                 ///< interface; what applying the paper's
                 ///< "ArrayList -> LinkedHashSet" suggestion yields
  // Set implementations.
  HashSet,         ///< backed by a HashMap, as in the paper
  ArraySet,        ///< backed by an array, linear membership
  LazySet,         ///< HashSet allocating its backing map on first update
  LinkedHashSet,   ///< hash set with insertion-ordered linked entries
  SizeAdaptingSet, ///< array until a size threshold, then hash (§2.3)
  // Map implementations.
  HashMap,         ///< chained hash table, load factor 0.75
  ArrayMap,        ///< parallel key/value array, linear lookup
  LazyMap,         ///< HashMap allocating its table on first update
  SingletonMap,    ///< holds at most one entry inline
  SizeAdaptingMap, ///< array until a size threshold, then hash (§2.3)
};

/// Number of ImplKind values.
inline constexpr unsigned NumImplKinds =
    static_cast<unsigned>(ImplKind::SizeAdaptingMap) + 1;

/// Dense index of an ImplKind.
inline constexpr unsigned implIndex(ImplKind K) {
  return static_cast<unsigned>(K);
}

/// The rule-language spelling of an implementation kind.
const char *implKindName(ImplKind Kind);

/// Parses an implementation-kind name; std::nullopt when unknown.
std::optional<ImplKind> parseImplKind(const std::string &Name);

/// The abstract type an implementation provides.
AdtKind adtOfImpl(ImplKind Kind);

/// The rule-language spelling of an abstract type ("List", "Set", "Map").
const char *adtKindName(AdtKind Kind);

/// True when a wrapper exposing \p Adt can be backed by \p Impl, i.e. when
/// \p Impl is native to \p Adt. Set implementations never back a List:
/// for a HashSet or LinkedHashSet suggestion on a List, adaptImplToAdt
/// substitutes HashedList, the List-native hashed adapter.
bool implSupportsAdt(ImplKind Impl, AdtKind Adt);

/// The default backing for a source-level type name, e.g. "ArrayList" ->
/// ImplKind::ArrayList, "HashSet" -> ImplKind::HashSet. std::nullopt for
/// unknown names.
std::optional<ImplKind> defaultImplForSourceType(const std::string &Name);

/// Registry query for rule srcType names: the abstract type a rule source
/// name constrains. ADT names ("List"/"Set"/"Map") map to themselves,
/// concrete names ("HashMap", "LazySet", ...) to their implementation's
/// ADT. The "Collection" wildcard and unknown names yield std::nullopt
/// (no constraint). Used by the rule sema pass to validate replacement
/// targets against the source's kind.
std::optional<AdtKind> adtOfSourceType(const std::string &Name);

/// The effective initial capacity an implementation uses when the source
/// requested none (ArrayList 10, HashMap 16, ArrayMap 4, ...). For the
/// SizeAdapting hybrids this is the conversion threshold.
uint32_t defaultCapacityOf(ImplKind Kind);

/// True for the kinds that hold at most a fixed number of elements
/// (EmptyList, SingletonList, SingletonMap).
bool implIsBounded(ImplKind Kind);

/// True for the kinds that accept only some contents: IntArrayList holds
/// only ints, and HashedList drops duplicates.
bool implRestrictsContents(ImplKind Kind);

/// Adapts a suggested implementation to the wrapper's abstract type:
/// identity when the implementation is native to \p Adt; LinkedHashSet /
/// HashSet suggested for a List become HashedList (the insertion-ordered
/// adapter); std::nullopt when the suggestion cannot back the ADT at all.
std::optional<ImplKind> adaptImplToAdt(ImplKind Impl, AdtKind Adt);

} // namespace chameleon

#endif // CHAMELEON_COLLECTIONS_KINDS_H
