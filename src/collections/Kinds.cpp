//===--- Kinds.cpp - ADT and implementation kinds ------------------------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "collections/Kinds.h"

#include "support/Assert.h"

using namespace chameleon;

const char *chameleon::implKindName(ImplKind Kind) {
  switch (Kind) {
  case ImplKind::ArrayList:
    return "ArrayList";
  case ImplKind::LinkedList:
    return "LinkedList";
  case ImplKind::LazyArrayList:
    return "LazyArrayList";
  case ImplKind::SingletonList:
    return "SingletonList";
  case ImplKind::EmptyList:
    return "EmptyList";
  case ImplKind::IntArrayList:
    return "IntArrayList";
  case ImplKind::HashedList:
    return "HashedList";
  case ImplKind::HashSet:
    return "HashSet";
  case ImplKind::ArraySet:
    return "ArraySet";
  case ImplKind::LazySet:
    return "LazySet";
  case ImplKind::LinkedHashSet:
    return "LinkedHashSet";
  case ImplKind::SizeAdaptingSet:
    return "SizeAdaptingSet";
  case ImplKind::HashMap:
    return "HashMap";
  case ImplKind::ArrayMap:
    return "ArrayMap";
  case ImplKind::LazyMap:
    return "LazyMap";
  case ImplKind::SingletonMap:
    return "SingletonMap";
  case ImplKind::SizeAdaptingMap:
    return "SizeAdaptingMap";
  }
  CHAM_UNREACHABLE("unknown ImplKind");
}

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

AdtKind chameleon::adtOfImpl(ImplKind Kind) {
  switch (Kind) {
  case ImplKind::ArrayList:
  case ImplKind::LinkedList:
  case ImplKind::LazyArrayList:
  case ImplKind::SingletonList:
  case ImplKind::EmptyList:
  case ImplKind::IntArrayList:
  case ImplKind::HashedList:
    return AdtKind::List;
  case ImplKind::HashSet:
  case ImplKind::ArraySet:
  case ImplKind::LazySet:
  case ImplKind::LinkedHashSet:
  case ImplKind::SizeAdaptingSet:
    return AdtKind::Set;
  case ImplKind::HashMap:
  case ImplKind::ArrayMap:
  case ImplKind::LazyMap:
  case ImplKind::SingletonMap:
  case ImplKind::SizeAdaptingMap:
    return AdtKind::Map;
  }
  CHAM_UNREACHABLE("unknown ImplKind");
}

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
  switch (Kind) {
  case ImplKind::ArrayList:
  case ImplKind::LazyArrayList:
  case ImplKind::IntArrayList:
    return 10;
  case ImplKind::HashMap:
  case ImplKind::LazyMap:
  case ImplKind::HashSet:
  case ImplKind::LazySet:
  case ImplKind::LinkedHashSet:
  case ImplKind::HashedList:
    return 16;
  case ImplKind::ArrayMap:
  case ImplKind::ArraySet:
    return 4;
  case ImplKind::SingletonList:
  case ImplKind::SingletonMap:
    return 1;
  case ImplKind::EmptyList:
  case ImplKind::LinkedList:
    return 0;
  case ImplKind::SizeAdaptingSet:
  case ImplKind::SizeAdaptingMap:
    return 16; // conversion threshold
  }
  CHAM_UNREACHABLE("unknown ImplKind");
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
  if (Name == "ArrayList" || Name == "List")
    return ImplKind::ArrayList;
  if (Name == "LinkedList")
    return ImplKind::LinkedList;
  if (Name == "HashSet" || Name == "Set")
    return ImplKind::HashSet;
  if (Name == "HashMap" || Name == "Map")
    return ImplKind::HashMap;
  return parseImplKind(Name);
}
