//===--- custom_collections.cpp - Plugging in your own impls ---*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Demonstrates the paper's extensibility claims (§1, §4.2, §4.3.2): a
/// user-supplied collection implementation — here an open-addressing hash
/// map in the style of Trove — is registered with the runtime, profiled by
/// the collection-aware GC through its own `sizes()` (the parametric
/// semantic-map mechanism), matched by ADT-level rules, and replaced by
/// the plan where the profile says a built-in fits better.
///
/// The paper's caveat about open addressing ("requires some guarantees on
/// the quality of the hash function ... to avoid disastrous performance
/// implications") is what makes this a nice example: the profile-driven
/// pipeline treats the custom structure like any other candidate.
///
//===----------------------------------------------------------------------===//

#include "core/Chameleon.h"
#include "rules/RuleEngine.h"

#include <cstdio>

using namespace chameleon;

namespace {

/// A Trove-style open-addressing map: one flat array of alternating
/// key/value slots, linear probing, no per-entry objects. Deletion uses
/// tombstones (key slot = a reserved sentinel).
class OpenAddressingMapImpl : public MapImpl {
public:
  static constexpr uint32_t DefaultCapacity = 16;

  OpenAddressingMapImpl(TypeId Type, uint64_t Bytes, CollectionRuntime &RT,
                        uint32_t RequestedCapacity)
      : MapImpl(Type, Bytes, RT),
        InitialCapacity(RequestedCapacity ? RequestedCapacity
                                          : DefaultCapacity) {}

  void initEager() override {
    Table = RT.allocValueArray(2 * InitialCapacity);
    Capacity = InitialCapacity;
  }

  uint32_t size() const override { return Count; }

  void clear() override {
    ValueArray &T = table();
    for (uint32_t I = 0; I < 2 * Capacity; ++I)
      T.set(I, Value::null());
    Count = 0;
    Tombstones = 0;
    bumpMod();
  }

  CollectionSizes sizes() const override {
    const MemoryModel &M = RT.heap().model();
    CollectionSizes S;
    S.Live = shallowBytes()
             + (Table.isNull()
                    ? 0
                    : M.arrayBytes(2 * static_cast<uint64_t>(Capacity)));
    // Open addressing has no entry objects; unused slots are the slack.
    S.Used = S.Live
             - 2 * static_cast<uint64_t>(Capacity - Count) * M.PointerBytes;
    S.Core =
        Count == 0 ? 0 : M.arrayBytes(2 * static_cast<uint64_t>(Count));
    return S;
  }

  bool put(Value Key, Value Val) override {
    if ((Count + Tombstones + 1) * 2 > Capacity)
      grow();
    ValueArray &T = table();
    uint32_t Slot = probe(Key, /*ForInsert=*/true);
    bool New = T.get(2 * Slot) != Key;
    if (New) {
      if (T.get(2 * Slot) == Tombstone)
        --Tombstones;
      T.set(2 * Slot, Key);
      ++Count;
      bumpMod();
    }
    T.set(2 * Slot + 1, Val);
    return New;
  }

  Value get(Value Key) const override {
    uint32_t Slot = probe(Key, /*ForInsert=*/false);
    return Slot == UINT32_MAX ? Value::null()
                              : table().get(2 * Slot + 1);
  }

  bool containsKey(Value Key) const override {
    return probe(Key, false) != UINT32_MAX;
  }

  bool containsValue(Value Val) const override {
    const ValueArray &T = table();
    for (uint32_t I = 0; I < Capacity; ++I)
      if (!T.get(2 * I).isNull() && T.get(2 * I) != Tombstone
          && T.get(2 * I + 1) == Val)
        return true;
    return false;
  }

  bool removeKey(Value Key) override {
    uint32_t Slot = probe(Key, false);
    if (Slot == UINT32_MAX)
      return false;
    ValueArray &T = table();
    T.set(2 * Slot, Tombstone);
    T.set(2 * Slot + 1, Value::null());
    --Count;
    ++Tombstones;
    bumpMod();
    return true;
  }

  bool iterNext(IterState &State, Value &Key, Value &Val) const override {
    const ValueArray &T = table();
    for (uint32_t I = static_cast<uint32_t>(State.A); I < Capacity; ++I) {
      Value K = T.get(2 * I);
      if (!K.isNull() && K != Tombstone) {
        Key = K;
        Val = T.get(2 * I + 1);
        State.A = I + 1;
        return true;
      }
    }
    return false;
  }

  void trace(GcTracer &Tracer) const override { Tracer.visit(Table); }

private:
  // A reserved identity the program never stores.
  static inline const Value Tombstone = Value::ofInt((1LL << 61) + 7);

  ValueArray &table() const {
    return RT.heap().getAs<ValueArray>(Table);
  }

  /// Linear probing. ForInsert returns the slot to write (first tombstone
  /// or empty, or the key's own slot); otherwise UINT32_MAX when absent.
  uint32_t probe(Value Key, bool ForInsert) const {
    const ValueArray &T = table();
    uint32_t Start = static_cast<uint32_t>(Key.hash() % Capacity);
    uint32_t FirstFree = UINT32_MAX;
    for (uint32_t D = 0; D < Capacity; ++D) {
      uint32_t I = (Start + D) % Capacity;
      Value K = T.get(2 * I);
      if (K == Key)
        return I;
      if (K.isNull())
        return ForInsert
                   ? (FirstFree != UINT32_MAX ? FirstFree : I)
                   : UINT32_MAX;
      if (K == Tombstone && FirstFree == UINT32_MAX)
        FirstFree = I;
    }
    return ForInsert ? FirstFree : UINT32_MAX;
  }

  void grow() {
    uint32_t NewCap = Capacity * 2;
    ObjectRef NewTable = RT.allocValueArray(2 * NewCap);
    ValueArray &New = RT.heap().getAs<ValueArray>(NewTable);
    const ValueArray &Old = table();
    uint32_t OldCap = Capacity;
    // Rehash into the new table (tombstones disappear).
    ObjectRef OldRef = Table;
    Table = NewTable;
    Capacity = NewCap;
    Tombstones = 0;
    uint32_t Moved = 0;
    for (uint32_t I = 0; I < OldCap; ++I) {
      Value K = Old.get(2 * I);
      if (K.isNull() || K == Tombstone)
        continue;
      uint32_t Slot = probe(K, true);
      New.set(2 * Slot, K);
      New.set(2 * Slot + 1, Old.get(2 * I + 1));
      ++Moved;
    }
    (void)Moved;
    (void)OldRef; // old table becomes garbage
  }

  ObjectRef Table;
  uint32_t Count = 0;
  uint32_t Capacity = 0;
  uint32_t Tombstones = 0;
  uint32_t InitialCapacity;
};

} // namespace

int main() {
  std::printf("== custom collection implementations ==\n\n");

  CollectionRuntime RT;

  // Register the Trove-style map; the runtime gives it a TypeId and from
  // here on the collection-aware GC profiles it like a built-in, because
  // the semantic map just calls the implementation's own sizes().
  CustomImpl Trove;
  Trove.Name = "TroveOpenMap";
  Trove.Adt = AdtKind::Map;
  Trove.Make = [](CollectionRuntime &R, TypeId Type, uint32_t Capacity) {
    return std::make_unique<OpenAddressingMapImpl>(
        Type, R.heap().model().objectBytes(1, 16), R, Capacity);
  };
  CustomImplId TroveId = RT.registerCustomImpl(Trove);

  // A program that (mis)uses the custom map for tiny, short-lived data.
  FrameId Site = RT.site("Indexer.tinyIndex:12");
  CallFrame Main(RT.profiler(), "Indexer.main");
  for (int I = 0; I < 2000; ++I) {
    Map M = RT.newCustomMap(TroveId, Site);
    for (int E = 0; E < 3; ++E)
      M.put(Value::ofInt(E), Value::ofInt(I + E));
    for (int Q = 0; Q < 6; ++Q)
      (void)M.get(Value::ofInt(Q % 4));
    if (I % 64 == 0)
      RT.heap().collect(/*Forced=*/true);
  }
  RT.harvestLiveStatistics();

  std::printf("custom allocations: %llu (backing: %s)\n",
              static_cast<unsigned long long>(
                  RT.allocationsWithCustomImpl(TroveId)),
              "TroveOpenMap");

  // ADT-level rules match the custom type once the engine knows its ADT.
  rules::RuleEngine Engine;
  Engine.addBuiltinRules();
  Engine.registerSourceType("TroveOpenMap", AdtKind::Map);
  Engine.addRules(R"(
    [tiny-trove] Map : maxSize <= 4 && allocCount >= 8 -> ArrayMap(maxSize)
      "Space: open addressing wastes half its table on tiny maps"
  )");

  std::vector<rules::Suggestion> Suggs = Engine.evaluate(RT.profiler());
  std::printf("\n-- suggestions over the custom type's contexts --\n%s",
              rules::RuleEngine::renderReport(Suggs).c_str());

  // Apply: later allocations at the context are redirected to ArrayMap.
  RT.plan() = rules::RuleEngine::buildPlan(Suggs);
  Map Redirected = RT.newCustomMap(TroveId, Site);
  std::printf("\nafter applying the plan, the same call site now yields: "
              "%s\n",
              Redirected.backingName().c_str());
  return 0;
}
