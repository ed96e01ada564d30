//===--- HeapObject.h - Base class of managed objects ----------*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Base class for every object living in the managed heap. An object carries
/// the `TypeId` under which its semantic map was registered, its own
/// reference (its slot index), and its simulated size in bytes under the
/// `MemoryModel`. Its mark state lives in the heap, one bit per slot beside
/// the slot table (GcHeap.h), so the header is the vtable pointer and these
/// three fields. Subclasses enumerate their outgoing references by
/// overriding `trace`.
///
//===----------------------------------------------------------------------===//

#ifndef CHAMELEON_RUNTIME_HEAPOBJECT_H
#define CHAMELEON_RUNTIME_HEAPOBJECT_H

#include "runtime/ObjectRef.h"

#include <cstddef>
#include <cstdint>

namespace chameleon {

class GcHeap;

/// Identifies a type registered in a heap's `TypeRegistry`.
using TypeId = uint32_t;

/// Visitor through which objects report their outgoing references during
/// the marking phase.
class GcTracer {
public:
  virtual ~GcTracer();

  /// Marks \p Ref live and queues it for tracing. Null refs return here,
  /// before any virtual call: most references a trace reports are null
  /// (the unused tails of backing arrays, empty entry links).
  void visit(ObjectRef Ref) {
    if (!Ref.isNull())
      visitRef(Ref);
  }

protected:
  /// Handles one non-null reference.
  virtual void visitRef(ObjectRef Ref) = 0;
};

/// A managed heap object. C++-side ownership belongs to the heap; program
/// code refers to objects only through `ObjectRef` (and roots them through
/// `Handle`).
class HeapObject {
public:
  HeapObject(TypeId Type, uint64_t ShallowBytes)
      : Type(Type), ShallowBytes(ShallowBytes) {}
  virtual ~HeapObject();

  HeapObject(const HeapObject &) = delete;
  HeapObject &operator=(const HeapObject &) = delete;

  /// Managed-object C++ storage comes from the runtime's size-class
  /// allocator (thread caches over central free lists, DESIGN.md §12), so
  /// sweep-time destruction recycles storage instead of hitting malloc.
  /// Class-scope operators: every `new Subclass(...)` — all allocation
  /// goes through std::make_unique — routes here with no call-site change.
  /// Defined in ThreadCache.cpp. Over-aligned subclasses (alignof > 16)
  /// would need an aligned overload; none exist and adding one without the
  /// allocator's support is a compile error by design.
  static void *operator new(size_t Size);
  static void operator delete(void *P) noexcept;
  static void operator delete(void *P, size_t Size) noexcept;

  /// Reports every outgoing reference to \p Tracer. The default reports
  /// nothing (leaf object).
  virtual void trace(GcTracer &Tracer) const;

  /// The type this object was allocated as.
  TypeId typeId() const { return Type; }

  /// Simulated size of this object alone, in model bytes.
  uint64_t shallowBytes() const { return ShallowBytes; }

  /// This object's own reference (valid once allocated into a heap).
  ObjectRef self() const { return Self; }

private:
  friend class GcHeap;

  /// Type and Self share one 8-byte word.
  TypeId Type;
  ObjectRef Self;
  uint64_t ShallowBytes;
};

static_assert(sizeof(void *) != 8 || sizeof(HeapObject) == 24,
              "a HeapObject header is its vtable pointer, Type, Self and "
              "ShallowBytes");

} // namespace chameleon

#endif // CHAMELEON_RUNTIME_HEAPOBJECT_H
