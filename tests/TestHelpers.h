//===--- TestHelpers.h - Shared test fixtures ------------------*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared helpers for the test suite: a simple traceable heap object for
/// runtime-level tests, small factories for profiler/collection tests, and
/// a reader for the metrics registry.
///
//===----------------------------------------------------------------------===//

#ifndef CHAMELEON_TESTS_TESTHELPERS_H
#define CHAMELEON_TESTS_TESTHELPERS_H

#include "obs/Metrics.h"
#include "runtime/GcHeap.h"

#include <memory>
#include <string>
#include <vector>

namespace chameleon::testing {

/// A plain object with a fixed number of outgoing reference slots.
class Node : public HeapObject {
public:
  Node(TypeId Type, uint64_t Bytes, unsigned Slots)
      : HeapObject(Type, Bytes), Refs(Slots) {}

  void setRef(unsigned I, ObjectRef R) { Refs.at(I) = R; }
  ObjectRef getRef(unsigned I) const { return Refs.at(I); }

  void trace(GcTracer &Tracer) const override {
    for (ObjectRef R : Refs)
      Tracer.visit(R);
  }

private:
  std::vector<ObjectRef> Refs;
};

/// Registers a plain node type on \p Heap and returns its id.
inline TypeId registerNodeType(GcHeap &Heap, const char *Name = "Node") {
  SemanticMap Map;
  Map.Name = Name;
  Map.Kind = TypeKind::Plain;
  return Heap.types().registerType(std::move(Map));
}

/// Allocates a Node with \p Slots reference slots and \p Bytes model size.
inline ObjectRef allocNode(GcHeap &Heap, TypeId Type, unsigned Slots,
                           uint64_t Bytes = 16) {
  return Heap.allocate(std::make_unique<Node>(Type, Bytes, Slots));
}

/// Sum of every live instance of one metric (for instance
/// "cham.gc.pool_tasks", one increment per pool-thread task).
inline uint64_t metricValue(const std::string &Name) {
  uint64_t V = 0;
  for (const obs::MetricSnapshot &S :
       obs::MetricsRegistry::instance().snapshot(Name))
    V += S.Value;
  return V;
}

} // namespace chameleon::testing

#endif // CHAMELEON_TESTS_TESTHELPERS_H
