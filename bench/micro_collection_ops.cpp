//===--- micro_collection_ops.cpp - §2.2 operation-cost tradeoffs -*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Paper §2.2 "Tradeoffs in Collection Implementations": asymptotic
/// complexity is a bad guide at small sizes — "In the realm of small
/// sizes, constants matter." These microbenches measure the crossovers
/// that justify the Table-2 rules:
///
///  * map get: ArrayMap (linear) vs HashMap (hashed) across sizes — the
///    small-hashmap rule's time argument;
///  * list contains: ArrayList (linear) vs HashedList (hashed) across
///    sizes — the arraylist-contains rule;
///  * positional get: ArrayList vs LinkedList — the
///    linkedlist-random-access rule;
///  * construct+fill+drop: HashMap vs ArrayMap at small sizes — entry
///    allocation pressure.
///
/// Each row grows its batch until one takes a fifth of 20 ms, then reports
/// the median wall and thread-CPU nanoseconds per op over five batches.
/// `--json <path>` writes the rows (times in ns).
///
//===----------------------------------------------------------------------===//

#include "collections/CollectionRuntime.h"
#include "collections/Handles.h"

#include "Harness.h"

#include <string>

using namespace chameleon;

namespace {

RuntimeConfig bareConfig() {
  RuntimeConfig Config;
  Config.Profiler.Enabled = false;
  return Config;
}

/// Times \p Op and adds its row to \p Out: the batch doubles until one
/// runs MinSeconds / Reps, then the row reports the median over Reps
/// batches of wall and CPU ns per op, and the op count timed.
template <class OpT>
void timeOp(bench::Table &Out, const std::string &Name, OpT &&Op) {
  constexpr double MinSeconds = 0.02;
  constexpr int Reps = 5;
  auto Batch = [&](uint64_t Iters) {
    for (uint64_t I = 0; I < Iters; ++I)
      Op();
  };
  uint64_t Iters = 1;
  for (;;) {
    bench::Clock::time_point Start = bench::Clock::now();
    Batch(Iters);
    if (bench::secondsSince(Start) >= MinSeconds / Reps)
      break;
    Iters *= 2;
  }
  std::vector<double> Wall, Cpu;
  for (int R = 0; R < Reps; ++R) {
    double CpuStart = bench::threadCpuSeconds();
    bench::Clock::time_point Start = bench::Clock::now();
    Batch(Iters);
    Wall.push_back(bench::secondsSince(Start) / Iters * 1e9);
    Cpu.push_back((bench::threadCpuSeconds() - CpuStart) / Iters * 1e9);
  }
  Out.addRow({Name, bench::median(Wall), bench::median(Cpu),
              static_cast<double>(Iters * Reps)});
}

void mapGet(bench::Table &Out, const std::string &Name, ImplKind Kind,
            uint32_t Size) {
  CollectionRuntime RT(bareConfig());
  Map M = RT.newMapOf(Kind, RT.site("bench:1"), Size * 2);
  for (uint32_t I = 0; I < Size; ++I)
    M.put(Value::ofInt(I), Value::ofInt(I));
  uint64_t Key = 0;
  timeOp(Out, Name, [&] {
    bench::keep(M.get(Value::ofInt(static_cast<int64_t>(Key++ % Size))));
  });
}

void listContains(bench::Table &Out, const std::string &Name, ImplKind Kind,
                  uint32_t Size) {
  CollectionRuntime RT(bareConfig());
  List L = RT.newListOf(Kind, RT.site("bench:1"), Size);
  for (uint32_t I = 0; I < Size; ++I)
    L.add(Value::ofInt(I));
  uint64_t Probe = 0;
  timeOp(Out, Name, [&] {
    bench::keep(L.contains(Value::ofInt(static_cast<int64_t>(Probe++ % Size))));
  });
}

void listGetIndex(bench::Table &Out, const std::string &Name, ImplKind Kind,
                  uint32_t Size) {
  CollectionRuntime RT(bareConfig());
  List L = RT.newListOf(Kind, RT.site("bench:1"), Size);
  for (uint32_t I = 0; I < Size; ++I)
    L.add(Value::ofInt(I));
  uint64_t Index = 0;
  timeOp(Out, Name, [&] {
    bench::keep(L.get(static_cast<uint32_t>((Index += 7) % Size)));
  });
}

void mapFillAndDrop(bench::Table &Out, const std::string &Name,
                    ImplKind Kind, uint32_t Size) {
  CollectionRuntime RT(bareConfig());
  FrameId Site = RT.site("bench:1");
  timeOp(Out, Name, [&] {
    Map M = RT.newMapOf(Kind, Site);
    for (uint32_t I = 0; I < Size; ++I)
      M.put(Value::ofInt(I), Value::ofInt(I));
    bench::keep(M.size());
    // M dies here; reclaim occasionally so the heap stays bounded.
    if (RT.heap().bytesInUse() > (16u << 20))
      RT.heap().collect(true);
  });
}

using Runner = void (*)(bench::Table &, const std::string &, ImplKind,
                        uint32_t);

/// Runs \p Run for each impl at each size, naming rows "Op/Impl/Size".
void sweep(bench::Table &Out, const char *Op, Runner Run,
           std::initializer_list<std::pair<const char *, ImplKind>> Impls,
           std::initializer_list<uint32_t> Sizes) {
  for (const auto &[Impl, Kind] : Impls)
    for (uint32_t Size : Sizes)
      Run(Out, std::string(Op) + "/" + Impl + "/" + std::to_string(Size),
          Kind, Size);
}

} // namespace

int main(int argc, char **argv) {
  bench::Harness H("micro_collection_ops", argc, argv, {});
  bench::Table &Ops =
      H.table("collection_ops", {{"Benchmark"},
                                 {"Time", {1, " ns"}},
                                 {"CPU", {1, " ns"}},
                                 {"Iterations"}});
  sweep(Ops, "BM_MapGet", mapGet,
        {{"HashMap", ImplKind::HashMap}, {"ArrayMap", ImplKind::ArrayMap}},
        {2, 4, 16, 64, 256, 512});
  sweep(Ops, "BM_ListContains", listContains,
        {{"ArrayList", ImplKind::ArrayList},
         {"HashedList", ImplKind::HashedList}},
        {4, 16, 64, 256, 1024});
  sweep(Ops, "BM_ListGetIndex", listGetIndex,
        {{"ArrayList", ImplKind::ArrayList},
         {"LinkedList", ImplKind::LinkedList}},
        {4, 16, 64, 256});
  sweep(Ops, "BM_MapFillAndDrop", mapFillAndDrop,
        {{"HashMap", ImplKind::HashMap}, {"ArrayMap", ImplKind::ArrayMap}},
        {2, 4, 8, 16});
  std::printf("%s", Ops.render().c_str());
  return H.finish();
}
