//===--- sec23_hybrid_threshold.cpp - Reproduces paper §2.3 ----*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Paper §2.3 "Possible Solutions for Low Utilization": the hybrid
/// (size-adapting) collection converts from an array to a hash map at a
/// local threshold. The paper's finding for TVLA-shaped data: converting
/// at 16 gives a relatively low footprint with ~8% time cost; larger
/// thresholds don't shrink it further; smaller ones (13) erase the
/// footprint win. This bench sweeps the threshold on a TVLA-shaped
/// small-maps workload, comparing footprint and time against plain
/// HashMap and the context-aware ArrayMap choice.
///
//===----------------------------------------------------------------------===//

#include "core/Chameleon.h"
#include "support/Format.h"
#include "support/SplitMix64.h"

#include "Harness.h"

#include <algorithm>
#include <cstdio>
#include <deque>

using namespace chameleon;

namespace {

/// TVLA-shaped workload: many stable maps of 8-15 entries — straddling
/// the candidate conversion thresholds, which is exactly why §2.3 found
/// the threshold "very tricky": at 13 most maps convert back to hash
/// structure (original footprint), at 16 none do. A sprinkling of large
/// maps keeps a purely local policy honest on the time side.
void mapWorkload(CollectionRuntime &RT, ImplKind Kind,
                 uint32_t ThresholdOrCap) {
  FrameId SmallSite = RT.site("Hybrid.small:1");
  FrameId BigSite = RT.site("Hybrid.big:2");
  SplitMix64 Rng(7);
  std::deque<Map> Live;
  for (int I = 0; I < 6000; ++I) {
    if (RT.heap().outOfMemory())
      return;
    Map M = RT.newMapOf(Kind, SmallSite, ThresholdOrCap);
    int Entries = 8 + static_cast<int>(Rng.nextBelow(8)); // 8..15
    for (int E = 0; E < Entries; ++E)
      M.put(Value::ofInt(E), Value::ofInt(I));
    for (int Q = 0; Q < 24; ++Q)
      (void)M.get(Value::ofInt(
          static_cast<int64_t>(Rng.nextBelow(16))));
    Live.push_back(std::move(M));
    if (I % 200 == 0) {
      // The occasional large map: a purely local policy must handle it.
      Map Big = RT.newMapOf(Kind, BigSite, ThresholdOrCap);
      for (int E = 0; E < 64; ++E)
        Big.put(Value::ofInt(E), Value::ofInt(E));
      for (int Q = 0; Q < 400; ++Q)
        (void)Big.get(
            Value::ofInt(static_cast<int64_t>(Rng.nextBelow(64))));
      Live.push_back(std::move(Big));
    }
    if (Live.size() > 4000)
      Live.pop_front();
  }
}

struct Measurement {
  uint64_t PeakLive = 0;
  double Seconds = 0;
};

Measurement measure(ImplKind Kind, uint32_t ThresholdOrCap) {
  RuntimeConfig Config;
  Config.Profiler.Enabled = false; // uninstrumented, like §2.3's runs
  Config.GcSampleEveryBytes = 256 * 1024;
  Measurement Result;
  Result.Seconds = bench::medianOf(3, [&] {
    CollectionRuntime RT(Config);
    bench::Clock::time_point Start = bench::Clock::now();
    mapWorkload(RT, Kind, ThresholdOrCap);
    double Seconds = bench::secondsSince(Start);
    for (const GcCycleRecord &Rec : RT.heap().cycles())
      Result.PeakLive = std::max(Result.PeakLive, Rec.LiveBytes);
    return Seconds;
  });
  return Result;
}

} // namespace

int main() {
  std::printf("== §2.3: local hybrid (SizeAdaptingMap) conversion-"
              "threshold sweep ==\n\n");

  Measurement Baseline = measure(ImplKind::HashMap, 0);
  TextTable Table({"configuration", "peak live", "vs HashMap", "time",
                   "vs HashMap"});
  auto AddRow = [&](const std::string &Name, const Measurement &M) {
    Table.addRow({Name, formatBytes(M.PeakLive),
                  formatPercent(static_cast<double>(M.PeakLive)
                                / static_cast<double>(Baseline.PeakLive)),
                  formatDouble(M.Seconds, 4),
                  formatPercent(M.Seconds / Baseline.Seconds)});
  };

  AddRow("HashMap (original)", Baseline);
  for (uint32_t Threshold : {8u, 13u, 16u, 24u, 32u, 48u})
    AddRow("SizeAdaptingMap(" + std::to_string(Threshold) + ")",
           measure(ImplKind::SizeAdaptingMap, Threshold));
  // The context-aware selection: ArrayMap sized from the observed
  // maxSize for the small-map context (global knowledge beats the local
  // hybrid, which must survive the big-map tail too).
  AddRow("ArrayMap(16) [context-aware choice]",
         measure(ImplKind::ArrayMap, 16));

  std::printf("%s\n", Table.render().c_str());
  std::printf("shape to check against §2.3: the hybrid's footprint win "
              "flattens beyond a\nmoderate threshold, a too-small "
              "threshold gives the footprint of the original,\nand the "
              "hybrid costs time over the context-aware ArrayMap "
              "choice.\n");
  return 0;
}
