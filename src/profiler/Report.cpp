//===--- Report.cpp - Textual profiler reports ---------------------------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "profiler/Report.h"

#include "support/Format.h"

#include <algorithm>

using namespace chameleon;

std::vector<LiveDataPoint>
chameleon::liveDataSeries(const std::vector<GcCycleRecord> &Cycles) {
  std::vector<LiveDataPoint> Series;
  Series.reserve(Cycles.size());
  for (const GcCycleRecord &Rec : Cycles) {
    LiveDataPoint Point;
    Point.Cycle = Rec.Cycle;
    Point.LiveFraction = Rec.collectionLiveFraction();
    Point.UsedFraction = Rec.collectionUsedFraction();
    Point.CoreFraction = Rec.collectionCoreFraction();
    Series.push_back(Point);
  }
  return Series;
}

std::string
chameleon::renderLiveDataSeries(const std::vector<LiveDataPoint> &Series) {
  TextTable Table({"GC#", "live%", "used%", "core%"});
  for (const LiveDataPoint &Point : Series)
    Table.addRow({std::to_string(Point.Cycle),
                  formatPercent(Point.LiveFraction),
                  formatPercent(Point.UsedFraction),
                  formatPercent(Point.CoreFraction)});
  return Table.render();
}

std::vector<ContextSummary>
chameleon::topContexts(const SemanticProfiler &Profiler, size_t N) {
  std::vector<ContextInfo *> Ranked = Profiler.rankedByPotential();
  if (Ranked.size() > N)
    Ranked.resize(N);

  double HeapLiveTotal =
      static_cast<double>(Profiler.heapStats().Live.total());

  std::vector<ContextSummary> Summaries;
  Summaries.reserve(Ranked.size());
  for (const ContextInfo *Info : Ranked) {
    ContextSummary S;
    S.Info = Info;
    S.Label = Info->label();
    S.PotentialOfHeap =
        HeapLiveTotal == 0.0
            ? 0.0
            : static_cast<double>(Info->savingPotential()) / HeapLiveTotal;

    double AllOps = Info->avgAllOps();
    if (AllOps > 0) {
      for (unsigned I = 0; I < NumOpKinds; ++I) {
        OpKind Op = static_cast<OpKind>(I);
        if (!countsTowardAllOps(Op))
          continue;
        double Share = Info->opStat(Op).mean() / AllOps;
        if (Share > 0)
          S.OpDistribution.emplace_back(opKindName(Op), Share);
      }
      std::stable_sort(S.OpDistribution.begin(), S.OpDistribution.end(),
                       [](const auto &A, const auto &B) {
                         return A.second > B.second;
                       });
    }
    Summaries.push_back(std::move(S));
  }
  return Summaries;
}

std::vector<TypeShare>
chameleon::typeDistribution(const GcCycleRecord &Record,
                            const TypeRegistry &Types) {
  std::vector<TypeShare> Shares;
  Shares.reserve(Record.TypeDistribution.size());
  for (const auto &[Type, Bytes] : Record.TypeDistribution) {
    TypeShare Share;
    Share.Name = Types.get(Type).Name;
    Share.Bytes = Bytes;
    Share.Fraction = Record.LiveBytes == 0
                         ? 0.0
                         : static_cast<double>(Bytes)
                               / static_cast<double>(Record.LiveBytes);
    Shares.push_back(std::move(Share));
  }
  std::stable_sort(Shares.begin(), Shares.end(),
                   [](const TypeShare &A, const TypeShare &B) {
                     return A.Bytes > B.Bytes;
                   });
  return Shares;
}

std::string
chameleon::renderTypeDistribution(const std::vector<TypeShare> &Shares,
                                  size_t N) {
  TextTable Table({"type", "live bytes", "share"});
  for (size_t I = 0; I < Shares.size() && I < N; ++I)
    Table.addRow({Shares[I].Name, formatBytes(Shares[I].Bytes),
                  formatPercent(Shares[I].Fraction)});
  return Table.render();
}

std::string
chameleon::renderContextDetail(const ContextInfo &Info) {
  std::string Out = "context: " + Info.label() + "\n";
  Out += "  allocations: " + std::to_string(Info.allocations())
         + ", folded instances: " + std::to_string(Info.foldedInstances())
         + "\n";

  auto StatRow = [](const char *Name, const RunningStat &Stat) {
    return std::vector<std::string>{
        Name, formatDouble(Stat.mean(), 2), formatDouble(Stat.stddev(), 2),
        formatDouble(Stat.min(), 0), formatDouble(Stat.max(), 0)};
  };

  TextTable Sizes({"size metric", "avg", "stddev", "min", "max"});
  Sizes.addRow(StatRow("max size", Info.maxSizeStat()));
  Sizes.addRow(StatRow("final size", Info.finalSizeStat()));
  Sizes.addRow(StatRow("initial capacity", Info.initialCapacityStat()));
  Out += Sizes.render();

  TextTable Ops({"operation", "avg/instance", "stddev", "total"});
  for (unsigned I = 0; I < NumOpKinds; ++I) {
    OpKind Op = static_cast<OpKind>(I);
    const RunningStat &Stat = Info.opStat(Op);
    if (Stat.sum() == 0)
      continue;
    Ops.addRow({opKindName(Op), formatDouble(Stat.mean(), 2),
                formatDouble(Stat.stddev(), 2),
                formatDouble(Stat.sum(), 0)});
  }
  Out += Ops.render();

  TextTable HeapRows({"heap metric", "total", "max"});
  HeapRows.addRow({"live data", formatBytes(Info.liveData().total()),
                   formatBytes(Info.liveData().max())});
  HeapRows.addRow({"used data", formatBytes(Info.usedData().total()),
                   formatBytes(Info.usedData().max())});
  HeapRows.addRow({"core data", formatBytes(Info.coreData().total()),
                   formatBytes(Info.coreData().max())});
  HeapRows.addRow({"objects",
                   std::to_string(Info.liveObjects().total()),
                   std::to_string(Info.liveObjects().max())});
  Out += HeapRows.render();
  Out += "  saving potential (totLive - totUsed): "
         + formatBytes(Info.savingPotential()) + "\n";
  return Out;
}

std::string
chameleon::renderTopContexts(const std::vector<ContextSummary> &Summaries) {
  std::string Out;
  unsigned Rank = 1;
  for (const ContextSummary &S : Summaries) {
    Out += std::to_string(Rank++);
    Out += ": ";
    Out += S.Label;
    Out += "\n   potential: ";
    Out += formatPercent(S.PotentialOfHeap);
    Out += " of total live heap";
    Out += "\n   instances: ";
    Out += std::to_string(S.Info->allocations());
    Out += ", avg max size: ";
    Out += formatDouble(S.Info->maxSizeStat().mean(), 1);
    Out += " (stddev ";
    Out += formatDouble(S.Info->maxSizeStat().stddev(), 1);
    Out += ")\n   ops:";
    if (S.OpDistribution.empty())
      Out += " (none)";
    for (const auto &[Name, Share] : S.OpDistribution) {
      Out += ' ';
      Out += Name;
      Out += '=';
      Out += formatPercent(Share);
    }
    Out += '\n';
  }
  return Out;
}
