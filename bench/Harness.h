//===--- Harness.h - The micro-bench harness -------------------*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one harness every micro bench (`micro_*`) runs on; the figure,
/// section and ablation benches share its timers and print only. It
///
///  1. parses the command line: `--json PATH` plus the flags the bench
///     declares (`--quick` for benches with a quick mode, and its own);
///     any other argument exits 2 naming it;
///  2. times runs and takes medians (`secondsSince`, `threadCpuSeconds`,
///     `medianOf`);
///  3. prices a disarmed site as (loop with the site - bare loop) /
///     iterations (`siteNs`);
///  4. records provenance: git describe, build flags, core count and CPU
///     model;
///  5. renders each table to stdout and into the JSON record from the same
///     rows.
///
/// With `--json PATH` the bench writes one JSON object: "bench", the four
/// provenance keys ("git_describe", "build_flags", "cores", "cpu_model"),
/// the bench's named metrics in key order, then one array per table. A
/// table row is an object keyed by the column headers (see columnKey). A
/// numeric cell is stored raw and printed through its column's Format, so
/// the printed table and the record cannot disagree. A list of differently
/// formatted values (a "measurement | value" table) is a TextTable of
/// metric() results: each value is recorded once, under its own key.
///
//===----------------------------------------------------------------------===//

#ifndef CHAMELEON_BENCH_HARNESS_H
#define CHAMELEON_BENCH_HARNESS_H

#include "obs/Json.h"
#include "support/Format.h"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <deque>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

// Build provenance, baked in by bench.cmake; "unknown" when the file is
// compiled some other way.
#ifndef CHAMELEON_GIT_DESCRIBE
#define CHAMELEON_GIT_DESCRIBE "unknown"
#endif
#ifndef CHAMELEON_BUILD_FLAGS
#define CHAMELEON_BUILD_FLAGS "unknown"
#endif

namespace chameleon::bench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

/// CPU seconds the calling thread has used so far. Unlike wall time it
/// does not count the time other processes hold the core.
inline double threadCpuSeconds() {
  timespec T;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &T);
  return static_cast<double>(T.tv_sec) + static_cast<double>(T.tv_nsec) / 1e9;
}

/// The median of \p Samples (the upper one for an even count).
inline double median(std::vector<double> Samples) {
  std::sort(Samples.begin(), Samples.end());
  return Samples[Samples.size() / 2];
}

/// The median of \p Reps calls of \p Run, each returning one sample.
template <class RunT> double medianOf(int Reps, RunT &&Run) {
  std::vector<double> Samples;
  for (int I = 0; I < Reps; ++I)
    Samples.push_back(Run());
  return median(std::move(Samples));
}

/// Nanoseconds \p Site adds to one iteration of a tight loop: (the loop
/// with the site - the bare loop) / \p Iters, floored at 0. A volatile
/// accumulator keeps both loops from being optimized away.
template <class SiteT> double siteNs(uint64_t Iters, SiteT &&Site) {
  volatile uint64_t Sink = 0;
  Clock::time_point Start = Clock::now();
  for (uint64_t I = 0; I < Iters; ++I) {
    Site();
    Sink = Sink + I;
  }
  double WithSite = secondsSince(Start);

  Start = Clock::now();
  for (uint64_t I = 0; I < Iters; ++I)
    Sink = Sink + I;
  double Bare = secondsSince(Start);

  double Delta = (WithSite - Bare) / static_cast<double>(Iters) * 1e9;
  return Delta > 0 ? Delta : 0.0;
}

inline volatile uint64_t KeepSink = 0;

/// Keeps \p V observable: the store to a volatile sink cannot be dropped,
/// so neither can the timed op that produced \p V.
template <class T> void keep(const T &V) {
  static_assert(std::is_trivially_copyable_v<T> &&
                sizeof(T) <= sizeof(uint64_t));
  uint64_t Bits = 0;
  std::memcpy(&Bits, &V, sizeof(T));
  KeepSink = Bits;
}

/// How a number prints: times Scale, with Decimals fractional digits,
/// then Suffix.
struct Format {
  int Decimals = 0;
  const char *Suffix = "";
  double Scale = 1.0;

  std::string operator()(double V) const {
    return formatDouble(V * Scale, Decimals) + Suffix;
  }
};

/// One table cell: a label, or a number its column's Format prints.
struct Cell {
  Cell(const char *Label) : Label(Label), IsNumber(false) {}
  Cell(std::string Label) : Label(std::move(Label)), IsNumber(false) {}
  Cell(double Number) : Number(Number) {}

  std::string Label;
  double Number = 0;
  bool IsNumber = true;
};

/// The JSON key for a column header: lowercase, "/" read as "_per_", and
/// every other run of punctuation or space as one "_" ("cycle (ms)" ->
/// "cycle_ms", "ops/s" -> "ops_per_s").
inline std::string columnKey(const std::string &Header) {
  std::string Key;
  for (char C : Header) {
    if (std::isalnum(static_cast<unsigned char>(C))) {
      Key += static_cast<char>(std::tolower(static_cast<unsigned char>(C)));
      continue;
    }
    if (!Key.empty() && Key.back() == '_')
      Key.pop_back();
    if (!Key.empty())
      Key += C == '/' ? "_per_" : "_";
  }
  while (!Key.empty() && Key.back() == '_')
    Key.pop_back();
  return Key;
}

/// A table the bench prints and records from the same rows.
class Table {
public:
  struct Column {
    std::string Header;
    Format Fmt = {};
  };

  Table(std::string Name, std::vector<Column> Columns)
      : Name(std::move(Name)), Columns(std::move(Columns)) {}

  void addRow(std::vector<Cell> Cells) {
    assert(Cells.size() == Columns.size() && "row arity must match columns");
    Rows.push_back(std::move(Cells));
  }

  /// The fixed-width text table (TextTable layout).
  std::string render() const {
    std::vector<std::string> Headers;
    for (const Column &C : Columns)
      Headers.push_back(C.Header);
    TextTable Text(std::move(Headers));
    for (const std::vector<Cell> &Row : Rows) {
      std::vector<std::string> Cells;
      for (size_t I = 0; I < Row.size(); ++I)
        Cells.push_back(Row[I].IsNumber ? Columns[I].Fmt(Row[I].Number)
                                        : Row[I].Label);
      Text.addRow(std::move(Cells));
    }
    return Text.render();
  }

  std::string Name;
  std::vector<Column> Columns;
  std::vector<std::vector<Cell>> Rows;
};

/// The command line, the provenance, and the record of one bench run.
class Harness {
public:
  /// A flag the bench accepts besides `--json PATH`. A flag with a Value
  /// placeholder ("N", "PATH") consumes the next argument.
  struct Flag {
    const char *Name;
    const char *Value = nullptr;
  };

  /// Parses the command line. Any argument other than `--json PATH` and
  /// \p Accepted, or a flag missing its value, exits 2 naming it.
  Harness(std::string Bench, int Argc, char **Argv,
          std::vector<Flag> Accepted)
      : Bench(std::move(Bench)), Flags(std::move(Accepted)) {
    Flags.insert(Flags.begin(), Flag{"--json", "PATH"});
    for (int I = 1; I < Argc; ++I) {
      auto It = std::find_if(Flags.begin(), Flags.end(), [&](const Flag &F) {
        return std::strcmp(F.Name, Argv[I]) == 0;
      });
      if (It == Flags.end())
        usageError(std::string("unknown argument '") + Argv[I] + "'");
      if (It->Value && I + 1 == Argc)
        usageError(std::string("'") + Argv[I] + "' needs " + It->Value);
      Given[It->Name] = It->Value ? Argv[++I] : "";
    }
  }

  /// Whether flag \p Name was given.
  bool has(const char *Name) const { return Given.count(Name) != 0; }
  bool quick() const { return has("--quick"); }
  /// The argument of value flag \p Name (the last one given), or nullptr.
  const char *value(const char *Name) const {
    auto It = Given.find(Name);
    return It == Given.end() ? nullptr : It->second.c_str();
  }

  /// Prints \p Why and the usage line to stderr and exits 2.
  [[noreturn]] void usageError(const std::string &Why) const {
    std::string Usage = Bench;
    for (const Flag &F : Flags)
      Usage += std::string(" [") + F.Name + (F.Value ? " " : "") +
               (F.Value ? F.Value : "") + "]";
    std::fprintf(stderr, "%s: %s\nusage: %s\n", Bench.c_str(), Why.c_str(),
                 Usage.c_str());
    std::exit(2);
  }

  /// Records metric \p Key and returns it printed through \p Fmt.
  std::string metric(const std::string &Key, double Value, Format Fmt = {}) {
    Metrics.insert_or_assign(Key, Value);
    return Fmt(Value);
  }

  /// A new table recorded under \p Name; the reference stays valid for
  /// the harness's lifetime.
  Table &table(std::string Name, std::vector<Table::Column> Columns) {
    return Tables.emplace_back(std::move(Name), std::move(Columns));
  }

  /// The JSON record: bench, provenance, metrics, tables.
  std::string json() const {
    std::string Out = "{\n  \"bench\": " + jsonValue(Bench);
    auto Field = [&](const std::string &Key, const Cell &V) {
      Out += ",\n  " + jsonValue(Key) + ": " + jsonValue(V);
    };
    Field("git_describe", CHAMELEON_GIT_DESCRIBE);
    Field("build_flags", CHAMELEON_BUILD_FLAGS);
    Field("cores", static_cast<double>(std::thread::hardware_concurrency()));
    Field("cpu_model", cpuModel());
    for (const auto &[Key, V] : Metrics)
      Field(Key, V);
    for (const Table &T : Tables) {
      Out += ",\n  " + jsonValue(T.Name) + ": [";
      for (size_t R = 0; R < T.Rows.size(); ++R) {
        Out += R ? ",\n    {" : "\n    {";
        for (size_t C = 0; C < T.Columns.size(); ++C)
          Out += (C ? ", " : "") + jsonValue(columnKey(T.Columns[C].Header)) +
                 ": " + jsonValue(T.Rows[R][C]);
        Out += "}";
      }
      Out += T.Rows.empty() ? "]" : "\n  ]";
    }
    return Out + "\n}\n";
  }

  /// Writes the record when `--json PATH` was given. Returns the exit
  /// status: 0, or 1 when the file cannot be written.
  int finish() const {
    const char *Path = value("--json");
    if (!Path)
      return 0;
    std::ofstream Out(Path);
    Out << json();
    Out.close();
    if (!Out) {
      std::fprintf(stderr, "failed to write %s\n", Path);
      return 1;
    }
    std::printf("\nwrote %s\n", Path);
    return 0;
  }

private:
  static std::string jsonValue(const Cell &V) {
    if (!V.IsNumber)
      return "\"" + obs::json::escape(V.Label) + "\"";
    if (!std::isfinite(V.Number))
      return "null";
    char Buf[32];
    // Shortest text that reads back to the same double.
    return std::string(Buf,
                       std::to_chars(Buf, Buf + sizeof(Buf), V.Number).ptr);
  }

  /// The "model name" line of /proc/cpuinfo, or "unknown".
  static std::string cpuModel() {
    std::ifstream In("/proc/cpuinfo");
    std::string Line;
    while (std::getline(In, Line)) {
      size_t Colon = Line.find(':');
      if (Line.rfind("model name", 0) == 0 && Colon != std::string::npos) {
        size_t Begin = Line.find_first_not_of(" \t", Colon + 1);
        return Begin == std::string::npos ? "unknown" : Line.substr(Begin);
      }
    }
    return "unknown";
  }

  std::string Bench;
  std::vector<Flag> Flags;
  std::map<std::string, std::string> Given;
  /// Sorted by key: benches record metrics inside printf argument lists,
  /// whose evaluation order is unspecified.
  std::map<std::string, double> Metrics;
  std::deque<Table> Tables;
};

} // namespace chameleon::bench

#endif // CHAMELEON_BENCH_HARNESS_H
