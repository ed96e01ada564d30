//===--- FlightRecorder.cpp - Crash-safe post-mortem dump -----------------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "obs/FlightRecorder.h"

#include "obs/DecisionLog.h"
#include "obs/Telemetry.h"

#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <unistd.h>

using namespace chameleon::obs;

namespace {

constexpr int FatalSignals[] = {SIGABRT, SIGSEGV, SIGBUS, SIGFPE, SIGILL};
constexpr size_t NumFatalSignals =
    sizeof(FatalSignals) / sizeof(FatalSignals[0]);

struct sigaction OldActions[NumFatalSignals];

//===----------------------------------------------------------------------===//
// Signal-safe formatting into a static buffer
//===----------------------------------------------------------------------===//

// The dump is assembled here, then written with plain write() calls.
// Static so the handler allocates nothing; oversize content truncates
// (the events section is bounded, only checkpoints can be large).
char DumpBuf[1 << 20];
size_t DumpLen = 0;

void putRaw(const char *S, size_t N) {
  size_t Room = sizeof(DumpBuf) - DumpLen;
  if (N > Room)
    N = Room;
  for (size_t I = 0; I < N; ++I)
    DumpBuf[DumpLen + I] = S[I];
  DumpLen += N;
}

void putStr(const char *S) {
  size_t N = 0;
  while (S[N])
    ++N;
  putRaw(S, N);
}

void putU64(uint64_t V) {
  char Tmp[20];
  size_t N = 0;
  do {
    Tmp[N++] = static_cast<char>('0' + V % 10);
    V /= 10;
  } while (V);
  while (N)
    putRaw(&Tmp[--N], 1);
}

void putI64(int64_t V) {
  if (V < 0) {
    putStr("-");
    putU64(static_cast<uint64_t>(-(V + 1)) + 1);
  } else {
    putU64(static_cast<uint64_t>(V));
  }
}

void putHex64(uint64_t V) {
  char Tmp[16];
  size_t N = 0;
  do {
    Tmp[N++] = "0123456789abcdef"[V & 0xf];
    V >>= 4;
  } while (V);
  while (N)
    putRaw(&Tmp[--N], 1);
}

void putDoubleBits(double D) {
  uint64_t Bits;
  // memcpy is a plain register move here; no library call semantics.
  std::memcpy(&Bits, &D, sizeof(Bits));
  putStr("\"");
  putHex64(Bits);
  putStr("\"");
}

/// The dump's event serialization mirrors appendEventJson in
/// DecisionLog.cpp, except doubles go out as bit patterns (see the
/// signal-safety rules in the header); decisionsFromJson reads both.
void putEvent(const DecisionRecord &R) {
  putStr("{\"ctx\":");
  putI64(R.CtxId == ~0u ? -1 : static_cast<int64_t>(R.CtxId));
  putStr(",\"n\":");
  putU64(R.Seq);
  putStr(",\"epoch\":");
  putU64(R.Epoch);
  putStr(",\"kind\":\"");
  putStr(decisionKindName(R.Kind));
  putStr("\"");
  if (R.Outcome != DecisionOutcome::None) {
    putStr(",\"outcome\":\"");
    putStr(decisionOutcomeName(R.Outcome));
    putStr("\"");
  }
  if (R.Rule >= 0) {
    putStr(",\"rule\":");
    putI64(R.Rule);
  }
  if (R.DivGuard) {
    putStr(",\"div_guard\":");
    putU64(R.DivGuard);
  }
  if (R.Impl != 0xff) {
    putStr(",\"impl\":");
    putU64(R.Impl);
  }
  if (R.Capacity) {
    putStr(",\"cap\":");
    putU64(R.Capacity);
  }
  if (R.Allocations) {
    putStr(",\"allocs\":");
    putU64(R.Allocations);
  }
  if (R.Folded) {
    putStr(",\"folded\":");
    putU64(R.Folded);
  }
  if (R.TotLive) {
    putStr(",\"live\":");
    putU64(R.TotLive);
  }
  if (R.TotUsed) {
    putStr(",\"used\":");
    putU64(R.TotUsed);
  }
  if (R.TotCore) {
    putStr(",\"core\":");
    putU64(R.TotCore);
  }
  if (R.AvgOps != 0) {
    putStr(",\"avg_ops_b\":");
    putDoubleBits(R.AvgOps);
  }
  if (R.AvgMaxSize != 0) {
    putStr(",\"avg_max_size_b\":");
    putDoubleBits(R.AvgMaxSize);
  }
  putStr("}");
}

/// Stable insertion sort into canonical (global-first, CtxId) order —
/// std::stable_sort may allocate, which the handler must not.
void canonicalSort(DecisionRecord *Recs, size_t N) {
  auto Key = [](const DecisionRecord &R) {
    return R.CtxId == ~0u ? 0 : 1ull + R.CtxId;
  };
  for (size_t I = 1; I < N; ++I) {
    DecisionRecord R = Recs[I];
    size_t J = I;
    while (J > 0 && Key(Recs[J - 1]) > Key(R)) {
      Recs[J] = Recs[J - 1];
      --J;
    }
    Recs[J] = R;
  }
}

DecisionRecord TailBuf[FlightRecorder::MaxDumpRecords];

bool writeAll(int Fd, const char *Data, size_t N) {
  while (N) {
    ssize_t W = ::write(Fd, Data, N);
    if (W < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Data += static_cast<size_t>(W);
    N -= static_cast<size_t>(W);
  }
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// FlightRecorder
//===----------------------------------------------------------------------===//

FlightRecorder &FlightRecorder::instance() {
  static FlightRecorder FR;
  return FR;
}

bool FlightRecorder::install(const std::string &Path,
                             const std::string &MetricsPrefix,
                             std::string *Error) {
  if (Path.empty() || Path.size() >= sizeof(this->Path) - 8) {
    if (Error)
      *Error = "flight-recorder path empty or too long";
    return false;
  }
  std::lock_guard<std::mutex> Lock(Mu);
  std::memset(this->Path, 0, sizeof(this->Path));
  std::memcpy(this->Path, Path.data(), Path.size());
  std::memset(TmpPath, 0, sizeof(TmpPath));
  std::memcpy(TmpPath, Path.data(), Path.size());
  std::memcpy(TmpPath + Path.size(), ".tmp", 4);
  std::memset(Prefix, 0, sizeof(Prefix));
  std::memcpy(Prefix, MetricsPrefix.data(),
              std::min(MetricsPrefix.size(), sizeof(Prefix) - 1));
  if (!Installed.load(std::memory_order_relaxed)) {
    struct sigaction Sa;
    std::memset(&Sa, 0, sizeof(Sa));
    Sa.sa_handler = &FlightRecorder::handler;
    sigemptyset(&Sa.sa_mask);
    for (size_t I = 0; I < NumFatalSignals; ++I) {
      if (sigaction(FatalSignals[I], &Sa, &OldActions[I]) != 0) {
        if (Error)
          *Error = std::string("sigaction failed: ") + std::strerror(errno);
        for (size_t J = 0; J < I; ++J)
          sigaction(FatalSignals[J], &OldActions[J], nullptr);
        return false;
      }
    }
  }
  Installed.store(true, std::memory_order_release);
  return true;
}

bool FlightRecorder::installFromEnv(const std::string &MetricsPrefix) {
  if (installed())
    return true;
  const char *Path = std::getenv("CHAM_FLIGHT_RECORDER");
  if (!Path || !*Path)
    return false;
  return install(Path, MetricsPrefix);
}

void FlightRecorder::checkpoint() {
  std::lock_guard<std::mutex> Lock(Mu);
  uint32_t Cur = ActiveSlot.load(std::memory_order_relaxed);
  uint32_t Next = Cur == 0 ? 1 : 0;
  CheckpointSlot &S = Slots[Next];
  S.Metrics = Telemetry::snapshotJson(Prefix);
  std::vector<TraceEvent> Events = TraceRecorder::instance().snapshot();
  if (Events.size() > MaxCheckpointTraceEvents)
    Events.erase(Events.begin(),
                 Events.end() -
                     static_cast<ptrdiff_t>(MaxCheckpointTraceEvents));
  S.Trace = chromeTraceFromEvents(Events);
  ActiveSlot.store(Next, std::memory_order_release);
}

bool FlightRecorder::dumpNow(int Signal) {
  if (Path[0] == 0)
    return false;
  DumpLen = 0;
  putStr("{\"flight_recorder\":1,\"signal\":");
  putI64(Signal);
  putStr(",\n\"decisions\":{\"dropped\":");
  DecisionLog &Log = DecisionLog::instance();
  putU64(Log.unsafeDroppedForCrash());
  putStr(",\"events\":[");
  size_t N = Log.unsafeTailForCrash(TailBuf, MaxDumpRecords);
  canonicalSort(TailBuf, N);
  uint32_t Seq = 0;
  for (size_t I = 0; I < N; ++I) {
    if (I > 0 && TailBuf[I].CtxId != TailBuf[I - 1].CtxId)
      Seq = 0;
    TailBuf[I].Seq = Seq++;
    putStr(I ? ",\n  " : "\n  ");
    putEvent(TailBuf[I]);
  }
  putStr("\n]}");
  uint32_t Slot = ActiveSlot.load(std::memory_order_acquire);
  putStr(",\n\"checkpoint_metrics\":");
  if (Slot < 2 && !Slots[Slot].Metrics.empty())
    putRaw(Slots[Slot].Metrics.data(), Slots[Slot].Metrics.size());
  else
    putStr("null");
  putStr(",\n\"checkpoint_trace\":");
  if (Slot < 2 && !Slots[Slot].Trace.empty())
    putRaw(Slots[Slot].Trace.data(), Slots[Slot].Trace.size());
  else
    putStr("null");
  putStr("}\n");

  int Fd = ::open(TmpPath, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (Fd < 0)
    return false;
  bool Ok = writeAll(Fd, DumpBuf, DumpLen);
  Ok = ::close(Fd) == 0 && Ok;
  if (Ok)
    Ok = ::rename(TmpPath, Path) == 0;
  return Ok;
}

void FlightRecorder::handler(int Sig) {
  FlightRecorder &FR = instance();
  if (FR.Installed.load(std::memory_order_acquire))
    FR.dumpNow(Sig);
  // Restore the previous disposition and re-raise so the process still
  // dies with the original signal (exit code, core dump untouched).
  for (size_t I = 0; I < NumFatalSignals; ++I)
    if (FatalSignals[I] == Sig) {
      sigaction(Sig, &OldActions[I], nullptr);
      ::raise(Sig);
      return;
    }
}

