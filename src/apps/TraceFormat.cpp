//===--- TraceFormat.cpp - Recorded-workload trace format -----------------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "apps/TraceFormat.h"

#include "support/Wire.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <unordered_set>

using namespace chameleon;
using namespace chameleon::apps;

namespace {

// Payload block markers.
constexpr uint8_t MarkerTask = 0x01;
constexpr uint8_t MarkerEpochEnd = 0x02;
constexpr uint8_t MarkerEnd = 0x03;

// Hard bounds on decoded structure so corrupted or adversarial input can
// never drive allocation sizes; all are far above any real workload.
constexpr uint64_t MaxFrames = 1u << 16;
constexpr uint64_t MaxLabelLen = 4096;
constexpr uint64_t MaxSessions = 1u << 20;
constexpr uint64_t MaxEpochs = 4096;
constexpr uint64_t MaxGlobals = 1u << 22;
constexpr uint64_t MaxTempSlots = 4096;
constexpr uint64_t MaxOpsPerTask = 1u << 22;
constexpr uint64_t MaxTasks = 1u << 26;
constexpr size_t MaxHeaderBytes = 4u << 20;

uint64_t fnvU64(uint64_t H, uint64_t V) {
  uint8_t Buf[8];
  for (int I = 0; I < 8; ++I)
    Buf[I] = static_cast<uint8_t>(V >> (8 * I));
  return fnv1a(H, Buf, sizeof(Buf));
}

uint64_t fnvStr(uint64_t H, const std::string &S) {
  H = fnvU64(H, S.size());
  return fnv1a(H, S.data(), S.size());
}

bool fail(std::string *Error, const std::string &Msg) {
  if (Error)
    *Error = "trace: " + Msg;
  return false;
}

void appendOps(std::string &Out, const std::vector<TraceOp> &Ops) {
  for (const TraceOp &Op : Ops) {
    Out.push_back(static_cast<char>(Op.Code));
    putVarint(Out, Op.Target);
    switch (traceOperandsOf(static_cast<uint8_t>(Op.Code))) {
    case TraceOperands::Alloc:
      Out.push_back(static_cast<char>(Op.Adt));
      Out.push_back(static_cast<char>(Op.Impl));
      putVarint(Out, Op.SiteIdx);
      putVarint(Out, Op.Capacity);
      break;
    case TraceOperands::Val:
      putVarint(Out, zigzag(Op.A));
      break;
    case TraceOperands::ValVal:
      putVarint(Out, zigzag(Op.A));
      putVarint(Out, zigzag(Op.B));
      break;
    case TraceOperands::Idx:
      putVarint(Out, static_cast<uint64_t>(Op.A));
      break;
    case TraceOperands::IdxVal:
      putVarint(Out, static_cast<uint64_t>(Op.A));
      putVarint(Out, zigzag(Op.B));
      break;
    case TraceOperands::None:
    case TraceOperands::Invalid:
      break;
    }
  }
}

void appendTaskBlock(std::string &Out, const TraceTask &Task) {
  Out.push_back(static_cast<char>(MarkerTask));
  putVarint(Out, Task.Id);
  putVarint(Out, Task.Session);
  putVarint(Out, Task.FrameIdx);
  putVarint(Out, Task.Ops.size());
  std::string OpBytes;
  appendOps(OpBytes, Task.Ops);
  putVarint(Out, OpBytes.size());
  Out += OpBytes;
}

bool readOps(ByteReader &R, uint64_t Count, std::vector<TraceOp> &Out,
             std::string *Error) {
  Out.reserve(Count);
  for (uint64_t I = 0; I < Count; ++I) {
    TraceOp Op;
    uint8_t Code;
    uint64_t V;
    if (!R.u8(Code) || !R.varint(V))
      return fail(Error, "truncated op");
    TraceOperands Shape = traceOperandsOf(Code);
    if (Shape == TraceOperands::Invalid)
      return fail(Error, "unknown opcode " + std::to_string(Code));
    Op.Code = static_cast<TraceOpCode>(Code);
    if (V > (MaxGlobals << 1))
      return fail(Error, "register out of range");
    Op.Target = static_cast<uint32_t>(V);
    switch (Shape) {
    case TraceOperands::Alloc: {
      uint8_t Adt, Impl;
      uint64_t Site, Cap;
      if (!R.u8(Adt) || !R.u8(Impl) || !R.varint(Site) || !R.varint(Cap))
        return fail(Error, "truncated alloc op");
      if (Adt >= NumAdtKinds)
        return fail(Error, "unknown ADT " + std::to_string(Adt));
      if (Impl >= NumImplKinds)
        return fail(Error, "unknown impl kind " + std::to_string(Impl));
      if (Site >= MaxFrames || Cap > (1u << 24))
        return fail(Error, "alloc operand out of range");
      Op.Adt = static_cast<AdtKind>(Adt);
      Op.Impl = static_cast<ImplKind>(Impl);
      Op.SiteIdx = static_cast<uint32_t>(Site);
      Op.Capacity = static_cast<uint32_t>(Cap);
      break;
    }
    case TraceOperands::Val:
      if (!R.varint(V))
        return fail(Error, "truncated value operand");
      Op.A = unzigzag(V);
      break;
    case TraceOperands::ValVal: {
      uint64_t V2;
      if (!R.varint(V) || !R.varint(V2))
        return fail(Error, "truncated value operands");
      Op.A = unzigzag(V);
      Op.B = unzigzag(V2);
      break;
    }
    case TraceOperands::Idx:
      if (!R.varint(V) || V > INT64_MAX)
        return fail(Error, "truncated or out-of-range index operand");
      Op.A = static_cast<int64_t>(V);
      break;
    case TraceOperands::IdxVal: {
      uint64_t V2;
      if (!R.varint(V) || V > INT64_MAX || !R.varint(V2))
        return fail(Error, "truncated index/value operands");
      Op.A = static_cast<int64_t>(V);
      Op.B = unzigzag(V2);
      break;
    }
    case TraceOperands::None:
    case TraceOperands::Invalid:
      break;
    }
    Out.push_back(Op);
  }
  return true;
}

/// One header line up to '\n' (consumed). Fails past MaxHeaderBytes.
bool headerLine(const std::string &Bytes, size_t &Pos, std::string &Line) {
  size_t Nl = Bytes.find('\n', Pos);
  if (Nl == std::string::npos || Nl > MaxHeaderBytes)
    return false;
  Line.assign(Bytes, Pos, Nl - Pos);
  Pos = Nl + 1;
  return true;
}

/// Parses "key value" where the expected key is fixed; value must be a
/// number (decimal or 0x hex).
bool headerNum(const std::string &Bytes, size_t &Pos, const char *Key,
               uint64_t &Out, std::string *Error) {
  std::string Line;
  if (!headerLine(Bytes, Pos, Line))
    return fail(Error, std::string("truncated header (expected '") + Key
                           + "')");
  size_t KeyLen = std::strlen(Key);
  if (Line.compare(0, KeyLen, Key) != 0 || Line.size() <= KeyLen
      || Line[KeyLen] != ' ')
    return fail(Error, std::string("malformed header line '") + Line
                           + "' (expected '" + Key + " N')");
  const std::string Value = Line.substr(KeyLen + 1);
  char *End = nullptr;
  Out = std::strtoull(Value.c_str(), &End, 0);
  if (End == Value.c_str() || *End != '\0')
    return fail(Error, std::string("bad number in header line '") + Line
                           + "'");
  return true;
}

} // namespace

TraceOperands chameleon::apps::traceOperandsOf(uint8_t Code) {
  switch (static_cast<TraceOpCode>(Code)) {
  case TraceOpCode::Alloc:
    return TraceOperands::Alloc;
  case TraceOpCode::Retire:
  case TraceOpCode::ListRemoveFirst:
  case TraceOpCode::Size:
  case TraceOpCode::Clear:
    return TraceOperands::None;
  case TraceOpCode::MapGet:
  case TraceOpCode::MapContainsKey:
  case TraceOpCode::MapRemove:
  case TraceOpCode::ListAdd:
  case TraceOpCode::ListContains:
  case TraceOpCode::SetAdd:
  case TraceOpCode::SetContains:
  case TraceOpCode::SetRemove:
    return TraceOperands::Val;
  case TraceOpCode::MapPut:
    return TraceOperands::ValVal;
  case TraceOpCode::ListGet:
  case TraceOpCode::ListRemoveAt:
    return TraceOperands::Idx;
  case TraceOpCode::ListAddAt:
  case TraceOpCode::ListSet:
    return TraceOperands::IdxVal;
  }
  return TraceOperands::Invalid;
}

const char *chameleon::apps::traceOpCodeName(TraceOpCode Code) {
  switch (Code) {
  case TraceOpCode::Alloc:
    return "alloc";
  case TraceOpCode::Retire:
    return "retire";
  case TraceOpCode::MapPut:
    return "map.put";
  case TraceOpCode::MapGet:
    return "map.get";
  case TraceOpCode::MapContainsKey:
    return "map.containsKey";
  case TraceOpCode::MapRemove:
    return "map.remove";
  case TraceOpCode::ListAdd:
    return "list.add";
  case TraceOpCode::ListAddAt:
    return "list.addAt";
  case TraceOpCode::ListGet:
    return "list.get";
  case TraceOpCode::ListSet:
    return "list.set";
  case TraceOpCode::ListRemoveAt:
    return "list.removeAt";
  case TraceOpCode::ListRemoveFirst:
    return "list.removeFirst";
  case TraceOpCode::ListContains:
    return "list.contains";
  case TraceOpCode::SetAdd:
    return "set.add";
  case TraceOpCode::SetContains:
    return "set.contains";
  case TraceOpCode::SetRemove:
    return "set.remove";
  case TraceOpCode::Size:
    return "size";
  case TraceOpCode::Clear:
    return "clear";
  }
  return "?";
}

uint64_t TraceHeader::digest() const {
  uint64_t H = FnvOffset;
  H = fnvU64(H, Version);
  H = fnvStr(H, Generator);
  H = fnvU64(H, Seed);
  H = fnvU64(H, Sessions);
  H = fnvU64(H, Epochs);
  H = fnvU64(H, Requests);
  H = fnvU64(H, HistoryBound);
  H = fnvU64(H, Globals);
  H = fnvU64(H, Frames.size());
  for (const std::string &Frame : Frames)
    H = fnvStr(H, Frame);
  return H;
}

uint64_t Trace::opCount() const {
  uint64_t N = Boot ? Boot->Ops.size() : 0;
  for (const std::vector<TraceTask> &E : Epochs)
    for (const TraceTask &Task : E)
      N += Task.Ops.size();
  return N;
}

std::string chameleon::apps::writeTrace(const Trace &T) {
  std::string Out;
  char Buf[64];
  Out += TraceMagic;
  std::snprintf(Buf, sizeof(Buf), " %u\n", T.Header.Version);
  Out += Buf;
  Out += "generator " + T.Header.Generator + "\n";
  std::snprintf(Buf, sizeof(Buf), "seed 0x%llx\n",
                static_cast<unsigned long long>(T.Header.Seed));
  Out += Buf;
  std::snprintf(Buf, sizeof(Buf), "sessions %u\n", T.Header.Sessions);
  Out += Buf;
  std::snprintf(Buf, sizeof(Buf), "epochs %u\n", T.Header.Epochs);
  Out += Buf;
  std::snprintf(Buf, sizeof(Buf), "requests %llu\n",
                static_cast<unsigned long long>(T.Header.Requests));
  Out += Buf;
  std::snprintf(Buf, sizeof(Buf), "history %u\n", T.Header.HistoryBound);
  Out += Buf;
  std::snprintf(Buf, sizeof(Buf), "globals %u\n", T.Header.Globals);
  Out += Buf;
  std::snprintf(Buf, sizeof(Buf), "frames %zu\n", T.Header.Frames.size());
  Out += Buf;
  for (const std::string &Frame : T.Header.Frames)
    Out += "frame " + Frame + "\n";
  std::snprintf(Buf, sizeof(Buf), "digest 0x%016llx\n",
                static_cast<unsigned long long>(T.Header.digest()));
  Out += Buf;
  Out += "end\n";

  const size_t PayloadStart = Out.size();
  if (T.Boot)
    appendTaskBlock(Out, *T.Boot);
  for (const std::vector<TraceTask> &Epoch : T.Epochs) {
    for (const TraceTask &Task : Epoch)
      appendTaskBlock(Out, Task);
    Out.push_back(static_cast<char>(MarkerEpochEnd));
  }
  Out.push_back(static_cast<char>(MarkerEnd));
  putVarint(Out, T.taskCount());
  uint64_t Sum =
      fnv1a(FnvOffset, Out.data() + PayloadStart, Out.size() - PayloadStart);
  putU64Le(Out, Sum);
  return Out;
}

bool chameleon::apps::readTrace(const std::string &Bytes, Trace &Out,
                                std::string *Error) {
  Out = Trace();
  size_t Pos = 0;

  // -- Text header ---------------------------------------------------------
  std::string Line;
  if (!headerLine(Bytes, Pos, Line))
    return fail(Error, "missing header");
  {
    const std::string Magic = std::string(TraceMagic) + " ";
    if (Line.compare(0, Magic.size(), Magic) != 0)
      return fail(Error, "bad magic (not a CHAMTRACE file)");
    char *End = nullptr;
    const char *Num = Line.c_str() + Magic.size();
    uint64_t Version = std::strtoull(Num, &End, 10);
    if (End == Num || *End != '\0')
      return fail(Error, "malformed version line '" + Line + "'");
    if (Version != TraceFormatVersion)
      return fail(Error, "unsupported format version "
                             + std::to_string(Version) + " (expected "
                             + std::to_string(TraceFormatVersion) + ")");
    Out.Header.Version = static_cast<uint32_t>(Version);
  }
  if (!headerLine(Bytes, Pos, Line))
    return fail(Error, "truncated header (expected 'generator')");
  if (Line.compare(0, 10, "generator ") != 0 || Line.size() <= 10)
    return fail(Error, "malformed header line '" + Line + "'");
  Out.Header.Generator = Line.substr(10);

  uint64_t V = 0;
  if (!headerNum(Bytes, Pos, "seed", V, Error))
    return false;
  Out.Header.Seed = V;
  if (!headerNum(Bytes, Pos, "sessions", V, Error))
    return false;
  if (V > MaxSessions)
    return fail(Error, "session count out of range");
  Out.Header.Sessions = static_cast<uint32_t>(V);
  if (!headerNum(Bytes, Pos, "epochs", V, Error))
    return false;
  if (V > MaxEpochs)
    return fail(Error, "epoch count out of range");
  Out.Header.Epochs = static_cast<uint32_t>(V);
  if (!headerNum(Bytes, Pos, "requests", V, Error))
    return false;
  Out.Header.Requests = V;
  if (!headerNum(Bytes, Pos, "history", V, Error))
    return false;
  Out.Header.HistoryBound = static_cast<uint32_t>(V);
  if (!headerNum(Bytes, Pos, "globals", V, Error))
    return false;
  if (V > MaxGlobals)
    return fail(Error, "global register count out of range");
  Out.Header.Globals = static_cast<uint32_t>(V);
  if (!headerNum(Bytes, Pos, "frames", V, Error))
    return false;
  if (V > MaxFrames)
    return fail(Error, "frame count out of range");
  Out.Header.Frames.reserve(V);
  for (uint64_t I = 0; I < V; ++I) {
    if (!headerLine(Bytes, Pos, Line))
      return fail(Error, "truncated frame table");
    if (Line.compare(0, 6, "frame ") != 0)
      return fail(Error, "malformed frame line '" + Line + "'");
    if (Line.size() - 6 > MaxLabelLen)
      return fail(Error, "frame label too long");
    Out.Header.Frames.push_back(Line.substr(6));
  }
  if (!headerNum(Bytes, Pos, "digest", V, Error))
    return false;
  if (V != Out.Header.digest())
    return fail(Error, "config digest mismatch (header edited or corrupt)");
  if (!headerLine(Bytes, Pos, Line) || Line != "end")
    return fail(Error, "missing header terminator");

  // -- Binary payload ------------------------------------------------------
  const size_t PayloadStart = Pos;
  ByteReader R(Bytes);
  R.skip(PayloadStart);
  std::vector<TraceTask> Current;
  uint64_t Tasks = 0;
  bool SawEnd = false;
  while (!SawEnd) {
    uint8_t Marker;
    if (!R.u8(Marker))
      return fail(Error, "truncated payload (missing end marker)");
    switch (Marker) {
    case MarkerTask: {
      TraceTask Task;
      uint64_t Session, FrameIdx, OpCount, OpLen;
      if (!R.varint(Task.Id) || !R.varint(Session) || !R.varint(FrameIdx)
          || !R.varint(OpCount) || !R.varint(OpLen))
        return fail(Error, "truncated task block");
      if (Session > TraceBootSession || FrameIdx >= MaxFrames)
        return fail(Error, "task field out of range");
      if (OpCount > MaxOpsPerTask)
        return fail(Error, "op count out of range");
      if (OpLen > Bytes.size() - R.pos())
        return fail(Error, "truncated task ops");
      Task.Session = static_cast<uint32_t>(Session);
      Task.FrameIdx = static_cast<uint32_t>(FrameIdx);
      ByteReader Ops(Bytes.data() + R.pos(), OpLen);
      if (!readOps(Ops, OpCount, Task.Ops, Error))
        return false;
      if (!Ops.atEnd())
        return fail(Error, "trailing bytes in task op block");
      R.skip(OpLen); // the sub-reader consumed exactly these bytes
      if (Task.Session == TraceBootSession) {
        if (Out.Boot || Tasks || !Current.empty()
            || !Out.Epochs.empty())
          return fail(Error, "boot task must be the single first block");
        Out.Boot = std::move(Task);
        break;
      }
      if (++Tasks > MaxTasks)
        return fail(Error, "task count out of range");
      Current.push_back(std::move(Task));
      break;
    }
    case MarkerEpochEnd:
      if (Out.Epochs.size() >= MaxEpochs)
        return fail(Error, "epoch count out of range");
      Out.Epochs.push_back(std::move(Current));
      Current.clear();
      break;
    case MarkerEnd: {
      if (!Current.empty())
        return fail(Error, "task block outside any epoch");
      uint64_t Count;
      if (!R.varint(Count))
        return fail(Error, "truncated trailer");
      const size_t SumStart = R.pos();
      uint64_t Sum;
      if (!R.u64Le(Sum))
        return fail(Error, "truncated checksum");
      if (!R.atEnd())
        return fail(Error, "trailing bytes after end marker");
      uint64_t Actual =
          fnv1a(FnvOffset, Bytes.data() + PayloadStart,
                SumStart - PayloadStart);
      if (Sum != Actual)
        return fail(Error, "payload checksum mismatch");
      if (Count != Tasks)
        return fail(Error, "task count mismatch (trailer says "
                               + std::to_string(Count) + ", payload has "
                               + std::to_string(Tasks) + ")");
      SawEnd = true;
      break;
    }
    default:
      return fail(Error,
                  "unknown payload marker " + std::to_string(Marker));
    }
  }
  if (Out.Epochs.size() != Out.Header.Epochs)
    return fail(Error, "epoch structure mismatch (header says "
                           + std::to_string(Out.Header.Epochs)
                           + ", payload has "
                           + std::to_string(Out.Epochs.size()) + ")");
  return true;
}

bool chameleon::apps::writeTraceFile(const std::string &Path, const Trace &T,
                                     std::string *Error) {
  std::string Bytes = writeTrace(T);
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    return fail(Error, "cannot open '" + Path + "' for writing");
  size_t Written = std::fwrite(Bytes.data(), 1, Bytes.size(), F);
  bool Ok = std::fclose(F) == 0 && Written == Bytes.size();
  if (!Ok)
    return fail(Error, "short write to '" + Path + "'");
  return true;
}

bool chameleon::apps::readTraceFile(const std::string &Path, Trace &Out,
                                    std::string *Error) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return fail(Error, "cannot open '" + Path + "'");
  std::string Bytes;
  char Buf[64 * 1024];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Bytes.append(Buf, N);
  bool ReadOk = !std::ferror(F);
  std::fclose(F);
  if (!ReadOk)
    return fail(Error, "read error on '" + Path + "'");
  return readTrace(Bytes, Out, Error);
}

namespace {

/// Implementations a trace may request at an Alloc op. Conservative: the
/// bounded backings (Singleton*, EmptyList) and the ones that restrict their
/// contents (IntArrayList, HashedList) are never recorded allocations.
bool traceAllocatable(ImplKind Impl) {
  return !implIsBounded(Impl) && !implRestrictsContents(Impl);
}

/// Which ADT an opcode requires (nullopt: any ADT).
std::optional<AdtKind> opAdt(TraceOpCode Code) {
  switch (Code) {
  case TraceOpCode::MapPut:
  case TraceOpCode::MapGet:
  case TraceOpCode::MapContainsKey:
  case TraceOpCode::MapRemove:
    return AdtKind::Map;
  case TraceOpCode::ListAdd:
  case TraceOpCode::ListAddAt:
  case TraceOpCode::ListGet:
  case TraceOpCode::ListSet:
  case TraceOpCode::ListRemoveAt:
  case TraceOpCode::ListRemoveFirst:
  case TraceOpCode::ListContains:
    return AdtKind::List;
  case TraceOpCode::SetAdd:
  case TraceOpCode::SetContains:
  case TraceOpCode::SetRemove:
    return AdtKind::Set;
  default:
    return std::nullopt;
  }
}

struct GlobalState {
  bool Allocated = false;
  AdtKind Adt = AdtKind::List;
  /// Owning session outside boot (-1: not yet touched by a request task).
  int64_t Owner = -1;
};

struct TempState {
  bool Live = false;
  bool EverLive = false;
  AdtKind Adt = AdtKind::List;
};

bool validateTask(const TraceTask &Task, const TraceHeader &Header,
                  bool IsBoot, std::vector<GlobalState> &Globals,
                  std::string *Error) {
  auto taskFail = [&](const std::string &Msg) {
    return fail(Error, "task " + std::to_string(Task.Id) + ": " + Msg);
  };
  if (Task.FrameIdx >= Header.Frames.size())
    return taskFail("frame index out of range");
  if (!IsBoot && Task.Session >= Header.Sessions)
    return taskFail("session out of range");

  std::vector<TempState> Temps;
  for (const TraceOp &Op : Task.Ops) {
    const uint32_t Slot = traceRegSlot(Op.Target);
    const bool IsTemp = traceRegIsTemp(Op.Target);
    if (IsTemp && Slot >= MaxTempSlots)
      return taskFail("temp slot out of range");
    if (!IsTemp && Slot >= Header.Globals)
      return taskFail("global slot out of range");

    if (Op.Code == TraceOpCode::Alloc) {
      if (Op.SiteIdx >= Header.Frames.size())
        return taskFail("alloc site index out of range");
      if (!traceAllocatable(Op.Impl) || !implSupportsAdt(Op.Impl, Op.Adt)
          || adtOfImpl(Op.Impl) != Op.Adt)
        return taskFail(std::string("impl '") + implKindName(Op.Impl)
                        + "' is not allocatable as a "
                        + adtKindName(Op.Adt));
      if (IsTemp) {
        if (Slot >= Temps.size())
          Temps.resize(Slot + 1);
        if (Temps[Slot].Live)
          return taskFail("temp slot reallocated while live");
        Temps[Slot] = {true, true, Op.Adt};
      } else {
        if (!IsBoot)
          return taskFail("global register allocated outside boot");
        GlobalState &G = Globals[Slot];
        if (G.Allocated)
          return taskFail("global register allocated twice");
        G.Allocated = true;
        G.Adt = Op.Adt;
      }
      continue;
    }

    // Non-alloc op: the register must be live, owned, and ADT-compatible.
    AdtKind Adt;
    if (IsTemp) {
      if (Slot >= Temps.size() || !Temps[Slot].EverLive)
        return taskFail("op on an unallocated temp slot");
      if (!Temps[Slot].Live)
        return taskFail("op on a retired temp slot");
      Adt = Temps[Slot].Adt;
      if (Op.Code == TraceOpCode::Retire) {
        Temps[Slot].Live = false;
        continue;
      }
    } else {
      GlobalState &G = Globals[Slot];
      if (!G.Allocated)
        return taskFail("op on an unallocated global register");
      if (Op.Code == TraceOpCode::Retire)
        return taskFail("retire of a global register");
      if (!IsBoot) {
        if (G.Owner < 0)
          G.Owner = Task.Session;
        else if (G.Owner != Task.Session)
          return taskFail("global register shared across sessions");
      }
      Adt = G.Adt;
    }
    if (std::optional<AdtKind> Need = opAdt(Op.Code))
      if (*Need != Adt)
        return taskFail(std::string(traceOpCodeName(Op.Code)) + " on a "
                        + adtKindName(Adt) + " register");
  }
  for (size_t Slot = 0; Slot < Temps.size(); ++Slot)
    if (Temps[Slot].Live)
      return taskFail("temp slot " + std::to_string(Slot)
                      + " left unretired at task end");
  return true;
}

} // namespace

bool chameleon::apps::validateTrace(const Trace &T, std::string *Error) {
  if (T.Epochs.size() != T.Header.Epochs)
    return fail(Error, "epoch structure does not match the header");
  std::vector<GlobalState> Globals(T.Header.Globals);
  std::unordered_set<uint64_t> Ids;
  if (T.Boot) {
    if (T.Boot->Session != TraceBootSession)
      return fail(Error, "boot task carries a request session");
    Ids.insert(T.Boot->Id);
    if (!validateTask(*T.Boot, T.Header, /*IsBoot=*/true, Globals, Error))
      return false;
  }
  for (const std::vector<TraceTask> &Epoch : T.Epochs)
    for (const TraceTask &Task : Epoch) {
      if (Task.Session == TraceBootSession)
        return fail(Error, "boot task inside an epoch");
      if (!Ids.insert(Task.Id).second)
        return fail(Error,
                    "duplicate task id " + std::to_string(Task.Id));
      if (!validateTask(Task, T.Header, /*IsBoot=*/false, Globals, Error))
        return false;
    }
  return true;
}
