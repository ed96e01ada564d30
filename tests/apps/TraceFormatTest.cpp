//===--- TraceFormatTest.cpp - Trace serialization tests ------------------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The trace wire format's contracts (DESIGN.md §14): canonical encoding
/// (equal traces → equal bytes, write→read→write is the identity),
/// rejection of malformed input with a diagnostic (bad magic, version
/// skew, digest/checksum mismatch, truncation — never UB), and the
/// validator's replay-safety rules.
///
//===----------------------------------------------------------------------===//

#include "apps/TraceFormat.h"
#include "apps/TraceWorkload.h"
#include "apps/WorkloadGen.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <set>

using namespace chameleon;
using namespace chameleon::apps;

namespace {

WorkloadGenConfig smallConfig() {
  WorkloadGenConfig Config;
  Config.Sessions = 4;
  Config.Epochs = 2;
  Config.RequestsPerEpoch = 24;
  Config.HistoryBound = 8;
  return Config;
}

TEST(TraceFormat, RoundTripIsByteIdentical) {
  Trace T = generatePhaseShiftTrace(smallConfig());
  ASSERT_TRUE(validateTrace(T));
  std::string Bytes = writeTrace(T);

  Trace Back;
  std::string Error;
  ASSERT_TRUE(readTrace(Bytes, Back, &Error)) << Error;
  EXPECT_EQ(Back.Header.Generator, "phase-shift");
  EXPECT_EQ(Back.taskCount(), T.taskCount());
  EXPECT_EQ(Back.opCount(), T.opCount());
  EXPECT_EQ(writeTrace(Back), Bytes);
}

TEST(TraceFormat, FileRoundTrip) {
  Trace T = generateBurstTrace(smallConfig());
  std::string Path = testing::TempDir() + "/chamtrace_roundtrip.trace";
  std::string Error;
  ASSERT_TRUE(writeTraceFile(Path, T, &Error)) << Error;
  Trace Back;
  ASSERT_TRUE(readTraceFile(Path, Back, &Error)) << Error;
  EXPECT_EQ(writeTrace(Back), writeTrace(T));
  std::remove(Path.c_str());
}

TEST(TraceFormat, RejectsBadMagic) {
  Trace T = generateZipfTrace(smallConfig());
  std::string Bytes = writeTrace(T);
  Bytes[0] = 'X';
  Trace Back;
  std::string Error;
  EXPECT_FALSE(readTrace(Bytes, Back, &Error));
  EXPECT_NE(Error.find("magic"), std::string::npos) << Error;
}

TEST(TraceFormat, RejectsWrongVersion) {
  Trace T = generateZipfTrace(smallConfig());
  std::string Bytes = writeTrace(T);
  size_t Pos = Bytes.find("CHAMTRACE 1");
  ASSERT_NE(Pos, std::string::npos);
  Bytes[Pos + sizeof("CHAMTRACE ") - 1] = '7';
  Trace Back;
  std::string Error;
  EXPECT_FALSE(readTrace(Bytes, Back, &Error));
  EXPECT_NE(Error.find("version"), std::string::npos) << Error;
}

TEST(TraceFormat, RejectsHeaderTampering) {
  Trace T = generateZipfTrace(smallConfig());
  std::string Bytes = writeTrace(T);
  // Editing a semantic header field out-of-band breaks the digest line.
  size_t Pos = Bytes.find("sessions 4");
  ASSERT_NE(Pos, std::string::npos);
  Bytes[Pos + sizeof("sessions ") - 1] = '5';
  Trace Back;
  std::string Error;
  EXPECT_FALSE(readTrace(Bytes, Back, &Error));
  EXPECT_NE(Error.find("digest"), std::string::npos) << Error;
}

TEST(TraceFormat, RejectsPayloadCorruptionAndTruncation) {
  Trace T = generatePhaseShiftTrace(smallConfig());
  std::string Bytes = writeTrace(T);

  // Flip one payload byte: either the decoder trips on the damaged
  // structure or the end checksum catches it — always a diagnostic.
  std::string Flipped = Bytes;
  Flipped[Bytes.size() - 64] ^= 0x40;
  Trace Back;
  std::string Error;
  EXPECT_FALSE(readTrace(Flipped, Back, &Error));
  EXPECT_FALSE(Error.empty());

  // Every truncation point is rejected cleanly (stride keeps it fast).
  for (size_t Len = 0; Len < Bytes.size(); Len += 97) {
    Error.clear();
    EXPECT_FALSE(readTrace(Bytes.substr(0, Len), Back, &Error));
    EXPECT_FALSE(Error.empty()) << "truncation at " << Len;
  }
  EXPECT_FALSE(readTrace(Bytes.substr(0, Bytes.size() - 1), Back, &Error));
}

TEST(TraceFormat, ValidatorCatchesReplayUnsafeTraces) {
  std::string Error;

  // Use of a retired temp.
  {
    Trace T = generateBurstTrace(smallConfig());
    TaskTrace Bad;
    Bad.alloc(traceTempReg(0), AdtKind::List, ImplKind::ArrayList, 4, 0);
    Bad.op0(TraceOpCode::Retire, traceTempReg(0));
    Bad.op1(TraceOpCode::ListAdd, traceTempReg(0), 1);
    Bad.Task.Id = 1u << 20;
    Bad.Task.Session = 0;
    Bad.Task.FrameIdx = 0;
    T.Epochs.back().push_back(Bad.Task);
    EXPECT_FALSE(validateTrace(T, &Error));
  }
  // Global allocation outside boot.
  {
    Trace T = generateBurstTrace(smallConfig());
    TaskTrace Bad;
    Bad.alloc(traceGlobalReg(0), AdtKind::Map, ImplKind::HashMap, 1, 4);
    Bad.Task.Id = 1u << 20;
    Bad.Task.Session = 0;
    Bad.Task.FrameIdx = 0;
    T.Epochs.back().push_back(Bad.Task);
    EXPECT_FALSE(validateTrace(T, &Error));
  }
  // Temp leaked past task end.
  {
    Trace T = generateBurstTrace(smallConfig());
    TaskTrace Bad;
    Bad.alloc(traceTempReg(0), AdtKind::Set, ImplKind::HashSet, 3, 0);
    Bad.Task.Id = 1u << 20;
    Bad.Task.Session = 0;
    Bad.Task.FrameIdx = 0;
    T.Epochs.back().push_back(Bad.Task);
    EXPECT_FALSE(validateTrace(T, &Error));
  }
  // Op shape vs register ADT mismatch.
  {
    Trace T = generateBurstTrace(smallConfig());
    TaskTrace Bad;
    Bad.op1(TraceOpCode::ListAdd, traceGlobalReg(0), 1); // global 0 is a Map
    Bad.Task.Id = 1u << 20;
    Bad.Task.Session = 0;
    Bad.Task.FrameIdx = 0;
    T.Epochs.back().push_back(Bad.Task);
    EXPECT_FALSE(validateTrace(T, &Error));
  }
  // A session touching another session's global.
  {
    Trace T = generateBurstTrace(smallConfig());
    TaskTrace Bad;
    Bad.op2(TraceOpCode::MapPut, traceGlobalReg(0), 1, 2); // session 0's map
    Bad.Task.Id = 1u << 20;
    Bad.Task.Session = 1;
    Bad.Task.FrameIdx = 0;
    T.Epochs.back().push_back(Bad.Task);
    EXPECT_FALSE(validateTrace(T, &Error));
  }
}

TEST(TraceFormat, ValidatorAllocatesOnlyUnrestrictedKinds) {
  // A recorded Alloc may not name a bounded kind (EmptyList, SingletonList,
  // SingletonMap) or one that restricts its contents (IntArrayList holds
  // only ints, HashedList drops duplicates); every other kind is fine.
  const std::set<ImplKind> Rejected = {
      ImplKind::EmptyList, ImplKind::SingletonList, ImplKind::SingletonMap,
      ImplKind::IntArrayList, ImplKind::HashedList};
  for (unsigned I = 0; I < NumImplKinds; ++I) {
    const ImplKind Impl = static_cast<ImplKind>(I);
    SCOPED_TRACE(implKindName(Impl));
    Trace T = generateBurstTrace(smallConfig());
    TaskTrace Task;
    Task.alloc(traceTempReg(0), adtOfImpl(Impl), Impl, 0, 0);
    Task.op0(TraceOpCode::Retire, traceTempReg(0));
    Task.Task.Id = 1u << 20;
    Task.Task.Session = 0;
    Task.Task.FrameIdx = 0;
    T.Epochs.back().push_back(Task.Task);
    std::string Error;
    const bool Allocatable = Rejected.count(Impl) == 0;
    EXPECT_EQ(validateTrace(T, &Error), Allocatable) << Error;
    if (!Allocatable) {
      EXPECT_NE(Error.find("is not allocatable"), std::string::npos) << Error;
    }
  }
}

} // namespace
