//===--- SnapshotTest.cpp - Snapshot corruption matrix ---------*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The crash-safe snapshot loader's corruption matrix (fleet/Snapshot.h):
/// truncation at EVERY byte length, a single bit flip in the header, the
/// payload, and each digest, version skew, and wrong-file input — every
/// case must produce a typed SnapshotError, quarantine the file aside,
/// leave the decoded state empty, and never crash. Plus the happy paths:
/// byte-exact round trip, atomic-rename persistence, and fault-injected
/// writes leaving the previous snapshot intact.
///
//===----------------------------------------------------------------------===//

#include "fleet/Snapshot.h"
#include "support/FaultInjector.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

using namespace chameleon;
using namespace chameleon::fleet;

namespace {

namespace fs = std::filesystem;

/// Fresh per-test scratch directory.
class SnapshotTest : public ::testing::Test {
protected:
  void SetUp() override {
    Dir = fs::temp_directory_path() /
          ("cham-snap-" +
           std::string(
               ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(Dir);
    fs::create_directories(Dir);
  }
  void TearDown() override { fs::remove_all(Dir); }

  std::string path(const std::string &Name) const {
    return (Dir / Name).string();
  }

  fs::path Dir;
};

/// Two-stream state with non-trivial stats.
FleetState sampleState() {
  FleetState S;
  for (int I = 0; I < 2; ++I) {
    ProcessProfile P;
    P.Epoch = 3 + I;
    P.Heap.CyclesSeen = 5;
    P.Heap.Live =
        TotalMax::fromParts(1000u + static_cast<uint64_t>(I), 400, 5);
    ContextProfile C;
    C.TypeName = I == 0 ? "ArrayList" : "HashMap";
    C.Frames = {"site:1", "caller"};
    C.Stats.Allocations = 10 + static_cast<uint64_t>(I);
    C.Stats.MaxSizeStat = RunningStat::fromMoments(9, 4.5, 1.25, 1.0, 9.0);
    P.Contexts.push_back(std::move(C));
    S.fold({I == 0 ? "agent-a" : "agent-b", 7}, std::move(P));
  }
  return S;
}

void writeBytes(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
}

/// Loads expecting a typed failure; checks quarantine happened and the
/// state stayed empty.
void expectQuarantined(const std::string &Path, SnapshotError Want,
                       const std::string &What) {
  FleetState Out;
  SnapshotLoadResult R = loadSnapshot(Path, Out, /*QuarantineOnError=*/true);
  EXPECT_EQ(R.Error, Want) << What << ": got " << snapshotErrorName(R.Error)
                           << " (" << R.Message << ")";
  EXPECT_FALSE(R.Message.empty()) << What;
  EXPECT_TRUE(Out.empty()) << What;
  EXPECT_FALSE(fs::exists(Path)) << What << ": corrupt file not moved";
  ASSERT_FALSE(R.QuarantinePath.empty()) << What;
  EXPECT_TRUE(fs::exists(R.QuarantinePath)) << What;
  EXPECT_NE(R.QuarantinePath.find(
                std::string(".quarantined-") + snapshotErrorName(Want)),
            std::string::npos)
      << What << ": quarantine name " << R.QuarantinePath;
  fs::remove(R.QuarantinePath);
}

TEST_F(SnapshotTest, RoundTripsByteExactly) {
  FleetState S = sampleState();
  std::string Bytes = encodeSnapshot(S);
  FleetState Back;
  SnapshotLoadResult R = decodeSnapshot(Bytes, Back);
  ASSERT_TRUE(R.ok()) << R.Message;
  EXPECT_EQ(encodeSnapshot(Back), Bytes);
  EXPECT_EQ(Back.streams().size(), 2u);
  // Restored streams are durable by definition: they are in a snapshot.
  EXPECT_EQ(Back.durableEpoch({"agent-a", 7}), 3u);
  EXPECT_EQ(Back.durableEpoch({"agent-b", 7}), 4u);
}

TEST_F(SnapshotTest, SaveThenLoad) {
  std::string P = path("fleet.snap");
  std::string Err;
  ASSERT_TRUE(saveSnapshot(P, sampleState(), Err)) << Err;
  EXPECT_FALSE(fs::exists(P + ".tmp")); // atomic rename consumed the temp
  FleetState Out;
  SnapshotLoadResult R = loadSnapshot(P, Out, true);
  ASSERT_TRUE(R.ok()) << R.Message;
  EXPECT_EQ(Out.streams().size(), 2u);
}

TEST_F(SnapshotTest, MissingFileIsCleanIoErrorWithoutQuarantine) {
  FleetState Out;
  SnapshotLoadResult R = loadSnapshot(path("absent.snap"), Out, true);
  EXPECT_EQ(R.Error, SnapshotError::Io);
  EXPECT_TRUE(R.QuarantinePath.empty());
  EXPECT_TRUE(Out.empty());
}

//===----------------------------------------------------------------------===//
// Corruption matrix
//===----------------------------------------------------------------------===//

TEST_F(SnapshotTest, TruncationAtEveryLengthIsTypedAndQuarantined) {
  std::string Bytes = encodeSnapshot(sampleState());
  ASSERT_GT(Bytes.size(), 100u);
  for (size_t Cut = 0; Cut < Bytes.size(); ++Cut) {
    FleetState Out;
    SnapshotLoadResult R = decodeSnapshot(Bytes.substr(0, Cut), Out);
    EXPECT_NE(R.Error, SnapshotError::None) << "cut at " << Cut;
    EXPECT_TRUE(Out.empty()) << "cut at " << Cut;
  }
  // Spot-check the typed boundary classes through the quarantining loader.
  size_t HeaderEnd = Bytes.find("\n\n");
  ASSERT_NE(HeaderEnd, std::string::npos);
  HeaderEnd += 2;

  std::string P = path("trunc-header.snap");
  writeBytes(P, Bytes.substr(0, HeaderEnd / 2));
  expectQuarantined(P, SnapshotError::BadHeader, "mid-header truncation");

  P = path("trunc-payload.snap");
  writeBytes(P, Bytes.substr(0, HeaderEnd + (Bytes.size() - HeaderEnd) / 2));
  expectQuarantined(P, SnapshotError::TruncatedPayload,
                    "mid-payload truncation");

  P = path("trunc-empty.snap");
  writeBytes(P, "");
  expectQuarantined(P, SnapshotError::BadMagic, "empty file");
}

TEST_F(SnapshotTest, HeaderBitFlipIsTyped) {
  std::string Bytes = encodeSnapshot(sampleState());
  // Flip inside the magic word.
  std::string Broken = Bytes;
  Broken[2] ^= 0x20;
  std::string P = path("magic-flip.snap");
  writeBytes(P, Broken);
  expectQuarantined(P, SnapshotError::BadMagic, "magic bit flip");

  // Corrupt the streams count line.
  size_t StreamsAt = Bytes.find("streams ");
  ASSERT_NE(StreamsAt, std::string::npos);
  Broken = Bytes;
  Broken[StreamsAt + 2] = 'X';
  P = path("header-flip.snap");
  writeBytes(P, Broken);
  expectQuarantined(P, SnapshotError::BadHeader, "header bit flip");
}

TEST_F(SnapshotTest, VersionSkewIsTyped) {
  std::string Bytes = encodeSnapshot(sampleState());
  const std::string Want =
      std::string(SnapshotMagic) + " " + std::to_string(SnapshotVersion);
  ASSERT_EQ(Bytes.compare(0, Want.size(), Want), 0);
  std::string Broken = Want.substr(0, Want.size() - 1) + "9" +
                       Bytes.substr(Want.size());
  std::string P = path("skew.snap");
  writeBytes(P, Broken);
  expectQuarantined(P, SnapshotError::VersionSkew, "version skew");
}

TEST_F(SnapshotTest, PayloadBitFlipIsTyped) {
  std::string Bytes = encodeSnapshot(sampleState());
  size_t PayloadAt = Bytes.find("\n\n") + 2;
  // A flip anywhere in the payload trips the whole-payload digest first.
  for (size_t Off : {size_t(0), (Bytes.size() - PayloadAt) / 2,
                     Bytes.size() - PayloadAt - 1}) {
    std::string Broken = Bytes;
    Broken[PayloadAt + Off] = static_cast<char>(Broken[PayloadAt + Off] ^ 0x04);
    std::string P = path("payload-flip.snap");
    writeBytes(P, Broken);
    expectQuarantined(P, SnapshotError::PayloadDigest,
                      "payload bit flip at +" + std::to_string(Off));
  }
}

TEST_F(SnapshotTest, DeclaredDigestFlipIsTyped) {
  std::string Bytes = encodeSnapshot(sampleState());
  size_t DigestAt = Bytes.find("payload_digest ");
  ASSERT_NE(DigestAt, std::string::npos);
  std::string Broken = Bytes;
  char &Hex = Broken[DigestAt + 15];
  Hex = Hex == '0' ? '1' : '0';
  std::string P = path("digest-flip.snap");
  writeBytes(P, Broken);
  expectQuarantined(P, SnapshotError::PayloadDigest, "declared digest flip");
}

TEST_F(SnapshotTest, SectionDigestFlipIsTyped) {
  // Corrupt a section's own trailing digest and fix up the whole-payload
  // digest so the per-section check is what trips.
  FleetState S = sampleState();
  std::string Bytes = encodeSnapshot(S);
  size_t PayloadAt = Bytes.find("\n\n") + 2;
  std::string Payload = Bytes.substr(PayloadAt);
  // Last 8 payload bytes are the final section's digest.
  Payload[Payload.size() - 4] =
      static_cast<char>(Payload[Payload.size() - 4] ^ 0x10);
  char DigestHex[17];
  std::snprintf(DigestHex, sizeof(DigestHex), "%016llx",
                static_cast<unsigned long long>(fnv1a(Payload)));
  size_t DigestAt = Bytes.find("payload_digest ") + 15;
  std::string Broken = Bytes.substr(0, DigestAt) + DigestHex +
                       Bytes.substr(DigestAt + 16, PayloadAt - DigestAt - 16) +
                       Payload;
  std::string P = path("section-digest.snap");
  writeBytes(P, Broken);
  expectQuarantined(P, SnapshotError::SectionDigest, "section digest flip");
}

TEST_F(SnapshotTest, TrailingDataIsTyped) {
  std::string P = path("trailing.snap");
  writeBytes(P, encodeSnapshot(sampleState()) + "extra");
  expectQuarantined(P, SnapshotError::TrailingData, "appended bytes");
}

TEST_F(SnapshotTest, WrongFileKindIsTyped) {
  std::string P = path("notasnap.snap");
  writeBytes(P, "CHAMTRACE 3\nsomething else entirely\n");
  expectQuarantined(P, SnapshotError::BadMagic, "foreign file");
}

TEST_F(SnapshotTest, QuarantineCanBeDisabled) {
  std::string P = path("keep.snap");
  std::string Bytes = encodeSnapshot(sampleState());
  Bytes[2] ^= 0x20;
  writeBytes(P, Bytes);
  FleetState Out;
  SnapshotLoadResult R = loadSnapshot(P, Out, /*QuarantineOnError=*/false);
  EXPECT_EQ(R.Error, SnapshotError::BadMagic);
  EXPECT_TRUE(R.QuarantinePath.empty());
  EXPECT_TRUE(fs::exists(P)); // inspection mode leaves the file alone
}

//===----------------------------------------------------------------------===//
// Crash-safe persistence under injected faults
//===----------------------------------------------------------------------===//

struct DisarmGuard {
  ~DisarmGuard() { FaultInjector::instance().disarm(); }
};

TEST_F(SnapshotTest, InjectedWriteFaultLeavesPreviousSnapshotIntact) {
  std::string P = path("fleet.snap");
  std::string Err;
  ASSERT_TRUE(saveSnapshot(P, sampleState(), Err)) << Err;
  std::string Before = encodeSnapshot(sampleState());

  DisarmGuard Guard;
  for (const char *Site : {"fleet.snapshot.write", "fleet.snapshot.rename"}) {
    FaultPlan Plan;
    Plan.Rules.push_back({Site, FaultAction::FailAlloc, /*NthHit=*/1});
    FaultInjector::instance().arm(Plan);
    bool Threw = false;
    try {
      FaultInjector::FailScope Scope;
      std::string E2;
      saveSnapshot(P, FleetState(), E2); // would overwrite with empty state
    } catch (const InjectedFault &) {
      Threw = true;
    }
    FaultInjector::instance().disarm();
    EXPECT_TRUE(Threw) << Site;
    // The previous snapshot still loads and still carries the old state.
    FleetState Out;
    SnapshotLoadResult R = loadSnapshot(P, Out, true);
    ASSERT_TRUE(R.ok()) << Site << ": " << R.Message;
    EXPECT_EQ(encodeSnapshot(Out), Before) << Site;
  }
}

} // namespace
