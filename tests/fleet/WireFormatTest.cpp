//===--- WireFormatTest.cpp - Fleet wire protocol tests --------*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fleet wire layer (support/Wire.h, fleet/WireFormat.h): byte
/// primitives round-trip bit-exactly, framing rejects every corruption
/// class with the right typed status, and all four protocol messages
/// encode/decode losslessly — including a full ProcessProfile with NaN
/// and denormal stat moments.
///
//===----------------------------------------------------------------------===//

#include "FleetFixtures.h"

#include "fleet/FleetProfile.h"
#include "fleet/WireFormat.h"
#include "support/Wire.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

using namespace chameleon;
using namespace chameleon::fleet;
using fixtures::sampleProfile;

namespace {

TEST(WireTest, VarintRoundTrips) {
  for (uint64_t V : {0ull, 1ull, 127ull, 128ull, 300ull, (1ull << 32),
                     ~0ull, (1ull << 63)}) {
    std::string Buf;
    putVarint(Buf, V);
    ByteReader R(Buf);
    uint64_t Back = 0;
    ASSERT_TRUE(R.varint(Back));
    EXPECT_EQ(Back, V);
    EXPECT_TRUE(R.atEnd());
  }
}

TEST(WireTest, VarintRejectsOverlong) {
  // 11 continuation bytes: more than a 64-bit value can need.
  std::string Buf(11, '\x80');
  Buf.push_back('\x01');
  ByteReader R(Buf);
  uint64_t V;
  EXPECT_FALSE(R.varint(V));
  EXPECT_FALSE(R.ok());
}

TEST(WireTest, ZigzagRoundTrips) {
  const int64_t Cases[] = {0, 1, -1, 1234567, -1234567,
                           std::numeric_limits<int64_t>::min(),
                           std::numeric_limits<int64_t>::max()};
  for (int64_t V : Cases)
    EXPECT_EQ(unzigzag(zigzag(V)), V);
}

TEST(WireTest, DoubleRoundTripsBitExactly) {
  for (double V : {0.0, -0.0, 1.5, -3.25e18,
                   std::numeric_limits<double>::denorm_min(),
                   std::numeric_limits<double>::infinity(),
                   std::nan("")}) {
    std::string Buf;
    putF64(Buf, V);
    ByteReader R(Buf);
    double Back = 0;
    ASSERT_TRUE(R.f64(Back));
    uint64_t A, B;
    std::memcpy(&A, &V, 8);
    std::memcpy(&B, &Back, 8);
    EXPECT_EQ(A, B);
  }
}

TEST(WireTest, ReaderFailsClosedOnTruncation) {
  std::string Buf;
  putStr(Buf, "hello");
  for (size_t Cut = 0; Cut < Buf.size(); ++Cut) {
    std::string Trunc = Buf.substr(0, Cut);
    ByteReader R(Trunc);
    std::string S;
    EXPECT_FALSE(R.str(S, 64)) << "cut at " << Cut;
  }
}

TEST(WireTest, ReaderBoundsStringLength) {
  std::string Buf;
  putStr(Buf, "toolong");
  ByteReader R(Buf);
  std::string S;
  EXPECT_FALSE(R.str(S, 3));
}

//===----------------------------------------------------------------------===//
// Framing
//===----------------------------------------------------------------------===//

TEST(FramingTest, RoundTripsAndAdvances) {
  std::string Buf;
  frameMessage(Buf, "alpha");
  frameMessage(Buf, "beta");
  size_t Pos = 0;
  std::string Payload;
  ASSERT_EQ(extractFrame(Buf, Pos, Payload), FrameStatus::Ok);
  EXPECT_EQ(Payload, "alpha");
  ASSERT_EQ(extractFrame(Buf, Pos, Payload), FrameStatus::Ok);
  EXPECT_EQ(Payload, "beta");
  EXPECT_EQ(Pos, Buf.size());
  EXPECT_EQ(extractFrame(Buf, Pos, Payload), FrameStatus::Incomplete);
}

TEST(FramingTest, IncompleteAtEveryPrefixLength) {
  std::string Buf;
  frameMessage(Buf, "payload bytes");
  for (size_t Cut = 0; Cut < Buf.size(); ++Cut) {
    std::string Trunc = Buf.substr(0, Cut);
    size_t Pos = 0;
    std::string Payload;
    EXPECT_EQ(extractFrame(Trunc, Pos, Payload), FrameStatus::Incomplete)
        << "cut at " << Cut;
    EXPECT_EQ(Pos, 0u);
  }
}

TEST(FramingTest, RejectsBadMagic) {
  std::string Buf;
  frameMessage(Buf, "x");
  Buf[0] = static_cast<char>(Buf[0] ^ 0x40);
  size_t Pos = 0;
  std::string Payload;
  EXPECT_EQ(extractFrame(Buf, Pos, Payload), FrameStatus::BadMagic);
  EXPECT_EQ(Pos, 0u);
}

TEST(FramingTest, RejectsOversizedDeclaredLength) {
  std::string Buf;
  putU64Le(Buf, 0); // placeholder; rebuild by hand
  Buf.clear();
  // magic
  for (int I = 0; I < 4; ++I)
    Buf.push_back(static_cast<char>((FrameMagic >> (8 * I)) & 0xFF));
  putVarint(Buf, MaxFramePayload + 1);
  size_t Pos = 0;
  std::string Payload;
  EXPECT_EQ(extractFrame(Buf, Pos, Payload), FrameStatus::TooLarge);
}

TEST(FramingTest, RejectsFlippedPayloadBit) {
  std::string Buf;
  frameMessage(Buf, "digest-protected payload");
  // Flip one bit in the payload region (after magic + 1-byte varint len).
  Buf[6] = static_cast<char>(Buf[6] ^ 0x01);
  size_t Pos = 0;
  std::string Payload;
  EXPECT_EQ(extractFrame(Buf, Pos, Payload), FrameStatus::BadDigest);
  EXPECT_EQ(Pos, 0u);
}

TEST(FramingTest, RejectsFlippedDigestBit) {
  std::string Buf;
  frameMessage(Buf, "digest-protected payload");
  Buf[Buf.size() - 1] = static_cast<char>(Buf[Buf.size() - 1] ^ 0x80);
  size_t Pos = 0;
  std::string Payload;
  EXPECT_EQ(extractFrame(Buf, Pos, Payload), FrameStatus::BadDigest);
}

//===----------------------------------------------------------------------===//
// Messages
//===----------------------------------------------------------------------===//

TEST(MessageTest, HelloRoundTrips) {
  HelloMsg M;
  M.AgentId = "agent-007";
  M.RunSeed = 0xDEADBEEF12345678ull;
  Message Out;
  std::string Err;
  ASSERT_TRUE(decodeMessage(encodeHello(M), Out, Err)) << Err;
  ASSERT_EQ(Out.Kind, MsgKind::Hello);
  EXPECT_EQ(Out.Hello.Version, WireVersion);
  EXPECT_EQ(Out.Hello.AgentId, "agent-007");
  EXPECT_EQ(Out.Hello.RunSeed, M.RunSeed);
}

TEST(MessageTest, HelloAckAndAckRoundTrip) {
  HelloAckMsg HA;
  HA.DurableEpoch = 17;
  AckMsg A;
  A.SeenEpoch = 23;
  A.DurableEpoch = 19;
  Message Out;
  std::string Err;
  ASSERT_TRUE(decodeMessage(encodeHelloAck(HA), Out, Err)) << Err;
  ASSERT_EQ(Out.Kind, MsgKind::HelloAck);
  EXPECT_EQ(Out.HelloAck.DurableEpoch, 17u);
  ASSERT_TRUE(decodeMessage(encodeAck(A), Out, Err)) << Err;
  ASSERT_EQ(Out.Kind, MsgKind::Ack);
  EXPECT_EQ(Out.Ack.SeenEpoch, 23u);
  EXPECT_EQ(Out.Ack.DurableEpoch, 19u);
}

TEST(MessageTest, EpochUpdateRoundTripsBitExactly) {
  EpochUpdateMsg M;
  M.Profile = sampleProfile(5);
  std::string Payload = encodeEpochUpdate(M);
  Message Out;
  std::string Err;
  ASSERT_TRUE(decodeMessage(Payload, Out, Err)) << Err;
  ASSERT_EQ(Out.Kind, MsgKind::EpochUpdate);

  // Bit-exactness: re-encoding the decoded profile reproduces the bytes.
  EpochUpdateMsg Back;
  Back.Profile = Out.EpochUpdate.Profile;
  EXPECT_EQ(encodeEpochUpdate(Back), Payload);
  EXPECT_EQ(Out.EpochUpdate.Profile.Epoch, 5u);
  ASSERT_EQ(Out.EpochUpdate.Profile.Contexts.size(), 2u);
  EXPECT_EQ(Out.EpochUpdate.Profile.Contexts[0].TypeName, "ArrayList");
  ASSERT_EQ(Out.EpochUpdate.Profile.Metrics.size(), 3u);
  const obs::MetricSnapshot &Hdr = Out.EpochUpdate.Profile.Metrics[2];
  EXPECT_EQ(Hdr.Kind, obs::MetricKind::Hdr);
  EXPECT_EQ(Hdr.HdrBuckets.size(), 3u);
  EXPECT_EQ(Hdr.MaxValue, 2000u);
}

TEST(MessageTest, RejectsUnknownKind) {
  std::string Payload;
  Payload.push_back(static_cast<char>(99));
  Message Out;
  std::string Err;
  EXPECT_FALSE(decodeMessage(Payload, Out, Err));
  EXPECT_FALSE(Err.empty());
}

TEST(MessageTest, RejectsTrailingGarbage) {
  HelloAckMsg HA;
  std::string Payload = encodeHelloAck(HA);
  Payload.push_back('\x00');
  Message Out;
  std::string Err;
  EXPECT_FALSE(decodeMessage(Payload, Out, Err));
}

TEST(MessageTest, RejectsTruncationAtEveryLength) {
  EpochUpdateMsg M;
  M.Profile = sampleProfile(3);
  std::string Payload = encodeEpochUpdate(M);
  for (size_t Cut = 0; Cut < Payload.size(); ++Cut) {
    Message Out;
    std::string Err;
    EXPECT_FALSE(decodeMessage(Payload.substr(0, Cut), Out, Err))
        << "cut at " << Cut;
  }
}

//===----------------------------------------------------------------------===//
// Merge semantics
//===----------------------------------------------------------------------===//

TEST(FleetStateTest, KeepsHighestEpochPerStream) {
  FleetState S;
  StreamKey K{"a", 1};
  EXPECT_TRUE(S.fold(K, sampleProfile(1)));
  EXPECT_TRUE(S.fold(K, sampleProfile(3)));
  EXPECT_FALSE(S.fold(K, sampleProfile(2))); // stale: superseded by 3
  EXPECT_FALSE(S.fold(K, sampleProfile(3))); // duplicate replay
  EXPECT_EQ(S.latestEpoch(K), 3u);
  EXPECT_EQ(S.durableEpoch(K), 0u);
  S.markAllDurable();
  EXPECT_EQ(S.durableEpoch(K), 3u);
}

TEST(FleetStateTest, MergedProfileInvariantToArrivalOrder) {
  ProcessProfile P1 = sampleProfile(2);
  ProcessProfile P2 = sampleProfile(5);
  P2.Contexts[0].Stats.Allocations = 1000; // make the streams distinguishable
  ProcessProfile P3 = sampleProfile(1);

  std::string Baseline;
  const StreamKey Keys[] = {{"a", 1}, {"b", 2}, {"c", 3}};
  const ProcessProfile *Profiles[] = {&P1, &P2, &P3};
  int Order[] = {0, 1, 2};
  do {
    FleetState S;
    for (int I : Order)
      ASSERT_TRUE(S.fold(Keys[I], *Profiles[I]));
    std::string Enc;
    encodeProcessProfile(Enc, S.mergedProfile());
    if (Baseline.empty())
      Baseline = Enc;
    else
      EXPECT_EQ(Enc, Baseline) << "arrival order " << Order[0] << Order[1]
                               << Order[2];
  } while (std::next_permutation(std::begin(Order), std::end(Order)));
  EXPECT_FALSE(Baseline.empty());
}

TEST(FleetStateTest, MergeSumsCountersAndStats) {
  FleetState S;
  ASSERT_TRUE(S.fold({"a", 1}, sampleProfile(2)));
  ASSERT_TRUE(S.fold({"b", 2}, sampleProfile(4)));
  ProcessProfile M = S.mergedProfile();
  EXPECT_EQ(M.Epoch, 6u); // fleet version: sum of stream epochs
  ASSERT_EQ(M.Contexts.size(), 2u);
  EXPECT_EQ(M.Contexts[0].Stats.Allocations, 84u); // 42 + 42, same identity
  EXPECT_EQ(M.Contexts[0].Stats.MaxSizeStat.count(), 80u);
  EXPECT_EQ(M.Heap.Live.total(), 2000u);
  EXPECT_EQ(M.Heap.Live.max(), 400u);
  // Metrics merged by name: counter doubled, HDR buckets added.
  ASSERT_EQ(M.Metrics.size(), 3u);
  EXPECT_EQ(M.Metrics[0].Value, 246u);
  EXPECT_EQ(M.Metrics[2].Count, 12u);
  EXPECT_EQ(M.Metrics[2].HdrBuckets[1].second, 4u);
}

} // namespace
