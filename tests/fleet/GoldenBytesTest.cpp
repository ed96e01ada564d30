//===--- GoldenBytesTest.cpp - Pinned v3 fleet bytes -----------*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the absolute bytes of the v3 fleet encodings. Old snapshots and
/// spill WALs stay readable only while every encoder writes the same bytes
/// for the same state, and the byte-identity tests elsewhere only compare
/// runs with each other. So each encoding below must keep the size and
/// FNV-1a digest recorded here: replay captures of two workload-zoo traces
/// (at 1, 2 and 8 mutator threads), a snapshot of both, their merged
/// profile, and an epoch update carrying NaN and -0.0 moments. A change
/// that must move these bytes bumps WireVersion and records new constants.
///
//===----------------------------------------------------------------------===//

#include "FleetFixtures.h"

#include "fleet/Snapshot.h"
#include "fleet/WireFormat.h"
#include "support/Wire.h"

#include <gtest/gtest.h>

#include <string>

using namespace chameleon;
using namespace chameleon::fleet;

namespace {

struct Golden {
  size_t Size;
  uint64_t Digest;
};

void expectGolden(const std::string &Bytes, Golden G, const char *What) {
  EXPECT_EQ(Bytes.size(), G.Size) << What;
  EXPECT_EQ(fnv1a(Bytes), G.Digest) << What;
}

constexpr Golden ZipfProfile{1870, 0xde2e9a6a06ffe9a1ull};
constexpr Golden PhaseShiftProfile{1877, 0x1aee6d862d2ee4dbull};
constexpr Golden SnapshotOfBoth{3875, 0x95662b35b57177ffull};
constexpr Golden MergedOfBoth{3718, 0xf8d2b5dc519db40full};
constexpr Golden SampleEpochUpdate{1865, 0xaf2bb1545d0b30f6ull};

ProcessProfile capture(const char *Generator, uint32_t Threads) {
  const apps::WorkloadGenerator *G = apps::findWorkloadGenerator(Generator);
  EXPECT_NE(G, nullptr) << Generator;
  return G ? fixtures::replayAndCapture(*G, Threads) : ProcessProfile();
}

std::string encoded(const ProcessProfile &P) {
  std::string Out;
  encodeProcessProfile(Out, P);
  return Out;
}

TEST(WireTest, GoldenReplayProfiles) {
  for (uint32_t Threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(::testing::Message() << Threads << " threads");
    expectGolden(encoded(capture("zipf", Threads)), ZipfProfile, "zipf");
    expectGolden(encoded(capture("phase-shift", Threads)), PhaseShiftProfile,
                 "phase-shift");
  }
}

TEST(WireTest, GoldenSnapshotAndMergedProfile) {
  FleetState State;
  ASSERT_TRUE(State.fold({"agent-0", 0}, capture("zipf", 1)));
  ASSERT_TRUE(State.fold({"agent-1", 1}, capture("phase-shift", 1)));
  expectGolden(encodeSnapshot(State), SnapshotOfBoth, "snapshot");
  expectGolden(encoded(State.mergedProfile()), MergedOfBoth, "merged");
}

TEST(WireTest, GoldenEpochUpdate) {
  EpochUpdateMsg M;
  M.Profile = fixtures::sampleProfile(5);
  expectGolden(encodeEpochUpdate(M), SampleEpochUpdate, "epoch update");
}

} // namespace
