//===--- WireFormat.h - Agent/aggregator wire protocol ---------*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The framed message protocol between chameleon-agentd and chameleon-aggd
/// (DESIGN.md §15). Every message travels in one checksummed frame:
///
///   u32le magic | varint payload-length | payload | u64le FNV-1a(payload)
///
/// so a receiver over any byte stream (in-memory pipe, AF_UNIX socket, a
/// WAL file) can resynchronise-or-reject deterministically: a frame either
/// arrives whole and digest-clean or the connection is poisoned — there is
/// no partial-apply state. Payloads are version-tagged at the Hello
/// handshake; a version-skewed peer is rejected cleanly.
///
/// The protocol is deliberately tiny:
///   agent -> aggregator: Hello{AgentId, RunSeed}, EpochUpdate{profile}
///   aggregator -> agent: HelloAck{DurableEpoch}, Ack{Seen, Durable}
///
/// `DurableEpoch` is the robustness pivot: the highest epoch of that
/// stream included in a *persisted* snapshot. The agent trusts nothing
/// less — its WAL keeps every committed epoch above the durable mark, so
/// an aggregator crash between receive and persist loses nothing.
///
//===----------------------------------------------------------------------===//

#ifndef CHAMELEON_FLEET_WIREFORMAT_H
#define CHAMELEON_FLEET_WIREFORMAT_H

#include "fleet/FleetProfile.h"
#include "support/Wire.h"

#include <cstdint>
#include <string>

namespace chameleon::fleet {

inline constexpr uint32_t FrameMagic = 0x544C4643; // "CFLT" little-endian
inline constexpr uint32_t WireVersion = 3;
/// Hard decode bound on one frame's payload.
inline constexpr uint64_t MaxFramePayload = 256ull << 20;

enum class MsgKind : uint8_t {
  Hello = 1,
  HelloAck = 2,
  EpochUpdate = 3,
  Ack = 4,
};

struct HelloMsg {
  uint32_t Version = WireVersion;
  std::string AgentId;
  uint64_t RunSeed = 0;
};

struct HelloAckMsg {
  uint32_t Version = WireVersion;
  uint64_t DurableEpoch = 0;
};

struct EpochUpdateMsg {
  ProcessProfile Profile; // Profile.Epoch is the commit sequence number
};

struct AckMsg {
  uint64_t SeenEpoch = 0;    ///< highest epoch received on this stream
  uint64_t DurableEpoch = 0; ///< highest epoch persisted to a snapshot
};

/// One decoded message (tagged union, decoded fields valid per Kind).
struct Message {
  MsgKind Kind = MsgKind::Hello;
  HelloMsg Hello;
  HelloAckMsg HelloAck;
  EpochUpdateMsg EpochUpdate;
  AckMsg Ack;
};

/// -- Payload encode/decode -------------------------------------------------

std::string encodeHello(const HelloMsg &M);
std::string encodeHelloAck(const HelloAckMsg &M);
std::string encodeEpochUpdate(const EpochUpdateMsg &M);
std::string encodeAck(const AckMsg &M);

/// Decodes one payload. Returns false with a diagnostic in \p Err for an
/// unknown kind, truncated fields, or trailing garbage.
bool decodeMessage(const std::string &Payload, Message &Out,
                   std::string &Err);

/// -- Framing ---------------------------------------------------------------

/// Appends the framed form of \p Payload to \p Out.
void frameMessage(std::string &Out, const std::string &Payload);

enum class FrameStatus : uint8_t {
  Ok,         ///< one whole digest-clean frame extracted
  Incomplete, ///< need more bytes; nothing consumed past \p Pos
  BadMagic,   ///< stream poisoned: bytes at \p Pos are not a frame
  TooLarge,   ///< declared payload length exceeds MaxFramePayload
  BadDigest,  ///< payload bytes do not match the trailing digest
};

const char *frameStatusName(FrameStatus S);

/// Extracts the next frame from \p Buf starting at \p Pos. On Ok, \p Pos
/// advances past the frame and \p Payload holds its payload. On
/// Incomplete, \p Pos is unchanged. On the error statuses \p Pos is
/// unchanged — the receiver must drop the connection (there is no
/// resynchronisation within a poisoned stream).
FrameStatus extractFrame(const std::string &Buf, size_t &Pos,
                         std::string &Payload);

} // namespace chameleon::fleet

#endif // CHAMELEON_FLEET_WIREFORMAT_H
