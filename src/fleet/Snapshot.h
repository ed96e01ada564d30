//===--- Snapshot.h - Aggregator snapshot persistence ----------*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Crash-safe persistence of the aggregator's fleet state (DESIGN.md §15).
///
/// On-disk form, mirroring the trace format's text-header + checksummed
/// binary-payload shape:
///
///   CHAMFLEET <version>
///   streams <n>
///   payload_bytes <len>
///   payload_digest <fnv-1a hex>
///   <blank line>
///   <payload: n stream sections in sorted (AgentId, RunSeed) order>
///
/// Each section is independently length-prefixed and digest-checked:
///   u8 tag | varint len | bytes | u64le FNV-1a(bytes)
/// so the corruption matrix (truncation at any section boundary, a single
/// bit flip anywhere, version skew) is always caught by a *typed* check —
/// the loader returns a SnapshotError and optionally quarantines the file
/// (rename to `<path>.quarantined-<error>`); it never crashes and never
/// merges partial state.
///
/// Writes go through a temp file + fflush + fsync + atomic rename: a crash
/// mid-persist leaves the previous snapshot intact (at worst plus a stale
/// `.tmp`, overwritten by the next persist).
///
//===----------------------------------------------------------------------===//

#ifndef CHAMELEON_FLEET_SNAPSHOT_H
#define CHAMELEON_FLEET_SNAPSHOT_H

#include "fleet/FleetProfile.h"

#include <string>

namespace chameleon::fleet {

inline constexpr const char *SnapshotMagic = "CHAMFLEET";
inline constexpr uint32_t SnapshotVersion = 3;
/// Hard decode bound on a snapshot payload.
inline constexpr uint64_t MaxSnapshotPayload = 1ull << 32;

enum class SnapshotError : uint8_t {
  None = 0,
  Io,               ///< unreadable / unwritable file
  BadMagic,         ///< first header line is not "CHAMFLEET <v>"
  VersionSkew,      ///< magic ok, version not ours
  BadHeader,        ///< malformed/missing header field
  TruncatedPayload, ///< payload shorter than the header declares
  SectionTruncated, ///< a section's length prefix overruns the payload
  SectionDigest,    ///< a section's bytes fail their digest
  PayloadDigest,    ///< whole-payload digest mismatch
  Decode,           ///< digests pass but a section fails structured decode
  TrailingData,     ///< bytes after the last declared section
};

/// Stable diagnostic slug ("section-digest", ...); also the quarantine
/// suffix.
const char *snapshotErrorName(SnapshotError E);

struct SnapshotLoadResult {
  SnapshotError Error = SnapshotError::None;
  std::string Message;
  /// Set when the corrupt file was renamed out of the way.
  std::string QuarantinePath;

  bool ok() const { return Error == SnapshotError::None; }
};

/// Serializes \p State to its snapshot bytes (deterministic: sorted
/// streams, bit-pattern doubles).
std::string encodeSnapshot(const FleetState &State);

/// Structured decode of \p Bytes into \p Out (replaces Out's contents).
SnapshotLoadResult decodeSnapshot(const std::string &Bytes, FleetState &Out);

/// Writes \p State to \p Path via temp + atomic rename. Contains the
/// `fleet.snapshot.write` / `fleet.snapshot.rename` fault sites: under an
/// armed FailScope an injected fault unwinds out of here, at worst leaving
/// a stale temp file. Returns false + \p Err on real IO failure.
bool saveSnapshot(const std::string &Path, const FleetState &State,
                  std::string &Err);

/// Loads \p Path into \p Out. A missing file is SnapshotError::Io with a
/// "no such file" message and is never quarantined. Any other failure
/// leaves \p Out empty and — when \p QuarantineOnError — renames the file
/// to `<path>.quarantined-<error>` so a restarting aggregator never loops
/// on poison. Never throws, never crashes.
SnapshotLoadResult loadSnapshot(const std::string &Path, FleetState &Out,
                                bool QuarantineOnError);

} // namespace chameleon::fleet

#endif // CHAMELEON_FLEET_SNAPSHOT_H
