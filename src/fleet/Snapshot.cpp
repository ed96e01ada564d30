//===--- Snapshot.cpp - Aggregator snapshot persistence ------------------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "fleet/Snapshot.h"

#include "support/FaultInjector.h"
#include "support/Wire.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include <unistd.h>

using namespace chameleon;
using namespace chameleon::fleet;

namespace {
constexpr uint8_t StreamSectionTag = 0x01;
} // namespace

const char *fleet::snapshotErrorName(SnapshotError E) {
  switch (E) {
  case SnapshotError::None:
    return "none";
  case SnapshotError::Io:
    return "io";
  case SnapshotError::BadMagic:
    return "bad-magic";
  case SnapshotError::VersionSkew:
    return "version-skew";
  case SnapshotError::BadHeader:
    return "bad-header";
  case SnapshotError::TruncatedPayload:
    return "truncated-payload";
  case SnapshotError::SectionTruncated:
    return "section-truncated";
  case SnapshotError::SectionDigest:
    return "section-digest";
  case SnapshotError::PayloadDigest:
    return "payload-digest";
  case SnapshotError::Decode:
    return "decode";
  case SnapshotError::TrailingData:
    return "trailing-data";
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// Encode
//===----------------------------------------------------------------------===//

static std::string hexU64(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

std::string fleet::encodeSnapshot(const FleetState &State) {
  std::string Payload;
  for (const auto &[Key, S] : State.streams()) {
    std::string Section;
    putStr(Section, Key.AgentId);
    putU64Le(Section, Key.RunSeed);
    encodeProcessProfile(Section, S.Latest);

    Payload.push_back(static_cast<char>(StreamSectionTag));
    putVarint(Payload, Section.size());
    Payload.append(Section);
    putU64Le(Payload, fnv1a(Section));
  }

  std::string Out;
  Out += SnapshotMagic;
  Out += ' ';
  Out += std::to_string(SnapshotVersion);
  Out += '\n';
  Out += "streams " + std::to_string(State.streams().size()) + '\n';
  Out += "payload_bytes " + std::to_string(Payload.size()) + '\n';
  Out += "payload_digest " + hexU64(fnv1a(Payload)) + '\n';
  Out += '\n';
  Out += Payload;
  return Out;
}

//===----------------------------------------------------------------------===//
// Decode
//===----------------------------------------------------------------------===//

static SnapshotLoadResult loadFail(SnapshotError E, std::string Msg) {
  SnapshotLoadResult R;
  R.Error = E;
  R.Message = std::move(Msg);
  return R;
}

/// Reads one "name value" header line; false when the line is missing or
/// not of that shape.
static bool headerLine(const std::string &Bytes, size_t &Pos,
                       const std::string &Name, std::string &Value) {
  size_t Eol = Bytes.find('\n', Pos);
  if (Eol == std::string::npos)
    return false;
  std::string Line = Bytes.substr(Pos, Eol - Pos);
  if (Line.size() < Name.size() + 2 || Line.compare(0, Name.size(), Name) != 0 ||
      Line[Name.size()] != ' ')
    return false;
  Value = Line.substr(Name.size() + 1);
  Pos = Eol + 1;
  return true;
}

static bool parseU64(const std::string &S, uint64_t &Out, int Base = 10) {
  if (S.empty())
    return false;
  errno = 0;
  char *End = nullptr;
  unsigned long long V = std::strtoull(S.c_str(), &End, Base);
  if (errno != 0 || End != S.c_str() + S.size())
    return false;
  Out = V;
  return true;
}

SnapshotLoadResult fleet::decodeSnapshot(const std::string &Bytes,
                                         FleetState &Out) {
  Out = FleetState();

  // Magic + version line.
  size_t Pos = 0;
  size_t Eol = Bytes.find('\n');
  if (Eol == std::string::npos)
    return loadFail(SnapshotError::BadMagic, "missing magic line");
  std::string First = Bytes.substr(0, Eol);
  const std::string Magic = std::string(SnapshotMagic) + ' ';
  if (First.compare(0, Magic.size(), Magic) != 0)
    return loadFail(SnapshotError::BadMagic, "not a fleet snapshot");
  uint64_t Version;
  if (!parseU64(First.substr(Magic.size()), Version))
    return loadFail(SnapshotError::BadMagic, "unparseable version");
  if (Version != SnapshotVersion)
    return loadFail(SnapshotError::VersionSkew,
                    "snapshot version " + std::to_string(Version) +
                        ", expected " + std::to_string(SnapshotVersion));
  Pos = Eol + 1;

  std::string StreamsStr, LenStr, DigestStr;
  uint64_t NStreams, PayloadLen, PayloadDigest;
  if (!headerLine(Bytes, Pos, "streams", StreamsStr) ||
      !parseU64(StreamsStr, NStreams))
    return loadFail(SnapshotError::BadHeader, "bad 'streams' header");
  if (!headerLine(Bytes, Pos, "payload_bytes", LenStr) ||
      !parseU64(LenStr, PayloadLen) || PayloadLen > MaxSnapshotPayload)
    return loadFail(SnapshotError::BadHeader, "bad 'payload_bytes' header");
  if (!headerLine(Bytes, Pos, "payload_digest", DigestStr) ||
      !parseU64(DigestStr, PayloadDigest, 16))
    return loadFail(SnapshotError::BadHeader, "bad 'payload_digest' header");
  if (Pos >= Bytes.size() || Bytes[Pos] != '\n')
    return loadFail(SnapshotError::BadHeader, "missing header terminator");
  ++Pos;

  // Whole payload: length, then digest.
  if (Bytes.size() - Pos < PayloadLen)
    return loadFail(SnapshotError::TruncatedPayload,
                    "payload truncated: have " +
                        std::to_string(Bytes.size() - Pos) + " of " +
                        std::to_string(PayloadLen) + " bytes");
  if (Bytes.size() - Pos > PayloadLen)
    return loadFail(SnapshotError::TrailingData, "bytes after payload");
  if (fnv1a(FnvOffset, Bytes.data() + Pos, static_cast<size_t>(PayloadLen)) !=
      PayloadDigest)
    return loadFail(SnapshotError::PayloadDigest, "payload digest mismatch");

  // Sections.
  ByteReader R(Bytes.data() + Pos, static_cast<size_t>(PayloadLen));
  for (uint64_t I = 0; I < NStreams; ++I) {
    uint8_t Tag;
    uint64_t Len;
    if (!R.u8(Tag) || Tag != StreamSectionTag)
      return loadFail(SnapshotError::SectionTruncated,
                      "section " + std::to_string(I) + ": bad tag");
    if (!R.varint(Len) || Len > R.remaining())
      return loadFail(SnapshotError::SectionTruncated,
                      "section " + std::to_string(I) + ": length overruns");
    std::string Section;
    R.bytes(Section, static_cast<size_t>(Len));
    uint64_t Digest;
    if (!R.u64Le(Digest))
      return loadFail(SnapshotError::SectionTruncated,
                      "section " + std::to_string(I) + ": missing digest");
    if (fnv1a(Section) != Digest)
      return loadFail(SnapshotError::SectionDigest,
                      "section " + std::to_string(I) + ": digest mismatch");

    ByteReader SR(Section);
    StreamKey Key;
    ProcessProfile Profile;
    std::string Err;
    if (!SR.str(Key.AgentId, MaxLabelLen) || !SR.u64Le(Key.RunSeed) ||
        !decodeProcessProfile(SR, Profile, Err) || !SR.atEnd())
      return loadFail(SnapshotError::Decode,
                      "section " + std::to_string(I) + ": " +
                          (Err.empty() ? "malformed stream record" : Err));
    Out.restore(Key, std::move(Profile));
  }
  if (!R.atEnd())
    return loadFail(SnapshotError::TrailingData, "bytes after last section");
  return SnapshotLoadResult();
}

//===----------------------------------------------------------------------===//
// File IO
//===----------------------------------------------------------------------===//

bool fleet::saveSnapshot(const std::string &Path, const FleetState &State,
                         std::string &Err) {
  std::string Bytes = encodeSnapshot(State);
  std::string Tmp = Path + ".tmp";
  CHAM_FAULT("fleet.snapshot.write");
  std::FILE *F = std::fopen(Tmp.c_str(), "wb");
  if (!F) {
    Err = Tmp + ": " + std::strerror(errno);
    return false;
  }
  bool Ok = std::fwrite(Bytes.data(), 1, Bytes.size(), F) == Bytes.size();
  if (Ok && std::fflush(F) != 0)
    Ok = false;
  if (Ok && ::fsync(fileno(F)) != 0)
    Ok = false;
  std::fclose(F);
  if (!Ok) {
    Err = Tmp + ": short write";
    std::remove(Tmp.c_str());
    return false;
  }
  CHAM_FAULT("fleet.snapshot.rename");
  if (std::rename(Tmp.c_str(), Path.c_str()) != 0) {
    Err = Path + ": rename: " + std::strerror(errno);
    std::remove(Tmp.c_str());
    return false;
  }
  return true;
}

SnapshotLoadResult fleet::loadSnapshot(const std::string &Path,
                                       FleetState &Out,
                                       bool QuarantineOnError) {
  Out = FleetState();
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return loadFail(SnapshotError::Io, Path + ": " + std::strerror(errno));
  std::ostringstream Ss;
  Ss << In.rdbuf();
  if (In.bad())
    return loadFail(SnapshotError::Io, Path + ": read error");

  SnapshotLoadResult R = decodeSnapshot(Ss.str(), Out);
  if (!R.ok()) {
    Out = FleetState();
    if (QuarantineOnError) {
      std::string QPath =
          Path + ".quarantined-" + snapshotErrorName(R.Error);
      if (std::rename(Path.c_str(), QPath.c_str()) == 0)
        R.QuarantinePath = QPath;
    }
  }
  return R;
}
