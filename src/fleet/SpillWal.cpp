//===--- SpillWal.cpp - Agent-side durable spill log ---------------------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "fleet/SpillWal.h"

#include "fleet/WireFormat.h"
#include "support/Wire.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include <unistd.h>

using namespace chameleon;
using namespace chameleon::fleet;

static std::string walRecordBytes(uint64_t Epoch,
                                  const std::string &MessagePayload) {
  std::string Inner;
  putVarint(Inner, Epoch);
  Inner.append(MessagePayload);
  std::string Framed;
  frameMessage(Framed, Inner);
  return Framed;
}

bool SpillWal::append(uint64_t Epoch, const std::string &MessagePayload,
                      bool Sync, std::string &Err) {
  std::string Bytes = walRecordBytes(Epoch, MessagePayload);
  std::FILE *F = std::fopen(Path.c_str(), "ab");
  if (!F) {
    Err = Path + ": " + std::strerror(errno);
    return false;
  }
  bool Ok = std::fwrite(Bytes.data(), 1, Bytes.size(), F) == Bytes.size();
  if (Ok && std::fflush(F) != 0)
    Ok = false;
  if (Ok && Sync && ::fsync(fileno(F)) != 0)
    Ok = false;
  if (!Ok)
    Err = Path + ": short write";
  std::fclose(F);
  return Ok;
}

bool SpillWal::load(const std::string &Path, LoadResult &Out,
                    std::string &Err) {
  Out = LoadResult();
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return true; // no WAL yet: nothing spilled
  std::ostringstream Ss;
  Ss << In.rdbuf();
  if (In.bad()) {
    Err = Path + ": read error";
    return false;
  }
  std::string Buf = Ss.str();

  size_t Pos = 0;
  for (;;) {
    if (Pos == Buf.size())
      return true; // clean end
    std::string Payload;
    FrameStatus S = extractFrame(Buf, Pos, Payload);
    if (S != FrameStatus::Ok) {
      // Torn or corrupted tail: keep what decoded, report the rest.
      Out.TornBytes = Buf.size() - Pos;
      return true;
    }
    ByteReader R(Payload);
    Record Rec;
    if (!R.varint(Rec.Epoch)) {
      Out.TornBytes = Buf.size() - Pos;
      return true;
    }
    R.bytes(Rec.MessagePayload, R.remaining());
    Out.Records.push_back(std::move(Rec));
  }
}

bool SpillWal::compact(uint64_t DurableEpoch, std::string &Err) {
  LoadResult Loaded;
  if (!load(Path, Loaded, Err))
    return false;
  std::string Kept;
  size_t KeptCount = 0;
  for (const Record &Rec : Loaded.Records) {
    if (Rec.Epoch <= DurableEpoch)
      continue;
    Kept += walRecordBytes(Rec.Epoch, Rec.MessagePayload);
    ++KeptCount;
  }
  if (KeptCount == Loaded.Records.size() && Loaded.TornBytes == 0)
    return true; // nothing to drop, no tear to trim

  std::string Tmp = Path + ".tmp";
  std::FILE *F = std::fopen(Tmp.c_str(), "wb");
  if (!F) {
    Err = Tmp + ": " + std::strerror(errno);
    return false;
  }
  bool Ok = Kept.empty() ||
            std::fwrite(Kept.data(), 1, Kept.size(), F) == Kept.size();
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
  if (std::rename(Tmp.c_str(), Path.c_str()) != 0) {
    Err = Path + ": rename: " + std::strerror(errno);
    std::remove(Tmp.c_str());
    return false;
  }
  return true;
}
