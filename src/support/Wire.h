//===--- Wire.h - Byte-level codec primitives ------------------*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The byte codec every binary format of the project shares: the recorded
/// trace (apps/TraceFormat.cpp), the fleet wire protocol, the agent's
/// spill WAL, and the aggregator's snapshot files (DESIGN.md §14, §15).
/// FNV-1a digests, LEB128 varints, zigzag for signed values, little-endian
/// fixed words, and a fully bounds-checked reader that fails closed —
/// truncated or corrupted input produces a diagnostic, never undefined
/// behaviour.
///
/// Doubles cross the wire as their IEEE-754 bit patterns (u64, little
/// endian), never as decimal text: the fleet's merge-determinism guarantee
/// (byte-identical merged profiles) requires every RunningStat moment to
/// round-trip bit-exactly.
///
//===----------------------------------------------------------------------===//

#ifndef CHAMELEON_SUPPORT_WIRE_H
#define CHAMELEON_SUPPORT_WIRE_H

#include <cstdint>
#include <cstring>
#include <string>

namespace chameleon {

inline constexpr uint64_t FnvOffset = 0xcbf29ce484222325ULL;
inline constexpr uint64_t FnvPrime = 0x100000001b3ULL;

/// FNV-1a over a byte run, chained through \p H.
inline uint64_t fnv1a(uint64_t H, const void *Data, size_t Len) {
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I < Len; ++I) {
    H ^= P[I];
    H *= FnvPrime;
  }
  return H;
}

inline uint64_t fnv1a(const std::string &Bytes) {
  return fnv1a(FnvOffset, Bytes.data(), Bytes.size());
}

/// LEB128 unsigned varint.
inline void putVarint(std::string &Out, uint64_t V) {
  while (V >= 0x80) {
    Out.push_back(static_cast<char>((V & 0x7F) | 0x80));
    V >>= 7;
  }
  Out.push_back(static_cast<char>(V));
}

/// Zigzag mapping for signed values carried in varints.
inline uint64_t zigzag(int64_t V) {
  return (static_cast<uint64_t>(V) << 1) ^ static_cast<uint64_t>(V >> 63);
}
inline int64_t unzigzag(uint64_t V) {
  return static_cast<int64_t>((V >> 1) ^ (~(V & 1) + 1));
}

/// Little-endian fixed 64-bit word.
inline void putU64Le(std::string &Out, uint64_t V) {
  for (int I = 0; I < 8; ++I)
    Out.push_back(static_cast<char>((V >> (8 * I)) & 0xFF));
}

/// Double as its IEEE-754 bit pattern (bit-exact round trip).
inline void putF64(std::string &Out, double V) {
  uint64_t Bits;
  std::memcpy(&Bits, &V, sizeof(Bits));
  putU64Le(Out, Bits);
}

/// Varint length prefix + raw bytes.
inline void putStr(std::string &Out, const std::string &S) {
  putVarint(Out, S.size());
  Out.append(S);
}

/// Bounds-checked sequential reader over a byte buffer. Every accessor
/// returns false (and sets the failure flag) instead of reading past the
/// end; callers check ok() once at the end of a decode.
class ByteReader {
public:
  ByteReader(const char *Data, size_t Len) : P(Data), Len(Len) {}
  explicit ByteReader(const std::string &Bytes)
      : ByteReader(Bytes.data(), Bytes.size()) {}

  bool ok() const { return !Failed; }
  size_t pos() const { return Pos; }
  size_t remaining() const { return Len - Pos; }
  bool atEnd() const { return Pos == Len; }

  bool u8(uint8_t &Out) {
    if (Pos >= Len)
      return fail();
    Out = static_cast<uint8_t>(P[Pos++]);
    return true;
  }

  bool varint(uint64_t &Out) {
    Out = 0;
    for (unsigned Shift = 0; Shift < 64; Shift += 7) {
      uint8_t B;
      if (!u8(B))
        return false;
      Out |= static_cast<uint64_t>(B & 0x7F) << Shift;
      if (!(B & 0x80))
        return true;
    }
    return fail(); // > 10 continuation bytes: not a valid varint
  }

  bool u64Le(uint64_t &Out) {
    if (Len - Pos < 8)
      return fail();
    Out = 0;
    for (int I = 0; I < 8; ++I)
      Out |= static_cast<uint64_t>(static_cast<unsigned char>(P[Pos + I]))
             << (8 * I);
    Pos += 8;
    return true;
  }

  bool f64(double &Out) {
    uint64_t Bits;
    if (!u64Le(Bits))
      return false;
    std::memcpy(&Out, &Bits, sizeof(Out));
    return true;
  }

  /// Length-prefixed string, capped to \p MaxLen (decode bound, not a
  /// protocol limit — rejects lengths implied by corrupted prefixes).
  bool str(std::string &Out, size_t MaxLen) {
    uint64_t N;
    if (!varint(N))
      return false;
    if (N > MaxLen || N > Len - Pos)
      return fail();
    Out.assign(P + Pos, static_cast<size_t>(N));
    Pos += static_cast<size_t>(N);
    return true;
  }

  /// Raw byte run of exactly \p N bytes.
  bool bytes(std::string &Out, size_t N) {
    if (N > Len - Pos)
      return fail();
    Out.assign(P + Pos, N);
    Pos += N;
    return true;
  }

  bool skip(size_t N) {
    if (N > Len - Pos)
      return fail();
    Pos += N;
    return true;
  }

private:
  bool fail() {
    Failed = true;
    return false;
  }

  const char *P;
  size_t Len;
  size_t Pos = 0;
  bool Failed = false;
};

} // namespace chameleon

#endif // CHAMELEON_SUPPORT_WIRE_H
