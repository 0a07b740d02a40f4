#include "storage/crc32c.h"

#include <array>
#include <cstring>

#include "common/cpus.h"

#if defined(__x86_64__)
#include <nmmintrin.h>
#elif defined(__aarch64__)
#include <arm_acle.h>
#include <asm/hwcap.h>
#include <sys/auxv.h>
#endif

namespace gauss {

namespace {

constexpr uint32_t kPolynomial = 0x82F63B78u;  // reflected Castagnoli

// Slicing-by-8 tables: table[0] is the classic byte-at-a-time table,
// table[k][b] advances table[k-1][b] by one more zero byte.
using Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Tables MakeTables() {
  Tables t{};
  for (uint32_t b = 0; b < 256; ++b) {
    uint32_t c = b;
    for (int bit = 0; bit < 8; ++bit) c = (c >> 1) ^ ((c & 1u) ? kPolynomial : 0u);
    t[0][b] = c;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t b = 0; b < 256; ++b) {
      t[k][b] = (t[k - 1][b] >> 8) ^ t[0][t[k - 1][b] & 0xFFu];
    }
  }
  return t;
}

constexpr Tables kTables = MakeTables();

uint64_t Load64(const uint8_t* p) {
  uint64_t word;
  std::memcpy(&word, p, sizeof(word));
  return word;
}

#if defined(__x86_64__)
#define GAUSS_CRC32C_TARGET __attribute__((target("sse4.2")))

GAUSS_CRC32C_TARGET inline uint32_t CrcWord(uint32_t c, uint64_t word) {
  return static_cast<uint32_t>(_mm_crc32_u64(c, word));
}
GAUSS_CRC32C_TARGET inline uint32_t CrcByte(uint32_t c, uint8_t byte) {
  return _mm_crc32_u8(c, byte);
}

#elif defined(__aarch64__)
#define GAUSS_CRC32C_TARGET __attribute__((target("+crc")))

GAUSS_CRC32C_TARGET inline uint32_t CrcWord(uint32_t c, uint64_t word) {
  return __crc32cd(c, word);
}
GAUSS_CRC32C_TARGET inline uint32_t CrcByte(uint32_t c, uint8_t byte) {
  return __crc32cb(c, byte);
}

#endif

#if defined(GAUSS_CRC32C_TARGET)

// Zero-shift tables: shift[k][b] is the CRC register that b << 8k becomes
// after a fixed number of zero bytes. The register is linear in its start
// over zero input, so four lookups advance any register past them. This is
// what lets independent streams be combined: the register after A ++ B is
// the register after A, advanced past |B| zeros, xor the register of B
// from zero (Adler's crc32c.c; no carry-less multiply needed).
using ShiftTable = std::array<std::array<uint32_t, 256>, 4>;

constexpr ShiftTable MakeShiftTable(size_t bytes) {
  // The 32 one-bit registers first, each advanced a word at a time.
  std::array<uint32_t, 32> bit{};
  for (int i = 0; i < 32; ++i) {
    uint32_t c = uint32_t{1} << i;
    for (size_t left = bytes; left > 0; left -= 8) {
      c = kTables[7][c & 0xFF] ^ kTables[6][(c >> 8) & 0xFF] ^
          kTables[5][(c >> 16) & 0xFF] ^ kTables[4][c >> 24];
    }
    bit[i] = c;
  }
  ShiftTable t{};
  for (int k = 0; k < 4; ++k) {
    for (uint32_t b = 0; b < 256; ++b) {
      for (int i = 0; i < 8; ++i) {
        if ((b >> i) & 1u) t[k][b] ^= bit[8 * k + i];
      }
    }
  }
  return t;
}

uint32_t Shift(const ShiftTable& t, uint32_t c) {
  return t[0][c & 0xFF] ^ t[1][(c >> 8) & 0xFF] ^ t[2][(c >> 16) & 0xFF] ^
         t[3][c >> 24];
}

// Stream lengths of the interleaved hardware loop: a body is cut into
// groups of three equal blocks, long ones first, then short ones, and the
// rest runs as one stream. Each block length needs its own shift table.
constexpr size_t kLongBlock = 1024;
constexpr size_t kShortBlock = 256;
constexpr ShiftTable kShiftLong = MakeShiftTable(kLongBlock);
constexpr ShiftTable kShiftShort = MakeShiftTable(kShortBlock);

// Consumes whole groups of three kBlock-byte blocks from `*p`. The crc
// instruction takes three cycles and issues every cycle, so one dependent
// chain uses a third of it; three chains, one per block, run side by side
// and are joined with two shifts per group.
template <size_t kBlock>
GAUSS_CRC32C_TARGET inline uint32_t ThreeStreams(const uint8_t** p, size_t* n,
                                                 uint32_t c,
                                                 const ShiftTable& shift) {
  for (; *n >= 3 * kBlock; *n -= 3 * kBlock, *p += 3 * kBlock) {
    const uint8_t* a = *p;
    uint32_t c1 = 0, c2 = 0;
    for (size_t i = 0; i < kBlock; i += 8) {
      c = CrcWord(c, Load64(a + i));
      c1 = CrcWord(c1, Load64(a + kBlock + i));
      c2 = CrcWord(c2, Load64(a + 2 * kBlock + i));
    }
    c = Shift(shift, Shift(shift, c) ^ c1) ^ c2;
  }
  return c;
}

GAUSS_CRC32C_TARGET uint32_t Crc32cHardware(const void* data, size_t n,
                                            uint32_t crc) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t c = ~crc;
  c = ThreeStreams<kLongBlock>(&p, &n, c, kShiftLong);
  c = ThreeStreams<kShortBlock>(&p, &n, c, kShiftShort);
  for (; n >= 8; n -= 8, p += 8) c = CrcWord(c, Load64(p));
  for (; n > 0; --n) c = CrcByte(c, *p++);
  return ~c;
}

#endif

using Crc32cFn = uint32_t (*)(const void*, size_t, uint32_t);

struct Dispatch {
  Crc32cFn fn;
  const char* name;
};

const Dispatch& Active() {
  static const Dispatch active = []() -> Dispatch {
    if (!ScalarForced()) {
#if defined(__x86_64__)
      if (__builtin_cpu_supports("sse4.2")) return {&Crc32cHardware, "sse4.2"};
#elif defined(__aarch64__)
      if (::getauxval(AT_HWCAP) & HWCAP_CRC32) {
        return {&Crc32cHardware, "armv8"};
      }
#endif
    }
    return {&Crc32cPortable, "portable"};
  }();
  return active;
}

}  // namespace

uint32_t Crc32cPortable(const void* data, size_t n, uint32_t crc) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t c = ~crc;
  for (; n >= 8; n -= 8, p += 8) {
    // Little-endian word order, as the hardware instructions consume it.
    const uint64_t word = Load64(p) ^ c;
    c = kTables[7][word & 0xFF] ^ kTables[6][(word >> 8) & 0xFF] ^
        kTables[5][(word >> 16) & 0xFF] ^ kTables[4][(word >> 24) & 0xFF] ^
        kTables[3][(word >> 32) & 0xFF] ^ kTables[2][(word >> 40) & 0xFF] ^
        kTables[1][(word >> 48) & 0xFF] ^ kTables[0][word >> 56];
  }
  for (; n > 0; --n) c = (c >> 8) ^ kTables[0][(c ^ *p++) & 0xFF];
  return ~c;
}

uint32_t Crc32c(const void* data, size_t n, uint32_t crc) {
  return Active().fn(data, n, crc);
}

const char* Crc32cImplementation() { return Active().name; }

}  // namespace gauss
