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

__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(const void* data,
                                                        size_t n,
                                                        uint32_t crc) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint64_t c = ~crc;
  for (; n >= 8; n -= 8, p += 8) c = _mm_crc32_u64(c, Load64(p));
  auto c32 = static_cast<uint32_t>(c);
  for (; n > 0; --n) c32 = _mm_crc32_u8(c32, *p++);
  return ~c32;
}

#elif defined(__aarch64__)

__attribute__((target("+crc"))) uint32_t Crc32cArmv8(const void* data,
                                                      size_t n, uint32_t crc) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t c = ~crc;
  for (; n >= 8; n -= 8, p += 8) c = __crc32cd(c, Load64(p));
  for (; n > 0; --n) c = __crc32cb(c, *p++);
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
      if (__builtin_cpu_supports("sse4.2")) return {&Crc32cSse42, "sse4.2"};
#elif defined(__aarch64__)
      if (::getauxval(AT_HWCAP) & HWCAP_CRC32) return {&Crc32cArmv8, "armv8"};
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
