#ifndef GAUSS_STORAGE_CRC32C_H_
#define GAUSS_STORAGE_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace gauss {

// CRC-32C (Castagnoli, reflected polynomial 0x82F63B78): the page checksum
// of the Gauss-tree node format (gausstree/node.cc). Chosen over CRC-32 for
// its hardware support — SSE4.2 `crc32` on x86-64, the ARMv8 CRC extension
// on aarch64. The hardware loop runs three independent `crc32q` (or
// `crc32cx`) chains over the thirds of each 3 KiB and 768 B group and joins
// them with zero-shift tables; the tail runs as one chain. On a 2.1 GHz
// Xeon VM it checksums a 4.5 KiB node body in 0.35–0.40 us and 8 KiB in
// about 0.6 us, against 0.72 and 1.27 us for a single chain (each `crc32q`
// waiting on the last) and several microseconds for the table.
// Where neither exists, or when GAUSS_FORCE_SCALAR pins the portable paths
// (common/cpus.h), a slicing-by-8 table computes the same values.
//
// Crc32c(data, n) is the standard CRC-32C of the bytes ("123456789" gives
// 0xE3069283). Chained calls checksum a concatenation:
//   Crc32c(b, nb, Crc32c(a, na)) == Crc32c(a ++ b).
uint32_t Crc32c(const void* data, size_t n, uint32_t crc = 0);

// Name of the implementation Crc32c dispatches to: "sse4.2", "armv8" or
// "portable". Resolved once per process.
const char* Crc32cImplementation();

// The portable table implementation, callable directly so tests can check
// the hardware path against it.
uint32_t Crc32cPortable(const void* data, size_t n, uint32_t crc = 0);

}  // namespace gauss

#endif  // GAUSS_STORAGE_CRC32C_H_
