#ifndef GAUSS_STORAGE_IO_STATS_H_
#define GAUSS_STORAGE_IO_STATS_H_

#include <cstdint>

namespace gauss {

// Counters maintained by the page caches. "Physical" reads hit the device
// (these are the paper's "page accesses"); "logical" reads are buffer-pool
// fetches regardless of residency.
struct IoStats {
  uint64_t logical_reads = 0;
  uint64_t physical_reads = 0;
  uint64_t physical_writes = 0;
  uint64_t evictions = 0;

  void Reset() { *this = IoStats(); }

  IoStats operator-(const IoStats& other) const {
    IoStats d;
    d.logical_reads = logical_reads - other.logical_reads;
    d.physical_reads = physical_reads - other.physical_reads;
    d.physical_writes = physical_writes - other.physical_writes;
    d.evictions = evictions - other.evictions;
    return d;
  }

  // Merging counters across independent caches (per-shard pools).
  IoStats& operator+=(const IoStats& other) {
    logical_reads += other.logical_reads;
    physical_reads += other.physical_reads;
    physical_writes += other.physical_writes;
    evictions += other.evictions;
    return *this;
  }
};

}  // namespace gauss

#endif  // GAUSS_STORAGE_IO_STATS_H_
