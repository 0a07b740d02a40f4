#ifndef GAUSS_COMMON_CPUS_H_
#define GAUSS_COMMON_CPUS_H_

#include <cstddef>

namespace gauss {

// Number of CPUs this process may run on: the size of its affinity mask
// (so `taskset -c 0,1` or a cgroup cpuset of two CPUs reads 2), falling
// back to std::thread::hardware_concurrency() where the mask cannot be
// read. Never 0. Sizes every "use the machine" default: serving workers
// when ServeOptions::num_workers is 0, and GaussTree::BulkLoad's threads.
size_t UsableCpus();

// True when the environment sets GAUSS_FORCE_SCALAR to anything but "" or
// "0": every runtime-dispatched hot path (the batch scoring kernels of
// math/kernels.h, the CRC32C of storage/crc32c.h) then runs its portable
// reference instead of the widest instructions the CPU offers. Read once
// per call; callers cache their dispatch decision.
bool ScalarForced();

}  // namespace gauss

#endif  // GAUSS_COMMON_CPUS_H_
