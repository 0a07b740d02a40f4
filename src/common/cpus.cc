#include "common/cpus.h"

#include <sched.h>

#include <cstdlib>
#include <thread>

namespace gauss {

size_t UsableCpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    const int count = CPU_COUNT(&allowed);
    if (count > 0) return static_cast<size_t>(count);
  }
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware > 0 ? hardware : 1;
}

bool ScalarForced() {
  const char* force = std::getenv("GAUSS_FORCE_SCALAR");
  return force != nullptr && force[0] != '\0' &&
         !(force[0] == '0' && force[1] == '\0');
}

}  // namespace gauss
