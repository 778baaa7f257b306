#include "common/affinity.hpp"

#include <thread>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace ff {

std::size_t visible_cpu_count() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::size_t>(n);
  }
#endif
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

bool pin_current_thread_to_core(std::size_t core) {
#if defined(__linux__)
  const std::size_t n = visible_cpu_count();
  if (n == 0) return false;
  // Pin to the core'th *allowed* CPU, so masks restricted by cgroups (CI
  // containers) still get a valid target.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return false;
  std::size_t want = core % n;
  int target = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    if (want == 0) {
      target = cpu;
      break;
    }
    --want;
  }
  if (target < 0) return false;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(target, &one);
  return pthread_setaffinity_np(pthread_self(), sizeof(one), &one) == 0;
#else
  (void)core;
  return false;
#endif
}

}  // namespace ff
