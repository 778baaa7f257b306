// The CPUs this process may run on, as the OS reports them. A
// cgroup-limited container often allows fewer CPUs than the host has, so
// this is the count a benchmark should record next to its timings.
#pragma once

#include <cstddef>

namespace ff {

/// Number of CPUs the calling thread may run on right now (the affinity
/// mask cardinality where available, else std::thread::hardware_concurrency,
/// else 1). This is what a cgroup-limited CI container actually sees.
std::size_t visible_cpu_count();

}  // namespace ff
