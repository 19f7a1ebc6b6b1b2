#include "sim/numa.hpp"

#include <algorithm>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

namespace plurality::numa {

bool bind_supported() noexcept {
#ifdef __linux__
  return true;
#else
  return false;
#endif
}

void pin_workers([[maybe_unused]] const std::vector<
                 std::thread::native_handle_type>& workers) noexcept {
#ifdef __linux__
  const std::uint64_t lanes = workers.size() + 1;
  const std::uint64_t ncpu =
      std::max(1u, std::thread::hardware_concurrency());
  for (std::size_t w = 0; w < workers.size(); ++w) {
    const std::uint64_t cpu = ((w + 1) * ncpu / lanes) % ncpu;
    cpu_set_t mask;
    CPU_ZERO(&mask);
    CPU_SET(static_cast<int>(cpu), &mask);
    // Best-effort: a failure (restricted cgroup mask, exotic topology)
    // leaves the thread on the scheduler's choice, which is the `off`
    // behavior — never an error.
    (void)pthread_setaffinity_np(workers[w], sizeof(mask), &mask);
  }
#endif
}

}  // namespace plurality::numa
