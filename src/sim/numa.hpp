#pragma once

/// \file numa.hpp
/// NUMA-aware placement for the sharded engine's hot arrays, behind the
/// `--numa=` knob:
///
///   - off        — historical behavior: the shards write the table's
///                  own slab (the live buffer) and the main thread
///                  allocates and initializes the snapshot, so on a
///                  multi-socket box every page lands on the
///                  allocating thread's node;
///   - firsttouch — a fresh live slab and the snapshot (and each
///                  shard's delta row) are allocated *uninitialized*
///                  and first written in a parallel init epoch, so each
///                  shard's pages land on the node of whichever thread
///                  claimed that shard; the table then adopts the fresh
///                  slab as its own, once per run;
///   - bind       — firsttouch plus explicit pinning of the process
///                  executor's workers: worker w is pinned to CPU
///                  floor((w + 1) * ncpu / (workers + 1)), the calling
///                  thread counting as lane 0 and staying unpinned.
///
/// Shards are claimed dynamically each epoch (jobs::Executor::
/// parallel_for), so the thread that first-touched a shard's pages is
/// not necessarily the one that runs it later; bind keeps every worker
/// on one CPU, which keeps its own pages local. Pins outlive the run:
/// they last as long as the executor's workers (until --jobs= changes).
///
/// All three modes are trajectory-neutral: placement and pinning never
/// touch an RNG stream, so results stay bit-identical across modes (the
/// same contract --jobs= has). Pinning uses pthread_setaffinity_np and
/// is Linux-only; off-Linux, bind degrades to firsttouch with no error —
/// the knob is a performance hint, not a correctness switch.

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "support/assert.hpp"

namespace plurality {

enum class NumaMode : std::uint8_t {
  kOff,         ///< main-thread allocation + initialization (historical)
  kFirstTouch,  ///< shard-local arrays first written by the owning lane
  kBind,        ///< first-touch + explicit lane-to-CPU pinning (Linux)
};

inline const char* numa_mode_name(NumaMode mode) noexcept {
  switch (mode) {
    case NumaMode::kOff: return "off";
    case NumaMode::kFirstTouch: return "firsttouch";
    case NumaMode::kBind: return "bind";
  }
  return "unknown";
}

/// Parses a `--numa=` value; throws ContractViolation (naming the flag)
/// on anything unrecognized.
inline NumaMode parse_numa_mode(const std::string& name) {
  if (name == "off") return NumaMode::kOff;
  if (name == "firsttouch") return NumaMode::kFirstTouch;
  if (name == "bind") return NumaMode::kBind;
  throw ContractViolation("--numa=" + name +
                          " is not one of off|firsttouch|bind");
}

namespace numa {

/// True when explicit thread pinning is available on this platform
/// (Linux). `bind` silently behaves like `firsttouch` elsewhere.
bool bind_supported() noexcept;

/// Pins worker w of `workers` to one CPU, spreading workers + 1 lanes
/// evenly over the online CPUs (lane k -> CPU floor(k * ncpu / lanes),
/// worker w is lane w + 1, lane 0 is the unpinned caller). No-op
/// off-Linux or when pinning fails (a restricted affinity mask is not
/// an error — the knob is best-effort).
void pin_workers(
    const std::vector<std::thread::native_handle_type>& workers) noexcept;

}  // namespace numa

}  // namespace plurality
