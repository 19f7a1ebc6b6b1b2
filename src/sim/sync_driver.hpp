#pragma once

/// \file sync_driver.hpp
/// Driver for synchronous protocols: runs rounds until the protocol
/// reports done() or the round budget is exhausted.

#include <cstdint>
#include <utility>

#include "rng/xoshiro256.hpp"
#include "sim/concepts.hpp"
#include "sim/observers.hpp"
#include "sim/result.hpp"
#include "support/assert.hpp"

namespace plurality {

/// Runs `proto` for at most `max_rounds` rounds. The observer is invoked
/// with the round index before every round and once after the final one.
template <SyncProtocol P, typename Obs = NullObserver>
SyncRunResult run_sync(P& proto, Xoshiro256& rng, std::uint64_t max_rounds,
                       Obs&& obs = Obs{}) {
  PC_EXPECTS(max_rounds > 0);
  SyncRunResult result;
  while (result.rounds < max_rounds && !proto.done()) {
    obs(static_cast<double>(result.rounds), proto);
    proto.execute_round(rng);
    ++result.rounds;
  }
  obs(static_cast<double>(result.rounds), proto);
  detail::record_consensus(result, proto);
  return result;
}

}  // namespace plurality
