// Unit tests for the discrete-event queue: time ordering, the
// insertion-order tie-break that makes continuous runs deterministic,
// capacity reservation, and the move-out pop contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "sim/event_queue.hpp"
#include "support/assert.hpp"

namespace plurality {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue<int> q(1.0);
  q.push(3.0, 30);
  q.push(1.0, 10);
  q.push(2.0, 20);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_DOUBLE_EQ(q.next_time(), 1.0);
  EXPECT_EQ(q.pop().payload, 10);
  EXPECT_EQ(q.pop().payload, 20);
  EXPECT_EQ(q.pop().payload, 30);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, EqualTimesPopInInsertionOrder) {
  EventQueue<std::string> q(1.0);
  q.push(1.0, "first");
  q.push(1.0, "second");
  q.push(1.0, "third");
  EXPECT_EQ(q.pop().payload, "first");
  EXPECT_EQ(q.pop().payload, "second");
  EXPECT_EQ(q.pop().payload, "third");
}

TEST(EventQueue, InterleavedPushPop) {
  EventQueue<int> q(1.0);
  q.push(5.0, 5);
  q.push(1.0, 1);
  EXPECT_EQ(q.pop().payload, 1);
  q.push(2.0, 2);
  q.push(7.0, 7);
  EXPECT_EQ(q.pop().payload, 2);
  EXPECT_EQ(q.pop().payload, 5);
  EXPECT_EQ(q.pop().payload, 7);
}

TEST(EventQueue, EventCarriesItsTime) {
  EventQueue<int> q(1.0);
  q.push(2.5, 42);
  const auto e = q.pop();
  EXPECT_DOUBLE_EQ(e.time, 2.5);
  EXPECT_EQ(e.payload, 42);
}

TEST(EventQueue, ManyEventsStaySorted) {
  EventQueue<std::uint64_t> q(1.0);
  // Deterministic scramble of times.
  for (std::uint64_t i = 0; i < 1000; ++i) {
    q.push(static_cast<double>((i * 7919) % 1000), i);
  }
  double prev = -1.0;
  while (!q.empty()) {
    const auto e = q.pop();
    EXPECT_GE(e.time, prev);
    prev = e.time;
  }
}

TEST(EventQueue, ContractsOnEmptyAndNegativeTime) {
  EventQueue<int> q(1.0);
  EXPECT_THROW(q.pop(), ContractViolation);
  EXPECT_THROW(q.next_time(), ContractViolation);
  EXPECT_THROW(q.push(-1.0, 0), ContractViolation);
}

TEST(EventQueue, MoveOnlyPayloadsMoveThroughPopWithoutCopies) {
  EventQueue<std::unique_ptr<int>> q(1.0);
  q.push(3.0, std::make_unique<int>(30));
  q.push(1.0, std::make_unique<int>(10));
  q.push(2.0, std::make_unique<int>(20));
  EXPECT_EQ(*q.pop().payload, 10);
  EXPECT_EQ(*q.pop().payload, 20);
  EXPECT_EQ(*q.pop().payload, 30);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, MixedTiesAndTimesStayStableUnderChurn) {
  // Many colliding times interleaved with pops must still come out in
  // (time, insertion order); each payload is its insertion counter.
  EventQueue<std::uint64_t> q(1.0);
  std::uint64_t seq = 0;
  for (std::uint64_t round = 0; round < 50; ++round) {
    for (std::uint64_t i = 0; i < 20; ++i) {
      q.push(static_cast<double>((i * 13) % 5), seq++);
    }
    // Drain half; later rounds re-fill around the survivors.
    double prev_time = -1.0;
    std::uint64_t prev_seq = 0;
    for (int drain = 0; drain < 10; ++drain) {
      const auto e = q.pop();
      if (e.time == prev_time) {
        EXPECT_GT(e.payload, prev_seq);
      }
      EXPECT_GE(e.time, prev_time);
      prev_time = e.time;
      prev_seq = e.payload;
    }
  }
  double prev = -1.0;
  while (!q.empty()) {
    const auto e = q.pop();
    EXPECT_GE(e.time, prev);
    prev = e.time;
  }
}

TEST(EventQueue, RateHintIsValidated) {
  EXPECT_THROW(EventQueue<int>(0.0), ContractViolation);
  EXPECT_THROW(EventQueue<int>(-1.0), ContractViolation);
}

TEST(EventQueue, MovedQueueKeepsItsEvents) {
  EventQueue<std::unique_ptr<int>> q(1.0);
  for (int i = 0; i < 100; ++i) {
    q.push(static_cast<double>((i * 37) % 100), std::make_unique<int>(i));
  }
  EXPECT_EQ(*q.pop().payload, 0);
  EventQueue<std::unique_ptr<int>> moved(std::move(q));
  EventQueue<std::unique_ptr<int>> assigned(1e6);
  assigned.push(0.5, std::make_unique<int>(-1));
  assigned = std::move(moved);
  EXPECT_EQ(assigned.size(), 99u);
  double prev = -1.0;
  while (!assigned.empty()) {
    const auto e = assigned.pop();
    EXPECT_EQ(*e.payload, (static_cast<int>(e.time) * 73) % 100);
    EXPECT_GT(e.time, prev);
    prev = e.time;
  }
}

// ---- Differential test: the queue against a reference ordered set of
// (time, insertion counter), over seeded random push / peek / pop
// streams. Push times mix: delays from the current clock (plain and
// quantized, so many times are equal), pushes at the clock itself,
// pushes before the last peeked head and before the clock, and pushes
// far past the ring's span (overflow), with periodic full drains. Each
// stream runs with the rate hint right and off by 10^4 either way; at
// the high hint a slot is short enough that the clock laps the ring
// dozens of times.

template <typename Payload, typename Make, typename Read>
void run_differential(std::uint64_t seed, double hint_factor, Make make,
                      Read read) {
  constexpr double kMeanDelay = 1.0;
  constexpr double kTargetDepth = 2000.0;
  EventQueue<Payload> q(hint_factor * kTargetDepth / kMeanDelay);
  std::set<std::pair<double, std::uint64_t>> ref;
  std::mt19937_64 gen(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::exponential_distribution<double> delay(1.0 / kMeanDelay);
  double now = 0.0;
  double peeked = 0.0;
  std::uint64_t next_seq = 0;
  std::uint64_t pops = 0;

  const auto pop_and_check = [&] {
    ASSERT_FALSE(ref.empty());
    const auto expected = *ref.begin();
    ref.erase(ref.begin());
    ASSERT_EQ(q.next_time(), expected.first);
    const auto e = q.pop();
    ASSERT_EQ(e.time, expected.first) << "pop " << pops;
    ASSERT_EQ(read(e.payload), expected.second) << "pop " << pops;
    now = e.time;
    ++pops;
  };

  for (std::uint64_t step = 0; step < 120000; ++step) {
    if (step % 20000 == 19999) {  // drain to empty, then refill
      while (!ref.empty()) pop_and_check();
      ASSERT_TRUE(q.empty());
      continue;
    }
    const double r = unit(gen);
    const bool fill = ref.size() < kTargetDepth;
    if (r < (fill ? 0.7 : 0.45)) {
      const double kind = unit(gen);
      double t;
      if (kind < 0.45) {
        t = now + delay(gen);
      } else if (kind < 0.7) {
        t = now + std::floor(delay(gen) * 8.0) / 8.0;  // many ties
      } else if (kind < 0.8) {
        t = now;
      } else if (kind < 0.88) {
        t = now + unit(gen) * (peeked - now);  // before the peeked head
      } else if (kind < 0.92) {
        t = now * unit(gen);  // before the clock
      } else {
        t = now + 1e5 * unit(gen);  // far past the ring
      }
      t = std::max(t, 0.0);
      const std::uint64_t seq = next_seq++;
      q.push(t, make(seq));
      ref.emplace(t, seq);
    } else if (r < 0.8 || ref.empty()) {
      if (!ref.empty()) pop_and_check();
    } else {
      peeked = q.next_time();
      ASSERT_EQ(peeked, ref.begin()->first);
      peeked = std::max(peeked, now);
    }
    ASSERT_EQ(q.size(), ref.size());
  }
  while (!ref.empty()) pop_and_check();
  EXPECT_TRUE(q.empty());
  EXPECT_GT(pops, 50000u);
}

TEST(EventQueueDifferential, MatchesReferenceAcrossRateHints) {
  for (const double hint : {1e-4, 1.0, 1e4}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE("hint x" + std::to_string(hint) + " seed " +
                   std::to_string(seed));
      run_differential<std::uint64_t>(
          seed, hint, [](std::uint64_t seq) { return seq; },
          [](std::uint64_t payload) { return payload; });
    }
  }
}

TEST(EventQueueDifferential, MoveOnlyPayloadsMatchReference) {
  for (const double hint : {1e-4, 1.0, 1e4}) {
    SCOPED_TRACE("hint x" + std::to_string(hint));
    run_differential<std::unique_ptr<std::uint64_t>>(
        7, hint,
        [](std::uint64_t seq) {
          return std::make_unique<std::uint64_t>(seq);
        },
        [](const std::unique_ptr<std::uint64_t>& p) { return *p; });
  }
}

}  // namespace
}  // namespace plurality
