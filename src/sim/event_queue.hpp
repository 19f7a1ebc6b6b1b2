#pragma once

/// \file event_queue.hpp
/// A stable discrete-event queue: events pop in (time, insertion order).
/// Its one user is the queued body's fire-and-forget answer store
/// (AnswerQueue, sim/sharded_engine.hpp), whose runs the insertion-order
/// tie-break keeps deterministic for a fixed seed even when answers
/// fall due at the same time.
///
/// Implemented as a calendar queue. Time is cut into slots of one fixed
/// width, picked from the caller's event rate so that a slot holds a
/// few thousand events, and a ring of kRingSlots buckets covers the
/// slots [base, base + kRingSlots):
///
///   - A push into the ring appends to its slot's bucket, a list of
///     fixed-size chunks drawn from the queue's pool, in push order.
///   - The first *pop* from a slot commits it: the bucket's events move
///     into the current run, sorted by time with ties left in push
///     order (a stable counting pass over sub-slots, then an insertion
///     sort of each sub-slot), and its chunks go back to the pool. Pops
///     then take the run's front.
///   - A push at or before the committed slot goes to a small side heap,
///     ordered by (time, push counter). A run event always precedes a
///     side event of equal time: it was pushed before the commit.
///   - A push beyond the ring goes to an overflow heap, ordered the same
///     way. When a commit moves the ring forward, overflow events now
///     inside it move to their buckets, in push order, before any later
///     push can land there.
///
/// next_time() never commits, so a caller that peeks ahead of its own
/// clock keeps pushing into ordinary buckets rather than the side heap.
/// The rate hint only sizes the slots: any positive rate gives the same
/// pop order, and push and pop cost O(1) amortized when the hint is
/// close. A stored event is its time and payload; the pool grows in
/// large blocks and leaves memory untouched until a chunk is used.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/assert.hpp"

namespace plurality {

template <typename Payload>
class EventQueue {
 public:
  struct Event {
    double time;
    Payload payload;
  };

  /// `events_per_time`: the rate at which the caller expects to pop
  /// events, which sets the slot width. Must be positive and finite.
  explicit EventQueue(double events_per_time)
      : inv_width_(events_per_time / static_cast<double>(kEventsPerSlot)),
        ring_(kRingSlots) {
    PC_EXPECTS(events_per_time > 0.0 && std::isfinite(events_per_time));
  }

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;
  EventQueue(EventQueue&& other) noexcept { take(other); }
  EventQueue& operator=(EventQueue&& other) noexcept {
    if (this != &other) {
      destroy_events();
      take(other);
    }
    return *this;
  }
  ~EventQueue() { destroy_events(); }

  void push(double time, Payload payload) {
    PC_EXPECTS(time >= 0.0);
    const std::uint64_t slot = slot_of(time);
    if (size_ == 0) restart(slot);
    ++size_;
    if (slot < base_ || (committed_ && slot == base_)) {
      spill(side_, time, std::move(payload));
    } else if (slot - base_ >= kRingSlots) {
      spill(overflow_, time, std::move(payload));
    } else {
      append(slot, time, std::move(payload));
      if (head_known_ && slot < head_slot_) {
        head_slot_ = slot;
        head_time_ = time;
      } else if (head_known_ && slot == head_slot_) {
        head_time_ = std::min(head_time_, time);
      }
    }
  }

  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }

  /// The earliest event time. Requires non-empty. Never commits a slot.
  double next_time() const {
    PC_EXPECTS(size_ > 0);
    if (run_pos_ < run_end_) {
      const double t = run_[run_pos_].time;
      return side_.empty() ? t : std::min(t, side_.front().time);
    }
    if (!side_.empty()) return side_.front().time;
    find_head();
    return head_slot_ != kNoSlot ? head_time_ : overflow_.front().time;
  }

  /// Removes and returns the earliest event; the payload is moved out,
  /// never copied. Requires non-empty.
  Event pop() {
    PC_EXPECTS(size_ > 0);
    if (run_pos_ == run_end_ && side_.empty()) commit();
    --size_;
    if (run_pos_ < run_end_ &&
        (side_.empty() || !(side_.front().time < run_[run_pos_].time))) {
      Event& head = run_[run_pos_++];
      Event out{head.time, std::move(head.payload)};
      head.~Event();
      return out;
    }
    std::pop_heap(side_.begin(), side_.end(), later);
    Event out{side_.back().time, std::move(side_.back().payload)};
    side_.pop_back();
    return out;
  }

 private:
  static constexpr std::size_t kEventsPerSlot = 4096;
  static constexpr std::uint64_t kRingSlots = 2048;  // a power of two
  static constexpr std::size_t kChunkBytes = 1024;
  static constexpr std::size_t kBlockChunks = 256;
  static constexpr std::size_t kMaxSubSlots = std::size_t{1} << 16;
  static constexpr std::size_t kInsertionSortMax = 32;
  // Times beyond 2^62 slots share the last one; slot_of stays monotone.
  static constexpr double kMaxSlot = 4611686018427387904.0;  // 2^62
  static constexpr std::uint64_t kNoSlot =
      std::numeric_limits<std::uint64_t>::max();

  /// Room for one Event, constructed in place.
  struct Storage {
    alignas(Event) std::byte bytes[sizeof(Event)];
  };
  static constexpr std::size_t kChunkEvents =
      std::max<std::size_t>(4, (kChunkBytes - 2 * sizeof(void*)) /
                                   sizeof(Event));

  /// Trivially default-constructible, so `new Chunk[k]` writes nothing.
  struct Chunk {
    Chunk* next;
    std::uint32_t fill;
    Storage events[kChunkEvents];
    Event& at(std::size_t i) {
      return *std::launder(reinterpret_cast<Event*>(events[i].bytes));
    }
  };

  struct Bucket {
    Chunk* head = nullptr;
    Chunk* tail = nullptr;
    double min_time = std::numeric_limits<double>::infinity();
  };

  /// A side or overflow event, ordered by its own push counter on ties.
  struct Spilled {
    double time;
    std::uint64_t seq;
    Payload payload;
  };

  /// Heap order for std::push_heap / pop_heap: the earliest on top.
  static bool later(const Spilled& a, const Spilled& b) noexcept {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }

  std::uint64_t slot_of(double time) const noexcept {
    const double x = time * inv_width_;
    return x < kMaxSlot ? static_cast<std::uint64_t>(x)
                        : static_cast<std::uint64_t>(kMaxSlot);
  }

  /// Frees the run buffer: an Event array whose elements are created
  /// and destroyed one by one.
  struct Deallocate {
    std::size_t capacity = 0;
    void operator()(Event* events) const {
      std::allocator<Event>().deallocate(events, capacity);
    }
  };
  using RunBuffer = std::unique_ptr<Event[], Deallocate>;

  /// The queue is empty: move the window back if the push is earlier,
  /// and reopen the committed slot to ordinary pushes.
  void restart(std::uint64_t slot) {
    base_ = std::min(base_, slot);
    committed_ = false;
    head_known_ = false;
  }

  void spill(std::vector<Spilled>& heap, double time, Payload payload) {
    heap.push_back(Spilled{time, spill_seq_++, std::move(payload)});
    std::push_heap(heap.begin(), heap.end(), later);
  }

  void append(std::uint64_t slot, double time, Payload payload) {
    Bucket& bucket = ring_[slot & (kRingSlots - 1)];
    Chunk* chunk = bucket.tail;
    if (chunk == nullptr || chunk->fill == kChunkEvents) {
      Chunk* fresh = acquire_chunk();
      fresh->next = nullptr;
      fresh->fill = 0;
      (chunk == nullptr ? bucket.head : chunk->next) = fresh;
      bucket.tail = chunk = fresh;
    }
    ::new (chunk->events[chunk->fill].bytes) Event{time, std::move(payload)};
    ++chunk->fill;
    bucket.min_time = std::min(bucket.min_time, time);
  }

  Chunk* acquire_chunk() {
    if (free_ != nullptr) {
      Chunk* chunk = free_;
      free_ = chunk->next;
      return chunk;
    }
    if (fresh_ == fresh_end_) grow_pool(kBlockChunks);
    return fresh_++;
  }

  void grow_pool(std::size_t chunks) {
    blocks_.emplace_back(new Chunk[chunks]);
    fresh_ = blocks_.back().get();
    fresh_end_ = fresh_ + chunks;
  }

  void ensure_run_capacity(std::size_t count) {
    const std::size_t capacity = run_.get_deleter().capacity;
    if (count <= capacity) return;
    const std::size_t grown = std::max(count, 2 * capacity);
    run_ = RunBuffer(std::allocator<Event>().allocate(grown),
                     Deallocate{grown});
  }

  /// Caches the first non-empty ring slot and its earliest time, or
  /// kNoSlot when the ring is empty (the head is then the overflow's).
  void find_head() const {
    if (head_known_) return;
    head_known_ = true;
    head_slot_ = kNoSlot;
    for (std::uint64_t s = base_; s < base_ + kRingSlots; ++s) {
      const Bucket& bucket = ring_[s & (kRingSlots - 1)];
      if (bucket.head == nullptr) continue;
      head_slot_ = s;
      head_time_ = bucket.min_time;
      return;
    }
  }

  /// Makes the earliest non-empty slot the current one (run and side
  /// are both empty here).
  void commit() {
    find_head();
    const std::uint64_t slot =
        head_slot_ != kNoSlot ? head_slot_ : slot_of(overflow_.front().time);
    head_known_ = false;
    base_ = slot;
    committed_ = true;
    while (!overflow_.empty()) {
      const std::uint64_t s = slot_of(overflow_.front().time);
      if (s - base_ >= kRingSlots) break;
      std::pop_heap(overflow_.begin(), overflow_.end(), later);
      append(s, overflow_.back().time, std::move(overflow_.back().payload));
      overflow_.pop_back();
    }
    sort_into_run(ring_[slot & (kRingSlots - 1)]);
  }

  /// Moves the bucket's events into the run in (time, push order) and
  /// returns its chunks to the pool.
  void sort_into_run(Bucket& bucket) {
    std::size_t count = 0;
    for (Chunk* c = bucket.head; c != nullptr; c = c->next) count += c->fill;
    ensure_run_capacity(count);

    // Sub-slot of an event: its offset within the slot, scaled to
    // [0, subs). Non-decreasing in time, so sorting each sub-slot sorts
    // the run.
    const std::size_t subs = std::min(count, kMaxSubSlots);
    const double scale = static_cast<double>(subs);
    const double origin = static_cast<double>(base_);
    const auto sub_of = [&](double time) {
      const double f = (time * inv_width_ - origin) * scale;
      if (!(f > 0.0)) return std::size_t{0};
      return f < scale ? static_cast<std::size_t>(f) : subs - 1;
    };
    bounds_.assign(subs + 1, 0);
    for (Chunk* c = bucket.head; c != nullptr; c = c->next) {
      for (std::uint32_t i = 0; i < c->fill; ++i) {
        ++bounds_[sub_of(c->at(i).time) + 1];
      }
    }
    for (std::size_t k = 1; k <= subs; ++k) bounds_[k] += bounds_[k - 1];
    // Stable scatter: afterwards bounds_[k] is the end of sub-slot k.
    for (Chunk* c = bucket.head; c != nullptr; c = c->next) {
      for (std::uint32_t i = 0; i < c->fill; ++i) {
        Event& e = c->at(i);
        ::new (static_cast<void*>(&run_[bounds_[sub_of(e.time)]++]))
            Event(std::move(e));
        e.~Event();
      }
    }
    bucket.tail->next = free_;
    free_ = bucket.head;
    bucket = Bucket{};

    std::size_t begin = 0;
    for (std::size_t k = 0; k < subs; ++k) {
      sort_range(begin, bounds_[k]);
      begin = bounds_[k];
    }
    run_pos_ = 0;
    run_end_ = count;
  }

  /// Stable sort of run positions [begin, end) by time.
  void sort_range(std::size_t begin, std::size_t end) {
    if (end - begin < 2) return;
    Event* first = &run_[begin];
    Event* last = first + (end - begin);
    const auto by_time = [](const Event& a, const Event& b) {
      return a.time < b.time;
    };
    if (end - begin > kInsertionSortMax) {
      std::stable_sort(first, last, by_time);
      return;
    }
    for (Event* i = first + 1; i != last; ++i) {
      if (!(i->time < (i - 1)->time)) continue;
      Event moving = std::move(*i);
      Event* j = i;
      do {
        *j = std::move(*(j - 1));
        --j;
      } while (j != first && moving.time < (j - 1)->time);
      *j = std::move(moving);
    }
  }

  void destroy_events() {
    if constexpr (!std::is_trivially_destructible_v<Event>) {
      for (std::size_t i = run_pos_; i < run_end_; ++i) run_[i].~Event();
      for (Bucket& bucket : ring_) {
        for (Chunk* c = bucket.head; c != nullptr; c = c->next) {
          for (std::uint32_t i = 0; i < c->fill; ++i) c->at(i).~Event();
        }
      }
    }
  }

  void take(EventQueue& other) noexcept {
    inv_width_ = other.inv_width_;
    ring_ = std::move(other.ring_);
    other.ring_.clear();
    base_ = other.base_;
    committed_ = other.committed_;
    size_ = std::exchange(other.size_, 0);
    run_ = std::exchange(other.run_, RunBuffer());
    run_pos_ = std::exchange(other.run_pos_, 0);
    run_end_ = std::exchange(other.run_end_, 0);
    bounds_ = std::move(other.bounds_);
    side_ = std::move(other.side_);
    overflow_ = std::move(other.overflow_);
    spill_seq_ = other.spill_seq_;
    blocks_ = std::move(other.blocks_);
    fresh_ = std::exchange(other.fresh_, nullptr);
    fresh_end_ = std::exchange(other.fresh_end_, nullptr);
    free_ = std::exchange(other.free_, nullptr);
    head_known_ = false;
  }

  double inv_width_ = 1.0;  // slots per unit time
  std::vector<Bucket> ring_;
  std::uint64_t base_ = 0;   // first slot of the ring's window
  bool committed_ = false;   // slot base_ has moved into the run
  std::size_t size_ = 0;

  RunBuffer run_;  // the committed slot, sorted
  std::size_t run_pos_ = 0;
  std::size_t run_end_ = 0;
  std::vector<std::size_t> bounds_;  // sub-slot counts, then ends

  std::vector<Spilled> side_;      // pushes at or before the committed slot
  std::vector<Spilled> overflow_;  // pushes beyond the ring
  std::uint64_t spill_seq_ = 0;

  std::vector<std::unique_ptr<Chunk[]>> blocks_;
  Chunk* fresh_ = nullptr;  // never-used chunks of the newest block
  Chunk* fresh_end_ = nullptr;
  Chunk* free_ = nullptr;   // returned chunks, most recent first

  mutable bool head_known_ = false;
  mutable std::uint64_t head_slot_ = kNoSlot;
  mutable double head_time_ = 0.0;
};

}  // namespace plurality
