#pragma once

/// \file sharded_engine.hpp
/// A parallel tick engine for big-n asynchronous runs. The node set is
/// split into T contiguous shards, each with its own xoshiro256 stream
/// derived from the engine seed, so a run is deterministic for a fixed
/// (seed, shards) whatever the thread scheduling. Time advances in
/// epochs of length `epoch_length` (capped by the next sample
/// boundary); by superposition a shard of n_s nodes ticks
/// Poisson(n_s * dt) times per epoch, each at a uniform node of the
/// shard.
///
/// Both drivers run one epoch skeleton (detail::run_epochs). It owns
/// the shard ranges and streams, error capture, the perturbation drain,
/// the `done() && exhausted()` stop rule, the observer cadence and the
/// horizon finalization, and calls a per-shard body supplied as a
/// template policy:
///   - stale (run_sharded): a shard writes only its own nodes, straight
///     into the OpinionTable's packed slab (the live buffer), reads them
///     live and foreign nodes from the epoch-start snapshot (at most one
///     epoch stale), and logs support deltas and changed nodes. At the
///     barrier a serial O(shards * k) pass folds the deltas into the
///     table's supports and a second parallel phase has each shard
///     refresh the snapshot over its own range. It runs ticks in
///     blocks: sample() every tick of the block and prefetch its reads,
///     then decide() them in tick order;
///   - queued (run_sharded_queued): the same packed state; a tick
///     issues a query whose answer, delayed by any latency model, is
///     applied once due (a program-step protocol's tick also advances
///     the node's own state). Under the blocking discipline each node
///     has at most one answer in flight, kept in the node's own slot and
///     applied lazily (at the node's next tick, an own-shard read of the
///     node, or the end-of-epoch sweep); fire-and-forget answers ride
///     a per-shard calendar queue. Lazy application is exact because
///     apply_query() reads and writes only the querier's own state,
///     which nothing else writes while its answer is in flight.
/// At one shard neither body has a foreign read, so the stale body runs
/// the exact Poisson-clock process, apart from draining perturbations
/// at epoch boundaries (tests/test_oracle.cpp holds every engine to that
/// process).
/// Each epoch's shards run through jobs::Executor::process().
/// parallel_for: the calling thread and any idle executor workers claim
/// shards, and a saturated executor leaves them all to the caller, in
/// order. A shard's work depends only on (seed, shard), so the
/// trajectory never depends on which thread ran it. Live and snapshot
/// colors are packed at the table's u8/u16/u32 width (opinion/packed.hpp),
/// so the stale and queued bodies hold two bytes per node at u8; each
/// body is instantiated per width, and width never touches an RNG
/// stream. Protocols sample neighbors themselves, so any GraphTopology
/// works, ideally the shared graph/csr.hpp view.

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "jobs/executor.hpp"
#include "opinion/packed.hpp"
#include "rng/distributions.hpp"
#include "rng/seed.hpp"
#include "sim/concepts.hpp"
#include "sim/drive.hpp"
#include "sim/event_queue.hpp"
#include "sim/latency.hpp"
#include "sim/observers.hpp"
#include "sim/perturb.hpp"
#include "sim/result.hpp"
#include "support/assert.hpp"
#include "trace/trace.hpp"

namespace plurality {

/// Read view handed to ShardableProtocol::decide: live colors for the
/// calling shard's own nodes, the epoch-start snapshot for everyone
/// else. Templated over the packed element width; protocols' decide()
/// is a template over the view type, so one protocol serves every
/// width.
///
/// The live/snapshot pick is branchless — one unsigned range compare
/// turned into an address mask. About a quarter of a clique tick's
/// reads are own-shard at 4 shards, so a branch here mispredicts often,
/// and each mispredict discards the cache-missing loads in flight
/// behind it.
template <typename T>
class PackedShardView {
 public:
  PackedShardView(const T* live, const T* snapshot, NodeId lo,
                  NodeId hi) noexcept
      : snapshot_(reinterpret_cast<std::uintptr_t>(snapshot)),
        live_offset_(reinterpret_cast<std::uintptr_t>(live) - snapshot_),
        lo_(lo),
        size_(hi - lo) {}

  /// The address color(v) reads, for prefetching.
  const T* address(NodeId v) const noexcept {
    const std::uintptr_t own =
        std::uintptr_t{0} - static_cast<std::uintptr_t>(v - lo_ < size_);
    return reinterpret_cast<const T*>(snapshot_ + (live_offset_ & own)) + v;
  }

  ColorId color(NodeId v) const noexcept { return *address(v); }

 private:
  std::uintptr_t snapshot_;
  std::uintptr_t live_offset_;  ///< live - snapshot, modulo 2^64
  NodeId lo_;
  NodeId size_;
};

/// The view type the concepts below are checked against (protocols take
/// the view as a template parameter, so satisfying the u32 form implies
/// the u8/u16 forms).
using ShardView = PackedShardView<ColorId>;

namespace detail {

/// A tick's sample: the K >= 1 nodes whose colors it reads.
template <typename S>
inline constexpr bool kIsNodeSample = false;
template <std::size_t K>
inline constexpr bool kIsNodeSample<std::array<NodeId, K>> = K >= 1;

}  // namespace detail

/// A protocol the sharded engine can drive: its tick splits into
/// sample(u, rng), which takes all of the tick's randomness and returns
/// the std::array<NodeId, K> of nodes the tick reads without reading a
/// color, and decide(u, sample, view), the pure update rule off a read
/// view (no side effects beyond the returned color). The split lets the
/// stale body draw a block of ticks and prefetch their reads before it
/// decides any of them. The engine needs write access to the table for
/// the epoch merges.
template <typename P>
concept ShardableProtocol =
    AsyncProtocol<P> &&
    requires(P p, const P cp, NodeId u, const ShardView& view,
             Xoshiro256& rng) {
      requires detail::kIsNodeSample<decltype(cp.sample(u, rng))>;
      {
        cp.decide(u, cp.sample(u, rng), view)
      } -> std::convertible_to<ColorId>;
      { p.mutable_table() } -> std::same_as<OpinionTable&>;
    };

namespace detail {

template <typename P>
concept HasProgramStep = requires(P p, NodeId u, const ShardView& view,
                                  Xoshiro256& rng, void (*recolor)(ColorId)) {
  {
    p.step(u, view, rng, recolor)
  } -> std::same_as<std::optional<typename P::Query>>;
};

template <typename P>
concept HasQuery =
    requires(const P cp, NodeId u, const ShardView& view, Xoshiro256& rng) {
      { cp.query(u, view, rng) } -> std::same_as<typename P::Query>;
    };

}  // namespace detail

/// A protocol the queued body can drive (run_sharded_queued): its tick
/// splits at the query/response boundary, so the answer can be delayed
/// under a latency model. A tick either calls query(), which reads the
/// sampled neighbors' colors at query time, through the view only, or,
/// for a ProgramStepProtocol, runs the node's program step. The answer
/// resolves through apply_query(u, q, view), which returns u's color
/// after it and reads and writes only u's own state: its color (through
/// view.color(u)) and its own protocol record. The blocking body
/// applies an answer lazily, after its due time, and only u's own state
/// is sure not to have moved in between. A Query is plain data
/// (trivially copyable), which the blocking body keeps in a per-node
/// slot. The engine needs write access to the table for the epoch
/// merges.
template <typename P>
concept DelayedShardableProtocol =
    std::is_trivially_copyable_v<typename P::Query> &&
    requires(P p, const P cp, NodeId u, const ShardView& view,
             const typename P::Query& q) {
      { cp.num_nodes() } -> std::convertible_to<std::uint64_t>;
      { cp.done() } -> std::convertible_to<bool>;
      { cp.table() } -> std::convertible_to<const OpinionTable&>;
      { p.mutable_table() } -> std::same_as<OpinionTable&>;
      { p.apply_query(u, q, view) } -> std::convertible_to<ColorId>;
    } &&
    (detail::HasProgramStep<P> || detail::HasQuery<P>);

/// A delayed-shardable protocol whose tick is a program step
/// (core/delayed.hpp's AsyncOneExtraBitDelayed): step(u, view, rng,
/// recolor) advances u's own state, may recolor u through `recolor`,
/// and returns the query it issues, if any. The step may also read
/// peers' protocol state outside the view, which only one shard keeps
/// live, so such a protocol runs at one shard; and it runs on every
/// tick, answers in flight or not, so under the fire-and-forget
/// discipline only.
template <typename P>
concept ProgramStepProtocol =
    DelayedShardableProtocol<P> && detail::HasProgramStep<P>;

namespace detail {

/// The resolved shard count: 0 picks the hardware concurrency, and the
/// count never exceeds the node count.
inline std::uint64_t resolve_shards(unsigned num_shards,
                                    std::uint64_t n) noexcept {
  if (num_shards == 0) {
    num_shards = std::max(1u, std::thread::hardware_concurrency());
  }
  return std::min<std::uint64_t>(num_shards, n);
}

/// Per-shard state every body shares: the node range, the shard's RNG
/// stream, and the epoch's recolor log and tick count (read by the
/// packed merge; the owner's refresh clears the log).
struct alignas(64) ShardCore {
  NodeId lo = 0;
  NodeId hi = 0;
  Xoshiro256 rng{0};
  std::vector<NodeId> changed;
  std::uint64_t ticks = 0;
};

/// Contiguous as-equal-as-possible ranges of `shards` shards over n
/// nodes; shard s draws from stream s of SeedSequence(seed).
template <typename Shard>
std::vector<Shard> make_shards(std::uint64_t n, std::uint64_t shards,
                               std::uint64_t seed) {
  const SeedSequence streams(seed);
  std::vector<Shard> out(shards);
  for (std::uint64_t s = 0; s < shards; ++s) {
    out[s].lo = static_cast<NodeId>(n * s / shards);
    out[s].hi = static_cast<NodeId>(n * (s + 1) / shards);
    out[s].rng = streams.make_rng(s);
  }
  return out;
}

/// The packed engine state the stale and queued bodies share: the
/// table's own packed slab as the live buffer, a snapshot array at the
/// table's width `T`, per-shard support deltas, and the two-step epoch
/// merge. The snapshot is cloned on the calling thread and the shards
/// write the table's slab from the first epoch.
template <typename T, typename Shard>
class PackedBody {
 public:
  std::vector<Shard> shards;

  PackedBody(OpinionTable& table, std::uint64_t seed,
             std::uint64_t num_shards)
      : shards(make_shards<Shard>(table.num_nodes(), num_shards, seed)),
        table_(table),
        snapshot_(table.packed_colors().clone()),
        deltas_(num_shards, table.num_colors()) {}

  /// The epoch merge, after the shards joined. The shards' nodes are
  /// already in the table's slab: a serial O(shards * k) pass adds each
  /// shard's support deltas to the table, then every shard's owner
  /// refreshes the snapshot entries of the nodes it recolored and
  /// clears its delta row, in parallel over disjoint node ranges.
  void finish_epoch(AsyncRunResult& result, jobs::Executor& executor) {
    for (std::uint64_t s = 0; s < shards.size(); ++s) {
      table_.apply_support_deltas(deltas_.shard(s));
      result.ticks += shards[s].ticks;
      shards[s].ticks = 0;
    }
    executor.parallel_for(shards.size(),
                          [this](std::size_t s) { refresh_shard(s); });
  }

  /// A perturbation write: the skeleton's set_color() already wrote the
  /// table's slab, which is the live buffer; the snapshot follows so the
  /// next epoch's foreign reads agree.
  void write(NodeId u, ColorId c) {
    snapshot_.template data<T>()[u] = static_cast<T>(c);
  }

 protected:
  /// What shard s's epoch works on: the live colors, its read view and
  /// its support-delta row.
  struct Refs {
    T* colors;
    PackedShardView<T> view;
    std::span<std::int64_t> delta;
  };
  Refs refs(std::uint64_t s) {
    T* live = table_.mutable_packed_colors().template data<T>();
    return {live,
            PackedShardView<T>(live, snapshot_.template data<T>(),
                               shards[s].lo, shards[s].hi),
            deltas_.shard(s)};
  }

  /// Applies a tick's outcome to node u of `shard`: the live write, the
  /// support delta and the recolor log.
  static void apply(T* colors, std::span<std::int64_t> delta, Shard& shard,
                    NodeId u, ColorId next) {
    const ColorId old = colors[u];
    if (next != old) {
      colors[u] = static_cast<T>(next);
      --delta[old];
      ++delta[next];
      shard.changed.push_back(u);
    }
  }

 private:
  /// Shard s's half of the merge: only its own nodes and its own row.
  void refresh_shard(std::uint64_t s) {
    Shard& shard = shards[s];
    const T* live = table_.packed_colors().template data<T>();
    T* snap = snapshot_.template data<T>();
    for (const NodeId u : shard.changed) snap[u] = live[u];
    shard.changed.clear();
    deltas_.clear(s);
  }

  OpinionTable& table_;
  PackedColors snapshot_;
  ShardDeltaSlab deltas_;
};

/// The stale body (run_sharded): each shard draws its Poisson tick
/// count for the epoch and runs the tick loop on its own range, reading
/// foreign nodes from the epoch-start snapshot.
///
/// Ticks run in blocks of kBlock. A block first draws every tick's node
/// and sample (all of the block's randomness, in tick order) and
/// prefetches the node's live entry and each sampled color; then it
/// decides and applies the ticks in order. Sampling reads no color, so
/// each decide() sees exactly the live/snapshot state it would see in a
/// one-tick-at-a-time loop, and the trajectory is unchanged. At big n
/// the block's cache misses overlap instead of being served one after
/// another.
template <typename T, typename P>
class StaleBody : public PackedBody<T, ShardCore> {
  using Base = PackedBody<T, ShardCore>;
  using Sample = decltype(std::declval<const P&>().sample(
      NodeId{}, std::declval<Xoshiro256&>()));
  static constexpr std::uint64_t kBlock = 32;

 public:
  using Base::shards;

  StaleBody(P& proto, std::uint64_t seed, std::uint64_t num_shards,
            Perturber* perturb)
      : Base(proto.mutable_table(), seed, num_shards),
        proto_(proto),
        perturb_(perturb) {}

  std::uint64_t run_shard(std::uint64_t s, double /*t0*/, double dt) {
    ShardCore& shard = shards[s];
    const Perturber* const perturb = perturb_;
    const std::uint64_t n_s = shard.hi - shard.lo;
    const NodeId lo = shard.lo;
    const std::uint64_t ticks =
        poisson(shard.rng, static_cast<double>(n_s) * dt);
    // Locals, so the tick loop's byte-wide stores cannot force reloads
    // and the generator stays in registers. What keeps it there is that
    // the copy's address never escapes: poisson() draws from the
    // shard's own generator (inlined or not), the copy is taken after
    // it and handed only to always-inline draws (uniform_below and the
    // protocol's sample()), and it is written back once.
    Xoshiro256 rng = shard.rng;
    const auto [colors, view, delta] = this->refs(s);
    std::array<NodeId, kBlock> nodes{};
    std::array<Sample, kBlock> samples{};
    for (std::uint64_t t = 0; t < ticks; t += kBlock) {
      const std::uint64_t block = std::min(kBlock, ticks - t);
      std::uint64_t drawn = 0;
      for (std::uint64_t i = 0; i < block; ++i) {
        const auto u = static_cast<NodeId>(lo + uniform_below(rng, n_s));
        // Crashed nodes' clocks are dead: the tick is swallowed (the
        // bitmap is stable within an epoch — drains happen between
        // epochs on the calling thread).
        if (perturb != nullptr && !perturb->allows_tick(u)) continue;
        nodes[drawn] = u;
        samples[drawn] = proto_.sample(u, rng);
        __builtin_prefetch(colors + u, 1);
        for (const NodeId v : samples[drawn]) {
          __builtin_prefetch(view.address(v));
        }
        ++drawn;
      }
      for (std::uint64_t i = 0; i < drawn; ++i) {
        Base::apply(colors, delta, shard, nodes[i],
                    proto_.decide(nodes[i], samples[i], view));
      }
    }
    shard.rng = rng;
    shard.ticks += ticks;
    return ticks;
  }

 private:
  P& proto_;
  Perturber* perturb_;
};

/// How an answer in flight keeps its query: the sampling protocols'
/// std::array<ColorId, K> packed at the table's width T (the colors fit
/// it), any other Query as it is.
template <typename Query, typename T>
struct StoredQuery {
  using type = Query;
  static const Query& pack(const Query& q) noexcept { return q; }
  static const Query& unpack(const Query& q) noexcept { return q; }
};

template <std::size_t K, typename T>
struct StoredQuery<std::array<ColorId, K>, T> {
  using type = std::array<T, K>;
  static type pack(const std::array<ColorId, K>& q) noexcept {
    type out{};
    for (std::size_t i = 0; i < K; ++i) out[i] = static_cast<T>(q[i]);
    return out;
  }
  static std::array<ColorId, K> unpack(const type& q) noexcept {
    std::array<ColorId, K> out{};
    for (std::size_t i = 0; i < K; ++i) out[i] = q[i];
    return out;
  }
};

/// Fire-and-forget answers: a node may have any number in flight, so
/// they ride the shard's calendar queue and are delivered in (time,
/// issue order) as the shard's clock passes them.
template <typename Query>
class AnswerQueue {
  struct Delivery {
    NodeId to;
    Query query;
  };

 public:
  AnswerQueue() = default;
  /// Deliveries pop at about the shard's tick rate n_s.
  AnswerQueue(NodeId lo, NodeId hi, double /*epoch_length*/)
      : deliveries_(static_cast<double>(hi - lo)) {}

  /// Delivers every answer due at or before `t` and before `t_end`.
  template <typename Deliver>
  void deliver_through(double t, double t_end, Deliver& deliver) {
    while (!deliveries_.empty()) {
      const double due = deliveries_.next_time();
      if (due > t || due >= t_end) return;
      auto event = deliveries_.pop();
      deliver(event.payload.to, event.payload.query);
    }
  }

  /// Whether u may query at t: always.
  template <typename Deliver>
  bool may_query(NodeId /*u*/, double /*t*/, Deliver& /*deliver*/) noexcept {
    return true;
  }

  /// A query's read view: the shard's own.
  template <typename View, typename Deliver>
  const View& view(const View& base, double /*t*/, Deliver& /*deliver*/) {
    return base;
  }

  void issue(NodeId u, double /*t*/, double due, Query query) {
    deliveries_.push(due, {u, std::move(query)});
  }

  /// Nothing left: deliver_through(t_end, t_end) emptied [.., t_end).
  template <typename Deliver>
  void sweep(double /*t_end*/, Deliver& /*deliver*/) {}

  std::size_t in_flight() const noexcept { return deliveries_.size(); }

 private:
  EventQueue<Delivery> deliveries_{1.0};
};

/// Blocking answers: a node has at most one in flight, so it waits in
/// the node's own slot, and is applied lazily, at the first of
///   - the node's next tick (may_query());
///   - an own-shard query reading the node (view());
///   - the end-of-epoch sweep, which applies every answer due before
///     the epoch's end.
/// That is exact. Between an answer's due time and its application no
/// one else writes the node (one answer in flight, perturbations drain
/// between epochs), the crash bitmap is fixed within the epoch, and
/// apply_query() reads and writes only the node's own state, so the
/// answer resolves to what it would have at its due time; no RNG draw
/// moves.
///
/// A slot is a state byte plus a record of the due time and the query
/// at the table's width (11 bytes per node for Two-Choices at u8). The
/// byte is kIdle, kFar, or kCell | (c mod 128) for an answer due in
/// cell c of a fixed grid of epoch_length, so a tick on a waiting node
/// reads the record's time only when the answer falls in the tick's
/// own cell. Any unapplied answer is due at or after the epoch's start
/// (the sweep), so its cell lags the current one by at most two; a cell
/// from kPast behind to kReach ahead of the issuing tick's fits the
/// byte, a later one is kFar and always compares its time.
template <typename T, typename Query>
class AnswerSlots {
  using Stored = StoredQuery<Query, T>;
  static_assert(std::is_trivially_copyable_v<typename Stored::type>);

 public:
  AnswerSlots() = default;
  AnswerSlots(NodeId lo, NodeId hi, double epoch_length)
      : lo_(lo),
        size_(hi - lo),
        cells_per_time_(1.0 / epoch_length),
        state_(std::make_unique_for_overwrite<std::uint8_t[]>(size_)),
        records_(std::make_unique_for_overwrite<std::byte[]>(size_ *
                                                              kRecord)) {
    std::fill_n(state_.get(), size_, kIdle);  // every slot idle
  }

  template <typename Deliver>
  void deliver_through(double /*t*/, double /*t_end*/, Deliver& /*deliver*/) {}

  /// Whether u may query at t: its slot is idle, or its answer is due
  /// at or before t and is applied now.
  template <typename Deliver>
  bool may_query(NodeId u, double t, Deliver& deliver) {
    const std::size_t i = u - lo_;
    if (state_[i] == kIdle) {
      // issue() writes the record once the query is drawn and read;
      // fetching it now overlaps the miss with the query.
      __builtin_prefetch(records_.get() + i * kRecord, 1);
      return true;
    }
    if (!due_by(i, t)) return false;
    resolve(i, deliver);
    return true;
  }

  /// A query's read view at t: an own-shard node's answer due at or
  /// before t is applied before its color is read.
  template <typename Base, typename Deliver>
  struct ResolvingView {
    const Base& base;
    AnswerSlots& slots;
    double t;
    Deliver& deliver;
    ColorId color(NodeId v) const {
      // A foreign read checks slot 0's byte rather than branch on the
      // owner: about a quarter of a clique's reads are own-shard at 4
      // shards, so that branch would mispredict often.
      const std::size_t i = v - slots.lo_;
      const bool own = i < slots.size_;
      if (((slots.state_[own ? i : 0] != kIdle) & own) &&
          slots.due_by(i, t)) {
        slots.resolve(i, deliver);
      }
      return base.color(v);
    }
  };
  template <typename Base, typename Deliver>
  ResolvingView<Base, Deliver> view(const Base& base, double t,
                                    Deliver& deliver) {
    return {base, *this, t, deliver};
  }

  /// Node u, ticking at t, waits for an answer due at `due`.
  void issue(NodeId u, double t, double due, const Query& query) {
    const std::size_t i = u - lo_;
    const std::uint64_t cell = cell_of(due);
    state_[i] = cell - cell_of(t) < kReach
                    ? static_cast<std::uint8_t>(kCell | (cell & kCellMask))
                    : kFar;
    const typename Stored::type packed = Stored::pack(query);
    std::byte* record = records_.get() + i * kRecord;
    std::memcpy(record, &due, sizeof due);
    std::memcpy(record + sizeof due, &packed, sizeof packed);
    ++in_flight_;
  }

  /// Applies every answer due before t_end. The state bytes are
  /// screened eight at a time, without a branch per slot: a byte is a
  /// candidate when it is kFar or holds a cell at or before `last`, the
  /// cell of the latest time before t_end. The order of application
  /// does not matter: each answer writes only its own node.
  template <typename Deliver>
  void sweep(double t_end, Deliver& deliver) {
    const std::uint64_t last = cell_of(std::nextafter(t_end, 0.0));
    const std::uint64_t shift = (kPast - last) & kCellMask;
    const auto settle = [&](std::size_t i) {
      const std::uint8_t code = state_[i];
      const std::uint64_t l = code == kFar ? kPast : lag(code, last);
      if (l < kPast || due_at(i) < t_end) resolve(i, deliver);
    };
    std::size_t i = 0;
    for (; i + 8 <= size_; i += 8) {
      std::uint64_t word = 0;
      std::memcpy(&word, state_.get() + i, sizeof word);
      for (std::uint64_t hits = candidates(word, shift); hits != 0;
           hits &= hits - 1) {
        const auto lane = static_cast<std::size_t>(std::countr_zero(hits) / 8);
        settle(i + (std::endian::native == std::endian::little ? lane
                                                               : 7 - lane));
      }
    }
    for (; i < size_; ++i) {
      const std::uint8_t code = state_[i];
      if (code == kFar || ((code & kCell) != 0 && lag(code, last) <= kPast)) {
        settle(i);
      }
    }
  }

  std::size_t in_flight() const noexcept { return in_flight_; }

  /// Bytes per node the slots hold: the state byte and the record.
  static constexpr std::size_t bytes_per_node() noexcept {
    return sizeof(std::uint8_t) + kRecord;
  }

 private:
  // A slot's record: its due time, then its stored query, unpadded, so
  // an issue writes one cache line (two when a record straddles one).
  static constexpr std::size_t kRecord =
      sizeof(double) + sizeof(typename Stored::type);
  static constexpr std::uint8_t kIdle = 0;
  static constexpr std::uint8_t kFar = 1;
  static constexpr std::uint8_t kCell = 0x80;
  static constexpr std::uint64_t kCellMask = 0x7F;
  static constexpr std::uint64_t kPast = 8;
  static constexpr std::uint64_t kReach = kCellMask + 1 - kPast;
  // Cells saturate here; a saturated answer always compares its time.
  static constexpr double kMaxCell = 1125899906842624.0;  // 2^50

  std::uint64_t cell_of(double t) const noexcept {
    const double x = t * cells_per_time_;
    // Through int64: below 2^50 it is exact and converts in one step.
    return static_cast<std::uint64_t>(
        static_cast<std::int64_t>(x < kMaxCell ? x : kMaxCell));
  }

  /// (c - now + kPast) mod 128 for the cell c a code holds: below kPast
  /// when c is before the current cell, kPast when it is the current.
  static std::uint64_t lag(std::uint8_t code, std::uint64_t now) noexcept {
    return (code - now + kPast) & kCellMask;
  }

  /// The high bit of each byte of `word` whose state is kFar, or a
  /// cell c with (c - last) mod 128 in [-kPast, 0], where `shift` is
  /// (kPast - last) mod 128. Lanes never carry into each other: each
  /// adds two 7-bit values.
  static std::uint64_t candidates(std::uint64_t word,
                                  std::uint64_t shift) noexcept {
    constexpr std::uint64_t kOnes = 0x0101010101010101ULL;
    constexpr std::uint64_t kHigh = kOnes * 0x80;
    constexpr std::uint64_t kLow = kOnes * kCellMask;
    // Per lane: the lag (c - last + kPast) mod 128, then its high bit
    // set iff the lag exceeds kPast.
    const std::uint64_t lags = ((word & kLow) + shift * kOnes) & kLow;
    const std::uint64_t late = lags + (kCellMask - kPast) * kOnes;
    const std::uint64_t cells = word & ~late & kHigh;
    // Per lane: the high bit set iff the byte equals kFar.
    const std::uint64_t other = word ^ (kOnes * kFar);
    const std::uint64_t far = ~(((other & kLow) + kLow) | other | kLow);
    return cells | far;
  }

  double due_at(std::size_t i) const noexcept {
    double due;
    std::memcpy(&due, records_.get() + i * kRecord, sizeof due);
    return due;
  }

  bool due_by(std::size_t i, double t) const noexcept {
    const std::uint8_t code = state_[i];
    if (code != kFar) {
      const std::uint64_t l = lag(code, cell_of(t));
      if (l != kPast) return l < kPast;
    }
    return due_at(i) <= t;
  }

  template <typename Deliver>
  [[gnu::always_inline]] void resolve(std::size_t i, Deliver& deliver) {
    state_[i] = kIdle;
    --in_flight_;
    typename Stored::type packed;
    std::memcpy(&packed, records_.get() + i * kRecord + sizeof(double),
                sizeof packed);
    deliver(static_cast<NodeId>(lo_ + i), Stored::unpack(packed));
  }

  NodeId lo_ = 0;
  std::size_t size_ = 0;
  double cells_per_time_ = 1.0;
  std::size_t in_flight_ = 0;
  std::unique_ptr<std::uint8_t[]> state_;
  std::unique_ptr<std::byte[]> records_;
};

/// Bytes per node the blocking discipline's answer slots hold for
/// `Query` at the table's `width`.
template <typename Query>
std::size_t answer_slot_bytes(ColorWidth width) {
  switch (width) {
    case ColorWidth::kU8:
      return AnswerSlots<std::uint8_t, Query>::bytes_per_node();
    case ColorWidth::kU16:
      return AnswerSlots<std::uint16_t, Query>::bytes_per_node();
    case ColorWidth::kU32:
      return AnswerSlots<std::uint32_t, Query>::bytes_per_node();
  }
  throw ContractViolation("unreachable color width");
}

template <typename Answers>
struct QueuedShard : ShardCore {
  Answers answers;
};

/// The queued body (run_sharded_queued): each shard runs its
/// superposition tick stream; a tick issues a query whose answer is
/// applied once it is due. One tick loop serves both disciplines
/// through an answer store: AnswerSlots under blocking, AnswerQueue
/// under fire-and-forget.
template <typename T, typename P, typename Answers>
class QueuedBody : public PackedBody<T, QueuedShard<Answers>> {
  using Shard = QueuedShard<Answers>;
  using Base = PackedBody<T, Shard>;

 public:
  using Base::shards;

  QueuedBody(P& proto, const LatencyModel& latency, std::uint64_t seed,
             std::uint64_t num_shards, double epoch_length, Perturber* perturb)
      : Base(proto.mutable_table(), seed, num_shards),
        proto_(proto),
        latency_(latency),
        perturb_(perturb) {
    for (Shard& shard : shards) {
      shard.answers = Answers(shard.lo, shard.hi, epoch_length);
    }
  }

  std::uint64_t run_shard(std::uint64_t s, double t0, double dt) {
    Shard& shard = shards[s];
    Answers& answers = shard.answers;
    // Locals, so the tick loop's byte-wide stores cannot force reloads;
    // the generator is written back to the shard once (the virtual
    // latency draw takes its address, so it lives on this frame).
    const Perturber* const perturb = perturb_;
    const LatencyModel& latency = latency_;
    std::uint64_t drained = 0;
    std::uint64_t ticks = 0;
    Xoshiro256 rng = shard.rng;
    const std::uint64_t n_s = shard.hi - shard.lo;
    const double inv_rate = 1.0 / static_cast<double>(n_s);
    const double t_end = t0 + dt;
    const auto [colors, view, delta] = this->refs(s);
    // Applies an answer to its querier; answers to crashed nodes are
    // dropped.
    const auto deliver = [&](NodeId u, const typename P::Query& query) {
      ++drained;
      if (perturb != nullptr && !perturb->allows_tick(u)) return;
      Base::apply(colors, delta, shard, u,
                  proto_.apply_query(u, query, view));
    };
    // Fresh first-gap draw each epoch: exact by memorylessness of the
    // shard's Poisson(n_s) tick process.
    double next_tick = t0 + exponential_unit(rng) * inv_rate;
    for (;;) {
      // Answers due at a tick's time are applied before it.
      answers.deliver_through(next_tick, t_end, deliver);
      if (next_tick >= t_end) break;  // the rest waits for next epoch
      const auto u = static_cast<NodeId>(shard.lo + uniform_below(rng, n_s));
      if ((perturb == nullptr || perturb->allows_tick(u)) &&
          answers.may_query(u, next_tick, deliver)) {
        if constexpr (ProgramStepProtocol<P>) {
          const auto recolor = [&](ColorId c) {
            Base::apply(colors, delta, shard, u, c);
          };
          if (auto query = proto_.step(u, view, rng, recolor)) {
            const double delay = latency.sample(rng);
            answers.issue(u, next_tick, next_tick + delay, std::move(*query));
          }
        } else {
          auto query =
              proto_.query(u, answers.view(view, next_tick, deliver), rng);
          const double delay = latency.sample(rng);
          answers.issue(u, next_tick, next_tick + delay, std::move(query));
        }
      }
      ++ticks;
      next_tick += exponential_unit(rng) * inv_rate;
    }
    answers.sweep(t_end, deliver);
    shard.rng = rng;
    shard.ticks += ticks;
    if (trace::enabled()) {
      trace::Sink& sink = trace::local_sink();
      const std::int64_t now = trace::now_ns();
      if (drained > 0) sink.queue_drain(now, 0, drained);
      // The answers in flight at the epoch boundary are a trajectory
      // property (keyed on seed/shards/epoch_length), so the derived
      // quantiles are deterministic and bench-gateable.
      sink.queue_depth(now, answers.in_flight());
    }
    return ticks;
  }

 private:
  P& proto_;
  const LatencyModel& latency_;
  Perturber* perturb_;
};

/// The one epoch skeleton behind both sharded drivers: per epoch it
/// runs the body's shard work on the process executor (parallel_for
/// rethrows the first shard error), lets the body merge the epoch (from
/// the calling thread, which forks the snapshot refresh onto the
/// executor) and drains perturbations; around that it applies the
/// shared stop rule, observer cadence and horizon finalization. A Body
/// is a PackedBody with `run_shard(s, t0, dt)` returning the ticks
/// drawn.
template <typename Body, typename P, typename Obs>
AsyncRunResult run_epochs(P& proto, Body& body, double max_time, Obs&& obs,
                          double sample_every, double epoch_length,
                          Perturber* perturb) {
  jobs::Executor& executor = jobs::Executor::process();
  const std::size_t shards = body.shards.size();
  double epoch_t0 = 0.0;  // written before each parallel_for
  double epoch_dt = 0.0;
  const std::function<void(std::size_t)> tick_shard = [&](std::size_t s) {
    const bool traced = trace::enabled();
    const std::int64_t span_t0 = traced ? trace::now_ns() : 0;
    const std::uint64_t ticks = body.run_shard(s, epoch_t0, epoch_dt);
    if (traced) {
      trace::local_sink().shard_span(span_t0, trace::now_ns() - span_t0,
                                     ticks);
    }
  };

  // Perturbation drains run on the calling thread between epochs:
  // writes go to the table and the body's own state together.
  const auto drain = [&](double t) {
    if (perturb == nullptr || perturb->next_time() > t) return;
    perturb->drain_until(t, proto.table(), [&](NodeId u, ColorId c) {
      proto.mutable_table().set_color(u, c);
      body.write(u, c);
    });
  };
  const auto running = [&] {
    return !(proto.done() && (perturb == nullptr || perturb->exhausted()));
  };

  AsyncRunResult result;
  double now = 0.0;
  obs(now, proto);
  while (now < max_time && running()) {
    const double sample_end = std::min(now + sample_every, max_time);
    while (now < sample_end && running()) {
      const double dt = std::min(epoch_length, sample_end - now);
      if (!(dt > 0.0)) break;  // floating-point residue at the boundary
      epoch_t0 = now;
      epoch_dt = dt;
      executor.parallel_for(shards, tick_shard);
      body.finish_epoch(result, executor);
      now += dt;
      drain(now);
    }
    if (now < max_time && running()) obs(now, proto);
  }
  return finish_run(result, proto, obs, now, max_time);
}

/// The public drivers' shared front: checks the arguments, resolves the
/// shard count, and is the one width dispatch — `run(T{}, shards)` is
/// called with a value of the table's packed element type T.
template <typename P, typename F>
AsyncRunResult dispatch(const P& proto, unsigned num_shards, double max_time,
                        double sample_every, double epoch_length, F&& run) {
  PC_EXPECTS(max_time > 0.0);
  PC_EXPECTS(sample_every > 0.0);
  PC_EXPECTS(epoch_length > 0.0);
  PC_EXPECTS(proto.num_nodes() >= 1);
  const std::uint64_t shards = resolve_shards(num_shards, proto.num_nodes());
  switch (proto.table().width()) {
    case ColorWidth::kU8: return run(std::uint8_t{}, shards);
    case ColorWidth::kU16: return run(std::uint16_t{}, shards);
    case ColorWidth::kU32: return run(std::uint32_t{}, shards);
  }
  throw ContractViolation("unreachable color width");
}

}  // namespace detail

/// Runs `proto` under Poisson(1) clocks until done() or `max_time`
/// over `num_shards` shards (0 = hardware concurrency) on the stale
/// body. Deterministic for a fixed (seed, num_shards, epoch_length);
/// `--shards=1` is the exact process. done() is polled at epoch
/// boundaries, so a run can overshoot consensus by up to one epoch; a
/// horizon cutoff reports `max_time`.
///
/// Perturbations (sim/perturb.hpp) drain on the calling thread at the
/// first epoch boundary at or after their time, writing the table
/// (whose slab is the live buffer) and the snapshot together; crash
/// suppression is a read-only bitmap lookup in the tick loop. The run
/// continues past transient consensus until the driver is exhausted.
template <ShardableProtocol P, typename Obs = NullObserver>
AsyncRunResult run_sharded(P& proto, std::uint64_t seed, unsigned num_shards,
                           double max_time, Obs&& obs = Obs{},
                           double sample_every = 1.0,
                           double epoch_length = 0.25,
                           Perturber* perturb = nullptr) {
  return detail::dispatch(
      proto, num_shards, max_time, sample_every, epoch_length,
      [&](auto tag, std::uint64_t shards) {
        detail::StaleBody<decltype(tag), P> body(proto, seed, shards, perturb);
        return detail::run_epochs(proto, body, max_time, obs, sample_every,
                                  epoch_length, perturb);
      });
}

/// Runs `proto` under Poisson(1) clocks *and* a response-latency model
/// on the queued body: every (non-suppressed) tick issues a query whose
/// sampled colors are read at query time; the answer travels for
/// latency.sample() and the rule is applied once it is due. Under
/// QueryDiscipline::kBlocking a node with an answer in flight skips its
/// ticks (the Bankhamer et al. request/response regime), and the answer
/// waits in the node's slot; kFireAndForget queries on every tick, and
/// its answers wait on the shard's delivery queue. Every sampleable
/// model runs exactly — answers persist across epoch boundaries, and
/// each shard applies them in event-time order against its tick stream
/// (Exp(1)/n_s gaps, exact by memorylessness) — so the only deviation
/// is the stale foreign read. A horizon cutoff drops queries in flight
/// and reports `max_time`.
///
/// Perturbations act as in run_sharded; a crashed node stops
/// querying and its answers are dropped (a blocking node is re-armed
/// all the same). A ProgramStepProtocol runs at one shard under
/// fire-and-forget only (PC_EXPECTS).
template <DelayedShardableProtocol P, typename Obs = NullObserver>
AsyncRunResult run_sharded_queued(P& proto, const LatencyModel& latency,
                                  QueryDiscipline discipline,
                                  std::uint64_t seed, unsigned num_shards,
                                  double max_time, Obs&& obs = Obs{},
                                  double sample_every = 1.0,
                                  double epoch_length = 0.25,
                                  Perturber* perturb = nullptr) {
  return detail::dispatch(
      proto, num_shards, max_time, sample_every, epoch_length,
      [&](auto tag, std::uint64_t shards) {
        using T = decltype(tag);
        const auto run = [&]<typename Answers>(std::type_identity<Answers>) {
          detail::QueuedBody<T, P, Answers> body(proto, latency, seed, shards,
                                                 epoch_length, perturb);
          return detail::run_epochs(proto, body, max_time, obs, sample_every,
                                    epoch_length, perturb);
        };
        using Query = typename P::Query;
        if constexpr (ProgramStepProtocol<P>) {
          PC_EXPECTS(shards == 1);
          PC_EXPECTS(discipline == QueryDiscipline::kFireAndForget);
        } else {
          if (discipline == QueryDiscipline::kBlocking) {
            return run(std::type_identity<detail::AnswerSlots<T, Query>>{});
          }
        }
        return run(std::type_identity<detail::AnswerQueue<Query>>{});
      });
}

}  // namespace plurality
