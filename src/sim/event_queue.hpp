// Pending-event set for the discrete-event engine.
//
// Order. Events fire in (time, seq) order. push() hands out sequence numbers
// in call order, so two events scheduled for the same instant fire in the
// order they were scheduled — a property several protocol models (and the
// determinism tests) rely on.
//
// Slots. A slot arena holds each event's action, its TaskTag, its time, the
// sequence number of the slot's live occupant, and a link for the far tier's
// chains. Freed slots are reused (last freed, first reused). The arena grows
// in blocks that never move, so growing it copies nothing: they double from a
// 16-slot first block up to 512 slots, then stay at 512, so a queue allocates
// at most one partly used block and memory tracks the number of pending
// events. Tags always live in the slot; there is no per-event side table.
//
// Two tiers. Every pending key, (time, seq << kSlotBits | slot), sits in one:
//  - the near heap: a binary min-heap of these 16-byte keys, holding every key
//    at or before the split time near_max_. A sift moves trivially copyable
//    keys, never std::functions, and the slot bits never decide an order;
//  - the far tier: every key after the split, in calendar buckets 2^shift_ ns
//    wide, plus an unsorted overflow past the last bucket. Members are chained
//    through their slots (Slot::next), so the far tier costs one 4-byte head
//    per bucket and no container per bucket.
// pop() takes the near heap's top. When the near heap runs dry, the next
// non-empty bucket moves into it and the split moves to that bucket's end;
// when the buckets run out, the overflow is bucketed afresh. A far key is
// thus touched O(1) times until its bucket comes near: the calendar queue of
// Brown (CACM 1988), with the unsorted top tier of Tang, Goh and Thng's
// ladder queue (TOMACS 2005).
//
// Sizing. Each rebuild sizes its buckets from the keys being bucketed: the
// width is the power of two at or above the mean gap across their lower half
// (earliest key to median, the median taken from a fixed-stride sample), so
// one or two keys fall in a bucket and a few far keys (an hour-long timer,
// SimTime::max()) cannot widen it. The buckets cover kCover times that
// half's span; later keys wait in the overflow.
//
// Depth. A shallow queue is one plain heap with no split: a calendar rebuilt
// every few pops costs more than a short heap walk. Once the heap holds kDeep
// keys, a push spills it into the overflow, setting its earliest key aside,
// and the first pop builds the calendar from every key then pending (so a
// world's set-up is sized as a whole, not from its first kDeep events).
// Spilling at the push keeps the near heap's array at about kDeep keys; a
// heap left whole until that first pop grows it to the set-up's depth, which
// on perfbench's capture read 2.5% more peak RSS. A rebuild that finds fewer
// than kShallow live keys folds them back into one plain heap.
//
// Ids. EventId (sim/observer.hpp) carries value = id_base + seq + 1, so 0
// means "no event" and the default base keeps serial ids 1, 2, 3, ...; the
// sharded backend routes cancel() by its high bits. EventId::slot names the
// event's arena slot: unique among this queue's pending events and
// tombstones, and reused once they leave it. Serial-only profilers index
// their pending-event records by it (sim/observer.hpp).
//
// Cancel is O(1) amortized: it compares the id's sequence number with the
// slot's live occupant (a fired event's slot is free or reused, so stale ids
// fail), marks the slot cancelled and frees its action. The key stays where
// it is as a tombstone: a near one is dropped, and its slot freed, when it
// reaches the top; a far one when its bucket comes near or the overflow is
// rebuilt. The top of the near heap is always a live event, so a cancel that
// leaves the near heap empty does the work the next pop would have done: it
// takes the next non-empty bucket, or rebuilds the calendar from the overflow
// once the buckets have run out. Cancelling the key a spill set aside builds
// the first calendar from every pending key.
//
// Limits. A queue hands out at most kMaxSeq = 2^40 sequence numbers (the
// sharded backend gives each owner a 2^40-wide id range), and holds at most
// kMaxSlots = 2^24 pending events plus undropped tombstones. push() throws
// std::overflow_error past either limit. pop() and cancel() may grow the
// bucket array or the near heap; if that allocation fails they throw
// std::bad_alloc and the queue must not be used again.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "sim/observer.hpp"
#include "sim/time.hpp"

namespace tussle::sim {

class EventQueue {
 public:
  using Action = std::function<void()>;

  static constexpr int kSlotBits = 24;
  static constexpr std::uint64_t kMaxSlots = 1ull << kSlotBits;
  static constexpr std::uint64_t kMaxSeq = 1ull << (64 - kSlotBits);
  /// A plain heap holding this many keys spills into the far tier.
  static constexpr std::size_t kDeep = 256;
  /// A rebuild that finds fewer live keys than this returns to a plain heap.
  static constexpr std::size_t kShallow = 64;

  EventQueue() = default;

  // The queue owns callbacks that may capture anything; copying the queue
  // would duplicate scheduled side effects. Nothing moves a queue either,
  // and a moved-from one would keep a stale free list, so it stays put.
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `action` to fire at absolute time `at`. `tag` labels the
  /// event for the observers and comes back from pop(). Throws
  /// std::overflow_error past kMaxSeq pushes or kMaxSlots pending events.
  EventId push(SimTime at, Action action, TaskTag tag = {});

  /// Offsets every EventId this queue hands out by `base` (ids become
  /// base + seq + 1). The sharded execution backend runs one queue per
  /// owner and needs ids from different queues to stay distinguishable so
  /// cancel() can be routed; the default base of 0 keeps serial ids
  /// exactly as before. Must be set before the first push.
  void set_id_base(std::uint64_t base) noexcept { id_base_ = base; }
  std::uint64_t id_base() const noexcept { return id_base_; }

  /// Cancels a pending event in O(1) amortized time; a cancel that empties
  /// the near heap takes the next bucket or rebuilds the calendar (see the
  /// top of this file). Returns false if the event already fired, was
  /// cancelled before, or never existed.
  bool cancel(EventId id);

  /// A non-empty near heap has a live top; an empty one leaves the far
  /// tier, whose tombstones do not count.
  bool empty() const noexcept { return near_.empty() && far_ == tombstones_; }
  std::size_t size() const noexcept { return near_.size() + far_ - tombstones_; }

  /// Earliest pending event time. Precondition: !empty().
  SimTime next_time() const {
    assert(!empty());
    // The near heap is empty here only while a spilled heap awaits its
    // first calendar; its earliest key was set aside for this.
    return SimTime::nanos(near_.empty() ? spilled_min_.time : near_.front().time);
  }

  /// Removes and returns the earliest event's action, time, tag, and id.
  /// Precondition: !empty().
  struct Popped {
    SimTime time;
    Action action;
    TaskTag tag;
    EventId id;
  };
  Popped pop();

 private:
  struct Key {
    std::int64_t time = 0;
    std::uint64_t seq_slot = 0;  ///< seq << kSlotBits | slot
  };
  // A slot's state word: its occupant's sequence number, with kCancelled
  // set once the occupant is cancelled; kFree | the next free slot while
  // unoccupied. A live occupant's state therefore equals its seq exactly.
  static constexpr std::uint64_t kFree = 1ull << 63;
  static constexpr std::uint64_t kCancelled = 1ull << 62;
  static constexpr std::uint32_t kNoSlot = ~0u;
  static constexpr std::int64_t kLatest = std::numeric_limits<std::int64_t>::max();

  struct Slot {
    Action action;
    TaskTag tag;
    std::uint64_t state = kFree | kNoSlot;
    std::int64_t time = 0;         ///< the occupant's time, read when its key changes tier
    std::uint32_t next = kNoSlot;  ///< the next key in this key's bucket or overflow chain
  };

  static constexpr std::uint64_t kSlotMask = kMaxSlots - 1;
  static constexpr int kFirstBlockBits = 4;  ///< the first block holds 16 slots
  static constexpr int kMaxBlockBits = 9;    ///< blocks stop doubling at 512 slots
  static constexpr std::size_t kGrowBlocks = kMaxBlockBits - kFirstBlockBits + 1;
  /// Slots in the doubling blocks: 16 + 32 + ... + 512.
  static constexpr std::uint32_t kGrowEnd = (2u << kMaxBlockBits) - (1u << kFirstBlockBits);

  static bool before(const Key& a, const Key& b) noexcept {
    return a.time != b.time ? a.time < b.time : a.seq_slot < b.seq_slot;
  }
  static std::uint32_t slot_of(const Key& k) noexcept {
    return static_cast<std::uint32_t>(k.seq_slot & kSlotMask);
  }

  struct Place {
    std::size_t block = 0;
    std::size_t offset = 0;
  };
  static Place place(std::uint32_t index) noexcept;
  Slot& slot(std::uint32_t index) noexcept;
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t index) noexcept;

  // Near heap.
  void sift_up(std::size_t hole, Key key) noexcept;
  void remove_top() noexcept;
  void make_near_heap() noexcept;

  // Far tier.
  bool calendar() const noexcept { return !buckets_.empty(); }
  bool spilled() const noexcept { return !calendar() && far_ != 0; }
  void far_push(std::uint32_t index, std::int64_t time) noexcept;
  void spill() noexcept;
  void spill_near() noexcept;
  void settle();
  void advance();
  void rebuild();
  std::int64_t bucket_last(std::size_t bucket) const noexcept;

  std::vector<Key> near_;
  /// Every key at or before this time is in near_, and every later one in
  /// the far tier. kLatest in a plain heap.
  std::int64_t near_max_ = kLatest;
  /// Calendar bucket heads, chained through Slot::next; bucket b holds times
  /// cal_start_ + [b << shift_, (b + 1) << shift_). Empty without a calendar.
  std::vector<std::uint32_t> buckets_;
  std::size_t next_bucket_ = 0;  ///< buckets before this one are in near_
  std::int64_t cal_start_ = 0;
  int shift_ = 0;
  std::uint32_t overflow_ = kNoSlot;  ///< far keys past the last bucket, unsorted
  std::size_t far_ = 0;               ///< keys in the far tier, tombstones included
  /// The earliest far key while a spilled heap awaits its first calendar
  /// (no buckets, far_ > 0); it is live, and later than all of near_.
  Key spilled_min_;
  // A rebuild's scratch, kept for the next: a sample of at most
  // kTimeSample + 1 of the far keys' times. A calendar spans kCover times the
  // lower half's span: with 4 rather than 2, a hold loop at depth 5632
  // rebuilds half as often.
  static constexpr std::size_t kTimeSample = 256;
  static constexpr std::uint64_t kCover = 4;
  std::vector<std::int64_t> sample_;

  /// Blocks 0-5 hold 16, 32, ..., 512 slots; every later block holds 512.
  /// Each is reserved at its full size up front, so its slots never move.
  std::vector<std::vector<Slot>> blocks_;
  std::uint32_t slot_count_ = 0;  ///< slots constructed so far
  std::uint32_t free_head_ = kNoSlot;
  std::size_t tombstones_ = 0;  ///< cancelled keys still in either tier
  std::uint64_t next_seq_ = 0;
  std::uint64_t id_base_ = 0;
};

}  // namespace tussle::sim
