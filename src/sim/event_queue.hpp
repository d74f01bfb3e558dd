// Pending-event set for the discrete-event engine.
//
// Layout. Two structures hold the pending events:
//  - a binary min-heap of 16-byte keys, (time, seq << kSlotBits | slot),
//    ordered by time and then by the key's second word. Sequence numbers
//    are unique and occupy its high bits, so the slot bits never decide
//    an order: events fire in (time, seq) order, and two events scheduled
//    for the same instant fire in the order they were scheduled — a
//    property several protocol models (and the determinism tests) rely on;
//  - a slot arena holding each event's action, its TaskTag, and the
//    sequence number of the slot's live occupant. Freed slots are reused
//    (last freed, first reused). The arena grows in blocks that never
//    move, so growing it copies nothing: they double from a 16-slot first
//    block up to 512 slots, then stay at 512, so a queue allocates at most
//    one partly used block and memory tracks the number of pending events.
// A sift therefore moves trivially copyable keys, never std::functions.
// Tags always live in the slot; there is no per-event side table.
//
// Ids. EventId::value is id_base + seq + 1, so 0 means "no event" and the
// default base keeps serial ids 1, 2, 3, ... Profilers key events by the
// value, and the sharded backend routes cancel() by its high bits.
// EventId::slot names the event's arena slot.
//
// Cancel is O(1): it compares the id's sequence number with the slot's
// live occupant (a fired event's slot is free or reused, so stale ids
// fail), marks the slot cancelled and frees its action. The key stays in
// the heap as a tombstone until it reaches the top, where it is dropped
// and its slot freed; the top of the heap is always a live event.
//
// Limits. A queue hands out at most kMaxSeq = 2^40 sequence numbers (the
// sharded backend gives each owner a 2^40-wide id range), and holds at
// most kMaxSlots = 2^24 pending events plus undropped tombstones. push()
// throws std::overflow_error past either limit.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/observer.hpp"
#include "sim/time.hpp"

namespace tussle::sim {

/// Opaque handle identifying a scheduled event, usable to cancel it.
struct EventId {
  std::uint64_t value = 0;  ///< id_base + seq + 1; 0 is "no event"
  std::uint32_t slot = 0;   ///< the event's arena slot, checked against value
  friend bool operator==(EventId, EventId) = default;
};

class EventQueue {
 public:
  using Action = std::function<void()>;

  static constexpr int kSlotBits = 24;
  static constexpr std::uint64_t kMaxSlots = 1ull << kSlotBits;
  static constexpr std::uint64_t kMaxSeq = 1ull << (64 - kSlotBits);

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

  /// Cancels a pending event in O(1). Returns false if the event already
  /// fired, was cancelled before, or never existed.
  bool cancel(EventId id);

  bool empty() const noexcept { return heap_.empty(); }
  std::size_t size() const noexcept { return heap_.size() - tombstones_; }

  /// Earliest pending event time. Precondition: !empty().
  SimTime next_time() const {
    assert(!heap_.empty());
    return SimTime::nanos(heap_.front().time);
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

  struct Slot {
    Action action;
    TaskTag tag;
    std::uint64_t state = kFree | kNoSlot;
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
  void sift_up(std::size_t hole, Key key) noexcept;
  void remove_top() noexcept;
  void drop_cancelled_top() noexcept;

  std::vector<Key> heap_;
  /// Blocks 0-5 hold 16, 32, ..., 512 slots; every later block holds 512.
  /// Each is reserved at its full size up front, so its slots never move.
  std::vector<std::vector<Slot>> blocks_;
  std::uint32_t slot_count_ = 0;  ///< slots constructed so far
  std::uint32_t free_head_ = kNoSlot;
  std::size_t tombstones_ = 0;  ///< cancelled keys still in heap_
  std::uint64_t next_seq_ = 0;
  std::uint64_t id_base_ = 0;
};

}  // namespace tussle::sim
