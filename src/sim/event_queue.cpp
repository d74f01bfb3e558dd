#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace tussle::sim {

EventQueue::Place EventQueue::place(std::uint32_t index) noexcept {
  if (index < kGrowEnd) {
    // Biased by the first block's 16 slots, block b spans [16 * 2^b,
    // 16 * 2^(b+1)), so the block is the biased index's bit width less five.
    const std::size_t biased = std::size_t{index} + (std::size_t{1} << kFirstBlockBits);
    const auto block = static_cast<std::size_t>(std::bit_width(biased >> kFirstBlockBits) - 1);
    return {block, biased - (std::size_t{1} << (kFirstBlockBits + block))};
  }
  // Past the doubling blocks every block holds 512 slots.
  const std::size_t rest = index - kGrowEnd;
  return {kGrowBlocks + (rest >> kMaxBlockBits), rest & ((std::size_t{1} << kMaxBlockBits) - 1)};
}

EventQueue::Slot& EventQueue::slot(std::uint32_t index) noexcept {
  const Place p = place(index);
  return blocks_[p.block][p.offset];
}

std::uint32_t EventQueue::acquire_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t index = free_head_;
    free_head_ = static_cast<std::uint32_t>(slot(index).state);
    return index;
  }
  if (slot_count_ == kMaxSlots) {
    throw std::overflow_error("EventQueue: more than 2^24 pending events and tombstones");
  }
  const Place p = place(slot_count_);
  if (p.block == blocks_.size()) {
    // Reserved at full size before it is published, so later emplace_backs
    // never reallocate and slot references stay valid.
    std::vector<Slot> block;
    block.reserve(std::size_t{1} << std::min<std::size_t>(kFirstBlockBits + p.block, kMaxBlockBits));
    blocks_.push_back(std::move(block));
  }
  blocks_[p.block].emplace_back();
  return slot_count_++;
}

void EventQueue::release_slot(std::uint32_t index) noexcept {
  slot(index).state = kFree | free_head_;
  free_head_ = index;
}

EventId EventQueue::push(SimTime at, Action action, TaskTag tag) {
  if (next_seq_ == kMaxSeq) {
    throw std::overflow_error("EventQueue: 2^40 sequence numbers used up");
  }
  const std::uint32_t index = acquire_slot();
  const std::uint64_t seq = next_seq_++;
  Slot& s = slot(index);
  s.action = std::move(action);
  s.tag = tag;
  s.state = seq;
  heap_.emplace_back();
  sift_up(heap_.size() - 1, Key{at.as_nanos(), seq << kSlotBits | index});
  return EventId{id_base_ + seq + 1, index};  // ids start at 1 so {} is "no event"
}

bool EventQueue::cancel(EventId id) {
  if (id.value <= id_base_ || id.slot >= slot_count_) return false;
  Slot& s = slot(id.slot);
  // A fired event's slot is free or holds a later event, and a cancelled
  // one carries kCancelled: either way the state differs from the seq.
  if (s.state != id.value - id_base_ - 1) return false;
  s.state |= kCancelled;
  ++tombstones_;
  // The action dies on return, once the queue is consistent again, so a
  // destructor that schedules or cancels sees a well-formed queue.
  const Action doomed = std::exchange(s.action, nullptr);
  drop_cancelled_top();
  return true;
}

EventQueue::Popped EventQueue::pop() {
  assert(!heap_.empty());
  const Key top = heap_.front();
  const std::uint32_t index = slot_of(top);
  Slot& s = slot(index);
  Popped out{SimTime::nanos(top.time), std::exchange(s.action, nullptr), s.tag,
             EventId{id_base_ + s.state + 1, index}};
  release_slot(index);
  remove_top();
  drop_cancelled_top();
  return out;
}

void EventQueue::sift_up(std::size_t hole, Key key) noexcept {
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / 2;
    if (!before(key, heap_[parent])) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = key;
}

void EventQueue::remove_top() noexcept {
  const Key last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  // Walk the root's hole down to a leaf along the smaller children, then
  // sift the former last key up from there. That key usually belongs near
  // the bottom, so this costs one comparison per level instead of two.
  std::size_t hole = 0;
  for (std::size_t child = 1; child < n; child = 2 * hole + 1) {
    if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
    heap_[hole] = heap_[child];
    hole = child;
  }
  sift_up(hole, last);
}

void EventQueue::drop_cancelled_top() noexcept {
  // Keeps the top of the heap a live event, so empty() and next_time()
  // need no cleanup of their own.
  while (tombstones_ != 0) {
    const std::uint32_t index = slot_of(heap_.front());
    if ((slot(index).state & kCancelled) == 0) return;
    release_slot(index);
    remove_top();
    --tombstones_;
  }
}

}  // namespace tussle::sim
