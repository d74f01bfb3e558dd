#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
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

EventId EventQueue::push(SimTime at, Action&& action, TaskTag tag) {
  if (next_seq_ == kMaxSeq) {
    throw std::overflow_error("EventQueue: 2^40 sequence numbers used up");
  }
  const std::uint32_t index = acquire_slot();
  const std::uint64_t seq = next_seq_++;
  const std::int64_t time = at.as_nanos();
  Slot& s = slot(index);
  s.action = std::move(action);
  s.tag = tag;
  s.state = seq;
  s.time = time;
  if (near_.size() >= kDeep && !calendar()) spill();
  if (time <= near_max_) {
    near_.emplace_back();
    sift_up(near_.size() - 1, Key{time, seq << kSlotBits | index});
  } else {
    far_push(index, time);
  }
  return EventId{id_base_ + seq + 1, index};  // ids start at 1 so {} is "no event"
}

bool EventQueue::cancel(EventId id, TaskTag* tag) {
  if (id.value <= id_base_ || id.slot >= slot_count_) return false;
  Slot& s = slot(id.slot);
  // A fired event's slot is free or holds a later event, and a cancelled
  // one carries kCancelled: either way the state differs from the seq.
  if (s.state != id.value - id_base_ - 1) return false;
  if (tag != nullptr) *tag = s.tag;
  s.state |= kCancelled;
  ++tombstones_;
  // The action dies on return, once the queue is consistent again, so a
  // destructor that schedules or cancels sees a well-formed queue.
  const Action doomed = std::exchange(s.action, nullptr);
  if (spilled() && id.slot == slot_of(spilled_min_)) {
    // next_time() can no longer read the key set aside for it: build the
    // calendar now, from every pending key.
    spill_near();
    advance();
  } else {
    settle();
  }
  return true;
}

EventQueue::Popped EventQueue::pop() {
  assert(!empty());
  // Outside a spilled heap the near heap's top is the earliest event; a
  // spilled heap builds its first calendar here, once its near keys are gone.
  if (near_.empty()) advance();
  const Key top = near_.front();
  const std::uint32_t index = slot_of(top);
  Slot& s = slot(index);
  Popped out{SimTime::nanos(top.time), std::exchange(s.action, nullptr), s.tag,
             EventId{id_base_ + s.state + 1, index}};
  release_slot(index);
  remove_top();
  if (tombstones_ != 0 || near_.empty()) settle();
  return out;
}

// ------------------------------------------------------------- near heap --

void EventQueue::sift_up(std::size_t hole, Key key) noexcept {
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / 2;
    if (!before(key, near_[parent])) break;
    near_[hole] = near_[parent];
    hole = parent;
  }
  near_[hole] = key;
}

void EventQueue::remove_top() noexcept {
  const Key last = near_.back();
  near_.pop_back();
  const std::size_t n = near_.size();
  if (n == 0) return;
  // Walk the root's hole down to a leaf along the smaller children, then
  // sift the former last key up from there. That key usually belongs near
  // the bottom, so this costs one comparison per level instead of two.
  std::size_t hole = 0;
  for (std::size_t child = 1; child < n; child = 2 * hole + 1) {
    if (child + 1 < n && before(near_[child + 1], near_[child])) ++child;
    near_[hole] = near_[child];
    hole = child;
  }
  sift_up(hole, last);
}

void EventQueue::make_near_heap() noexcept {
  // std::make_heap builds a max-heap in the same layout sift_up and
  // remove_top keep; the reversed comparison makes it a min-heap.
  std::make_heap(near_.begin(), near_.end(),
                 [](const Key& a, const Key& b) { return before(b, a); });
}

void EventQueue::settle() {
  // Keeps the top of the near heap a live event, so empty(), size() and
  // next_time() need no cleanup of their own.
  while (tombstones_ != 0 && !near_.empty()) {
    const std::uint32_t index = slot_of(near_.front());
    if ((slot(index).state & kCancelled) == 0) return;
    release_slot(index);
    remove_top();
    --tombstones_;
  }
  if (near_.empty() && calendar()) advance();
}

// -------------------------------------------------------------- far tier --

void EventQueue::far_push(std::uint32_t index, std::int64_t time) noexcept {
  // Under a calendar the key is past the split, so at or after cal_start_,
  // and its offset is exact in unsigned arithmetic. Without one every far
  // key goes to the overflow.
  const std::uint64_t bucket =
      (static_cast<std::uint64_t>(time) - static_cast<std::uint64_t>(cal_start_)) >> shift_;
  std::uint32_t& head = bucket < buckets_.size() ? buckets_[bucket] : overflow_;
  slot(index).next = head;
  head = index;
  ++far_;
}

void EventQueue::spill() noexcept {
  // The top is live and becomes the far tier's earliest key; keys pushed
  // before it until the first pop still go to the near heap. No split lies
  // below the earliest representable time, so a heap whose top sits there
  // stays whole until that key is gone.
  const Key top = near_.front();
  if (top.time == std::numeric_limits<std::int64_t>::min()) return;
  spill_near();
  spilled_min_ = top;
  near_max_ = top.time - 1;
}

void EventQueue::spill_near() noexcept {
  // Only without a calendar, where far_push() sends every key to the
  // overflow. Tombstones go along and are dropped by the next rebuild.
  for (const Key& k : near_) far_push(slot_of(k), k.time);
  near_.clear();
}

void EventQueue::advance() {
  assert(near_.empty());
  while (far_ != 0) {
    if (next_bucket_ == buckets_.size()) {
      rebuild();
      continue;
    }
    const std::size_t bucket = next_bucket_++;
    std::uint32_t index = buckets_[bucket];
    if (index == kNoSlot) continue;
    near_max_ = bucket_last(bucket);
    while (index != kNoSlot) {
      Slot& s = slot(index);
      const std::uint32_t next = s.next;
      --far_;
      if ((s.state & kCancelled) != 0) {
        release_slot(index);
        --tombstones_;
      } else {
        near_.push_back(Key{s.time, s.state << kSlotBits | index});
      }
      index = next;
    }
    if (!near_.empty()) {
      make_near_heap();
      return;
    }
  }
  // Nothing left in the far tier: one plain heap again, holding whatever
  // rebuild() folded into it.
  buckets_.clear();
  next_bucket_ = 0;
  near_max_ = kLatest;
}

void EventQueue::rebuild() {
  // Every bucket has been taken, so the far tier is the overflow. A first
  // walk down its chain frees the tombstones (a freed slot keeps its link),
  // counts the live keys and samples their times at a fixed stride (chain
  // order is push order, not time order); a second walk places them.
  const std::size_t stride = far_ / kTimeSample + 1;
  sample_.clear();
  sample_.reserve(kTimeSample + 1);
  std::int64_t lo = kLatest;
  std::size_t live = 0;
  std::size_t skip = 0;
  for (std::uint32_t index = overflow_; index != kNoSlot; index = slot(index).next) {
    Slot& s = slot(index);
    if ((s.state & kCancelled) != 0) {
      release_slot(index);
      --tombstones_;
      continue;
    }
    ++live;
    lo = std::min(lo, s.time);
    if (skip-- == 0) {
      sample_.push_back(s.time);
      skip = stride - 1;
    }
  }
  const bool fold = live < kShallow;
  if (!fold) {
    // A bucket is as wide as the power of two at or above the mean gap
    // between the lower half's keys (earliest to the sampled median), so a
    // few far keys cannot widen it. The buckets cover kCover times that
    // half's span, and none starts past kLatest. At least two keys in that
    // half keep the gap, and so the shift, below 2^63.
    static_assert(kShallow >= 4);
    const auto mid = sample_.begin() + static_cast<std::ptrdiff_t>(sample_.size() / 2);
    std::nth_element(sample_.begin(), mid, sample_.end());
    const std::uint64_t span = static_cast<std::uint64_t>(*mid) - static_cast<std::uint64_t>(lo);
    const std::uint64_t gap = span / (live / 2);
    shift_ = gap <= 1 ? 0 : static_cast<int>(std::bit_width(gap - 1));
    const std::uint64_t room = static_cast<std::uint64_t>(kLatest) - static_cast<std::uint64_t>(lo);
    buckets_.assign(std::min(kCover * (span >> shift_) + 1, room >> shift_) + 1, kNoSlot);
    next_bucket_ = 0;
    cal_start_ = lo;
  }
  // The second walk skips the slots the first one freed. Few live keys go
  // into the (empty) near heap instead of a calendar.
  std::uint32_t index = std::exchange(overflow_, kNoSlot);
  far_ = 0;
  while (index != kNoSlot) {
    Slot& s = slot(index);
    const std::uint32_t next = s.next;
    if ((s.state & kFree) == 0) {
      if (fold) {
        near_.push_back(Key{s.time, s.state << kSlotBits | index});
      } else {
        far_push(index, s.time);
      }
    }
    index = next;
  }
  if (fold) make_near_heap();
}

std::int64_t EventQueue::bucket_last(std::size_t bucket) const noexcept {
  // rebuild() starts no bucket past kLatest, so `first` is at most `room`;
  // the bucket holding kLatest ends there.
  const std::uint64_t room =
      static_cast<std::uint64_t>(kLatest) - static_cast<std::uint64_t>(cal_start_);
  const std::uint64_t first = std::uint64_t{bucket} << shift_;
  const std::uint64_t rest = (std::uint64_t{1} << shift_) - 1;
  if (room - first <= rest) return kLatest;
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(cal_start_) + first + rest);
}

}  // namespace tussle::sim
