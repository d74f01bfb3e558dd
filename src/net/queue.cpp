#include "net/queue.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace tussle::net {

bool DropTailQueue::enqueue(Packet p) {
  if (size_ >= capacity_) {
    ++drops_;
    return false;
  }
  if (size_ == ring_.size()) {
    // Full ring: unwrap it so the FIFO starts at 0, then double it (the new
    // slots land after the tail).
    std::rotate(ring_.begin(), ring_.begin() + static_cast<std::ptrdiff_t>(head_), ring_.end());
    head_ = 0;
    ring_.resize(std::min(capacity_, std::max<std::size_t>(1, ring_.size() * 2)));
  }
  std::size_t tail = head_ + size_;
  if (tail >= ring_.size()) tail -= ring_.size();
  bytes_ += p.size_bytes;
  ring_[tail] = std::move(p);
  ++size_;
  return true;
}

std::optional<Packet> DropTailQueue::dequeue() {
  if (size_ == 0) return std::nullopt;
  std::optional<Packet> p(std::move(ring_[head_]));
  bytes_ -= p->size_bytes;
  if (++head_ == ring_.size()) head_ = 0;
  --size_;
  return p;
}

PriorityQueue::PriorityQueue(std::size_t per_class_capacity)
    : classes_{DropTailQueue(per_class_capacity), DropTailQueue(per_class_capacity),
               DropTailQueue(per_class_capacity)} {
  // Empty, every class has room, and the lone packet is the one served.
  passes_through_ = per_class_capacity > 0;
}

bool PriorityQueue::enqueue(Packet p) {
  const auto cls = static_cast<std::size_t>(p.tos);
  if (!classes_[cls].enqueue(std::move(p))) {
    ++drops_;
    ++class_drops_[cls];
    return false;
  }
  return true;
}

std::optional<Packet> PriorityQueue::dequeue() {
  // Highest class index = highest priority.
  for (std::size_t c = classes_.size(); c > 0; --c) {
    if (auto p = classes_[c - 1].dequeue()) return p;
  }
  return std::nullopt;
}

std::size_t PriorityQueue::packets() const noexcept {
  std::size_t n = 0;
  for (const auto& q : classes_) n += q.packets();
  return n;
}

std::uint64_t PriorityQueue::bytes() const noexcept {
  std::uint64_t n = 0;
  for (const auto& q : classes_) n += q.bytes();
  return n;
}

DrrQueue::DrrQueue(std::size_t per_class_capacity, std::array<double, 3> weights)
    : classes_{DropTailQueue(per_class_capacity), DropTailQueue(per_class_capacity),
               DropTailQueue(per_class_capacity)},
      weights_(weights) {
  for (const double w : weights_) {
    if (!std::isfinite(w) || !(w > 0)) {
      throw std::invalid_argument("DrrQueue: every class weight must be finite and > 0, got " +
                                  std::to_string(w));
    }
  }
}

bool DrrQueue::enqueue(Packet p) {
  const auto cls = static_cast<std::size_t>(p.tos);
  if (!classes_[cls].enqueue(std::move(p))) {
    ++drops_;
    return false;
  }
  return true;
}

void DrrQueue::advance_round() noexcept {
  // An emptied class forfeits its residual deficit (standard DRR), and the
  // next visit to any class replenishes exactly once.
  if (classes_[round_].packets() == 0) deficit_[round_] = 0;
  fresh_visit_[round_] = true;
  round_ = (round_ + 1) % classes_.size();
}

std::optional<Packet> DrrQueue::dequeue() {
  if (packets() == 0) return std::nullopt;
  // Classic deficit round robin: on each fresh visit to a backlogged class,
  // add one quantum; serve head-of-line packets while they fit the deficit;
  // move on when the head no longer fits. Bounded: every full sweep adds a
  // positive quantum to each backlogged class (the constructor rejects any
  // other weight), so some head eventually fits. A backlog the bound cannot
  // reach throws rather than strand its packets.
  for (int guard = 0; guard < 100000; ++guard) {
    DropTailQueue& q = classes_[round_];
    if (q.packets() == 0) {
      advance_round();
      continue;
    }
    if (fresh_visit_[round_]) {
      deficit_[round_] += weights_[round_] * kQuantumBase;
      fresh_visit_[round_] = false;
    }
    const auto head = q.head_size();
    if (head && static_cast<double>(*head) <= deficit_[round_]) {
      deficit_[round_] -= static_cast<double>(*head);
      return q.dequeue();
    }
    advance_round();
  }
  throw std::logic_error(
      "DrrQueue: no head-of-line packet fit its class's deficit within the scan bound; the "
      "class weights are too small for the packet sizes queued");
}

std::size_t DrrQueue::packets() const noexcept {
  std::size_t n = 0;
  for (const auto& q : classes_) n += q.packets();
  return n;
}

std::uint64_t DrrQueue::bytes() const noexcept {
  std::uint64_t n = 0;
  for (const auto& q : classes_) n += q.bytes();
  return n;
}

std::unique_ptr<Queue> make_queue(QueueKind kind, std::size_t capacity) {
  switch (kind) {
    case QueueKind::kDropTail: return std::make_unique<DropTailQueue>(capacity);
    case QueueKind::kPriority: return std::make_unique<PriorityQueue>(capacity);
    case QueueKind::kDrr:
      return std::make_unique<DrrQueue>(capacity, std::array<double, 3>{1.0, 2.0, 4.0});
  }
  return std::make_unique<DropTailQueue>(capacity);
}

}  // namespace tussle::net
