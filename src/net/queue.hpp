// Output-queue disciplines.
//
// The QoS experiments need at least two schedulers: plain drop-tail FIFO
// (the classless Internet) and a class-aware scheduler that actually honours
// the ToS bits (strict priority plus a weighted variant so "assured" cannot
// be starved). The choice of discipline is itself a tussle knob: an ISP
// that deploys QoS switches its routers from FIFO to one of these.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "net/packet.hpp"

namespace tussle::net {

/// Abstract output queue. Implementations are FIFO within a traffic class.
class Queue {
 public:
  virtual ~Queue() = default;

  /// Returns false if the packet was dropped (queue full).
  virtual bool enqueue(Packet p) = 0;
  virtual std::optional<Packet> dequeue() = 0;
  virtual std::size_t packets() const noexcept = 0;
  virtual std::uint64_t bytes() const noexcept = 0;
  bool empty() const noexcept { return packets() == 0; }

  std::uint64_t drops() const noexcept { return drops_; }

  /// True when this queue, empty, would hand an enqueued packet straight
  /// back on the next dequeue and change nothing else. An idle link then
  /// puts the packet on the wire without the round trip. A zero-capacity
  /// queue must drop it instead, and a DRR dequeue spends deficit, so
  /// neither passes packets through.
  bool passes_through() const noexcept { return passes_through_; }

 protected:
  std::uint64_t drops_ = 0;
  bool passes_through_ = false;
};

/// Classic drop-tail FIFO bounded by packet count, kept in a ring. The ring
/// doubles on demand up to the capacity and never shrinks, so a queue costs
/// memory for the deepest backlog it has held, and once there its enqueues
/// and dequeues allocate nothing.
class DropTailQueue final : public Queue {
 public:
  explicit DropTailQueue(std::size_t capacity_packets) : capacity_(capacity_packets) {
    passes_through_ = capacity_ > 0;
  }

  bool enqueue(Packet p) override;
  std::optional<Packet> dequeue() override;
  std::size_t packets() const noexcept override { return size_; }
  std::uint64_t bytes() const noexcept override { return bytes_; }
  /// Size of the head-of-line packet, if any (used by DRR scheduling).
  std::optional<std::uint32_t> head_size() const noexcept {
    if (size_ == 0) return std::nullopt;
    return ring_[head_].size_bytes;
  }

 private:
  std::size_t capacity_ = 0;
  std::vector<Packet> ring_;  ///< the FIFO runs from head_, wrapping at the end
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::uint64_t bytes_ = 0;
};

/// Strict-priority scheduler over the three service classes. Premium is
/// always served first; within a class, FIFO. Each class has its own
/// drop-tail bound so best-effort bursts cannot push out premium traffic.
class PriorityQueue final : public Queue {
 public:
  explicit PriorityQueue(std::size_t per_class_capacity);

  bool enqueue(Packet p) override;
  std::optional<Packet> dequeue() override;
  std::size_t packets() const noexcept override;
  std::uint64_t bytes() const noexcept override;

  std::uint64_t class_drops(ServiceClass c) const noexcept {
    return class_drops_[static_cast<std::size_t>(c)];
  }

 private:
  std::array<DropTailQueue, 3> classes_;
  std::array<std::uint64_t, 3> class_drops_{};
};

/// Deficit-round-robin scheduler: classes share bandwidth in proportion to
/// their weights, so lower classes degrade gracefully instead of starving.
class DrrQueue final : public Queue {
 public:
  /// `weights` are relative shares for {best-effort, assured, premium}.
  /// Throws std::invalid_argument unless every weight is finite and > 0:
  /// a class whose quantum never grows would hold its backlog forever.
  DrrQueue(std::size_t per_class_capacity, std::array<double, 3> weights);

  bool enqueue(Packet p) override;
  /// Throws std::logic_error if no head fits its class's deficit within
  /// the scan bound (weights too small for the packet sizes queued).
  std::optional<Packet> dequeue() override;
  std::size_t packets() const noexcept override;
  std::uint64_t bytes() const noexcept override;

 private:
  void advance_round() noexcept;

  static constexpr std::uint32_t kQuantumBase = 1500;
  std::array<DropTailQueue, 3> classes_;
  std::array<double, 3> weights_;
  std::array<double, 3> deficit_{};
  std::array<bool, 3> fresh_visit_{true, true, true};
  std::size_t round_ = 0;
};

/// Factory selecting the discipline by name; used by scenario configs.
enum class QueueKind { kDropTail, kPriority, kDrr };
std::unique_ptr<Queue> make_queue(QueueKind kind, std::size_t capacity);

}  // namespace tussle::net
