#include "net/queue.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <limits>
#include <stdexcept>

namespace tussle::net {
namespace {

Packet pkt(ServiceClass tos, std::uint32_t size = 1000, std::uint64_t uid = 0) {
  Packet p;
  p.tos = tos;
  p.size_bytes = size;
  p.uid = uid;
  return p;
}

TEST(DropTailQueue, FifoOrder) {
  DropTailQueue q(10);
  for (std::uint64_t i = 1; i <= 5; ++i)
    ASSERT_TRUE(q.enqueue(pkt(ServiceClass::kBestEffort, 100, i)));
  for (std::uint64_t i = 1; i <= 5; ++i) {
    auto p = q.dequeue();
    ASSERT_TRUE(p);
    EXPECT_EQ(p->uid, i);
  }
  EXPECT_FALSE(q.dequeue().has_value());
}

TEST(DropTailQueue, DropsWhenFull) {
  DropTailQueue q(2);
  EXPECT_TRUE(q.enqueue(pkt(ServiceClass::kBestEffort)));
  EXPECT_TRUE(q.enqueue(pkt(ServiceClass::kBestEffort)));
  EXPECT_FALSE(q.enqueue(pkt(ServiceClass::kBestEffort)));
  EXPECT_EQ(q.drops(), 1u);
  EXPECT_EQ(q.packets(), 2u);
}

TEST(DropTailQueue, ByteAccountingConserved) {
  DropTailQueue q(10);
  q.enqueue(pkt(ServiceClass::kBestEffort, 300));
  q.enqueue(pkt(ServiceClass::kBestEffort, 700));
  EXPECT_EQ(q.bytes(), 1000u);
  q.dequeue();
  EXPECT_EQ(q.bytes(), 700u);
  q.dequeue();
  EXPECT_EQ(q.bytes(), 0u);
}

TEST(PriorityQueue, PremiumServedFirst) {
  PriorityQueue q(10);
  q.enqueue(pkt(ServiceClass::kBestEffort, 100, 1));
  q.enqueue(pkt(ServiceClass::kPremium, 100, 2));
  q.enqueue(pkt(ServiceClass::kAssured, 100, 3));
  EXPECT_EQ(q.dequeue()->uid, 2u);
  EXPECT_EQ(q.dequeue()->uid, 3u);
  EXPECT_EQ(q.dequeue()->uid, 1u);
}

TEST(PriorityQueue, PerClassIsolation) {
  PriorityQueue q(2);
  // Fill best-effort; premium must still be accepted.
  EXPECT_TRUE(q.enqueue(pkt(ServiceClass::kBestEffort)));
  EXPECT_TRUE(q.enqueue(pkt(ServiceClass::kBestEffort)));
  EXPECT_FALSE(q.enqueue(pkt(ServiceClass::kBestEffort)));
  EXPECT_TRUE(q.enqueue(pkt(ServiceClass::kPremium)));
  EXPECT_EQ(q.class_drops(ServiceClass::kBestEffort), 1u);
  EXPECT_EQ(q.class_drops(ServiceClass::kPremium), 0u);
}

TEST(PriorityQueue, FifoWithinClass) {
  PriorityQueue q(10);
  q.enqueue(pkt(ServiceClass::kAssured, 100, 1));
  q.enqueue(pkt(ServiceClass::kAssured, 100, 2));
  EXPECT_EQ(q.dequeue()->uid, 1u);
  EXPECT_EQ(q.dequeue()->uid, 2u);
}

TEST(DrrQueue, AllClassesEventuallyServed) {
  DrrQueue q(100, {1.0, 1.0, 1.0});
  for (int i = 0; i < 30; ++i) {
    q.enqueue(pkt(ServiceClass::kBestEffort));
    q.enqueue(pkt(ServiceClass::kAssured));
    q.enqueue(pkt(ServiceClass::kPremium));
  }
  int counts[3] = {0, 0, 0};
  while (auto p = q.dequeue()) counts[static_cast<int>(p->tos)]++;
  EXPECT_EQ(counts[0], 30);
  EXPECT_EQ(counts[1], 30);
  EXPECT_EQ(counts[2], 30);
}

TEST(DrrQueue, NoStarvationUnderSkewedWeights) {
  DrrQueue q(100, {1.0, 1.0, 8.0});
  for (int i = 0; i < 50; ++i) {
    q.enqueue(pkt(ServiceClass::kBestEffort));
    q.enqueue(pkt(ServiceClass::kPremium));
  }
  // Within the first 20 dequeues, best-effort must appear.
  int be_seen = 0;
  for (int i = 0; i < 20; ++i) {
    auto p = q.dequeue();
    ASSERT_TRUE(p);
    be_seen += (p->tos == ServiceClass::kBestEffort);
  }
  EXPECT_GT(be_seen, 0);
}

TEST(DrrQueue, ServiceRoughlyProportionalToWeights) {
  // Weights 1:1:4 with persistent backlog: count per-class service among
  // the first 60 dequeues; the premium class should get ~4x the others.
  DrrQueue q(1000, {1.0, 1.0, 4.0});
  for (int i = 0; i < 300; ++i) {
    q.enqueue(pkt(ServiceClass::kBestEffort, 1500));
    q.enqueue(pkt(ServiceClass::kAssured, 1500));
    q.enqueue(pkt(ServiceClass::kPremium, 1500));
  }
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 60; ++i) {
    auto p = q.dequeue();
    ASSERT_TRUE(p);
    counts[static_cast<int>(p->tos)]++;
  }
  EXPECT_GT(counts[2], 2 * counts[0]);
  EXPECT_GT(counts[0], 0);  // no starvation
  EXPECT_GT(counts[1], 0);
}

TEST(DrrQueue, RejectsWeightsThatNeverEarnAQuantum) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {0.0, -1.0, nan, inf}) {
    EXPECT_THROW(DrrQueue(8, {bad, 1, 1}), std::invalid_argument) << bad;
    EXPECT_THROW(DrrQueue(8, {1, 1, bad}), std::invalid_argument) << bad;
  }
  EXPECT_NO_THROW(DrrQueue(8, {0.5, 1, 1}));
}

TEST(DrrQueue, ExhaustedScanThrowsInsteadOfStrandingTheBacklog) {
  // A weight this small needs ~10^9 sweeps before a 1500 B head fits: the
  // scan bound runs out first. The backlog must not look empty.
  DrrQueue q(8, {1e-9, 1, 1});
  ASSERT_TRUE(q.enqueue(pkt(ServiceClass::kBestEffort, 1500, 1)));
  EXPECT_THROW(q.dequeue(), std::logic_error);
  EXPECT_EQ(q.packets(), 1u);
}

// The ring against a std::deque oracle: random enqueue/dequeue mixes at
// small capacities (every wrap and growth step) and at the links' default
// capacity, checked after every operation. Each mix opens with
// enqueue, enqueue, dequeue, enqueue, enqueue: at a capacity of 3 or more
// the last of these grows the ring of 2 while its FIFO wraps past the end.
TEST(DropTailQueue, RingMatchesDequeOracle) {
  constexpr const char* kOpening = "eedee";
  for (const std::size_t capacity : {1u, 2u, 3u, 64u}) {
    DropTailQueue q(capacity);
    std::deque<Packet> oracle;
    std::uint64_t oracle_bytes = 0;
    std::uint64_t oracle_drops = 0;
    std::uint64_t next_uid = 1;
    std::uint64_t x = capacity;
    for (int op = 0; op < 20000; ++op) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      // Then phases of rising and falling pressure, so the ring fills, wraps
      // and grows while wrapped, then drains.
      const bool fill = op < 5 ? kOpening[op] == 'e'
                               : ((op / 97) % 2 == 0) ? (x >> 60) < 11 : (x >> 60) < 5;
      if (fill) {
        const Packet p = pkt(ServiceClass::kBestEffort, 40 + static_cast<std::uint32_t>(x >> 54),
                             next_uid++);
        const bool room = oracle.size() < capacity;
        ASSERT_EQ(q.enqueue(p), room) << "capacity " << capacity << " op " << op;
        if (room) {
          oracle.push_back(p);
          oracle_bytes += p.size_bytes;
        } else {
          ++oracle_drops;
        }
      } else {
        const auto got = q.dequeue();
        ASSERT_EQ(got.has_value(), !oracle.empty()) << "capacity " << capacity << " op " << op;
        if (got) {
          ASSERT_EQ(got->uid, oracle.front().uid) << "capacity " << capacity << " op " << op;
          ASSERT_EQ(got->size_bytes, oracle.front().size_bytes);
          oracle_bytes -= oracle.front().size_bytes;
          oracle.pop_front();
        }
      }
      ASSERT_EQ(q.packets(), oracle.size());
      ASSERT_EQ(q.bytes(), oracle_bytes);
      ASSERT_EQ(q.drops(), oracle_drops);
      ASSERT_EQ(q.head_size().has_value(), !oracle.empty());
      if (!oracle.empty()) {
        ASSERT_EQ(*q.head_size(), oracle.front().size_bytes);
      }
    }
  }
}

TEST(MakeQueue, FactoryProducesRequestedKind) {
  auto dt = make_queue(QueueKind::kDropTail, 4);
  auto pr = make_queue(QueueKind::kPriority, 4);
  auto dr = make_queue(QueueKind::kDrr, 4);
  ASSERT_TRUE(dt && pr && dr);
  // Behavioral check: priority queue reorders, drop-tail does not.
  dt->enqueue(pkt(ServiceClass::kBestEffort, 100, 1));
  dt->enqueue(pkt(ServiceClass::kPremium, 100, 2));
  EXPECT_EQ(dt->dequeue()->uid, 1u);
  pr->enqueue(pkt(ServiceClass::kBestEffort, 100, 1));
  pr->enqueue(pkt(ServiceClass::kPremium, 100, 2));
  EXPECT_EQ(pr->dequeue()->uid, 2u);
}

// Property sweep: conservation (everything enqueued is dequeued or dropped)
// across disciplines and loads.
class QueueConservation : public ::testing::TestWithParam<std::tuple<QueueKind, int>> {};

TEST_P(QueueConservation, InEqualsOutPlusDrops) {
  auto [kind, load] = GetParam();
  auto q = make_queue(kind, 16);
  int accepted = 0;
  for (int i = 0; i < load; ++i) {
    auto cls = static_cast<ServiceClass>(i % 3);
    accepted += q->enqueue(pkt(cls, 100 + i % 500));
  }
  int out = 0;
  while (q->dequeue()) ++out;
  EXPECT_EQ(out, accepted);
  EXPECT_EQ(static_cast<int>(q->drops()) + accepted, load);
  EXPECT_EQ(q->packets(), 0u);
  EXPECT_EQ(q->bytes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, QueueConservation,
    ::testing::Combine(::testing::Values(QueueKind::kDropTail, QueueKind::kPriority,
                                         QueueKind::kDrr),
                       ::testing::Values(1, 10, 16, 48, 200)));

}  // namespace
}  // namespace tussle::net
