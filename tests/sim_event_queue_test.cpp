#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace tussle::sim {
namespace {

TEST(EventQueue, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.push(SimTime::millis(30), [&] { fired.push_back(3); });
  q.push(SimTime::millis(10), [&] { fired.push_back(1); });
  q.push(SimTime::millis(20), [&] { fired.push_back(2); });
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakInInsertionOrder) {
  EventQueue q;
  std::vector<int> fired;
  const SimTime t = SimTime::millis(5);
  for (int i = 0; i < 10; ++i) q.push(t, [&fired, i] { fired.push_back(i); });
  while (!q.empty()) q.pop().action();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, PopReportsScheduledTime) {
  EventQueue q;
  q.push(SimTime::millis(7), [] {});
  EXPECT_EQ(q.next_time(), SimTime::millis(7));
  auto popped = q.pop();
  EXPECT_EQ(popped.time, SimTime::millis(7));
}

TEST(EventQueue, PopReturnsTheTag) {
  // Tags live in the event's slot, whether or not an observer reads them.
  EventQueue q;
  q.push(SimTime::millis(2), [] {}, TaskTag{"net.link", "propagate"});
  q.push(SimTime::millis(1), [] {});
  EXPECT_EQ(q.pop().tag.kind, nullptr);
  const auto p = q.pop();
  EXPECT_STREQ(p.tag.component, "net.link");
  EXPECT_STREQ(p.tag.kind, "propagate");
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  int fired = 0;
  EventId id = q.push(SimTime::millis(1), [&] { ++fired; });
  q.push(SimTime::millis(2), [&] { fired += 10; });
  EXPECT_TRUE(q.cancel(id));
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(fired, 10);
}

TEST(EventQueue, CancelTwiceFails) {
  EventQueue q;
  EventId id = q.push(SimTime::millis(1), [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelUnknownIdFails) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(EventId{}));
  EXPECT_FALSE(q.cancel(EventId{12345}));
}

TEST(EventQueue, CancelledHeadDoesNotBlockNext) {
  EventQueue q;
  int fired = 0;
  EventId head = q.push(SimTime::millis(1), [&] { fired = 1; });
  q.push(SimTime::millis(2), [&] { fired = 2; });
  q.cancel(head);
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(q.next_time(), SimTime::millis(2));
  q.pop().action();
  EXPECT_EQ(fired, 2);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SizeExcludesCancelled) {
  EventQueue q;
  EventId a = q.push(SimTime::millis(1), [] {});
  q.push(SimTime::millis(2), [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, ManyEventsStaySorted) {
  EventQueue q;
  // Adversarial insertion order: descending times.
  for (int i = 999; i >= 0; --i) q.push(SimTime::micros(i), [] {});
  SimTime prev = SimTime::zero();
  while (!q.empty()) {
    auto p = q.pop();
    EXPECT_GE(p.time, prev);
    prev = p.time;
  }
}

}  // namespace
}  // namespace tussle::sim
