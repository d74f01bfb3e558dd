// Fixture (never compiled): determinism and shard-state hazards in a
// hot-path subsystem. Each construct is tagged with the check that should
// report it, or "near miss" when no check should.
#include <ctime>
#include <map>
#include <memory>
#include <set>
#include <unordered_set>  // unordered-iter: line checks see directive lines

#define JITTER(x) \
  ((x) + rand() % 3)  // banned-random: and directive continuation lines

namespace fixture {

struct Packet;
struct Flow;

struct Counters {
  std::uint64_t sent;      // uninit-member
  double rate;             // uninit-member
  mutable int hits;        // uninit-member
  int received = 0;        // near miss: initializer
  bool up{};               // near miss: brace initializer
  unsigned flags : 3;      // near miss: bitfield
  std::vector<int> queue;  // near miss: not a scalar
  int window[4];           // near miss: array
  static int instances;    // near miss: static member
  int total() const;       // near miss: function
};

struct Wire {
#ifdef FIXTURE_POISON
  std::uint64_t poison;  // uninit-member: the directive above is not part of it
#endif
  int events;  // uninit-member: nor is the one above
};

class Scheduler {
 public:
  void run();

 private:
  std::map<Packet*, int> by_packet_;              // pointer-key-order
  std::set<const Flow*> flows_;                   // pointer-key-order
  std::map<int, Packet*> by_uid_;                 // near miss: pointer value, not key
  std::map<std::pair<int, int>, Flow*> by_pair_;  // near miss
  std::unordered_set<int> seen_;                  // unordered-iter
};

void Scheduler::run() {
  std::random_device rd;                  // banned-random
  const auto stamp = std::time(nullptr);  // banned-random: time() call
  const double due = queue.next_time();   // near miss: next_time(
  const double t0 = wall_now_seconds();   // exec-wall-clock
  const SimTime end = deadline_time(3);   // near miss: deadline_time( is not time(
  auto* job = new Job();                  // hot-path-alloc
  delete job;                             // hot-path-alloc
  auto shared = std::make_shared<Job>();  // hot-path-alloc
  job->renew(due);                        // near miss: renew is not new
  static int runs = 0;                    // static-local
  static const int kLimit = 4;            // near miss: const
  static constexpr int kBatch = 8;        // near miss: constexpr
  static constinit int warmups = 0;       // static-local: constinit is still mutable
  thread_local int depth = 0;             // static-local
}

struct Job {
  Job(const Job&) = delete;             // near miss: a deleted member allocates nothing
  Job& operator=(const Job&) =delete;  // near miss
};

}  // namespace fixture
