// Fixture (never compiled): an application endpoint, outside the hot path.
#include <unordered_map>  // near miss: unordered-iter covers hot-path subsystems only

namespace fixture {

std::mt19937 g_engine;  // banned-random, mutable-global

class Client {
  net::Network* net_ = nullptr;          // cross-actor-ptr
  std::unordered_map<int, int> pending_;  // near miss: unordered-iter is hot-path only
  void poll();
};

void Client::poll() {
  static int polls = 0;          // static-local: repo-wide
  auto* buffer = new char[64];   // near miss: hot-path-alloc covers sim/ and net/ only
  for (const auto& [id, seq] : pending_) {  // unordered-merge: repo-wide
    buffer[id % 64] = static_cast<char>(seq + polls);
  }
}

}  // namespace fixture
