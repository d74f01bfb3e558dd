// Fixture (never compiled): record-scope shard state and allocation in the
// packet path.
#include <unordered_map>  // unordered-iter: line checks see directive lines

namespace fixture {

class Table {
 public:
  static Table& shared();                  // singleton-accessor
  static Table build(const Link& uplink);  // near miss: the '&' is a parameter's
  Table& self();                           // near miss: not static
  void install(Node& n);

 private:
  Simulator* sim_;                      // cross-actor-ptr
  SpanTracer* spans_ = nullptr;         // near miss: an observability sink
  Node& owner_;                         // near miss: a reference, not a pointer
  std::unordered_map<int, int> routes_;  // unordered-iter
};

void Table::install(Node& n) {
  n.forwarding().set_route(prefix, 1);  // near miss: net/ writes its own FIB
  Packet* p = new Packet();             // hot-path-alloc
  for (const auto& [prefix, ifindex] : routes_) {  // unordered-merge
    p->route(prefix, ifindex);
  }
}

}  // namespace fixture
