// Fixture (never compiled): the control plane reaching into other actors.
namespace fixture {

void reroute(Network& net, Node& node, NodeId a, LinkId l) {
  net.node(a).add_filter(make_filter());     // cross-actor-mut
  net.link(l).set_up(false);                 // cross-actor-mut
  net.node(a).forwarding().set_route(p, 2);  // cross-actor-mut: a FIB write from routing/
  node.forwarding().clear();                 // cross-actor-mut: a FIB write from routing/
  const auto id = net.node(a).id();          // near miss: a fetch without a mutation
  node.add_filter(make_filter());            // near miss: a mutation without a fetch
  std::unordered_map<int, int> costs;        // unordered-iter
  std::vector<int> costs_list;
  for (const auto& kv : costs) {             // unordered-merge
    costs_list.push_back(kv.second + id);
  }
  for (int c : costs_list) {                 // near miss: a name that only starts alike
    node.weigh(c);
  }
  for (int i = 0; i < 3; ++i) {              // near miss: not a range-for
    node.weigh(i);
  }
}

}  // namespace fixture
