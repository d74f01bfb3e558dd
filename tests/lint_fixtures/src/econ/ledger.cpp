#include <vector>
long g_after_include;  // mutable-global: reported on this line, not on the #include

#define LEDGER_RESET(x) \
  do {                  \
    (x) = 0;            \
  } while (0)
long g_after_macro;  // mutable-global: the macro's braces and ';' are not statements

// Fixture (never compiled): namespace-scope state and settlement pointers.
namespace fixture {

constinit int g_ready = 0;    // mutable-global: constinit is still mutable
std::vector<int> g_history;   // mutable-global
thread_local int t_depth = 0;  // mutable-global
const int kMaxParties = 3;    // near miss: const
constexpr double kFee = 0.5;  // near miss: constexpr
extern int g_external;        // near miss: a declaration
using Amount = long;          // near miss: an alias
int settle(int amount);       // near miss: a function
static_assert(sizeof(int) == 4);  // near miss

struct Transit {
  Ledger* ledger_;  // cross-actor-ptr
  int price = 0;
};

enum class Tier { kGold, kSilver };  // near miss: enumerators are not statements

}  // namespace fixture
