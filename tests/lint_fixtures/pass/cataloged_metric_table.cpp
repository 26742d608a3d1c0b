// Pass fixture: a marked metric table whose rows all name cataloged
// counters.
namespace otged_lint_fixture {

struct Row {
  const char* name;
  const char* help;
};

// otged-lint: metric-table(counter)
constexpr Row kRows[] = {
    {"otged_cascade_candidates_total", "candidate pairs"},
    {"otged_cascade_pruned_total{tier=\"index\"}", "pairs the index dismissed"},
};

}  // namespace otged_lint_fixture
