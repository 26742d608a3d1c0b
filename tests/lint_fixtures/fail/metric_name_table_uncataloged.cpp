// Fail fixture: a marked metric table with a row whose name is absent
// from the README catalog.
namespace otged_lint_fixture {

struct Row {
  const char* name;
  const char* help;
};

// otged-lint: metric-table(counter)
constexpr Row kRows[] = {
    {"otged_cascade_candidates_total", "candidate pairs"},
    {"otged_bogus_table_row_total", "not in the catalog"},
};

}  // namespace otged_lint_fixture
