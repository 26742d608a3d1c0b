/// \file search_metamorphic_test.cpp
/// \brief Metamorphic relations for the search layer: transformations of
/// the input with a known effect on the output.
///
///   - GED is invariant under node-id permutation of either argument
///     (labels travel with the permutation), and so are query results
///     when the corpus is permuted graph-by-graph.
///   - Inserting graphs and erasing them again restores the store to a
///     state that answers every query identically (modulo the retired
///     ids, which were never part of the original answers).
///   - save -> load -> query equals rebuild -> query, bit for bit, also
///     when the file carries an index section from an older writer.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <numeric>
#include <string>
#include <string_view>
#include <vector>

#include "exact/branch_and_bound.hpp"
#include "graph/generator.hpp"
#include "graph/graph_io.hpp"
#include "heuristics/bipartite.hpp"
#include "search/query_engine.hpp"
#include "search/store_serialize.hpp"

namespace otged {
namespace {

int ExactGed(const Graph& a, const Graph& b) {
  auto [g1, g2] = OrderBySize(a, b);
  BnbOptions opt;
  opt.initial_upper_bound = ClassicGed(*g1, *g2).ged;
  GedSearchResult res = BranchAndBoundGed(*g1, *g2, opt);
  EXPECT_TRUE(res.exact);
  return res.ged;
}

Graph RandomPermutation(const Graph& g, Rng* rng) {
  std::vector<int> perm(g.NumNodes());
  std::iota(perm.begin(), perm.end(), 0);
  rng->Shuffle(&perm);
  return PermuteGraph(g, perm);
}

GraphStore MakeStore(int count, int num_labels, uint64_t seed) {
  Rng rng(seed);
  GraphStore store;
  for (int i = 0; i < count; ++i) {
    store.Insert(RandomConnectedGraph(rng.UniformInt(3, 7),
                                      rng.UniformInt(0, 3), num_labels,
                                      &rng));
  }
  return store;
}

void ExpectSameRange(const RangeResult& a, const RangeResult& b,
                     const std::string& context) {
  ASSERT_EQ(a.hits.size(), b.hits.size()) << context;
  for (size_t i = 0; i < a.hits.size(); ++i) {
    EXPECT_EQ(a.hits[i].id, b.hits[i].id) << context << " hit " << i;
    EXPECT_EQ(a.hits[i].ged, b.hits[i].ged) << context << " hit " << i;
    EXPECT_EQ(a.hits[i].exact_distance, b.hits[i].exact_distance)
        << context << " hit " << i;
  }
}

void ExpectSameTopK(const TopKResult& a, const TopKResult& b,
                    const std::string& context) {
  ASSERT_EQ(a.hits.size(), b.hits.size()) << context;
  for (size_t i = 0; i < a.hits.size(); ++i) {
    EXPECT_EQ(a.hits[i].id, b.hits[i].id) << context << " hit " << i;
    EXPECT_EQ(a.hits[i].ged, b.hits[i].ged) << context << " hit " << i;
    EXPECT_EQ(a.hits[i].exact_distance, b.hits[i].exact_distance)
        << context << " hit " << i;
  }
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// Writes a store file after recomputing its trailing payload checksum
/// (the payload sits between the 16-byte header and the 8-byte sum).
void WriteRechecksummed(const std::string& path, std::string file) {
  const uint64_t checksum =
      Fnv1a64(std::string_view(file).substr(16, file.size() - 24));
  std::memcpy(&file[file.size() - 8], &checksum, sizeof(checksum));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(file.data(), static_cast<std::streamsize>(file.size()));
}

template <typename T>
void AppendBytes(std::string* buf, T v) {
  char bytes[sizeof(T)];
  std::memcpy(bytes, &v, sizeof(T));
  buf->append(bytes, sizeof(T));
}

TEST(SearchMetamorphicTest, ExactGedIsPermutationInvariant) {
  Rng rng(101);
  for (int trial = 0; trial < 40; ++trial) {
    const int labels = trial % 2 ? 4 : 1;
    Graph a = RandomConnectedGraph(rng.UniformInt(3, 7),
                                   rng.UniformInt(0, 3), labels, &rng);
    Graph b = RandomConnectedGraph(rng.UniformInt(3, 7),
                                   rng.UniformInt(0, 3), labels, &rng);
    const int base = ExactGed(a, b);
    EXPECT_EQ(ExactGed(RandomPermutation(a, &rng), b), base) << trial;
    EXPECT_EQ(ExactGed(a, RandomPermutation(b, &rng)), base) << trial;
    EXPECT_EQ(ExactGed(RandomPermutation(a, &rng),
                       RandomPermutation(b, &rng)),
              base)
        << trial;
  }
}

/// Range membership is permutation-invariant (GED is), and so is every
/// distance both sides prove exact. Non-exact upper bounds may differ —
/// heuristic tie-breaking is node-order dependent — so only membership
/// and exact distances are compared.
void ExpectSameAnswerSet(const RangeResult& a, const RangeResult& b,
                         const std::string& context) {
  ASSERT_EQ(a.hits.size(), b.hits.size()) << context;
  for (size_t i = 0; i < a.hits.size(); ++i) {
    EXPECT_EQ(a.hits[i].id, b.hits[i].id) << context << " hit " << i;
    if (a.hits[i].exact_distance && b.hits[i].exact_distance) {
      EXPECT_EQ(a.hits[i].ged, b.hits[i].ged) << context << " hit " << i;
    }
  }
}

/// Permuting the query's node ids must not change the answer set, nor
/// any exact distance (top-k distances are all exact at this scale).
TEST(SearchMetamorphicTest, QueryResultsArePermutationInvariant) {
  GraphStore store = MakeStore(30, 3, 103);
  Rng rng(107);
  for (int trial = 0; trial < 3; ++trial) {
    Graph query = RandomConnectedGraph(6, 2, 3, &rng);
    Graph permuted = RandomPermutation(query, &rng);
    QueryEngine a(&store, {}), b(&store, {});
    ExpectSameAnswerSet(a.Range(query, 3), b.Range(permuted, 3),
                        "range trial " + std::to_string(trial));
    TopKResult ta = a.TopK(query, 6), tb = b.TopK(permuted, 6);
    ASSERT_EQ(ta.hits.size(), tb.hits.size()) << trial;
    for (size_t i = 0; i < ta.hits.size(); ++i) {
      ASSERT_TRUE(ta.hits[i].exact_distance && tb.hits[i].exact_distance);
      EXPECT_EQ(ta.hits[i].id, tb.hits[i].id) << trial << " hit " << i;
      EXPECT_EQ(ta.hits[i].ged, tb.hits[i].ged) << trial << " hit " << i;
    }
  }
}

/// Permuting every stored graph must not change the answer set either —
/// ids are assigned by insertion order, which both corpora share.
TEST(SearchMetamorphicTest, CorpusPermutationLeavesResultsUnchanged) {
  Rng rng(109);
  GraphStore original, permuted;
  for (int i = 0; i < 30; ++i) {
    Graph g = RandomConnectedGraph(rng.UniformInt(3, 7),
                                   rng.UniformInt(0, 3), 3, &rng);
    original.Insert(g);
    permuted.Insert(RandomPermutation(g, &rng));
  }
  QueryEngine a(&original, {}), b(&permuted, {});
  for (int trial = 0; trial < 3; ++trial) {
    Graph query = RandomConnectedGraph(5, 2, 3, &rng);
    ExpectSameAnswerSet(a.Range(query, 3), b.Range(query, 3),
                        "corpus permutation trial " + std::to_string(trial));
  }
}

/// Insert-then-erase is an identity on query answers: after the churn the
/// same queries return byte-identical hits on a cold engine.
TEST(SearchMetamorphicTest, InsertEraseRestoresQueryAnswers) {
  GraphStore store = MakeStore(25, 2, 113);
  Rng rng(127);
  std::vector<Graph> queries;
  for (int q = 0; q < 3; ++q)
    queries.push_back(RandomConnectedGraph(rng.UniformInt(4, 6), 2, 2,
                                           &rng));

  std::vector<RangeResult> before;
  {
    QueryEngine engine(&store, {});
    for (const Graph& q : queries) before.push_back(engine.Range(q, 3));
  }

  const uint64_t epoch_before = store.Epoch();
  std::vector<int> churn_ids;
  for (int i = 0; i < 6; ++i)
    churn_ids.push_back(
        store.Insert(RandomConnectedGraph(5, 2, 2, &rng)));
  for (int id : churn_ids) EXPECT_TRUE(store.Erase(id));
  EXPECT_EQ(store.Epoch(), epoch_before + 12);  // 6 inserts + 6 erases

  QueryEngine engine(&store, {});
  for (size_t q = 0; q < queries.size(); ++q) {
    ExpectSameRange(before[q], engine.Range(queries[q], 3),
                    "after churn, query " + std::to_string(q));
  }
}

/// save -> load -> query gives bit-identical results to rebuild -> query;
/// ids (including gaps from erasures) and the id counter survive.
TEST(SearchMetamorphicTest, SaveLoadQueryEqualsRebuildQuery) {
  GraphStore store = MakeStore(30, 3, 131);
  // Punch holes so the file must preserve non-dense ids.
  EXPECT_TRUE(store.Erase(4));
  EXPECT_TRUE(store.Erase(17));

  const std::string path =
      ::testing::TempDir() + "/store_roundtrip.otgstore";
  std::string error;
  ASSERT_TRUE(SaveGraphStore(store, path, &error)) << error;

  GraphStore loaded;
  ASSERT_TRUE(LoadGraphStore(&loaded, path, &error)) << error;

  ASSERT_EQ(loaded.Size(), store.Size());
  EXPECT_EQ(loaded.NextId(), store.NextId());
  EXPECT_FALSE(loaded.Contains(4));
  EXPECT_FALSE(loaded.Contains(17));
  auto snap = store.Snapshot();
  auto loaded_snap = loaded.Snapshot();
  for (int slot = 0; slot < snap->Size(); ++slot) {
    EXPECT_EQ(loaded_snap->id(slot), snap->id(slot));
    EXPECT_TRUE(loaded_snap->graph(slot) == snap->graph(slot));
    EXPECT_TRUE(loaded_snap->invariants(slot) == snap->invariants(slot));
  }

  Rng rng(137);
  QueryEngine rebuilt(&store, {}), reloaded(&loaded, {});
  for (int trial = 0; trial < 3; ++trial) {
    Graph query = RandomConnectedGraph(6, 2, 3, &rng);
    ExpectSameRange(rebuilt.Range(query, 3), reloaded.Range(query, 3),
                    "roundtrip range " + std::to_string(trial));
    ExpectSameTopK(rebuilt.TopK(query, 5), reloaded.TopK(query, 5),
                   "roundtrip topk " + std::to_string(trial));
  }

  // Inserting after the reload keeps ids fresh: never below the counter.
  Graph extra = RandomConnectedGraph(4, 1, 3, &rng);
  EXPECT_EQ(loaded.Insert(extra), store.NextId());
  std::remove(path.c_str());
}

/// Older writers could append a persisted VP-tree after the entries
/// (has_index = 1). The loader checks that section's shape and skips
/// it: the file serves the same answers, and a truncated section still
/// fails the load without touching the store.
TEST(SearchMetamorphicTest, LoadSkipsAnOlderIndexSection) {
  GraphStore store = MakeStore(24, 3, 151);
  EXPECT_TRUE(store.Erase(6));
  const std::string path =
      ::testing::TempDir() + "/store_index_section.otgstore";
  std::string error;
  ASSERT_TRUE(SaveGraphStore(store, path, &error)) << error;

  // A fresh file is version 2 and ends its payload with has_index = 0.
  std::string file = ReadFileBytes(path);
  ASSERT_GE(file.size(), 25u);
  uint32_t version = 0;
  std::memcpy(&version, file.data() + 8, sizeof(version));
  EXPECT_EQ(version, 2u);
  const size_t flag_at = file.size() - 9;
  ASSERT_EQ(file[flag_at], 0);

  // Splice in a well-formed section in place of the flag: bits, node
  // count == entry count, then per node an id and three int32 fields
  // (a valid preorder chain), then a digest.
  std::string section;
  AppendBytes<uint8_t>(&section, 1);
  AppendBytes<int32_t>(&section, 16);
  auto snap = store.Snapshot();
  AppendBytes<uint64_t>(&section, static_cast<uint64_t>(snap->Size()));
  for (int slot = 0; slot < snap->Size(); ++slot) {
    AppendBytes<int64_t>(&section, snap->id(slot));
    AppendBytes<int32_t>(&section, 0);   // r_in_max
    AppendBytes<int32_t>(&section, -1);  // r_out_min
    AppendBytes<int32_t>(&section, snap->Size() - 1 - slot);  // inner
  }
  AppendBytes<uint64_t>(&section, 0x0123456789abcdefull);  // digest
  const std::string with_index =
      file.substr(0, flag_at) + section + file.substr(flag_at + 1);
  WriteRechecksummed(path, with_index);

  GraphStore loaded;
  ASSERT_TRUE(LoadGraphStore(&loaded, path, &error)) << error;
  ASSERT_EQ(loaded.Size(), store.Size());
  EXPECT_EQ(loaded.NextId(), store.NextId());
  Rng rng(157);
  QueryEngine original(&store, {}), reloaded(&loaded, {});
  for (int trial = 0; trial < 3; ++trial) {
    Graph query = RandomConnectedGraph(6, 2, 3, &rng);
    ExpectSameRange(original.Range(query, 3), reloaded.Range(query, 3),
                    "index section range " + std::to_string(trial));
    ExpectSameTopK(original.TopK(query, 5), reloaded.TopK(query, 5),
                   "index section topk " + std::to_string(trial));
  }

  // Cut the last node and the digest off the section: a bad length.
  std::string truncated = with_index;
  truncated.erase(truncated.size() - 8 - 28, 28);
  WriteRechecksummed(path, truncated);
  GraphStore rejected;
  EXPECT_FALSE(LoadGraphStore(&rejected, path, &error));
  EXPECT_NE(error.find("index"), std::string::npos) << error;
  EXPECT_EQ(rejected.Size(), 0);  // failed load leaves the store untouched
  std::remove(path.c_str());
}

TEST(SearchMetamorphicTest, LoadRejectsCorruptFiles) {
  GraphStore store = MakeStore(5, 2, 139);
  const std::string path = ::testing::TempDir() + "/store_corrupt.otgstore";
  std::string error;
  ASSERT_TRUE(SaveGraphStore(store, path, &error)) << error;

  // Flip one payload byte; the checksum must catch it.
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 40, SEEK_SET);
    int c = std::fgetc(f);
    std::fseek(f, 40, SEEK_SET);
    std::fputc(c ^ 0x5a, f);
    std::fclose(f);
  }
  GraphStore loaded;
  EXPECT_FALSE(LoadGraphStore(&loaded, path, &error));
  EXPECT_NE(error.find("checksum"), std::string::npos) << error;
  EXPECT_EQ(loaded.Size(), 0);  // failed load leaves the store untouched

  // Truncation is rejected too (either as a short file or a bad sum).
  ASSERT_TRUE(SaveGraphStore(store, path, &error)) << error;
  {
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  EXPECT_FALSE(LoadGraphStore(&loaded, path, &error));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace otged
