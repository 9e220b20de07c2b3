// Seeded mutation fuzz of the text parsers: the METIS and MatrixMarket graph
// readers (graph/io.hpp) and the delta-script parser (dynamic/delta_script.hpp).
// Each starts from a valid file (data/ci_smoke.graph, data/ci_smoke.delta, an
// in-test MatrixMarket matrix) that is mutated by digit edits, splices of
// 2^31, 2^32 + 1 and 2^63 into numeric tokens, sign flips, token and line
// deletion or duplication, and truncation.
//
// One mutation per case: both readers size the graph from the header before
// they read the body, so stacked edits (a digit edit inside a spliced 2^31)
// could declare a valid billion-vertex graph and allocate gigabytes.
//
// Oracle: no crash (build with the asan preset to make that mean "no memory
// error or undefined behaviour"); a rejection carries a message; an accepted
// graph is symmetric, free of self-loops and has positive edge weights; an
// accepted script holds every vertex id exactly as the script states it and
// re-parses to equal batches after write_delta_script.  Every parser must
// both accept and reject some mutants, or the oracles were never exercised.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <fstream>
#include <iterator>
#include <map>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "dynamic/delta_script.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"

namespace mgp {
namespace {

std::string read_data_file(const std::string& name) {
  std::ifstream in(std::string(MGP_DATA_DIR) + "/" + name);
  EXPECT_TRUE(in) << name;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// A symmetric MatrixMarket file of the 5-point Laplacian on a 6 x 6 grid:
/// the diagonal plus the lower triangle, with real values.
std::string matrix_market_seed() {
  const Graph g = grid2d(6, 6);
  std::ostringstream entries;
  eid_t nnz = 0;
  for (vid_t u = 0; u < g.num_vertices(); ++u) {
    entries << u + 1 << ' ' << u + 1 << " 4.0\n";
    ++nnz;
    for (vid_t v : g.neighbors(u)) {
      if (v < u) {
        entries << u + 1 << ' ' << v + 1 << " -1.0\n";
        ++nnz;
      }
    }
  }
  std::ostringstream os;
  os << "%%MatrixMarket matrix coordinate real symmetric\n% 6x6 grid Laplacian\n"
     << g.num_vertices() << ' ' << g.num_vertices() << ' ' << nnz << '\n'
     << entries.str();
  return os.str();
}

struct Span {
  std::size_t at = 0;
  std::size_t len = 0;
};

/// Whitespace-separated tokens, or with `numeric` only those that start
/// with a digit or a minus sign.
std::vector<Span> tokens(const std::string& s, bool numeric) {
  std::vector<Span> out;
  for (std::size_t i = 0; i < s.size();) {
    if (std::isspace(static_cast<unsigned char>(s[i]))) {
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j < s.size() && !std::isspace(static_cast<unsigned char>(s[j]))) ++j;
    if (!numeric || std::isdigit(static_cast<unsigned char>(s[i])) || s[i] == '-') {
      out.push_back({i, j - i});
    }
    i = j;
  }
  return out;
}

/// Lines, each with its trailing newline.
std::vector<Span> lines(const std::string& s) {
  std::vector<Span> out;
  for (std::size_t i = 0; i < s.size();) {
    const std::size_t nl = s.find('\n', i);
    const std::size_t end = nl == std::string::npos ? s.size() : nl + 1;
    out.push_back({i, end - i});
    i = end;
  }
  return out;
}

template <class T>
const T& pick(const std::vector<T>& v, std::mt19937_64& rng) {
  return v[rng() % v.size()];
}

/// One text mutation of `seed`.
std::string mutate(const std::string& seed, std::mt19937_64& rng) {
  static const char* const kSplices[] = {"2147483648", "4294967297",
                                         "9223372036854775808"};
  std::string m = seed;
  const std::vector<Span> nums = tokens(m, true);
  const std::vector<Span> toks = tokens(m, false);
  const std::vector<Span> rows = lines(m);
  switch (rng() % 8) {
    case 0: {  // digit edit
      std::vector<std::size_t> digits;
      for (std::size_t i = 0; i < m.size(); ++i) {
        if (std::isdigit(static_cast<unsigned char>(m[i]))) digits.push_back(i);
      }
      if (!digits.empty()) m[pick(digits, rng)] = static_cast<char>('0' + rng() % 10);
      break;
    }
    case 1:
    case 2: {  // splice
      if (nums.empty()) break;
      const Span t = pick(nums, rng);
      m.replace(t.at, t.len, kSplices[rng() % std::size(kSplices)]);
      break;
    }
    case 3: {  // sign flip
      if (nums.empty()) break;
      const Span t = pick(nums, rng);
      if (m[t.at] == '-') {
        m.erase(t.at, 1);
      } else {
        m.insert(t.at, 1, '-');
      }
      break;
    }
    case 4: {  // token deletion or duplication
      if (toks.empty()) break;
      const Span t = pick(toks, rng);
      if (rng() % 2 == 0) {
        m.erase(t.at, t.len);
      } else {
        const std::string token = m.substr(t.at, t.len);
        m.replace(t.at, t.len, token + " " + token);
      }
      break;
    }
    case 5:
    case 6: {  // line deletion or duplication
      if (rows.empty()) break;
      const Span l = pick(rows, rng);
      if (rng() % 2 == 0) {
        m.erase(l.at, l.len);
      } else {
        m.insert(l.at, m.substr(l.at, l.len));
      }
      break;
    }
    default:  // truncation
      m.resize(rng() % (m.size() + 1));
  }
  return m;
}

/// Runs `check` (true = accepted) on the seed and on `rounds` mutants of
/// it; both verdicts must occur.
template <class Check>
void fuzz(const std::string& seed, std::uint64_t rng_seed, int rounds, Check check) {
  ASSERT_TRUE(check(seed));
  std::mt19937_64 rng(rng_seed);
  int accepted = 0;
  int rejected = 0;
  for (int round = 0; round < rounds && !::testing::Test::HasFailure(); ++round) {
    const std::string text = mutate(seed, rng);
    SCOPED_TRACE(text.size() < 400 ? text : "round " + std::to_string(round));
    ++(check(text) ? accepted : rejected);
  }
  if (::testing::Test::HasFailure()) return;
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

/// The graph readers' oracle: a reader either returns a valid graph or
/// throws std::runtime_error with a message.  Any other exception escapes
/// and fails the test.
template <class Read>
bool check_graph(const std::string& text, Read read) {
  std::istringstream in(text);
  try {
    const Graph g = read(in);
    EXPECT_EQ(g.validate(), "");
    return true;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()), "");
    return false;
  }
}

TEST(ParserFuzzTest, MetisReader) {
  fuzz(read_data_file("ci_smoke.graph"), 1, 1500, [](const std::string& text) {
    return check_graph(text, [](std::istream& in) { return read_metis_graph(in); });
  });
}

TEST(ParserFuzzTest, MatrixMarketReader) {
  fuzz(matrix_market_seed(), 2, 3000, [](const std::string& text) {
    return check_graph(text, [](std::istream& in) { return read_matrix_market(in); });
  });
}

using Ids = std::map<std::string, std::vector<long long>>;

/// The vertex ids each op line of `text` states, per op, in file order.
Ids stated_ids(const std::string& text) {
  Ids ids;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    line.resize(std::min(line.size(), line.find('#')));
    std::istringstream ls(line);
    std::string op;
    if (!(ls >> op) || op == "batch") continue;
    const int count = op == "ae" || op == "de" ? 2 : op == "av" ? 0 : 1;
    for (int i = 0; i < count; ++i) {
      std::string id;
      ls >> id;
      ids[op].push_back(std::stoll(id));
    }
  }
  return ids;
}

/// The vertex ids `batches` hold, keyed as stated_ids keys them.
Ids parsed_ids(const std::vector<dynamic::DeltaBatch>& batches) {
  Ids ids;
  for (const dynamic::DeltaBatch& b : batches) {
    for (const auto& e : b.edge_ins) ids["ae"].insert(ids["ae"].end(), {e.u, e.v});
    for (const auto& e : b.edge_del) ids["de"].insert(ids["de"].end(), {e.u, e.v});
    for (vid_t v : b.vertex_rem) ids["rv"].push_back(v);
    for (const auto& wu : b.weight_upd) ids["vw"].push_back(wu.v);
  }
  return ids;
}

/// The writer prints every field of every op, so equal scripts mean equal
/// batches.
std::string script_of(const std::vector<dynamic::DeltaBatch>& batches) {
  std::ostringstream os;
  dynamic::write_delta_script(os, batches);
  return os.str();
}

TEST(ParserFuzzTest, DeltaScript) {
  fuzz(read_data_file("ci_smoke.delta"), 3, 20000, [](const std::string& text) {
    std::istringstream in(text);
    std::vector<dynamic::DeltaBatch> parsed;
    const std::string err = dynamic::parse_delta_script(in, parsed);
    if (!err.empty()) {
      EXPECT_EQ(err.rfind("delta script line ", 0), 0u) << err;
      return false;
    }
    EXPECT_EQ(parsed_ids(parsed), stated_ids(text));
    const std::string written = script_of(parsed);
    std::istringstream again(written);
    std::vector<dynamic::DeltaBatch> reparsed;
    EXPECT_EQ(dynamic::parse_delta_script(again, reparsed), "");
    EXPECT_EQ(reparsed.size(), parsed.size());
    EXPECT_EQ(script_of(reparsed), written);
    return true;
  });
}

}  // namespace
}  // namespace mgp
