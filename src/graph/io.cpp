#include "graph/io.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "graph/builder.hpp"

namespace mgp {
namespace {

/// Hard ceilings for untrusted input.  Vertex ids must fit vid_t; weights
/// get headroom below int64 so level-by-level accumulation (contraction
/// sums weights) cannot reach signed overflow even after ~20 doublings.
constexpr long long kMaxVertices = std::numeric_limits<vid_t>::max();
constexpr long long kMaxWeight = 1LL << 40;

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  std::ostringstream os;
  os << "graph parse error at line " << line << ": " << what;
  throw std::runtime_error(os.str());
}

/// Reads the next non-comment line ('%' or '#' prefixed lines are skipped).
/// Blank lines are skipped too unless `keep_blank`: inside a METIS vertex
/// section a blank line is an isolated vertex's row.
bool next_data_line(std::istream& in, std::string& out, std::size_t& line_no,
                    bool keep_blank = false) {
  while (std::getline(in, out)) {
    ++line_no;
    std::size_t i = out.find_first_not_of(" \t\r");
    if (i == std::string::npos) {
      if (keep_blank) return true;
      continue;
    }
    if (out[i] == '%' || out[i] == '#') continue;
    return true;
  }
  return false;
}

}  // namespace

Graph read_metis_graph(std::istream& in) {
  std::size_t line_no = 0;
  std::string line;
  if (!next_data_line(in, line, line_no)) fail(line_no, "empty file");
  std::istringstream header(line);
  long long n = 0, m = 0;
  std::string fmt;
  header >> n >> m;
  if (!header) fail(line_no, "expected '<n> <m> [fmt]' header");
  if (header >> fmt) {
    std::string extra;
    if (header >> extra) fail(line_no, "unexpected token after the fmt field");
  } else {
    fmt = "000";
  }
  if (n < 0 || m < 0) fail(line_no, "negative size in header");
  if (n > kMaxVertices) fail(line_no, "vertex count exceeds the 32-bit limit");
  if (fmt.size() > 3 || fmt.find_first_not_of("01") != std::string::npos) {
    fail(line_no, "malformed fmt field (expected up to three 0/1 digits)");
  }
  while (fmt.size() < 3) fmt.insert(fmt.begin(), '0');
  const bool has_vsize = fmt[fmt.size() - 3] == '1';
  const bool has_vwgt = fmt[fmt.size() - 2] == '1';
  const bool has_ewgt = fmt[fmt.size() - 1] == '1';
  if (has_vsize) fail(line_no, "vertex sizes (fmt=1xx) are not supported");

  GraphBuilder b(static_cast<vid_t>(n));
  bool hit_eof = false;
  for (long long u = 0; u < n; ++u) {
    if (!next_data_line(in, line, line_no, /*keep_blank=*/true)) {
      // Trailing isolated vertices may legitimately have no line in some
      // writers; treat missing lines as isolated only at EOF.
      hit_eof = true;
      break;
    }
    std::istringstream row(line);
    if (has_vwgt) {
      long long w;
      if (!(row >> w)) fail(line_no, "missing or non-numeric vertex weight");
      if (w < 0) fail(line_no, "negative vertex weight");
      if (w > kMaxWeight) fail(line_no, "vertex weight too large");
      b.set_vertex_weight(static_cast<vid_t>(u), static_cast<vwt_t>(w));
    }
    long long v;
    while (row >> v) {
      if (v < 1 || v > n) fail(line_no, "neighbour id out of range");
      if (v - 1 == u) fail(line_no, "self-loop");
      long long w = 1;
      if (has_ewgt) {
        if (!(row >> w)) fail(line_no, "missing or non-numeric edge weight");
        if (w <= 0) fail(line_no, "non-positive edge weight");
        if (w > kMaxWeight) fail(line_no, "edge weight too large");
      }
      // Add each undirected edge once (from its smaller endpoint) to avoid
      // double-accumulating weights; format repeats each edge in both rows.
      if (u < v - 1) b.add_edge(static_cast<vid_t>(u), static_cast<vid_t>(v - 1),
                                static_cast<ewt_t>(w));
    }
    // The extraction loop above ends either at end-of-line or on a token
    // that is not a number; only the former is well-formed.
    if (!row.eof()) fail(line_no, "non-numeric token in adjacency list");
  }
  if (!hit_eof && next_data_line(in, line, line_no)) {
    fail(line_no, "more vertex lines than the header's vertex count");
  }
  Graph g = std::move(b).build();
  if (g.num_edges() != static_cast<eid_t>(m)) {
    std::ostringstream os;
    os << "header declared " << m << " edges but file contains " << g.num_edges();
    throw std::runtime_error(os.str());
  }
  return g;
}

Graph read_metis_graph_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open graph file: " + path);
  return read_metis_graph(in);
}

void write_metis_graph(std::ostream& out, const Graph& g) {
  bool any_vwgt = false;
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    if (g.vertex_weight(v) != 1) { any_vwgt = true; break; }
  }
  bool any_ewgt = false;
  for (ewt_t w : g.adjwgt()) {
    if (w != 1) { any_ewgt = true; break; }
  }
  out << g.num_vertices() << ' ' << g.num_edges();
  if (any_vwgt || any_ewgt) {
    out << " 0" << (any_vwgt ? '1' : '0') << (any_ewgt ? '1' : '0');
  }
  out << '\n';
  for (vid_t u = 0; u < g.num_vertices(); ++u) {
    if (any_vwgt) out << g.vertex_weight(u) << ' ';
    auto nbrs = g.neighbors(u);
    auto wgts = g.edge_weights(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (i || any_vwgt) out << ' ';
      out << nbrs[i] + 1;
      if (any_ewgt) out << ' ' << wgts[i];
    }
    out << '\n';
  }
}

void write_metis_graph_file(const std::string& path, const Graph& g) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open file for write: " + path);
  write_metis_graph(out, g);
}

Graph read_matrix_market(std::istream& in) {
  std::size_t line_no = 0;
  std::string line;
  // Banner is optional for our purposes but validated when present.
  if (!std::getline(in, line)) fail(1, "empty file");
  ++line_no;
  bool pattern = line.find("pattern") != std::string::npos;
  if (line.rfind("%%MatrixMarket", 0) == 0) {
    if (line.find("coordinate") == std::string::npos) {
      fail(line_no, "only coordinate MatrixMarket files are supported");
    }
    if (line.find("complex") != std::string::npos) {
      fail(line_no, "complex MatrixMarket files are not supported");
    }
  } else {
    // No banner: treat the first line as data by rewinding via re-parse.
    in.seekg(0);
    line_no = 0;
  }
  if (!next_data_line(in, line, line_no)) fail(line_no, "missing size line");
  std::istringstream szl(line);
  long long rows = 0, cols = 0, nnz = 0;
  szl >> rows >> cols >> nnz;
  if (!szl || rows <= 0 || cols <= 0 || nnz < 0) fail(line_no, "bad size line");
  if (rows != cols) fail(line_no, "matrix must be square to define a graph");
  if (rows > kMaxVertices) fail(line_no, "dimension exceeds the 32-bit limit");
  {
    std::string extra;
    if (szl >> extra) fail(line_no, "unexpected token after the size line");
  }

  GraphBuilder b(static_cast<vid_t>(rows));
  for (long long k = 0; k < nnz; ++k) {
    if (!next_data_line(in, line, line_no)) fail(line_no, "unexpected EOF in entries");
    std::istringstream ent(line);
    long long i = 0, j = 0;
    double val = 1.0;
    ent >> i >> j;
    if (!ent) fail(line_no, "bad entry line");
    if (!pattern) {
      // Value ignored (the pattern defines the graph), but a present token
      // must at least parse as a number; a missing one is tolerated since
      // some writers emit pattern-style lines under a real banner.
      if (!(ent >> val) && !ent.eof()) fail(line_no, "non-numeric value");
    }
    std::string extra;
    if (ent >> extra) fail(line_no, "trailing token on entry line");
    if (i < 1 || i > rows || j < 1 || j > cols) fail(line_no, "index out of range");
    if (i != j) {
      vid_t u = static_cast<vid_t>(i - 1), v = static_cast<vid_t>(j - 1);
      // Symmetric files store one triangle; general files may store both,
      // and build() sums the duplicates' weights, so they are reset to 1
      // below.
      b.add_edge(u, v, 1);
    }
  }
  if (next_data_line(in, line, line_no)) {
    fail(line_no, "more entries than the size line declared");
  }
  Graph::Storage st = std::move(b).build().take_storage();
  std::fill(st.adjwgt.begin(), st.adjwgt.end(), ewt_t{1});
  return Graph(std::move(st.xadj), std::move(st.adjncy), std::move(st.vwgt),
               std::move(st.adjwgt));
}

Graph read_matrix_market_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open MatrixMarket file: " + path);
  return read_matrix_market(in);
}

}  // namespace mgp
