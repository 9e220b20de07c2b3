#include "dynamic/delta_script.hpp"

#include <fstream>
#include <limits>
#include <sstream>

namespace mgp::dynamic {
namespace {

std::string at_line(int line, const std::string& msg) {
  std::ostringstream os;
  os << "delta script line " << line << ": " << msg;
  return os.str();
}

/// A wider id than vid_t holds would wrap onto another vertex.
bool valid_id(long long id) {
  return id >= 0 && id <= std::numeric_limits<vid_t>::max();
}

constexpr const char* kIdRange = "vertex id outside [0, 2^31 - 1]";

}  // namespace

std::string parse_delta_script(std::istream& in,
                               std::vector<DeltaBatch>& out) {
  out.clear();
  std::string line;
  int lineno = 0;
  bool in_batch = false;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ls(line);
    std::string op;
    if (!(ls >> op)) continue;  // blank / comment-only line

    if (op == "batch") {
      out.emplace_back();
      in_batch = true;
      continue;
    }
    if (!in_batch) return at_line(lineno, "op before the first 'batch' line");
    DeltaBatch& b = out.back();

    if (op == "ae") {
      long long u = 0;
      long long v = 0;
      long long w = 0;
      if (!(ls >> u >> v >> w)) return at_line(lineno, "expected: ae u v w");
      if (!valid_id(u) || !valid_id(v)) return at_line(lineno, kIdRange);
      b.edge_ins.push_back({static_cast<vid_t>(u), static_cast<vid_t>(v),
                            static_cast<ewt_t>(w)});
    } else if (op == "de") {
      long long u = 0;
      long long v = 0;
      if (!(ls >> u >> v)) return at_line(lineno, "expected: de u v");
      if (!valid_id(u) || !valid_id(v)) return at_line(lineno, kIdRange);
      b.edge_del.push_back({static_cast<vid_t>(u), static_cast<vid_t>(v)});
    } else if (op == "av") {
      long long w = 0;
      if (!(ls >> w)) return at_line(lineno, "expected: av w");
      b.vertex_add.push_back(static_cast<vwt_t>(w));
    } else if (op == "rv") {
      long long v = 0;
      if (!(ls >> v)) return at_line(lineno, "expected: rv v");
      if (!valid_id(v)) return at_line(lineno, kIdRange);
      b.vertex_rem.push_back(static_cast<vid_t>(v));
    } else if (op == "vw") {
      long long v = 0;
      long long w = 0;
      if (!(ls >> v >> w)) return at_line(lineno, "expected: vw v w");
      if (!valid_id(v)) return at_line(lineno, kIdRange);
      b.weight_upd.push_back({static_cast<vid_t>(v), static_cast<vwt_t>(w)});
    } else {
      return at_line(lineno, "unknown op '" + op + "'");
    }
    std::string trailing;
    if (ls >> trailing) return at_line(lineno, "trailing tokens");
  }
  return "";
}

std::string parse_delta_script_file(const std::string& path,
                                    std::vector<DeltaBatch>& out) {
  std::ifstream in(path);
  if (!in) return "cannot open delta script '" + path + "'";
  return parse_delta_script(in, out);
}

void write_delta_script(std::ostream& os,
                        const std::vector<DeltaBatch>& batches) {
  for (const DeltaBatch& b : batches) {
    os << "batch\n";
    for (vwt_t w : b.vertex_add) os << "av " << w << "\n";
    for (const WeightUpd& wu : b.weight_upd) {
      os << "vw " << wu.v << " " << wu.w << "\n";
    }
    for (vid_t v : b.vertex_rem) os << "rv " << v << "\n";
    for (const EdgeDel& e : b.edge_del) {
      os << "de " << e.u << " " << e.v << "\n";
    }
    for (const EdgeIns& e : b.edge_ins) {
      os << "ae " << e.u << " " << e.v << " " << e.w << "\n";
    }
  }
}

}  // namespace mgp::dynamic
