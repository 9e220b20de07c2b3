// mgpbench: runs one workload and prints its result.
//
//   mgpbench --workload <rb_mesh|rb_mesh_pool|nd_order|served_mix> --seed <n>
//            --seconds <s> [--overhead-base 1]
//   mgpbench_traced --workload <name> --seed <n> --seconds <s> --trace 1
//                   --untraced-p50 <ms>
// --overhead-base 1 marks an untraced run whose latency_ms_p50 only serves as
// a traced run's --untraced-p50.  Both take --work-dir <dir> (default "."):
// where served_mix puts its socket and the traced run writes its span log.
//
// Output: a `host {...}` line, a `detail {...}` line (the workload's own
// figures), then the result JSON as the last line.
// Exit status 0 when every output was correct (however slow), 1 on a wrong
// answer, 2 on a usage or set-up error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "alloc_count.hpp"
#include "runs.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "mgpbench: %s\nusage: mgpbench --workload "
               "<rb_mesh|rb_mesh_pool|nd_order|served_mix> "
               "--seed <n> --seconds <s> [--trace 0|1 --untraced-p50 <ms> "
               "--overhead-base 0|1 --work-dir <dir>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  mgpbench::Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      o.trace = std::string(value) == "1";
    } else if (flag == "--overhead-base") {
      o.overhead_base = std::string(value) == "1";
    } else if (flag == "--untraced-p50") {
      o.untraced_p50_ms = std::strtod(value, nullptr);
    } else if (flag == "--work-dir") {
      o.work_dir = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return usage("flags take one value each");
  if (!(o.seconds > 0)) return usage("--seconds must be positive");
  if (o.trace && !(mgpbench::alloc_counting() && o.untraced_p50_ms > 0)) {
    return usage("--trace 1 needs mgpbench_traced and --untraced-p50");
  }

  mgpbench::Result r;
  try {
    if (o.workload == "rb_mesh") {
      r = mgpbench::run_rb_mesh(o, 1);
    } else if (o.workload == "rb_mesh_pool") {
      r = mgpbench::run_rb_mesh(o, 2);
    } else if (o.workload == "nd_order") {
      r = mgpbench::run_nd_order(o);
    } else if (o.workload == "served_mix") {
      r = mgpbench::run_served_mix(o);
    } else {
      return usage(("unknown workload '" + o.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mgpbench: %s\n", e.what());
    return 2;
  }
  for (const std::string& e : r.errors) {
    std::fprintf(stderr, "mgpbench: failed: %s\n", e.c_str());
  }
  std::printf("host %s\ndetail %s\n%s\n", mgpbench::host_json().c_str(),
              mgpbench::details_json(r).c_str(), mgpbench::result_json(r).c_str());
  return r.correct() ? 0 : 1;
}
