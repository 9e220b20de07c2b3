#include "obs/report.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace mgp::obs {
namespace {

BisectionReport make_bisection(std::int64_t n, std::int64_t final_cut) {
  BisectionReport b;
  b.n = n;
  b.total_weight = n;
  b.target0 = n / 2;
  b.num_levels = 2;
  b.coarsest_n = n / 4;
  b.initpart_candidate_cuts = {9, 7, 8};
  b.initial_cut = 7;
  b.final_cut = final_cut;
  b.final_balance = 1.02;
  LevelReport l;
  l.level = 0;
  l.vertices = n;
  l.edges = 3 * n;
  l.total_vertex_weight = n;
  l.matched_fraction = 0.5;  // exactly representable: stable in %.17g output
  l.cut_before_refine = 8;
  l.cut_after_refine = final_cut;
  l.balance = 1.02;
  l.refined = true;
  KlPassReport p;
  p.pass = 1;
  p.moves_attempted = 12;
  p.moves_kept = 10;
  p.moves_undone = 2;
  p.insertions = 20;
  p.cut_before = 8;
  p.cut_after = final_cut;
  p.early_exit = true;
  p.queue_peak = 6;
  l.kl_passes.push_back(p);
  b.levels.push_back(l);
  return b;
}

TEST(RunReportTest, AppendsAndExposesBisections) {
  RunReport rep;
  EXPECT_EQ(rep.num_bisections(), 0u);
  rep.add_bisection(make_bisection(100, 5));
  rep.add_bisection(make_bisection(50, 3));
  EXPECT_EQ(rep.num_bisections(), 2u);
  const auto bis = rep.bisections();
  ASSERT_EQ(bis.size(), 2u);
  EXPECT_EQ(bis[0].n, 100);
  EXPECT_EQ(bis[1].n, 50);
  ASSERT_EQ(bis[0].levels.size(), 1u);
  ASSERT_EQ(bis[0].levels[0].kl_passes.size(), 1u);
  EXPECT_EQ(bis[0].levels[0].kl_passes[0].moves_kept, 10);
}

// The number that follows `"key": ` in `json`; NaN when the key is absent.
double json_number(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) return std::nan("");
  return std::strtod(json.c_str() + at + needle.size(), nullptr);
}

MetricsRegistry::Id phase_id(const Obs& ob, Phase p) {
  return ob.pipeline.phase_ns[static_cast<int>(p)];
}

TEST(RunReportTest, PhaseTimesAccumulate) {
  // phase_times is read from the snapshot's phase.*_ns counters.
  Obs ob;
  ob.metrics.add(phase_id(ob, Phase::kCoarsen), 1'000'000'000);
  ob.metrics.add(phase_id(ob, Phase::kRefine), 500'000'000);
  ob.metrics.add(phase_id(ob, Phase::kCoarsen), 250'000'000);
  ob.metrics.add(phase_id(ob, Phase::kInitPart), 125'000'000);
  const MetricsSnapshot snap = ob.metrics.snapshot();
  EXPECT_EQ(snap.counter_value("phase.coarsen_ns"), 1'250'000'000);
  const std::string json = ob.report.to_json(&snap);
  EXPECT_DOUBLE_EQ(json_number(json, "ctime_s"), 1.25);
  EXPECT_DOUBLE_EQ(json_number(json, "itime_s"), 0.125);
  EXPECT_DOUBLE_EQ(json_number(json, "rtime_s"), 0.5);
  EXPECT_EQ(json_number(json, "ptime_s"), 0.0);
  EXPECT_DOUBLE_EQ(json_number(json, "utime_s"), 0.625);
  // Without a snapshot the same report carries zero phase times.
  EXPECT_EQ(json_number(ob.report.to_json(), "ctime_s"), 0.0);
}

TEST(RunReportTest, SerializationIsStableAcrossInsertionOrder) {
  // Pool scheduling decides completion order; the JSON must not.
  std::vector<BisectionReport> items;
  items.push_back(make_bisection(400, 11));
  items.push_back(make_bisection(200, 9));
  items.push_back(make_bisection(200, 4));
  items.push_back(make_bisection(100, 2));

  RunReport forward;
  forward.tool = "report_test";
  for (const auto& b : items) forward.add_bisection(BisectionReport(b));
  RunReport backward;
  backward.tool = "report_test";
  for (auto it = items.rbegin(); it != items.rend(); ++it) {
    backward.add_bisection(BisectionReport(*it));
  }
  EXPECT_EQ(forward.to_json(), backward.to_json());
  // Larger subgraphs (roots of the recursion tree) serialize first.
  const std::string json = forward.to_json();
  EXPECT_LT(json.find("\"n\": 400"), json.find("\"n\": 200"));
  EXPECT_LT(json.find("\"n\": 200"), json.find("\"n\": 100"));
  // Ties on n break on the remaining content key, ascending final_cut here.
  EXPECT_LT(json.find("\"final_cut\": 4"), json.find("\"final_cut\": 9"));
}

TEST(RunReportTest, JsonCarriesMetadataPhaseTimesAndStructure) {
  RunReport rep;
  rep.tool = "report_test";
  rep.scheme = "HEM+GGGP+BKLGR";
  rep.k = 8;
  rep.threads = 4;
  rep.seed = 123456789;
  rep.add_bisection(make_bisection(64, 6));
  const std::string json = rep.to_json();
  EXPECT_NE(json.find("\"version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"tool\": \"report_test\""), std::string::npos);
  EXPECT_NE(json.find("\"scheme\": \"HEM+GGGP+BKLGR\""), std::string::npos);
  EXPECT_NE(json.find("\"k\": 8"), std::string::npos);
  EXPECT_NE(json.find("\"threads\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"seed\": 123456789"), std::string::npos);
  // Phase times use the paper's vocabulary (zero: no snapshot to read).
  for (const char* key : {"ctime_s", "itime_s", "rtime_s", "ptime_s", "utime_s"}) {
    EXPECT_EQ(json_number(json, key), 0.0) << key;
  }
  // The bisection ladder and KL pass detail survive serialization.
  EXPECT_NE(json.find("\"initpart_candidate_cuts\""), std::string::npos);
  EXPECT_NE(json.find("\"matched_fraction\": 0.5"), std::string::npos);
  EXPECT_NE(json.find("\"early_exit\": true"), std::string::npos);
  EXPECT_NE(json.find("\"queue_peak\": 6"), std::string::npos);
  // No metrics snapshot passed: no metrics key.
  EXPECT_EQ(json.find("\"metrics\""), std::string::npos);
}

TEST(RunReportTest, EmbedsMetricsSnapshotWhenGiven) {
  RunReport rep;
  MetricsRegistry reg;
  reg.add(reg.counter("test.counter"), 17);
  reg.record_max(reg.max_gauge("test.gauge"), 5);
  reg.observe(reg.histogram("test.hist", {10}), 3);
  const MetricsSnapshot snap = reg.snapshot();
  const std::string json = rep.to_json(&snap);
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("\"test.counter\": 17"), std::string::npos);
  EXPECT_NE(json.find("\"test.gauge\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"test.hist\""), std::string::npos);
  EXPECT_NE(json.find("\"upper_bounds\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"sum\": 3"), std::string::npos);
}

TEST(RunReportTest, KwayDirectObjectMirrorsTheRefinerCounters) {
  RunReport rep;
  MetricsRegistry reg;
  reg.add(reg.counter("kway.direct.levels"), 4);
  reg.add(reg.counter("refine.kway_rounds"), 9);
  reg.add(reg.counter("refine.kway_gathers"), 1234);
  const MetricsSnapshot snap = reg.snapshot();
  const std::string json = rep.to_json(&snap);
  const std::size_t at = json.find("\"kway_direct\"");
  ASSERT_NE(at, std::string::npos);
  const std::string obj = json.substr(at, json.find('}', at) - at);
  EXPECT_NE(obj.find("\"levels\": 4"), std::string::npos) << obj;
  EXPECT_NE(obj.find("\"refine_rounds\": 9"), std::string::npos) << obj;
  EXPECT_NE(obj.find("\"gathers\": 1234"), std::string::npos) << obj;
  EXPECT_EQ(json.find("conflict_rejects"), std::string::npos);
}

TEST(RunReportTest, WriteJsonFileRoundTrips) {
  RunReport rep;
  rep.tool = "file_test";
  rep.add_bisection(make_bisection(32, 2));
  const std::string path = "report_test_out.json";
  ASSERT_TRUE(rep.write_json_file(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), rep.to_json());
  in.close();
  std::remove(path.c_str());
  EXPECT_FALSE(rep.write_json_file("/nonexistent-dir/report.json"));
}

TEST(RunReportTest, ConcurrentAppendsAreSafe) {
  Obs ob;
  RunReport& rep = ob.report;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < kPerThread; ++i) {
        rep.add_bisection(make_bisection(64 + t, i));
        ob.metrics.add(phase_id(ob, Phase::kProject), 1'000'000);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(rep.num_bisections(),
            static_cast<std::size_t>(kThreads) * kPerThread);
  EXPECT_EQ(ob.metrics.snapshot().counter_value("phase.project_ns"),
            static_cast<std::int64_t>(kThreads) * kPerThread * 1'000'000);
}

TEST(ObsContextTest, PipelineMetricsArePreRegistered) {
  Obs ob;
  EXPECT_TRUE(ob.collect_report);
  ob.metrics.add(ob.pipeline.bisections, 3);
  ob.metrics.add(ob.pipeline.kl_passes, 5);
  ob.metrics.record_max(ob.pipeline.queue_peak, 40);
  ob.metrics.observe(ob.pipeline.shrink_pct, 55);
  const MetricsSnapshot snap = ob.metrics.snapshot();
  EXPECT_EQ(snap.counter_value("pipeline.bisections"), 3);
  EXPECT_EQ(snap.counter_value("kl.passes"), 5);
  EXPECT_EQ(snap.counter_value("pipeline.coarsen_levels"), 0);
  EXPECT_EQ(snap.counter_value("pipeline.matched_pairs"), 0);
  EXPECT_EQ(snap.counter_value("kl.moves_attempted"), 0);
  EXPECT_EQ(snap.counter_value("kl.moves_kept"), 0);
  EXPECT_EQ(snap.counter_value("kl.moves_undone"), 0);
  EXPECT_EQ(snap.counter_value("kl.insertions"), 0);
  EXPECT_EQ(snap.counter_value("kl.early_exits"), 0);
  EXPECT_EQ(snap.gauge_max("kl.queue_peak"), 40);
  const auto* h = snap.histogram("coarsen.shrink_pct");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 1);
  EXPECT_EQ(h->sum, 55);
}

}  // namespace
}  // namespace mgp::obs
