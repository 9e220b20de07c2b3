#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <vector>

#include "support/thread_pool.hpp"

namespace mgp::obs {
namespace {

// These tests exercise the real recording machinery; under MGP_OBS=OFF the
// Span class is an empty stub and there is nothing to test.
#define REQUIRE_OBS_COMPILED() \
  if (!kObsCompiled) GTEST_SKIP() << "library built with MGP_OBS=OFF"

TEST(TraceTest, DisabledByDefaultAndSpansAreDropped) {
  ASSERT_FALSE(tracing_enabled());
  // Earlier tests in the same process may have left buffered events, so
  // compare against the count on entry rather than against zero.
  const std::size_t before = trace_event_count();
  {
    Span s("dropped");
    s.arg("x", 1);
  }
  EXPECT_EQ(trace_event_count(), before);
}

TEST(TraceTest, SpanRecordsOnlyBetweenStartAndStop) {
  REQUIRE_OBS_COMPILED();
  trace_start();
  EXPECT_TRUE(tracing_enabled());
  {
    Span s("recorded");
    s.arg("n", 42);
  }
  trace_stop();
  EXPECT_FALSE(tracing_enabled());
  EXPECT_EQ(trace_event_count(), 1u);
  {
    Span s("after_stop");
  }
  EXPECT_EQ(trace_event_count(), 1u);  // buffered events survive stop
}

TEST(TraceTest, StartClearsPreviousEvents) {
  REQUIRE_OBS_COMPILED();
  trace_start();
  { Span s("old"); }
  trace_stop();
  ASSERT_EQ(trace_event_count(), 1u);
  trace_start();
  EXPECT_EQ(trace_event_count(), 0u);
  { Span s("new"); }
  trace_stop();
  EXPECT_EQ(trace_event_count(), 1u);
  trace_start();  // leave the buffer clean for later tests
  trace_stop();
}

TEST(TraceTest, MgpSpanMacroRecords) {
  REQUIRE_OBS_COMPILED();
  trace_start();
  {
    MGP_SPAN("macro_span");
  }
  trace_stop();
  EXPECT_EQ(trace_event_count(), 1u);
  trace_start();
  trace_stop();
}

TEST(TraceTest, AtMostTwoArgsAreKept) {
  REQUIRE_OBS_COMPILED();
  trace_start();
  {
    Span s("many_args");
    s.arg("a", 1);
    s.arg("b", 2);
    s.arg("c", 3);  // dropped, not UB
  }
  trace_stop();
  const std::string json = trace_chrome_json();
  EXPECT_NE(json.find("\"a\""), std::string::npos);
  EXPECT_NE(json.find("\"b\""), std::string::npos);
  EXPECT_EQ(json.find("\"c\": 3"), std::string::npos);
  trace_start();
  trace_stop();
}

TEST(TraceTest, ChromeJsonHasExpectedStructure) {
  REQUIRE_OBS_COMPILED();
  set_thread_name("trace-test-main");
  trace_start();
  {
    Span s("outer");
    s.arg("n", 123);
    { Span inner("inner"); }
  }
  trace_stop();
  const std::string json = trace_chrome_json();
  // Top-level Chrome trace-event envelope, loadable by Perfetto.
  EXPECT_EQ(json.find("{"), 0u);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // Complete ("X") events with the span names and the arg.
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"inner\""), std::string::npos);
  EXPECT_NE(json.find("\"n\": 123"), std::string::npos);
  EXPECT_NE(json.find("\"dur\""), std::string::npos);
  // Thread-name metadata events.
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("trace-test-main"), std::string::npos);
  trace_start();
  trace_stop();
}

TEST(TraceTest, WriteChromeCreatesFile) {
  REQUIRE_OBS_COMPILED();
  trace_start();
  { Span s("to_file"); }
  trace_stop();
  const std::string path = "trace_test_out.json";
  ASSERT_TRUE(trace_write_chrome(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(buf.str().find("to_file"), std::string::npos);
  in.close();
  std::remove(path.c_str());
  trace_start();
  trace_stop();
}

TEST(TraceTest, WriteChromeFailsOnBadPath) {
  REQUIRE_OBS_COMPILED();
  EXPECT_FALSE(trace_write_chrome("/nonexistent-dir/trace.json"));
}

// Concurrency test, run at the two pool sizes the sanitizers workflow
// exercises under TSan.  Every pool task records spans concurrently with
// the main thread; pool.task wrapper spans add one event per executed task.
class TraceThreadedTest : public ::testing::TestWithParam<int> {};

TEST_P(TraceThreadedTest, ManyThreadsRecordConcurrently) {
  REQUIRE_OBS_COMPILED();
  const int threads = GetParam();
  constexpr int kTasks = 64;
  constexpr int kSpansPerTask = 50;
  trace_start();
  {
    ThreadPool pool(threads);
    std::vector<std::future<void>> futs;
    futs.reserve(kTasks);
    for (int t = 0; t < kTasks; ++t) {
      futs.push_back(pool.submit([&]() {
        for (int i = 0; i < kSpansPerTask; ++i) {
          Span s("worker_span");
          s.arg("i", i);
        }
      }));
    }
    for (auto& f : futs) pool.wait_help(f);
  }
  trace_stop();
  // At least the explicit spans; pool.task wrappers may add more.
  EXPECT_GE(trace_event_count(),
            static_cast<std::size_t>(kTasks) * kSpansPerTask);
  const std::string json = trace_chrome_json();
  EXPECT_NE(json.find("worker_span"), std::string::npos);
  if (threads > 1) {
    // Worker threads self-label, and executed tasks get wrapper spans.
    EXPECT_NE(json.find("pool-worker-0"), std::string::npos);
  }
  trace_start();
  trace_stop();
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, TraceThreadedTest, ::testing::Values(2, 8),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "threads" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace mgp::obs
