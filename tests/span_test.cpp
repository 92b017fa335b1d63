/// Tests of the trace-span profiler (obs/span.h): the null-sink-is-free
/// contract, multi-thread recording, buffer caps, structural validity of
/// the exported Chrome trace-event JSON, and — the load-bearing property —
/// that recording spans leaves engine and campaign outputs bit-identical.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "config/generator.h"
#include "core/form_pattern.h"
#include "io/patterns.h"
#include "obs/json.h"
#include "obs/span.h"
#include "sim/engine.h"
#include "tmpdir.h"

namespace apf {
namespace {

/// Every test leaves the process-global collector slot empty, even on
/// assertion failure, so tests stay independent.
struct ScopedInstall {
  explicit ScopedInstall(obs::SpanCollector& c) { c.install(); }
  ~ScopedInstall() { obs::SpanCollector::uninstall(); }
};

TEST(SpanTest, NullSinkSpanIsInert) {
  ASSERT_EQ(obs::SpanCollector::current(), nullptr);
  obs::ScopedSpan span("noop", "test", "arg", 7);
  span.arg2("late", 9);
  EXPECT_FALSE(span.active());
  // Destruction must not register anything anywhere (nothing to observe
  // directly — the assertion is that no collector exists to receive it).
}

TEST(SpanTest, RecordsNamesCategoriesAndArgs) {
  obs::SpanCollector collector;
  {
    ScopedInstall installed(collector);
    {
      obs::ScopedSpan outer("outer", "test", "x", 1);
      obs::ScopedSpan inner("inner", "test");
      inner.arg1("late", 5);
      inner.arg2("later", -3);
      EXPECT_TRUE(outer.active());
    }
  }
  const std::vector<obs::Span> spans = collector.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  // snapshot() sorts by start time: outer began first.
  EXPECT_STREQ(spans[0].name, "outer");
  EXPECT_STREQ(spans[0].arg1Name, "x");
  EXPECT_EQ(spans[0].arg1, 1);
  EXPECT_EQ(spans[0].arg2Name, nullptr);
  EXPECT_STREQ(spans[1].name, "inner");
  EXPECT_EQ(spans[1].arg1, 5);
  EXPECT_EQ(spans[1].arg2, -3);
  // Inner is contained in outer: starts no earlier, ends no later.
  EXPECT_GE(spans[1].startNanos, spans[0].startNanos);
  EXPECT_LE(spans[1].startNanos + spans[1].durNanos,
            spans[0].startNanos + spans[0].durNanos);
  EXPECT_EQ(collector.threadCount(), 1u);
  EXPECT_EQ(collector.droppedCount(), 0u);
}

TEST(SpanTest, UninstalledSpansGoNowhere) {
  obs::SpanCollector collector;
  {
    ScopedInstall installed(collector);
    obs::ScopedSpan span("recorded", "test");
  }
  {
    obs::ScopedSpan span("not-recorded", "test");
    EXPECT_FALSE(span.active());
  }
  const auto spans = collector.snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "recorded");
}

TEST(SpanTest, PerThreadBuffersCollectEverySpan) {
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 100;
  obs::SpanCollector collector;
  {
    ScopedInstall installed(collector);
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
      pool.emplace_back([] {
        for (int i = 0; i < kSpansPerThread; ++i) {
          obs::ScopedSpan span("work", "test", "i", i);
        }
      });
    }
    for (auto& th : pool) th.join();
  }
  EXPECT_EQ(collector.snapshot().size(),
            static_cast<std::size_t>(kThreads) * kSpansPerThread);
  EXPECT_EQ(collector.threadCount(), static_cast<std::size_t>(kThreads));
  EXPECT_EQ(collector.droppedCount(), 0u);
}

TEST(SpanTest, BufferCapCountsDrops) {
  obs::SpanCollector collector(/*maxSpansPerThread=*/3);
  {
    ScopedInstall installed(collector);
    for (int i = 0; i < 10; ++i) {
      obs::ScopedSpan span("capped", "test");
    }
  }
  EXPECT_EQ(collector.snapshot().size(), 3u);
  EXPECT_EQ(collector.droppedCount(), 7u);
}

TEST(SpanTest, ReinstallAfterDestructionIsSafe) {
  // A thread that recorded into collector A must not hand its stale buffer
  // to collector B after A is gone (the generation-counter contract).
  auto first = std::make_unique<obs::SpanCollector>();
  first->install();
  {
    obs::ScopedSpan span("into-first", "test");
  }
  first.reset();  // destructor uninstalls
  EXPECT_EQ(obs::SpanCollector::current(), nullptr);
  obs::SpanCollector second;
  {
    ScopedInstall installed(second);
    obs::ScopedSpan span("into-second", "test");
  }
  const auto spans = second.snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "into-second");
}

// ----------------------------------------------- Chrome trace export ---

TEST(SpanTest, ChromeTraceIsStructurallyValidTraceEventJson) {
  obs::SpanCollector collector;
  {
    ScopedInstall installed(collector);
    obs::ScopedSpan a("alpha", "cat-a", "k", 42);
    obs::ScopedSpan b("beta", "cat-b");
  }
  std::ostringstream os;
  collector.writeChromeTrace(os);

  const auto doc = obs::parseJson(os.str());
  ASSERT_TRUE(doc.has_value()) << os.str();
  ASSERT_EQ(doc->kind, obs::JsonNode::Kind::Object);
  const obs::JsonNode* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, obs::JsonNode::Kind::Array);

  std::size_t metaEvents = 0, completeEvents = 0;
  std::set<std::string> names;
  for (const obs::JsonNode& e : events->items) {
    ASSERT_EQ(e.kind, obs::JsonNode::Kind::Object);
    const obs::JsonNode* ph = e.find("ph");
    ASSERT_NE(ph, nullptr);
    ASSERT_NE(e.find("pid"), nullptr);
    ASSERT_NE(e.find("tid"), nullptr);
    ASSERT_NE(e.find("name"), nullptr);
    if (ph->asString() == "M") {
      metaEvents += 1;
      EXPECT_EQ(e.find("name")->asString(), "thread_name");
    } else {
      ASSERT_EQ(ph->asString(), "X");
      completeEvents += 1;
      names.insert(e.find("name")->asString());
      // Complete events need a timestamp and a duration, in microseconds.
      const obs::JsonNode* ts = e.find("ts");
      const obs::JsonNode* dur = e.find("dur");
      ASSERT_NE(ts, nullptr);
      ASSERT_NE(dur, nullptr);
      EXPECT_GE(ts->asNumber(-1.0), 0.0);
      EXPECT_GE(dur->asNumber(-1.0), 0.0);
    }
  }
  EXPECT_EQ(metaEvents, 1u);  // one thread => one thread_name record
  EXPECT_EQ(completeEvents, 2u);
  EXPECT_TRUE(names.count("alpha"));
  EXPECT_TRUE(names.count("beta"));
  // Args survive the round trip.
  bool sawArg = false;
  for (const obs::JsonNode& e : events->items) {
    const obs::JsonNode* args = e.find("args");
    if (args == nullptr || e.find("ph")->asString() != "X") continue;
    const obs::JsonNode* k = args->find("k");
    if (k != nullptr) {
      EXPECT_DOUBLE_EQ(k->asNumber(), 42.0);
      sawArg = true;
    }
  }
  EXPECT_TRUE(sawArg);
  // Summary block matches the recorded set.
  const obs::JsonNode* other = doc->find("otherData");
  ASSERT_NE(other, nullptr);
  EXPECT_DOUBLE_EQ(other->find("span_count")->asNumber(), 2.0);
  EXPECT_DOUBLE_EQ(other->find("dropped_spans")->asNumber(), 0.0);
}

TEST(SpanTest, ChromeTraceCreatesParentDirsAndThrowsWhenUnwritable) {
  obs::SpanCollector collector;
  // Missing parent directories are created on demand.
  const TestTempDir tmp;
  const std::string nested = tmp.file("nested/sub/x.trace.json");
  collector.writeChromeTrace(nested);
  EXPECT_TRUE(std::filesystem::exists(nested));
  // A parent component that is a regular file still fails loudly.
  { std::ofstream block(tmp.file("block")); }
  EXPECT_THROW(collector.writeChromeTrace(tmp.file("block/x.json")),
               std::runtime_error);
}

TEST(SpanTest, EmptyCollectorWritesValidTrace) {
  obs::SpanCollector collector;
  std::ostringstream os;
  collector.writeChromeTrace(os);
  const auto doc = obs::parseJson(os.str());
  ASSERT_TRUE(doc.has_value());
  const obs::JsonNode* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_TRUE(events->items.empty());
}

// ------------------------------------------- engine bit-identity -------

TEST(SpanTest, EngineRunBitIdenticalWithCollectorInstalled) {
  config::Rng rng(11);
  const config::Configuration start = config::symmetricConfiguration(4, 2,
                                                                     rng);
  const config::Configuration pattern =
      io::randomPatternByName(start.size(), 55);
  core::FormPatternAlgorithm algo;
  sim::EngineOptions opts;
  opts.seed = 104;
  opts.maxEvents = 400000;
  opts.sched.kind = sched::SchedulerKind::Async;

  sim::Engine bare(start, pattern, algo, opts);
  const sim::RunResult bareRes = bare.run();

  obs::SpanCollector collector;
  sim::Engine traced(start, pattern, algo, opts);
  sim::RunResult tracedRes;
  {
    ScopedInstall installed(collector);
    tracedRes = traced.run();
  }

  EXPECT_EQ(tracedRes.success, bareRes.success);
  EXPECT_EQ(tracedRes.terminated, bareRes.terminated);
  EXPECT_EQ(tracedRes.metrics.cycles, bareRes.metrics.cycles);
  EXPECT_EQ(tracedRes.metrics.events, bareRes.metrics.events);
  EXPECT_EQ(tracedRes.metrics.randomBits, bareRes.metrics.randomBits);
  EXPECT_EQ(tracedRes.metrics.distance, bareRes.metrics.distance);
  EXPECT_EQ(tracedRes.metrics.phaseActivations,
            bareRes.metrics.phaseActivations);
  ASSERT_EQ(traced.positions().size(), bare.positions().size());
  for (std::size_t i = 0; i < bare.positions().size(); ++i) {
    EXPECT_EQ(traced.positions()[i], bare.positions()[i]) << i;
  }

  // And the trace actually captured the engine stages.
  std::set<std::string> names;
  for (const obs::Span& s : collector.snapshot()) names.insert(s.name);
  EXPECT_TRUE(names.count("engine_run"));
  EXPECT_TRUE(names.count("look"));
  EXPECT_TRUE(names.count("compute"));
  EXPECT_TRUE(names.count("move"));
}

}  // namespace
}  // namespace apf
