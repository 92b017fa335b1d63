/// Configuration's memoized smallest enclosing circle: the cache must be
/// invisible — sec() always returns exactly what a fresh Welzl run over the
/// current points returns, across mutation, copy, and move. The per-thread
/// Welzl insertion orders behind smallestEnclosingCircle must be invisible
/// too, with several threads calling the kernels at once. Labelled `perf`
/// so the TSan CI lane runs it alongside the campaign tests. Engines built
/// from cold and from warmed copies of one start and pattern must report
/// the same Metrics, geometry-cache counters included.

#include <gtest/gtest.h>

#include <thread>
#include <utility>
#include <vector>

#include "config/configuration.h"
#include "config/generator.h"
#include "config/symmetry.h"
#include "core/form_pattern.h"
#include "geom/sec.h"
#include "sim/engine.h"

namespace apf::config {
namespace {

/// Exact (bit-level) circle comparison: the cache stores the result of the
/// very same smallestEnclosingCircle call, so nothing may differ.
void expectSecFresh(const Configuration& cfg, const char* what) {
  const Circle fresh = geom::smallestEnclosingCircle(cfg.span());
  const Circle cached = cfg.sec();
  EXPECT_EQ(cached.center.x, fresh.center.x) << what;
  EXPECT_EQ(cached.center.y, fresh.center.y) << what;
  EXPECT_EQ(cached.radius, fresh.radius) << what;
}

TEST(SecCacheTest, CachedMatchesFreshOnRandomConfigurations) {
  for (int trial = 0; trial < 50; ++trial) {
    Rng rng(100 + trial);
    const std::size_t n = 1 + static_cast<std::size_t>(trial % 40);
    const Configuration cfg = randomConfiguration(n, rng, 5.0, 0.05);
    expectSecFresh(cfg, "first call");
    expectSecFresh(cfg, "second call (cache hit)");
  }
}

TEST(SecCacheTest, MutationThroughIndexInvalidates) {
  Rng rng(7);
  Configuration cfg = randomConfiguration(10, rng, 3.0, 0.1);
  const Circle before = cfg.sec();
  cfg[0] = Vec2{100.0, 100.0};  // far outside the old circle
  const Circle after = cfg.sec();
  EXPECT_GT(after.radius, before.radius);
  expectSecFresh(cfg, "after operator[] mutation");
}

TEST(SecCacheTest, PushBackInvalidates) {
  Rng rng(8);
  Configuration cfg = randomConfiguration(10, rng, 3.0, 0.1);
  const Circle before = cfg.sec();
  cfg.push_back(Vec2{-50.0, 40.0});
  const Circle after = cfg.sec();
  EXPECT_GT(after.radius, before.radius);
  expectSecFresh(cfg, "after push_back");
}

TEST(SecCacheTest, ConstAccessDoesNotInvalidate) {
  Rng rng(9);
  Configuration cfg = randomConfiguration(12, rng, 3.0, 0.1);
  const Circle warm = cfg.sec();
  const Configuration& view = cfg;
  (void)view[3];        // const operator[] must not touch the cache
  (void)view.points();
  const Circle again = cfg.sec();
  EXPECT_EQ(warm.center.x, again.center.x);
  EXPECT_EQ(warm.center.y, again.center.y);
  EXPECT_EQ(warm.radius, again.radius);
}

TEST(SecCacheTest, CopyCarriesIndependentCache) {
  Rng rng(10);
  Configuration a = randomConfiguration(9, rng, 3.0, 0.1);
  const Circle orig = a.sec();  // warm before copying
  Configuration b = a;
  a[0] = Vec2{200.0, 0.0};  // mutating the source must not disturb the copy
  const Circle bSec = b.sec();
  EXPECT_EQ(bSec.center.x, orig.center.x);
  EXPECT_EQ(bSec.center.y, orig.center.y);
  EXPECT_EQ(bSec.radius, orig.radius);
  expectSecFresh(b, "copy");
  expectSecFresh(a, "mutated source");
}

TEST(SecCacheTest, MoveTransfersCacheAndResetsSource) {
  Rng rng(11);
  Configuration a = randomConfiguration(9, rng, 3.0, 0.1);
  const Circle orig = a.sec();
  Configuration b = std::move(a);
  const Circle moved = b.sec();
  EXPECT_EQ(moved.center.x, orig.center.x);
  EXPECT_EQ(moved.center.y, orig.center.y);
  EXPECT_EQ(moved.radius, orig.radius);
  // The moved-from object is reusable: its stale cache must be gone.
  a = Configuration();
  a.push_back(Vec2{1.0, 0.0});
  a.push_back(Vec2{-1.0, 0.0});
  expectSecFresh(a, "reused moved-from object");

  Configuration c = randomConfiguration(7, rng, 3.0, 0.1);
  const Circle cOrig = c.sec();
  Configuration d;
  d = std::move(c);  // move-assignment path
  EXPECT_EQ(d.sec().radius, cOrig.radius);
  expectSecFresh(d, "move-assigned target");
}

/// Everything the SEC, SEC-holder and symmetry-axis kernels return for one
/// configuration.
struct KernelResults {
  Circle sec;
  std::vector<std::size_t> holders;
  std::vector<double> axes;

  static KernelResults of(const Configuration& p) {
    const Circle sec = geom::smallestEnclosingCircle(p.span());
    return {sec, geom::secHolders(p.span()), symmetryAxes(p, sec.center)};
  }
  bool operator==(const KernelResults& o) const {
    return sec.center.x == o.sec.center.x && sec.center.y == o.sec.center.y &&
           sec.radius == o.sec.radius && holders == o.holders &&
           axes == o.axes;
  }
};

TEST(SecCacheTest, KernelsFromFourThreadsMatchSingleThread) {
  // Sizes 2..64, symmetric and random, so the threads need different
  // insertion orders at the same moment.
  std::vector<Configuration> inputs;
  Rng rng(64);
  for (std::size_t n = 2; n <= 64; ++n) {
    inputs.push_back(n % 2 == 0 ? symmetricConfiguration(
                                      static_cast<int>(n / 2), 2, rng)
                                : randomConfiguration(n, rng, 5.0, 0.05));
  }

  // The threads run first, so any state the kernels keep is cold when they
  // start and is built while they race. Each walks the sizes from its own
  // offset with its own stride, so the threads are mostly on different
  // sizes at any moment.
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kRounds = 3;
  const std::size_t count = inputs.size();
  const auto inputAt = [count](std::size_t t, std::size_t k) {
    return (t * 16 + k * (2 * t + 1)) % count;  // strides coprime with 63
  };
  std::vector<std::vector<KernelResults>> got(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t k = 0; k < kRounds * count; ++k) {
        got[t].push_back(KernelResults::of(inputs[inputAt(t, k)]));
      }
    });
  }
  for (std::thread& th : threads) th.join();

  std::vector<KernelResults> expected;
  for (const Configuration& p : inputs) {
    expected.push_back(KernelResults::of(p));
  }
  for (std::size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(got[t].size(), kRounds * count);
    for (std::size_t k = 0; k < got[t].size(); ++k) {
      const std::size_t i = inputAt(t, k);
      EXPECT_TRUE(got[t][k] == expected[i])
          << "thread " << t << " call " << k << " n=" << inputs[i].size();
    }
  }
}

TEST(SecCacheTest, EngineMetricsIgnoreTheCallersCacheState) {
  // A caller's start and pattern may arrive with their SEC and Weber point
  // memoized or not, and a Configuration shared between threads may be
  // warmed by another thread at any moment. The engine recomputes the
  // pattern's caches itself (the start's are dropped at the first Look),
  // so a run's Metrics, its geometry-cache counters included, are the same
  // either way.
  const core::FormPatternAlgorithm algo;
  for (std::uint64_t seed : {3u, 4u, 5u}) {
    Rng rng(seed);
    const Configuration cold = randomConfiguration(8, rng, 5.0, 0.1);
    const Configuration coldPattern = randomPattern(8, rng);
    const Configuration start(cold.points());
    const Configuration pattern(coldPattern.points());
    Configuration warmStart = start;
    Configuration warmPattern = pattern;
    for (const Configuration* c : {&warmStart, &warmPattern}) {
      c->sec();
      c->weberPoint();
    }
    sim::EngineOptions opts;
    opts.seed = seed;
    opts.maxEvents = 20000;
    const sim::Metrics a = sim::Engine(start, pattern, algo, opts).run().metrics;
    const sim::Metrics b =
        sim::Engine(warmStart, warmPattern, algo, opts).run().metrics;
    EXPECT_EQ(a.cycles, b.cycles) << "seed " << seed;
    EXPECT_EQ(a.events, b.events) << "seed " << seed;
    EXPECT_EQ(a.randomBits, b.randomBits) << "seed " << seed;
    EXPECT_EQ(a.distance, b.distance) << "seed " << seed;
    EXPECT_EQ(a.phaseActivations, b.phaseActivations) << "seed " << seed;
    EXPECT_EQ(a.computesReused, b.computesReused) << "seed " << seed;
    EXPECT_EQ(a.secCacheHits, b.secCacheHits) << "seed " << seed;
    EXPECT_EQ(a.secCacheMisses, b.secCacheMisses) << "seed " << seed;
    EXPECT_EQ(a.weberCacheHits, b.weberCacheHits) << "seed " << seed;
    EXPECT_EQ(a.weberCacheMisses, b.weberCacheMisses) << "seed " << seed;
  }
}

}  // namespace
}  // namespace apf::config
