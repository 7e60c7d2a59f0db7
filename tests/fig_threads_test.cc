// Pins the figure drivers' --threads contract (bench/fig_common.h calls
// ResolveThreads once): the resolved value — the one the banner prints and
// telemetry is labeled with — must equal the worker count of the pool that
// actually runs the grid. Regression: each layer used to
// call ResolveThreads() independently, so the banner and the pool disagreed
// whenever $SILOZ_THREADS changed between the two reads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <thread>

#include "src/base/thread_pool.h"

namespace siloz {
namespace {

// Restores $SILOZ_THREADS on scope exit so these tests cannot leak state
// into each other (or into a developer's shell-configured run).
class ScopedThreadsEnv {
 public:
  ScopedThreadsEnv() {
    const char* current = std::getenv("SILOZ_THREADS");
    had_value_ = current != nullptr;
    if (had_value_) {
      saved_ = current;
    }
  }
  ~ScopedThreadsEnv() {
    if (had_value_) {
      ::setenv("SILOZ_THREADS", saved_.c_str(), 1);
    } else {
      ::unsetenv("SILOZ_THREADS");
    }
  }

 private:
  bool had_value_ = false;
  std::string saved_;
};

TEST(FigThreadsTest, ExplicitFlagWinsOverEnvironment) {
  ScopedThreadsEnv guard;
  ::setenv("SILOZ_THREADS", "7", 1);
  EXPECT_EQ(ResolveThreads(3), 3u);
  ThreadPool pool(ResolveThreads(3));
  EXPECT_EQ(pool.worker_count(), 3u);
}

TEST(FigThreadsTest, AutoResolvesEnvironmentThenHardware) {
  ScopedThreadsEnv guard;
  ::setenv("SILOZ_THREADS", "5", 1);
  EXPECT_EQ(ResolveThreads(0), 5u);
  ::unsetenv("SILOZ_THREADS");
  EXPECT_EQ(ResolveThreads(0), std::max(1u, std::thread::hardware_concurrency()));
  ::setenv("SILOZ_THREADS", "0", 1);  // non-positive values fall through
  EXPECT_EQ(ResolveThreads(0), std::max(1u, std::thread::hardware_concurrency()));
}

TEST(FigThreadsTest, ReportedCountEqualsPoolWorkerCountUnderEnvDrift) {
  ScopedThreadsEnv guard;
  // Resolve once — this is the value RunFigure prints in its banner...
  ::setenv("SILOZ_THREADS", "3", 1);
  const uint32_t reported = ResolveThreads(0);
  ASSERT_EQ(reported, 3u);
  // ...then the environment drifts before the grid pool is constructed.
  ::setenv("SILOZ_THREADS", "7", 1);
  // Forwarding the resolved value (what RunFigure does now) keeps the pool
  // in agreement with the banner.
  ThreadPool pool(reported);
  EXPECT_EQ(pool.worker_count(), reported);
  // The old double-resolution path — handing the raw flag to the pool and
  // letting it re-resolve — would have produced a 7-worker pool under a
  // "3 worker threads" banner.
  ThreadPool stale(0);
  EXPECT_EQ(stale.worker_count(), 7u);
  EXPECT_NE(stale.worker_count(), reported);
}

}  // namespace
}  // namespace siloz
