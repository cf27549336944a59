// Self-tests of the benchmark's own statistics and tracing. run.py runs
// them before every benchmark run; any failure makes the run fail.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "eurochip/flow/cache.hpp"
#include "eurochip/pdk/registry.hpp"
#include "eurochip/rtl/designs.hpp"
#include "eurochip/util/stats.hpp"
#include "spans.hpp"

namespace {

using namespace eurochip;  // NOLINT(google-build-using-namespace)
namespace pb = perfbench;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
  }
}

std::vector<double> ramp(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

void percentile_needs_ten_samples_beyond() {
  // p50 of 1..15 is 8: seven samples lie beyond it.
  expect(!pb::reportable_percentile(ramp(15), 50).has_value(),
         "p50 of 15 samples must not be reported");
  // p50 of 1..21 is 11: exactly ten lie beyond it.
  const auto p50 = pb::reportable_percentile(ramp(21), 50);
  expect(p50.has_value() && *p50 == 11.0, "p50 of 21 samples is 11");
  expect(!pb::reportable_percentile(ramp(500), 99).has_value(),
         "p99 of 500 samples must not be reported");
  expect(pb::reportable_percentile(ramp(2000), 99).has_value(),
         "p99 of 2000 samples is reported");
  // Ties: nothing lies strictly beyond a constant sample's percentile.
  expect(!pb::reportable_percentile(std::vector<double>(2000, 3.0), 99)
              .has_value(),
         "p99 of a constant sample must not be reported");
  expect(!pb::reportable_percentile({}, 50).has_value(),
         "no percentile of an empty sample");
}

void geomean_matches_util() {
  const std::vector<std::vector<double>> items = {
      {2.0, 1.0, 3.0}, {8.0}, {}, {4.0, 100.0, 5.0, 6.0}};
  expect(pb::geomean_of_percentiles(items, 50) ==
             util::geomean({2.0, 8.0, 5.5}),
         "geomean of medians equals util::geomean of the medians");
  // Lower quartiles: 1.5, 8, 4.75 (linear interpolation).
  expect(pb::geomean_of_percentiles(items, 25) ==
             util::geomean({1.5, 8.0, 4.75}),
         "geomean of lower quartiles equals util::geomean of the quartiles");
  expect(std::fabs(pb::geomean_of_percentiles({{2.0}, {8.0}}, 25) - 4.0) <
             1e-12,
         "geomean of 2 and 8 is 4");
}

/// Runs the traced template cold and then warm over a FlowCache: every
/// execute span must cover its step spans, so execute wall minus step wall
/// is never more negative than the clock resolution, and tracing must not
/// change the artifacts.
void overhead_never_below_resolution() {
  pb::SpanRecorder recorder;
  const flow::FlowTemplate traced = pb::traced_reference_template(recorder);
  const rtl::Module design = rtl::designs::counter(4);
  flow::FlowConfig config;
  config.node = pdk::standard_node("sky130ish").value();
  config.threads = 1;
  const auto reference = flow::run_reference_flow(design, config);
  expect(reference.ok(), "reference flow of counter(4) succeeds");
  if (!reference.ok()) return;

  flow::FlowCache cache;
  config.cache = &cache;
  for (int run = 0; run < 3; ++run) {
    std::optional<util::Result<flow::FlowResult>> result;
    {
      pb::ScopedSpan span(recorder, pb::kExecuteSpan,
                          static_cast<std::uint64_t>(run + 1));
      result.emplace(traced.execute(design, config));
    }
    expect(result->ok(), "traced flow succeeds");
    if (result->ok()) {
      expect(pb::artifact_digest((*result)->artifacts) ==
                 pb::artifact_digest(reference->artifacts),
             "traced and untraced artifacts are identical");
    }
  }
  const auto splits = pb::split_executes(recorder.spans());
  expect(splits.size() == 3, "three execute spans");
  expect(!splits.empty() && splits[0].steps == 12,
         "the cold run executes all 12 steps");
  expect(splits.size() == 3 && splits[2].steps == 0,
         "the warm run restores every step");
  for (const pb::ExecuteSplit& s : splits) {
    expect(s.overhead_ms() >= -pb::clock_resolution_ms(),
           "execute wall minus step wall >= -clock resolution");
  }
}

}  // namespace

int main() {
  percentile_needs_ten_samples_beyond();
  geomean_matches_util();
  overhead_never_below_resolution();
  if (g_failures != 0) {
    std::fprintf(stderr, "perfbench selftest: %d failure(s)\n", g_failures);
    return 1;
  }
  std::fprintf(stderr, "perfbench selftest: ok\n");
  return 0;
}
