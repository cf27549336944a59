// perfbench — the repository benchmark.
//
//   perfbench --workload <catalog|catalog_x4|hub_cohort> --seed N
//             --seconds S --trace 0|1 [--span-file PATH]
//
// Drives the program's public entry points with a job stream generated
// from --seed, checks every result, and prints the metrics as the last
// line of stdout (one JSON object). --trace 0 prints the end-to-end
// metrics; --trace 1 prints the per-layer metrics of a traced run, timed
// from outside the program (spans.hpp), and writes the spans to
// --span-file. README.md gives the workloads, the metrics and the
// layer each one belongs to.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "eurochip/fed/federation.hpp"
#include "eurochip/flow/cache.hpp"
#include "eurochip/flow/flow.hpp"
#include "eurochip/hub/job.hpp"
#include "eurochip/netlist/simulator.hpp"
#include "eurochip/pdk/registry.hpp"
#include "eurochip/rtl/designs.hpp"
#include "eurochip/rtl/simulator.hpp"
#include "eurochip/util/rng.hpp"
#include "eurochip/util/stats.hpp"
#include "spans.hpp"

namespace {

using namespace eurochip;  // NOLINT(google-build-using-namespace)
namespace pb = perfbench;

// --- command line and report ----------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string span_file;
};

bool parse_args(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--span-file") {
      args->span_file = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// An output that must never happen (a result that changed between runs
  /// of the same input): the run is reported as incorrect.
  void hard_error(const std::string& what) {
    correct = false;
    std::fprintf(stderr, "perfbench: ERROR: %s\n", what.c_str());
  }
};

void print_report(const Report& r) {
  for (const Metric& m : r.metrics) {
    std::printf("  %-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  char buf[128];
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// --- the flow job stream ----------------------------------------------------

struct Preset {
  const char* name;
  flow::FlowQuality quality;
  const char* node;
};
constexpr Preset kPresets[] = {
    {"open", flow::FlowQuality::kOpen, "sky130ish"},
    {"commercial", flow::FlowQuality::kCommercial, "commercial28"},
};

struct FlowJob {
  std::string name;  ///< "<preset>/s<scale>/<design>"
  std::shared_ptr<const rtl::Module> design;
  flow::FlowConfig config;
};

/// standard_catalog(scale) x {open on sky130ish, commercial on
/// commercial28}, each flow serial (threads = 1) with the default flow seed,
/// so a flow's artifacts and QoR do not depend on the workload seed.
std::vector<FlowJob> make_flow_jobs(const std::vector<int>& scales) {
  std::vector<FlowJob> jobs;
  for (const int scale : scales) {
    for (const Preset& preset : kPresets) {
      for (rtl::designs::CatalogEntry& entry :
           rtl::designs::standard_catalog(scale)) {
        FlowJob job;
        job.name = std::string(preset.name) + "/s" + std::to_string(scale) +
                   "/" + entry.name;
        job.design =
            std::make_shared<const rtl::Module>(std::move(entry.module));
        job.config.node = pdk::standard_node(preset.node).value();
        job.config.quality = preset.quality;
        job.config.threads = 1;
        jobs.push_back(std::move(job));
      }
    }
  }
  return jobs;
}

/// Seeded stimulus and the RTL model's responses to it, for the lockstep
/// equivalence check of a mapped netlist (the method flow_test uses).
struct Lockstep {
  std::vector<std::vector<std::uint64_t>> inputs;
  std::vector<std::vector<std::uint64_t>> outputs;
};
constexpr int kLockstepCycles = 32;

Lockstep golden_lockstep(const rtl::Module& m, std::uint64_t seed) {
  Lockstep ls;
  auto sim = rtl::Simulator::create(m);
  if (!sim.ok()) return ls;
  sim->reset();
  util::Rng rng(seed);
  for (int c = 0; c < kLockstepCycles; ++c) {
    std::vector<std::uint64_t> in;
    for (const rtl::SignalId id : m.inputs()) {
      const int w = m.signal(id).width;
      in.push_back(rng.next() & (w >= 64 ? ~0uLL : (1uLL << w) - 1));
    }
    ls.outputs.push_back(sim->step(in));
    ls.inputs.push_back(std::move(in));
  }
  return ls;
}

bool netlist_matches(const rtl::Module& m, const netlist::Netlist& nl,
                     const Lockstep& ls) {
  if (ls.inputs.size() != static_cast<std::size_t>(kLockstepCycles)) {
    return false;
  }
  auto sim = netlist::Simulator::create(nl);
  if (!sim.ok()) return false;
  sim->reset();
  const auto in_ids = m.inputs();
  const auto out_ids = m.outputs();
  for (std::size_t c = 0; c < ls.inputs.size(); ++c) {
    std::vector<bool> bits;
    for (std::size_t i = 0; i < in_ids.size(); ++i) {
      for (int b = 0; b < m.signal(in_ids[i]).width; ++b) {
        bits.push_back(((ls.inputs[c][i] >> b) & 1) != 0);
      }
    }
    if (bits.size() != sim->num_inputs()) return false;
    const std::vector<bool> out = sim->step(bits);
    std::size_t bit = 0;
    for (std::size_t o = 0; o < out_ids.size(); ++o) {
      std::uint64_t v = 0;
      for (int b = 0; b < m.signal(out_ids[o]).width; ++b) {
        if (bit >= out.size()) return false;
        v |= (out[bit++] ? 1uLL : 0uLL) << b;
      }
      if (v != ls.outputs[c][o]) return false;
    }
  }
  return true;
}

std::uint64_t name_seed(std::uint64_t seed, const std::string& name) {
  util::Hasher h;
  h.u64(seed).str(name);
  return h.finalize().lo;
}

/// The per-flow statistic behind flow_ms_geomean and flow_cpu_ms_geomean:
/// the lower quartile. The host alternates between fast and slow phases
/// (about 25 % apart, each lasting seconds), which makes a flow's samples
/// bimodal; its median then jumps between the modes from run to run, while
/// the lower quartile, the speed in the fast phase, stays put.
constexpr double kFlowPercentile = 25.0;

/// Set-up is repeated this many times per run; setup_s is the median.
constexpr int kSetupRuns = 3;

/// Spans of set-up jobs carry this bit in their job id and are left out of
/// the per-job figures, which describe the timed phase.
constexpr std::uint64_t kSetupJob = std::uint64_t{1} << 62;

// --- per-layer aggregation from spans ---------------------------------------

const char* const kSteps[] = {"library", "elaborate", "synth", "map",
                              "dft",     "place",     "cts",   "route",
                              "sta",     "power",     "drc",   "gds"};

struct LayerInputs {
  std::vector<pb::Span> spans;
  /// Jobs the per-job span figures cover (set-up jobs are left out).
  std::size_t jobs = 0;
  double restored_steps = 0.0;  ///< summed over those jobs
  /// Jobs the layer counters below were taken over.
  double counter_jobs = 0.0;
  std::vector<double> queue_wait_ms;
  std::vector<double> handoff_ms;
  double trace_overhead_pct = 0.0;
  // Cache, L2 and federation counters over the timed phase.
  double l1_hits = 0, l1_misses = 0, l1_evictions = 0, l1_resident_bytes = 0;
  double l2_published_bytes = 0, l2_fetched_bytes = 0;
  double l2_fetch_hits = 0, l2_fetch_misses = 0;
  double steals = 0;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// A percentile under the reporting rule; when fewer than ten samples lie
/// beyond it, the maximum, which bounds it from above, stands in. 0 for no
/// samples.
double tail_or_max(const std::vector<double>& samples, double p) {
  if (samples.empty()) return 0.0;
  return pb::reportable_percentile(samples, p)
      .value_or(*std::max_element(samples.begin(), samples.end()));
}

void add_layer_metrics(const LayerInputs& in, Report* report) {
  std::map<std::string, std::pair<double, double>> step_sum;  // wall, cpu
  std::map<std::string, double> step_count;
  for (const pb::Span& s : in.spans) {
    step_sum[s.name].first += s.wall_ms();
    step_sum[s.name].second += s.cpu_ms;
    step_count[s.name] += 1.0;
  }
  for (const char* step : kSteps) {
    const std::string name = pb::step_span_name(step);
    const double n = step_count[name];
    report->add(name + ".wall_ms", ratio(step_sum[name].first, n), "ms");
    report->add(name + ".cpu_ms", ratio(step_sum[name].second, n), "ms");
  }

  // Per-job figures: execute spans of the counted jobs only.
  double executed = 0.0, execute_ms = 0.0, steps_ms = 0.0, overhead = 0.0;
  double jobs = 0.0;
  const double resolution = pb::clock_resolution_ms();
  for (const pb::ExecuteSplit& split : pb::split_executes(in.spans)) {
    if (in.spans[split.execute_index].job & kSetupJob) continue;
    jobs += 1.0;
    executed += static_cast<double>(split.steps);
    execute_ms += split.execute_ms;
    steps_ms += split.steps_ms;
    overhead += split.overhead_ms();
    if (split.overhead_ms() < -resolution) {
      report->hard_error("flow.cache.overhead_ms below the clock resolution");
    }
  }
  report->add("flow.steps_executed_per_job", ratio(executed, jobs), "count");
  report->add("flow.steps_restored_per_job",
              ratio(in.restored_steps, static_cast<double>(in.jobs)), "count");
  report->add("flow.step_coverage_pct", 100.0 * ratio(steps_ms, execute_ms),
              "%");
  report->add("flow.cache.overhead_ms", ratio(overhead, jobs), "ms");

  const double n = in.counter_jobs;
  report->add("flow.cache.hit_ratio",
              ratio(in.l1_hits, in.l1_hits + in.l1_misses), "ratio");
  report->add("flow.cache.resident_mb",
              in.l1_resident_bytes / (1024.0 * 1024.0), "MiB");
  report->add("flow.cache.evictions", in.l1_evictions, "count");
  report->add("fed.l2.published_kb_per_job",
              ratio(in.l2_published_bytes / 1024.0, n), "KiB");
  report->add("fed.l2.fetched_kb_per_job",
              ratio(in.l2_fetched_bytes / 1024.0, n), "KiB");
  report->add("fed.l2.fetch_hit_ratio",
              ratio(in.l2_fetch_hits, in.l2_fetch_hits + in.l2_fetch_misses),
              "ratio");
  report->add("fed.steals_per_kjob", 1000.0 * ratio(in.steals, n), "count");

  report->add("hub.queue_wait_ms.p50", tail_or_max(in.queue_wait_ms, 50), "ms");
  report->add("hub.queue_wait_ms.p99", tail_or_max(in.queue_wait_ms, 99), "ms");
  report->add("hub.handoff_ms.p50", tail_or_max(in.handoff_ms, 50), "ms");
  report->add("trace.overhead_pct", in.trace_overhead_pct, "%");
}

// --- catalog workloads -------------------------------------------------------

struct FlowTrack {
  std::vector<double> wall_ms;
  std::vector<double> cpu_ms;
  std::optional<util::Digest> digest;
  std::optional<bool> equivalent;  ///< lockstep verdict, computed once
  std::optional<flow::PpaReport> ppa;
  std::string failure;
};

/// Checks one flow result. Returns true for a legal, equivalent result;
/// false for a failed op. A digest that differs from an earlier run of the
/// same flow is a hard error.
bool check_flow(const FlowJob& job, const Lockstep& golden,
                const util::Result<flow::FlowResult>& result, FlowTrack& track,
                Report* report) {
  if (!result.ok()) {
    track.failure = result.status().to_string();
    return false;
  }
  const flow::FlowArtifacts& a = result->artifacts;
  const util::Digest digest = pb::artifact_digest(a);
  if (track.digest && !(*track.digest == digest)) {
    report->hard_error(job.name + ": artifact digest changed between runs");
  }
  track.digest = digest;
  if (!track.equivalent) {
    track.equivalent =
        a.mapped != nullptr && netlist_matches(*job.design, *a.mapped, golden);
  }
  if (!*track.equivalent) {
    track.failure = "mapped netlist disagrees with the RTL model";
    return false;
  }
  if (a.routed == nullptr || a.routed->overflowed_edges > 0) {
    track.failure = "routing overflow";
    return false;
  }
  if (!a.drc.violations.empty()) {
    track.failure = "DRC violations";
    return false;
  }
  if (!track.ppa) track.ppa = result->ppa;
  return true;
}

/// The flows whose QoR enters the geomeans: the ones that route legally
/// when the benchmark was defined, so that improving routability cannot
/// change the set. At scale 1 that is every flow; at scale 4 all but five.
bool in_qor_set(const FlowJob& job) {
  static const char* const kIllegalAtDefinition[] = {
      "open/s4/fir", "open/s4/multiplier", "open/s4/mini_cpu",
      "open/s4/sorter4", "commercial/s4/fir"};
  for (const char* name : kIllegalAtDefinition) {
    if (job.name == name) return false;
  }
  return job.name.find("/s2/") == std::string::npos;
}

int run_catalog(const Args& args, const std::vector<int>& scales,
                Report* report) {
  // Set-up: the job list, the golden RTL responses, and one untimed
  // warm-up run of every flow, so that lazy initialisation and first-touch
  // costs land in setup_s rather than in the timed passes.
  std::vector<FlowJob> jobs;
  std::vector<Lockstep> golden;
  std::vector<FlowTrack> tracks;
  std::vector<double> setup_s;
  for (int r = 0; r < kSetupRuns; ++r) {
    const double t0 = pb::now_ms();
    jobs = make_flow_jobs(scales);
    golden.clear();
    for (const FlowJob& job : jobs) {
      golden.push_back(
          golden_lockstep(*job.design, name_seed(args.seed, job.name)));
    }
    tracks.assign(jobs.size(), FlowTrack{});
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      check_flow(jobs[i], golden[i],
                 flow::run_reference_flow(*jobs[i].design, jobs[i].config),
                 tracks[i], report);
    }
    setup_s.push_back((pb::now_ms() - t0) / 1000.0);
  }

  pb::SpanRecorder recorder;
  const flow::FlowTemplate traced = pb::traced_reference_template(recorder);
  std::vector<double> all_wall;
  // There is no hub here: the loop calls the flow directly, and the hub
  // figures measure that direct hand-over.
  std::vector<double> queue_wait_ms, handoff_ms;
  double wall_sum = 0.0, traced_sum = 0.0, untraced_sum = 0.0;
  std::uint64_t legal = 0;
  std::uint64_t next_job = 1;
  std::size_t passes = 0;
  util::Rng rng(args.seed);

  const auto run_one = [&](std::size_t i, bool traced_run) {
    const FlowJob& job = jobs[i];
    std::optional<util::Result<flow::FlowResult>> result;
    const double c0 = pb::thread_cpu_ms();
    const double t0 = pb::now_ms();
    if (traced_run) {
      double started = 0.0, finished = 0.0;
      {
        pb::ScopedSpan span(recorder, pb::kExecuteSpan, next_job++);
        started = pb::now_ms();
        result.emplace(traced.execute(*job.design, job.config));
        finished = pb::now_ms();
      }
      queue_wait_ms.push_back(started - t0);
      handoff_ms.push_back(pb::now_ms() - finished);
    } else {
      result.emplace(flow::run_reference_flow(*job.design, job.config));
    }
    const double wall = pb::now_ms() - t0;
    const double cpu = pb::thread_cpu_ms() - c0;
    ++report->attempted;
    const bool ok = check_flow(job, golden[i], *result, tracks[i], report);
    if (!ok) ++report->failed;
    (traced_run ? traced_sum : untraced_sum) += wall;
    if (traced_run) return;
    tracks[i].wall_ms.push_back(wall);
    tracks[i].cpu_ms.push_back(cpu);
    all_wall.push_back(wall);
    wall_sum += wall;
    if (ok) ++legal;
  };

  // Whole passes over the job list in a seeded order, until the next pass
  // would overrun the time budget. The traced run pairs every flow with an
  // untraced run of it, in a seeded order, to measure the tracing overhead.
  const double t_begin = pb::now_ms();
  for (;;) {
    const double pass_t0 = pb::now_ms();
    std::vector<std::size_t> order(jobs.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    rng.shuffle(order);
    for (const std::size_t i : order) {
      if (!args.trace) {
        run_one(i, false);
        continue;
      }
      const bool traced_first = rng.uniform() < 0.5;
      run_one(i, traced_first);
      run_one(i, !traced_first);
    }
    ++passes;
    const double now = pb::now_ms();
    if (now - t_begin + (now - pass_t0) > args.seconds * 1000.0) break;
  }

  std::size_t failed_flows = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (!tracks[i].failure.empty()) {
      ++failed_flows;
      std::fprintf(stderr, "perfbench: failed flow %s: %s\n",
                   jobs[i].name.c_str(), tracks[i].failure.c_str());
    }
  }
  std::fprintf(stderr, "perfbench: %zu passes, %zu/%zu flows failed\n", passes,
               failed_flows, jobs.size());

  if (args.trace) {
    LayerInputs in;
    in.spans = recorder.spans();
    in.jobs = next_job - 1;
    in.queue_wait_ms = std::move(queue_wait_ms);
    in.handoff_ms = std::move(handoff_ms);
    in.trace_overhead_pct = 100.0 * (ratio(traced_sum, untraced_sum) - 1.0);
    add_layer_metrics(in, report);
    if (!args.span_file.empty() &&
        !recorder.write_chrome_json(args.span_file)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.span_file.c_str());
    }
    return 0;
  }

  std::vector<std::vector<double>> wall, cpu;
  std::vector<double> area, fmax, power;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    wall.push_back(tracks[i].wall_ms);
    cpu.push_back(tracks[i].cpu_ms);
    if (in_qor_set(jobs[i]) && tracks[i].ppa) {
      area.push_back(tracks[i].ppa->area_um2);
      fmax.push_back(tracks[i].ppa->fmax_mhz);
      power.push_back(tracks[i].ppa->power_uw);
    }
  }
  const double wall_s = wall_sum / 1000.0;
  report->add("setup_s", util::median(setup_s), "s");
  report->add("flow_ms_geomean",
              pb::geomean_of_percentiles(wall, kFlowPercentile), "ms");
  report->add("flow_cpu_ms_geomean",
              pb::geomean_of_percentiles(cpu, kFlowPercentile), "ms");
  report->add("legal_flows_per_s", ratio(static_cast<double>(legal), wall_s),
              "1/s");
  report->add("area_um2_geomean", util::geomean(area), "um2");
  report->add("fmax_mhz_geomean", util::geomean(fmax), "MHz");
  report->add("power_uw_geomean", util::geomean(power), "uW");
  report->add("job_ms_p50", tail_or_max(all_wall, 50), "ms");
  report->add("job_ms_p99", tail_or_max(all_wall, 99), "ms");
  report->add("jobs_per_s",
              ratio(static_cast<double>(all_wall.size()), wall_s), "1/s");
  report->add("peak_rss_mb", pb::peak_rss_mb(), "MiB");
  return 0;
}

// --- hub_cohort --------------------------------------------------------------
//
// A course cohort resubmitting its lab designs to a federation of 2 hubs x 1
// worker. 4 closed-loop clients each wait for their report before sending
// the next job. A job is one of the 32 scale-1 (design, preset) base
// configs, drawn uniformly; a quarter of the jobs override the power
// analysis clock with one of 16 values, so they restore at sta and then run
// and store power, drc and gds the first time each variant is seen.

constexpr std::size_t kCohortClients = 4;
constexpr double kVariantShare = 0.25;
constexpr int kClockVariants = 16;

/// 25, 50, 75, 125, ..., 425 MHz: skips the 100 MHz default.
double variant_clock_mhz(int variant) {
  return 25.0 * (variant < 3 ? variant + 1 : variant + 2);
}

flow::FlowConfig cohort_config(const FlowJob& base, int variant) {
  flow::FlowConfig cfg = base.config;
  if (variant >= 0) {
    power::PowerOptions po;
    po.clock_mhz = variant_clock_mhz(variant);
    cfg.power_options = po;
  }
  return cfg;
}

std::string cohort_key(const FlowJob& base, int variant) {
  if (variant < 0) return base.name + "@base";
  return base.name + "@" +
         std::to_string(static_cast<int>(variant_clock_mhz(variant)));
}

fed::FederatedService::Options cohort_options() {
  fed::FederatedService::Options opts;
  opts.hubs = 2;
  opts.hub_options.capacity = 1;
  return opts;
}

/// When the job body ran, written by the worker and read by the client
/// after wait() returns (the server's lock orders the two).
struct BodyTimes {
  double start_ms = 0.0;
  double end_ms = 0.0;
};

/// Tracing context shared by the traced jobs of one run.
struct Tracing {
  pb::SpanRecorder recorder;
  flow::FlowTemplate traced;
  std::atomic<std::uint64_t> next_job{1};

  Tracing() : traced(pb::traced_reference_template(recorder)) {}
};

/// Replaces make_flow_job's work with the same body run on the traced
/// template, inside a job span (jobs run once: max_attempts is 1).
void trace_job(hub::JobSpec& spec, std::shared_ptr<const rtl::Module> design,
               flow::FlowConfig config, Tracing& tracing,
               std::shared_ptr<BodyTimes> times, std::uint64_t id_bits) {
  const std::uint64_t job_id = tracing.next_job.fetch_add(1) | id_bits;
  spec.work = [design = std::move(design), config = std::move(config),
               &tracing, times = std::move(times),
               job_id](hub::JobContext& ctx) -> util::Status {
    times->start_ms = pb::now_ms();
    util::Status status = [&]() -> util::Status {
      pb::ScopedSpan job_span(tracing.recorder, pb::kJobSpan, job_id);
      flow::FlowConfig cfg = config;
      cfg.cancel = ctx.cancel;
      cfg.cache = ctx.cache;
      if (ctx.degraded) cfg.quality = flow::FlowQuality::kOpen;
      std::optional<util::Result<flow::FlowResult>> result;
      {
        pb::ScopedSpan execute_span(tracing.recorder, pb::kExecuteSpan);
        result.emplace(tracing.traced.execute(*design, cfg));
      }
      if (!result->ok()) return result->status();
      flow::FlowResult& r = **result;
      ctx.steps = std::move(r.steps);
      ctx.ppa = r.ppa;
      ctx.cache_hits = r.cache_hits;
      ctx.artifact_digest = pb::artifact_digest(r.artifacts);
      return util::Status::Ok();
    }();
    times->end_ms = pb::now_ms();
    return status;
  };
}

/// Builds a federation and runs every base config on it once. Returns the
/// base configs' digests and PPA in `bases` order (empty on failure).
std::unique_ptr<fed::FederatedService> cohort_setup(
    const std::vector<FlowJob>& bases, Tracing* tracing,
    std::vector<util::Digest>* digests, std::vector<flow::PpaReport>* ppa,
    Report* report) {
  auto service = std::make_unique<fed::FederatedService>(cohort_options());
  std::vector<fed::FedJobId> ids;
  for (const FlowJob& base : bases) {
    hub::JobSpec spec =
        hub::make_flow_job(cohort_key(base, -1), base.design, base.config);
    if (tracing != nullptr) {
      trace_job(spec, base.design, base.config, *tracing,
                std::make_shared<BodyTimes>(), kSetupJob);
    }
    auto id = service->submit(std::move(spec));
    if (!id.ok()) {
      report->hard_error("set-up submit failed: " + id.status().to_string());
      return service;
    }
    ids.push_back(*id);
  }
  digests->clear();
  ppa->clear();
  for (const fed::FedJobId id : ids) {
    auto record = service->wait(id);
    if (!record.ok() || record->state != hub::JobState::kSucceeded) {
      report->hard_error("set-up job did not succeed");
      continue;
    }
    digests->push_back(record->artifact_digest);
    ppa->push_back(record->ppa);
  }
  return service;
}

/// Results of the timed phases, shared by the client threads.
struct CohortResults {
  std::mutex mu;
  std::map<std::string, util::Digest> first_digest;  ///< by cohort_key
  std::vector<double> latency_ms;
  std::vector<std::vector<double>> latency_by_base;
  std::vector<double> queue_wait_ms;
  std::vector<double> handoff_ms;
  double traced_latency_ms = 0.0, untraced_latency_ms = 0.0;
  std::size_t traced_jobs = 0, untraced_jobs = 0;
  double restored_steps = 0.0;
  std::uint64_t attempted = 0, failed = 0, legal = 0;
};

/// One closed-loop client: submits, waits for the report, submits again,
/// `jobs` times or until `deadline_ms`.
void cohort_client(util::Rng& rng, std::size_t jobs, double deadline_ms,
                   const std::vector<FlowJob>& bases,
                   fed::FederatedService& service, Tracing* tracing,
                   CohortResults& out, Report* report) {
  for (std::size_t n = 0; n < jobs && pb::now_ms() < deadline_ms; ++n) {
    const std::size_t b = rng.index(bases.size());
    const int variant = rng.uniform() < kVariantShare
                            ? static_cast<int>(rng.index(kClockVariants))
                            : -1;
    // Drawn in both modes, so the job stream does not depend on --trace.
    const bool traced = rng.uniform() < 0.5 && tracing != nullptr;
    const FlowJob& base = bases[b];
    const std::string key = cohort_key(base, variant);
    const flow::FlowConfig cfg = cohort_config(base, variant);
    hub::JobSpec spec = hub::make_flow_job(key, base.design, cfg);
    std::shared_ptr<BodyTimes> times;
    if (traced) {
      times = std::make_shared<BodyTimes>();
      trace_job(spec, base.design, cfg, *tracing, times, 0);
    }

    const double t0 = pb::now_ms();
    auto id = service.submit(std::move(spec));
    std::optional<util::Result<hub::JobRecord>> record;
    if (id.ok()) record.emplace(service.wait(*id));
    const double t1 = pb::now_ms();

    std::lock_guard<std::mutex> lock(out.mu);
    ++out.attempted;
    if (!record || !record->ok() ||
        (*record)->state != hub::JobState::kSucceeded) {
      ++out.failed;
      report->hard_error(key + ": cohort job did not succeed");
      continue;
    }
    const hub::JobRecord& rec = **record;
    auto [it, first] = out.first_digest.emplace(key, rec.artifact_digest);
    if (!first && !(it->second == rec.artifact_digest)) {
      ++out.failed;
      report->hard_error(key + ": artifact digest differs from its first run");
      continue;
    }
    if (rec.ppa.drc_violations == 0) ++out.legal;
    const double latency = t1 - t0;
    out.latency_ms.push_back(latency);
    out.latency_by_base[b].push_back(latency);
    if (traced) {
      out.traced_latency_ms += latency;
      ++out.traced_jobs;
      out.restored_steps += static_cast<double>(rec.cache_hits);
      out.queue_wait_ms.push_back(times->start_ms - t0);
      out.handoff_ms.push_back(t1 - times->end_ms);
    } else {
      out.untraced_latency_ms += latency;
      ++out.untraced_jobs;
    }
  }
}

/// Public cache and federation counters, summed over hubs.
struct CacheCounters {
  double l1_hits = 0, l1_misses = 0, l1_evictions = 0, l1_bytes = 0;
  double l2_published = 0, l2_fetched = 0, l2_hits = 0, l2_misses = 0;
  double stolen = 0;
};

CacheCounters read_counters(fed::FederatedService& service) {
  CacheCounters c;
  for (std::size_t h = 0; h < service.num_hubs(); ++h) {
    const flow::FlowCache::Stats s = service.l1_cache(h).stats();
    c.l1_hits += static_cast<double>(s.hits);
    c.l1_misses += static_cast<double>(s.misses);
    c.l1_evictions += static_cast<double>(s.evictions);
    c.l1_bytes += static_cast<double>(s.bytes);
  }
  if (const fed::RemoteCache* l2 = service.remote_cache()) {
    const fed::RemoteCache::Stats s = l2->stats();
    c.l2_published = static_cast<double>(s.bytes_published);
    c.l2_fetched = static_cast<double>(s.bytes_fetched);
    c.l2_hits = static_cast<double>(s.fetch_hits);
    c.l2_misses = static_cast<double>(s.fetch_misses);
  }
  c.stolen = static_cast<double>(service.stats().stolen);
  return c;
}

/// Jobs per round. Each round runs on a fresh federation, so the records
/// the federation keeps for every job (about 12 KiB each) stay bounded and
/// peak_rss_mb does not grow with throughput.
constexpr std::size_t kRoundJobs = 8000;

int run_hub_cohort(const Args& args, Report* report) {
  const std::vector<FlowJob> bases = make_flow_jobs({1});
  std::unique_ptr<Tracing> tracing;
  if (args.trace) tracing = std::make_unique<Tracing>();
  std::vector<util::Rng> rngs;
  for (std::size_t c = 0; c < kCohortClients; ++c) {
    rngs.emplace_back(name_seed(args.seed, "client" + std::to_string(c)));
  }

  CohortResults results;
  results.latency_by_base.resize(bases.size());
  std::vector<util::Digest> base_digests;
  std::vector<flow::PpaReport> base_ppa;
  std::vector<double> setup_s;
  CacheCounters sum;  // timed-phase deltas, summed over rounds
  double cpu_ms = 0.0, timed_ms = 0.0, last_round_ms = 0.0;
  std::size_t rounds = 0;

  // Rounds of set-up (untimed: a fresh federation that has run every base
  // config once) and a timed phase of kRoundJobs jobs, while the next round
  // is expected to fit in the time budget. Clients also stop at a hard
  // deadline, so a much slower program still ends in time.
  const double hard_deadline = pb::now_ms() + 1500.0 * args.seconds;
  while (rounds == 0 || timed_ms + last_round_ms <= 1000.0 * args.seconds) {
    const double s0 = pb::now_ms();
    std::vector<util::Digest> digests;
    std::vector<flow::PpaReport> ppa;
    auto service = cohort_setup(bases, tracing.get(), &digests, &ppa, report);
    setup_s.push_back((pb::now_ms() - s0) / 1000.0);
    if (digests.size() != bases.size() ||
        (rounds > 0 && digests != base_digests)) {
      report->hard_error("set-up digests differ between federations");
    }
    if (!report->correct) return 0;
    if (rounds == 0) {
      base_digests = digests;
      base_ppa = ppa;
      for (std::size_t b = 0; b < bases.size(); ++b) {
        results.first_digest.emplace(cohort_key(bases[b], -1), digests[b]);
      }
    }

    const CacheCounters before = read_counters(*service);
    const double cpu0 = pb::process_cpu_ms();
    const double t0 = pb::now_ms();
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kCohortClients; ++c) {
      clients.emplace_back(cohort_client, std::ref(rngs[c]),
                           kRoundJobs / kCohortClients, hard_deadline,
                           std::cref(bases), std::ref(*service), tracing.get(),
                           std::ref(results), report);
    }
    for (std::thread& t : clients) t.join();
    last_round_ms = pb::now_ms() - t0;
    timed_ms += last_round_ms;
    cpu_ms += pb::process_cpu_ms() - cpu0;
    const CacheCounters after = read_counters(*service);
    service->shutdown();
    ++rounds;

    sum.l1_hits += after.l1_hits - before.l1_hits;
    sum.l1_misses += after.l1_misses - before.l1_misses;
    sum.l1_evictions += after.l1_evictions - before.l1_evictions;
    sum.l1_bytes = std::max(sum.l1_bytes, after.l1_bytes);
    sum.l2_published += after.l2_published - before.l2_published;
    sum.l2_fetched += after.l2_fetched - before.l2_fetched;
    sum.l2_hits += after.l2_hits - before.l2_hits;
    sum.l2_misses += after.l2_misses - before.l2_misses;
    sum.stolen += after.stolen - before.stolen;
    if (pb::now_ms() >= hard_deadline) break;
  }

  report->attempted = results.attempted;
  report->failed = results.failed;
  const double jobs = static_cast<double>(results.latency_ms.size());
  const double wall_s = timed_ms / 1000.0;
  std::fprintf(stderr, "perfbench: %zu rounds, %zu cohort jobs in %.2f s\n",
               rounds, results.latency_ms.size(), wall_s);

  if (args.trace) {
    LayerInputs in;
    in.spans = tracing->recorder.spans();
    in.jobs = results.traced_jobs;
    in.restored_steps = results.restored_steps;
    in.queue_wait_ms = results.queue_wait_ms;
    in.handoff_ms = results.handoff_ms;
    in.trace_overhead_pct =
        100.0 * (ratio(ratio(results.traced_latency_ms,
                             static_cast<double>(results.traced_jobs)),
                       ratio(results.untraced_latency_ms,
                             static_cast<double>(results.untraced_jobs))) -
                 1.0);
    // Layer counters cover every job of the timed phases, traced or not.
    in.counter_jobs = jobs;
    in.l1_hits = sum.l1_hits;
    in.l1_misses = sum.l1_misses;
    in.l1_evictions = sum.l1_evictions / static_cast<double>(rounds);
    in.l1_resident_bytes = sum.l1_bytes;
    in.l2_published_bytes = sum.l2_published;
    in.l2_fetched_bytes = sum.l2_fetched;
    in.l2_fetch_hits = sum.l2_hits;
    in.l2_fetch_misses = sum.l2_misses;
    in.steals = sum.stolen;
    add_layer_metrics(in, report);
    if (!args.span_file.empty() &&
        !tracing->recorder.write_chrome_json(args.span_file)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.span_file.c_str());
    }
    return 0;
  }

  std::vector<double> area, fmax, power;
  for (const flow::PpaReport& ppa : base_ppa) {
    area.push_back(ppa.area_um2);
    fmax.push_back(ppa.fmax_mhz);
    power.push_back(ppa.power_uw);
  }
  report->add("setup_s", util::median(setup_s), "s");
  report->add("flow_ms_geomean",
              pb::geomean_of_percentiles(results.latency_by_base,
                                         kFlowPercentile),
              "ms");
  report->add("flow_cpu_ms_geomean", ratio(cpu_ms, jobs), "ms");
  report->add("legal_flows_per_s",
              ratio(static_cast<double>(results.legal), wall_s), "1/s");
  report->add("area_um2_geomean", util::geomean(area), "um2");
  report->add("fmax_mhz_geomean", util::geomean(fmax), "MHz");
  report->add("power_uw_geomean", util::geomean(power), "uW");
  report->add("job_ms_p50", tail_or_max(results.latency_ms, 50), "ms");
  report->add("job_ms_p99", tail_or_max(results.latency_ms, 99), "ms");
  report->add("jobs_per_s", ratio(jobs, wall_s), "1/s");
  report->add("peak_rss_mb", pb::peak_rss_mb(), "MiB");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <catalog|catalog_x4|hub_cohort> "
                 "--seed N --seconds S --trace 0|1 [--span-file PATH]\n");
    return 2;
  }
  pb::now_ms();  // pin the clock epoch
  Report report;
  int rc = 0;
  if (args.workload == "catalog") {
    rc = run_catalog(args, {1, 2}, &report);
  } else if (args.workload == "catalog_x4") {
    rc = run_catalog(args, {4}, &report);
  } else if (args.workload == "hub_cohort") {
    rc = run_hub_cohort(args, &report);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  if (rc != 0) return rc;
  print_report(report);
  return report.correct ? 0 : 1;
}
