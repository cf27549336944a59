#include "spans.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <utility>

#include "eurochip/flow/fingerprint.hpp"
#include "eurochip/util/stats.hpp"

namespace perfbench {

namespace {

double clock_ms(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

/// Open spans of the calling thread, innermost last.
thread_local std::vector<std::size_t> t_open;

std::uint32_t thread_number() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t id = next.fetch_add(1);
  return id;
}

void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
}

}  // namespace

double now_ms() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

double thread_cpu_ms() { return clock_ms(CLOCK_THREAD_CPUTIME_ID); }

double process_cpu_ms() { return clock_ms(CLOCK_PROCESS_CPUTIME_ID); }

double clock_resolution_ms() {
  // steady_clock is CLOCK_MONOTONIC on Linux.
  timespec res{};
  clock_getres(CLOCK_MONOTONIC, &res);
  return static_cast<double>(res.tv_sec) * 1e3 +
         static_cast<double>(res.tv_nsec) * 1e-6;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::size_t SpanRecorder::begin(std::string name, std::uint64_t job) {
  Span span;
  span.name = std::move(name);
  span.tid = thread_number();
  std::size_t index = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!t_open.empty()) {
      span.parent = static_cast<std::int64_t>(t_open.back());
      if (job == kInheritJob) job = spans_[t_open.back()].job;
    }
    span.job = job == kInheritJob ? 0 : job;
    index = spans_.size();
    spans_.push_back(std::move(span));
  }
  t_open.push_back(index);
  // Clocks last, so the bookkeeping above is outside the span.
  const double cpu = thread_cpu_ms();
  const double start = now_ms();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[index].start_ms = start;
  spans_[index].cpu_ms = cpu;
  return index;
}

void SpanRecorder::end(std::size_t index) {
  const double end = now_ms();
  const double cpu = thread_cpu_ms();
  if (!t_open.empty() && t_open.back() == index) t_open.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[index].end_ms = end;
  spans_[index].cpu_ms = cpu - spans_[index].cpu_ms;
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool SpanRecorder::write_chrome_json(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  char buf[256];
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    out += "{\"ph\":\"X\",\"cat\":\"perfbench\",\"name\":";
    append_json_string(out, s.name);
    std::snprintf(buf, sizeof(buf),
                  ",\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"span\":%zu,\"parent\":%lld,\"job\":%llu,"
                  "\"cpu_ms\":%.4f}}",
                  s.tid, s.start_ms * 1e3, s.wall_ms() * 1e3, i,
                  static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.job), s.cpu_ms);
    out += buf;
    out += i + 1 < all.size() ? ",\n" : "\n";
  }
  out += "]}\n";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  return std::fclose(f) == 0 && ok;
}

std::string step_span_name(const std::string& step) { return "flow." + step; }

flow::FlowTemplate traced_reference_template(SpanRecorder& recorder) {
  const flow::FlowTemplate reference = flow::reference_template();
  flow::FlowTemplate traced(reference.name());
  for (const flow::FlowStep& step : reference.steps()) {
    flow::FlowStep wrapped = step;
    wrapped.run = [&recorder, run = step.run,
                   span = step_span_name(step.name)](flow::FlowContext& ctx) {
      ScopedSpan s(recorder, span);
      return run(ctx);
    };
    traced.add_step(std::move(wrapped));
  }
  return traced;
}

eurochip::util::Digest artifact_digest(const flow::FlowArtifacts& a) {
  eurochip::util::Hasher h;
  h.str("eurochip.artifact.v1");
  if (a.mapped) h.digest(flow::digest_of(*a.mapped));
  if (a.placed) h.digest(flow::digest_of(*a.placed));
  if (a.routed) h.digest(flow::digest_of(*a.routed));
  h.bytes(a.gds_bytes.data(), a.gds_bytes.size());
  return h.finalize();
}

std::optional<double> reportable_percentile(std::vector<double> samples,
                                            double p) {
  if (samples.empty()) return std::nullopt;
  const double value = eurochip::util::percentile(samples, p);
  const auto beyond = std::count_if(samples.begin(), samples.end(),
                                    [value](double x) { return x > value; });
  if (beyond < 10) return std::nullopt;
  return value;
}

double geomean_of_percentiles(const std::vector<std::vector<double>>& per_item,
                              double p) {
  std::vector<double> values;
  for (const std::vector<double>& samples : per_item) {
    if (!samples.empty()) {
      values.push_back(eurochip::util::percentile(samples, p));
    }
  }
  return eurochip::util::geomean(values);
}

std::vector<ExecuteSplit> split_executes(const std::vector<Span>& spans) {
  std::vector<ExecuteSplit> out;
  std::vector<std::int64_t> slot(spans.size(), -1);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name != kExecuteSpan) continue;
    slot[i] = static_cast<std::int64_t>(out.size());
    ExecuteSplit split;
    split.execute_index = i;
    split.execute_ms = spans[i].wall_ms();
    out.push_back(split);
  }
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const std::int64_t k = slot[static_cast<std::size_t>(s.parent)];
    if (k < 0) continue;
    out[static_cast<std::size_t>(k)].steps_ms += s.wall_ms();
    ++out[static_cast<std::size_t>(k)].steps;
  }
  return out;
}

}  // namespace perfbench
