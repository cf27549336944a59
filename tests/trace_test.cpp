// Tests for eurochip::util::trace — span nesting, cross-thread context
// handoff, disabled-mode no-ops, concurrent emitters, Chrome export — and
// for the flow instrumentation built on it (every executed step emits
// exactly one span, and kernel spans nest under their step).
//
// The tracer is process-global; every test runs against a clean session
// (fixture stops and clears around each body). CI runs this binary under
// ThreadSanitizer and AddressSanitizer.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "eurochip/flow/flow.hpp"
#include "eurochip/pdk/registry.hpp"
#include "eurochip/rtl/designs.hpp"
#include "eurochip/util/trace.hpp"

namespace eurochip::util::trace {
namespace {

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    stop();
    clear();
  }
  void TearDown() override {
    stop();
    clear();
  }
};

std::vector<Event> events_named(const std::vector<Event>& events,
                                const std::string& name) {
  std::vector<Event> out;
  for (const Event& ev : events) {
    if (ev.name == name) out.push_back(ev);
  }
  return out;
}

TEST_F(TraceTest, DisabledSessionRecordsNothing) {
  ASSERT_FALSE(enabled());
  {
    EUROCHIP_TRACE_SPAN("should-not-appear", "test");
    instant("also-not", "test");
    Span manual;
    EXPECT_FALSE(manual.active());
    manual.annotate("k", std::string("v"));  // inert span: no-op
    manual.event("nothing");
  }
  EXPECT_TRUE(snapshot().empty());
  const TraceContext ctx = current_context();
  EXPECT_EQ(ctx.parent, 0u);
}

TEST_F(TraceTest, SpansNestViaThreadLocalStack) {
  start();
  SpanId outer_id = 0;
  SpanId inner_id = 0;
  {
    Span outer("outer", "test");
    ASSERT_TRUE(outer.active());
    outer_id = outer.id();
    {
      Span inner("inner", "test");
      inner_id = inner.id();
      EXPECT_NE(inner_id, outer_id);
    }
    // Inner closed: the current span is the outer one again.
    EXPECT_EQ(current_context().parent, outer_id);
  }
  stop();
  const auto events = snapshot();
  ASSERT_EQ(events.size(), 2u);
  const auto outer_ev = events_named(events, "outer");
  const auto inner_ev = events_named(events, "inner");
  ASSERT_EQ(outer_ev.size(), 1u);
  ASSERT_EQ(inner_ev.size(), 1u);
  EXPECT_EQ(outer_ev[0].parent, 0u);
  EXPECT_EQ(inner_ev[0].parent, outer_id);
  EXPECT_EQ(inner_ev[0].id, inner_id);
  // The inner interval is contained in the outer one.
  EXPECT_GE(inner_ev[0].start_us, outer_ev[0].start_us);
  EXPECT_LE(inner_ev[0].start_us + inner_ev[0].dur_us,
            outer_ev[0].start_us + outer_ev[0].dur_us);
}

TEST_F(TraceTest, ContextScopeCarriesLineageAcrossThreads) {
  start();
  SpanId parent_id = 0;
  SpanId child_id = 0;
  std::uint64_t child_track = 0;
  {
    ContextScope track_scope(TraceContext{0, 42});
    Span parent("publisher", "test");
    parent_id = parent.id();
    const TraceContext handoff = current_context();
    EXPECT_EQ(handoff.parent, parent_id);
    EXPECT_EQ(handoff.track, 42u);
    std::thread worker([&] {
      // Without adoption this thread would root its own tree.
      ContextScope scope(handoff);
      Span child("executor", "test");
      child_id = child.id();
      child_track = current_context().track;
    });
    worker.join();
  }
  stop();
  const auto events = snapshot();
  const auto child_ev = events_named(events, "executor");
  ASSERT_EQ(child_ev.size(), 1u);
  EXPECT_EQ(child_ev[0].parent, parent_id);
  EXPECT_EQ(child_ev[0].track, 42u);
  EXPECT_EQ(child_track, 42u);
  EXPECT_NE(child_id, parent_id);
  // The two spans were emitted by different threads.
  const auto parent_ev = events_named(events, "publisher");
  ASSERT_EQ(parent_ev.size(), 1u);
  EXPECT_NE(parent_ev[0].tid, child_ev[0].tid);
}

TEST_F(TraceTest, AnnotationsAndEventsAttachToTheirSpan) {
  start();
  SpanId id = 0;
  {
    Span span("annotated", "test");
    id = span.id();
    span.annotate("str", std::string("value"));
    span.annotate("num", 2.5);
    span.annotate("count", static_cast<std::uint64_t>(7));
    span.annotate("flag", true);
    span.event("midpoint", "halfway there");
  }
  stop();
  const auto events = snapshot();
  ASSERT_EQ(events.size(), 2u);
  const auto span_ev = events_named(events, "annotated");
  ASSERT_EQ(span_ev.size(), 1u);
  const auto& args = span_ev[0].args;
  const auto has = [&](const std::string& k, const std::string& v) {
    return std::find(args.begin(), args.end(), std::make_pair(k, v)) !=
           args.end();
  };
  EXPECT_TRUE(has("str", "value"));
  EXPECT_TRUE(has("num", "2.5"));
  EXPECT_TRUE(has("count", "7"));
  EXPECT_TRUE(has("flag", "true"));
  const auto inst = events_named(events, "midpoint");
  ASSERT_EQ(inst.size(), 1u);
  EXPECT_EQ(inst[0].kind, Event::Kind::kInstant);
  EXPECT_EQ(inst[0].parent, id);
}

TEST_F(TraceTest, ConcurrentEmittersLoseNothing) {
  start();
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 500;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t] {
      set_thread_name("emitter-" + std::to_string(t));
      for (int i = 0; i < kSpansPerThread; ++i) {
        Span outer("outer", "stress");
        Span inner("inner", "stress");
        inner.event("tick");
      }
    });
  }
  for (auto& th : workers) th.join();
  stop();
  const auto events = snapshot();
  EXPECT_EQ(events_named(events, "outer").size(),
            static_cast<std::size_t>(kThreads * kSpansPerThread));
  EXPECT_EQ(events_named(events, "inner").size(),
            static_cast<std::size_t>(kThreads * kSpansPerThread));
  EXPECT_EQ(events_named(events, "tick").size(),
            static_cast<std::size_t>(kThreads * kSpansPerThread));
  // Span ids are globally unique.
  std::set<SpanId> ids;
  for (const Event& ev : events) {
    if (ev.kind == Event::Kind::kSpan) {
      EXPECT_TRUE(ids.insert(ev.id).second) << "duplicate span id " << ev.id;
    }
  }
  // Every emitter thread registered under its chosen name.
  const auto infos = threads();
  int named = 0;
  for (const ThreadInfo& info : infos) {
    if (info.name.rfind("emitter-", 0) == 0) ++named;
  }
  EXPECT_GE(named, kThreads);
}

TEST_F(TraceTest, ChromeExportIsWellFormed) {
  start();
  {
    Span span("export \"me\"", "test");  // quote forces escaping
    span.annotate("note", std::string("line1\nline2"));
    instant("marker", "test", "point");
  }
  stop();
  const std::string json = export_chrome_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("export \\\"me\\\""), std::string::npos);
  EXPECT_NE(json.find("line1\\nline2"), std::string::npos);
  // Raw control characters would break JSON consumers.
  for (const char c : json) {
    EXPECT_TRUE(static_cast<unsigned char>(c) >= 0x20 || c == '\n');
  }
  // Braces and brackets balance (no truncation, escaping intact).
  int braces = 0;
  int brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_FALSE(in_string);
}

TEST_F(TraceTest, ClearDropsEventsButKeepsThreadIdentity) {
  start();
  { Span span("before-clear", "test"); }
  clear();
  EXPECT_TRUE(snapshot().empty());
  { Span span("after-clear", "test"); }
  stop();
  const auto events = snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "after-clear");
  EXPECT_FALSE(threads().empty());
}

// --- flow instrumentation -------------------------------------------------

flow::FlowConfig span_test_config() {
  flow::FlowConfig cfg;
  cfg.node = pdk::standard_node("sky130ish").value();
  cfg.quality = flow::FlowQuality::kOpen;
  return cfg;
}

struct FlowSpanSummary {
  Event flow_span;
  std::vector<Event> step_spans;  ///< in start order
};

FlowSpanSummary traced_flow(const rtl::Module& design) {
  clear();
  start();
  const auto result = flow::run_reference_flow(design, span_test_config());
  stop();
  EXPECT_TRUE(result.ok()) << result.status().to_string();
  FlowSpanSummary summary;
  for (const Event& ev : snapshot()) {
    if (ev.cat == "flow") summary.flow_span = ev;
    if (ev.cat == "flow.step") summary.step_spans.push_back(ev);
  }
  return summary;
}

TEST_F(TraceTest, FlowSpanEveryStepExactlyOnce) {
  const auto design = rtl::designs::counter(8);
  const auto summary = traced_flow(design);
  EXPECT_EQ(summary.flow_span.name, "flow:" + design.name());
  ASSERT_EQ(summary.step_spans.size(), 12u);
  std::set<std::string> names;
  for (const Event& ev : summary.step_spans) {
    EXPECT_TRUE(names.insert(ev.name).second)
        << "step traced twice: " << ev.name;
    // Every step nests directly under the flow span.
    EXPECT_EQ(ev.parent, summary.flow_span.id) << ev.name;
    EXPECT_EQ(ev.name.rfind("step:", 0), 0u) << ev.name;
  }
}

TEST_F(TraceTest, FlowKernelSpansNestUnderTheirStep) {
  const auto design = rtl::designs::counter(8);
  const auto summary = traced_flow(design);
  std::set<SpanId> step_ids;
  for (const Event& ev : summary.step_spans) step_ids.insert(ev.id);
  std::size_t kernel_spans = 0;
  for (const Event& ev : snapshot()) {
    if (ev.cat != "kernel") continue;
    ++kernel_spans;
    EXPECT_EQ(step_ids.count(ev.parent), 1u)
        << ev.name << " is not parented to a flow step";
  }
  EXPECT_GT(kernel_spans, 0u);
}

}  // namespace
}  // namespace eurochip::util::trace
