// M1-M4 — Substrate micro-benchmarks and design-choice ablations
// (google-benchmark).
//
// Measures the runtime of each flow engine as design size scales, and
// quantifies the DESIGN.md ablations as benchmark counters:
//   * AIG rewriting before mapping (mapped-area with vs without),
//   * quadratic global placement vs random (HPWL),
//   * congestion-aware rip-up-and-reroute vs plain shortest path
//     (overflowed edges).
#include <benchmark/benchmark.h>

#include <string>

#include "eurochip/cts/cts.hpp"
#include "eurochip/pdk/library_gen.hpp"
#include "eurochip/pdk/registry.hpp"
#include "eurochip/place/placer.hpp"
#include "eurochip/route/router.hpp"
#include "eurochip/rtl/designs.hpp"
#include "eurochip/synth/elaborate.hpp"
#include "eurochip/synth/mapper.hpp"
#include "eurochip/synth/opt.hpp"
#include "eurochip/timing/sta.hpp"

namespace {

using namespace eurochip;

rtl::Module sized_design(int scale) {
  // ALU width grows with scale: a convenient single-knob size sweep.
  return rtl::designs::alu(8 * scale);
}

const pdk::TechnologyNode& node() {
  static const pdk::TechnologyNode n = pdk::standard_node("sky130ish").value();
  return n;
}

const netlist::CellLibrary& lib() {
  static const netlist::CellLibrary l = pdk::build_library(node());
  return l;
}

// --- M1: synthesis (elaborate + optimize). ---------------------------------

void BM_SynthOptimize(benchmark::State& state) {
  const rtl::Module m = sized_design(static_cast<int>(state.range(0)));
  const auto aig = synth::elaborate(m);
  for (auto _ : state) {
    benchmark::DoNotOptimize(synth::optimize(*aig, 2));
  }
  state.counters["and_nodes"] = static_cast<double>(aig->num_ands());
}
BENCHMARK(BM_SynthOptimize)->Arg(1)->Arg(2)->Arg(4);

// --- M2: technology mapping. --------------------------------------------------

void BM_TechMap(benchmark::State& state) {
  const rtl::Module m = sized_design(static_cast<int>(state.range(0)));
  const auto aig = synth::optimize(*synth::elaborate(m), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(synth::map_to_library(aig, lib()));
  }
  state.counters["and_nodes"] = static_cast<double>(aig.num_ands());
}
BENCHMARK(BM_TechMap)->Arg(1)->Arg(2)->Arg(4);

// Ablation: AIG optimization (balance/rewrite) before mapping. Measured
// on a wide equality comparator whose naive elaboration is a deep AND
// chain — optimization collapses it to logarithmic depth, which the
// mapped netlist inherits.
void BM_SynthDepth_Ablation(benchmark::State& state) {
  const bool with_opt = state.range(0) != 0;
  rtl::Module m("cmp48");
  const auto a = m.input("a", 48);
  const auto b = m.input("b", 48);
  m.output("eq", 1, m.eq(m.sig(a), m.sig(b)));
  auto aig = *synth::elaborate(m);
  if (with_opt) aig = synth::optimize(aig, 2);
  std::size_t depth = 0;
  for (auto _ : state) {
    const auto mapped = synth::map_to_library(aig, lib());
    depth = mapped->logic_depth();
    benchmark::DoNotOptimize(mapped);
  }
  state.counters["aig_depth"] = aig.max_level();
  state.counters["mapped_depth"] = static_cast<double>(depth);
  state.SetLabel(with_opt ? "with_optimize" : "no_optimize");
}
BENCHMARK(BM_SynthDepth_Ablation)->Arg(0)->Arg(1);

// --- M3: placement. ---------------------------------------------------------

void BM_Place(benchmark::State& state) {
  const rtl::Module m = sized_design(static_cast<int>(state.range(0)));
  const auto mapped =
      synth::map_to_library(synth::optimize(*synth::elaborate(m), 2), lib());
  for (auto _ : state) {
    benchmark::DoNotOptimize(place::place(*mapped, node()));
  }
  state.counters["cells"] = static_cast<double>(mapped->num_cells());
}
BENCHMARK(BM_Place)->Arg(1)->Arg(2)->Arg(4);

// Ablation: global placement vs random placement (HPWL quality).
void BM_PlaceHpwl_Ablation(benchmark::State& state) {
  const bool global = state.range(0) != 0;
  const rtl::Module m = sized_design(2);
  const auto mapped =
      synth::map_to_library(synth::optimize(*synth::elaborate(m), 2), lib());
  place::PlacementOptions opt;
  opt.random_only = !global;
  opt.detailed_passes = 0;
  double hpwl = 0.0;
  for (auto _ : state) {
    const auto placed = place::place(*mapped, node(), opt);
    hpwl = static_cast<double>(placed->total_hpwl());
    benchmark::DoNotOptimize(placed);
  }
  state.counters["hpwl_dbu"] = hpwl;
  state.SetLabel(global ? "quadratic_global" : "random_only");
}
BENCHMARK(BM_PlaceHpwl_Ablation)->Arg(0)->Arg(1);

// --- M4: routing and STA. ------------------------------------------------------

void BM_Route(benchmark::State& state) {
  const rtl::Module m = sized_design(static_cast<int>(state.range(0)));
  const auto mapped =
      synth::map_to_library(synth::optimize(*synth::elaborate(m), 2), lib());
  const auto placed = place::place(*mapped, node());
  for (auto _ : state) {
    benchmark::DoNotOptimize(route::route(*placed, node()));
  }
  state.counters["cells"] = static_cast<double>(mapped->num_cells());
}
BENCHMARK(BM_Route)->Arg(1)->Arg(2)->Arg(4);

// Ablation: congestion-aware negotiation vs plain shortest paths under a
// deliberately scarce grid. The label says whether the route succeeded;
// the overflow count is reported either way.
void BM_RouteOverflow_Ablation(benchmark::State& state) {
  const bool aware = state.range(0) != 0;
  const rtl::Module m = sized_design(3);
  const auto mapped =
      synth::map_to_library(synth::optimize(*synth::elaborate(m), 2), lib());
  const auto placed = place::place(*mapped, node());
  route::RouteOptions opt;
  opt.gcell_pitches = 12;  // scarce capacity
  opt.congestion_aware = aware;
  if (!aware) opt.max_ripup_iterations = 0;
  route::RouteStats stats;
  bool routed_ok = false;
  for (auto _ : state) {
    const auto routed = route::route(*placed, node(), opt, &stats);
    routed_ok = routed.ok();
    benchmark::DoNotOptimize(routed);
  }
  state.counters["overflowed_edges"] = stats.overflowed_edges;
  state.counters["ripup_iterations"] = stats.ripup_iterations;
  const std::string mode = aware ? "congestion_aware" : "plain_shortest_path";
  state.SetLabel(mode + (routed_ok ? " routed" : " unroutable"));
}
BENCHMARK(BM_RouteOverflow_Ablation)->Arg(0)->Arg(1);

// Ablation: H-tree CTS vs naive star clock distribution (skew).
void BM_CtsSkew_Ablation(benchmark::State& state) {
  const bool htree = state.range(0) != 0;
  const rtl::Module m = rtl::designs::shift_register(8, 12);
  const auto mapped =
      synth::map_to_library(synth::optimize(*synth::elaborate(m), 2), lib());
  const auto placed = place::place(*mapped, node());
  double skew = 0.0;
  for (auto _ : state) {
    const auto tree = htree ? cts::build_htree(*placed, node())
                            : cts::build_star(*placed, node());
    skew = tree->skew_ps();
    benchmark::DoNotOptimize(tree);
  }
  state.counters["skew_ps"] = skew;
  state.SetLabel(htree ? "htree_cts" : "naive_star");
}
BENCHMARK(BM_CtsSkew_Ablation)->Arg(0)->Arg(1);

void BM_Sta(benchmark::State& state) {
  const rtl::Module m = sized_design(static_cast<int>(state.range(0)));
  const auto mapped =
      synth::map_to_library(synth::optimize(*synth::elaborate(m), 2), lib());
  for (auto _ : state) {
    benchmark::DoNotOptimize(timing::analyze(*mapped, node()));
  }
  state.counters["cells"] = static_cast<double>(mapped->num_cells());
}
BENCHMARK(BM_Sta)->Arg(1)->Arg(2)->Arg(4);

}  // namespace

BENCHMARK_MAIN();
