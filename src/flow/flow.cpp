#include "eurochip/flow/flow.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>

#include "eurochip/flow/breakpoint.hpp"
#include "eurochip/flow/cache.hpp"
#include "eurochip/flow/fingerprint.hpp"
#include "eurochip/netlist/verilog.hpp"
#include "eurochip/pdk/library_gen.hpp"
#include "eurochip/util/fault.hpp"
#include "eurochip/synth/elaborate.hpp"
#include "eurochip/synth/netopt.hpp"
#include "eurochip/synth/scan.hpp"
#include "eurochip/synth/opt.hpp"
#include "eurochip/util/strings.hpp"
#include "eurochip/util/table.hpp"
#include "eurochip/util/trace.hpp"

namespace eurochip::flow {

const char* to_string(FlowQuality q) {
  switch (q) {
    case FlowQuality::kOpen: return "open";
    case FlowQuality::kCommercial: return "commercial";
  }
  return "?";
}

EffortKnobs knobs_for(FlowQuality quality, std::uint64_t seed,
                      double utilization) {
  EffortKnobs k{};
  if (quality == FlowQuality::kOpen) {
    k.synth_iterations = 1;
    k.map_options.objective = synth::MapObjective::kArea;
    k.map_options.size_for_load = false;
    k.place_options.global_iterations = 30;
    k.place_options.spreading_rounds = 4;
    k.place_options.detailed_passes = 1;
    k.route_options.max_ripup_iterations = 3;
    k.buffer_max_fanout = 0;
  } else {
    k.synth_iterations = 6;
    k.map_options.objective = synth::MapObjective::kDelay;
    k.map_options.size_for_load = true;
    k.place_options.global_iterations = 100;
    k.place_options.spreading_rounds = 8;
    k.place_options.detailed_passes = 4;
    k.route_options.max_ripup_iterations = 12;
    k.buffer_max_fanout = 16;
  }
  k.place_options.seed = seed;
  k.place_options.target_utilization = utilization;
  return k;
}

bool FlowTemplate::remove_step(const std::string& step_name) {
  const auto it = std::find_if(
      steps_.begin(), steps_.end(),
      [&step_name](const FlowStep& s) { return s.name == step_name; });
  if (it == steps_.end()) return false;
  steps_.erase(it);
  return true;
}

bool FlowTemplate::replace_step(
    const std::string& step_name,
    std::function<util::Status(FlowContext&)> run) {
  for (FlowStep& s : steps_) {
    if (s.name == step_name) {
      s.run = std::move(run);
      // The replacement body is opaque: its inputs are unknown, so the old
      // fingerprint would produce stale cache hits. Drop it — this step and
      // everything downstream now run uncached.
      s.fingerprint = nullptr;
      return true;
    }
  }
  return false;
}

namespace {

/// Re-materializes a cached GDS stream on disk. A cache hit on the gds
/// step skips gds::write_file, but the step's observable contract includes
/// the file; the key contains the path, so this only ever rewrites the
/// same bytes the original run wrote.
util::Status rewrite_gds_file(const std::vector<std::uint8_t>& bytes,
                              const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return util::Status::NotFound("cannot open for writing: " + path);
  }
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  if (written != bytes.size()) {
    return util::Status::Internal("short write to " + path);
  }
  return util::Status::Ok();
}

}  // namespace

util::Result<FlowResult> FlowTemplate::execute(const rtl::Module& design,
                                               FlowConfig config) const {
  FlowContext ctx;
  ctx.config = std::move(config);
  ctx.artifacts.design = &design;

  // Root span of this run. On a hub worker it nests under the job span via
  // the worker's ContextScope; standalone runs root their own tree.
  util::trace::Span flow_span;
  if (util::trace::enabled()) {
    flow_span.begin("flow:" + design.name(), "flow");
    flow_span.annotate("node", ctx.config.node.name);
    flow_span.annotate("quality", std::string(to_string(ctx.config.quality)));
    flow_span.annotate("seed", ctx.config.seed);
  }

  const auto t_start = std::chrono::steady_clock::now();

  // Content-addressed step keys: keys[i] digests everything that can
  // influence the flow state after step i — the upstream chain (which
  // transitively covers the design and node digests in the base), the step
  // name, and the step's stage-relevant config knobs. A step without a
  // fingerprint breaks the chain: it and all downstream steps get no key.
  FlowCache* cache = ctx.config.cache;
  std::vector<util::Digest> keys(steps_.size());
  std::vector<bool> keyable(steps_.size(), false);
  std::size_t resume_from = 0;
  if (cache != nullptr && !steps_.empty()) {
    step_keys(design, ctx.config, &keys, &keyable);
    // Deepest matching prefix wins; a hit restores artifacts + records.
    {
      util::trace::Span probe_span;
      if (util::trace::enabled()) {
        probe_span.begin("cache.probe", "flow.cache");
      }
      for (std::size_t i = steps_.size(); i-- > 0;) {
        if (keyable[i] && cache->lookup(keys[i], ctx)) {
          resume_from = i + 1;
          break;
        }
      }
      if (probe_span.active()) {
        probe_span.annotate("hit", resume_from > 0);
        probe_span.annotate("resume_depth",
                            static_cast<std::uint64_t>(resume_from));
        if (resume_from > 0) {
          probe_span.annotate("resumed_at", steps_[resume_from - 1].name);
        }
      }
    }
    if (resume_from > 0 && !ctx.config.gds_output_path.empty() &&
        !ctx.artifacts.gds_bytes.empty()) {
      // The restored prefix reached the gds step (gds_bytes only exist
      // after it); keep its on-disk side effect alive.
      if (util::Status s = rewrite_gds_file(ctx.artifacts.gds_bytes,
                                            ctx.config.gds_output_path);
          !s.ok()) {
        return s;
      }
    }
  }

  // A restored prefix that already covers the break step still honors the
  // breakpoint: park on the restored context so inspectors see the same
  // post-step state a cold run would expose.
  if (ctx.config.breakpoint && !ctx.config.break_after.empty()) {
    for (std::size_t i = 0; i < resume_from; ++i) {
      if (steps_[i].name == ctx.config.break_after) {
        ctx.config.breakpoint->park(ctx, ctx.config.cancel);
        if (ctx.config.cancel.cancel_requested()) {
          return util::Status::Cancelled("flow cancelled at breakpoint '" +
                                         ctx.config.break_after + "'");
        }
        break;
      }
    }
  }

  for (std::size_t step_index = resume_from; step_index < steps_.size();
       ++step_index) {
    const FlowStep& step = steps_[step_index];
    if (ctx.config.cancel.cancel_requested()) {
      return util::Status::Cancelled("flow cancelled before step '" +
                                     step.name + "'");
    }
    if (ctx.config.cancel.deadline_passed()) {
      return util::Status::DeadlineExceeded(
          "flow deadline passed before step '" + step.name + "'");
    }
    // Fault site "flow.step.<name>": a status fault fails the step (and
    // thus the run) exactly like an engine failure would; a kThrow fault
    // models a programming error escaping the step.
    if (util::FaultInjector* fi = util::FaultInjector::installed()) {
      if (util::Status fs = fi->check("flow.step." + step.name); !fs.ok()) {
        return util::Status(
            fs.code(), "flow step '" + step.name + "': " + fs.message());
      }
    }
    // One span per executed step (cached steps are skipped entirely and
    // appear as the probe span's resume_depth instead). The kernel spans
    // the step opens nest underneath it.
    util::trace::Span step_span;
    if (util::trace::enabled()) {
      step_span.begin("step:" + step.name, "flow.step");
    }
    const auto t0 = std::chrono::steady_clock::now();
    util::Status s = step.run(ctx);
    const auto t1 = std::chrono::steady_clock::now();
    StepRecord rec;
    rec.name = step.name;
    rec.runtime_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (!ctx.steps.empty() && ctx.steps.back().name == step.name) {
      // Step appended its own detail record; merge the timing in.
      ctx.steps.back().runtime_ms = rec.runtime_ms;
    } else {
      ctx.steps.push_back(rec);
    }
    if (step_span.active() && !ctx.steps.empty() &&
        ctx.steps.back().name == step.name) {
      step_span.annotate("detail", ctx.steps.back().detail);
    }
    if (!s.ok()) {
      if (step_span.active()) step_span.annotate("error", s.message());
      return util::Status(s.code(),
                          "flow step '" + step.name + "': " + s.message());
    }
    if (cache != nullptr && keyable[step_index]) {
      cache->store(keys[step_index], ctx);
    }
    if (ctx.config.breakpoint && step.name == ctx.config.break_after) {
      ctx.config.breakpoint->park(ctx, ctx.config.cancel);
      if (ctx.config.cancel.cancel_requested()) {
        return util::Status::Cancelled("flow cancelled at breakpoint '" +
                                       step.name + "'");
      }
    }
  }
  const auto t_end = std::chrono::steady_clock::now();
  if (flow_span.active()) {
    flow_span.annotate("cache_hits", static_cast<std::uint64_t>(resume_from));
  }

  FlowResult result;
  result.steps = std::move(ctx.steps);
  result.cache_hits = resume_from;
  result.total_runtime_ms =
      std::chrono::duration<double, std::milli>(t_end - t_start).count();

  // Assemble the PPA report from whichever artifacts the template produced.
  PpaReport& ppa = result.ppa;
  const FlowArtifacts& a = ctx.artifacts;
  if (a.mapped) {
    ppa.cell_count = a.mapped->num_cells();
    ppa.area_um2 = a.mapped->total_area_um2();
  }
  if (a.placed) ppa.die_area_mm2 = a.placed->floorplan.die_area_mm2();
  if (a.routed) ppa.wirelength_dbu = a.routed->total_wirelength_dbu;
  ppa.wns_ps = a.timing.wns_ps;
  ppa.fmax_mhz = a.timing.fmax_mhz;
  ppa.timing_met = a.timing.met();
  ppa.power_uw = a.power.total_uw;
  ppa.leakage_uw = a.power.leakage_uw;
  ppa.drc_violations = a.drc.violations.size();
  ppa.gds_bytes = static_cast<double>(a.gds_bytes.size());
  if (a.clock_tree) {
    ppa.clock_skew_ps = a.clock_tree->skew_ps();
    ppa.clock_buffers = a.clock_tree->buffer_count;
  }
  result.artifacts = std::move(ctx.artifacts);
  return result;
}

void FlowTemplate::step_keys(const rtl::Module& design,
                             const FlowConfig& config,
                             std::vector<util::Digest>* keys,
                             std::vector<bool>* keyable) const {
  keys->assign(steps_.size(), util::Digest{});
  keyable->assign(steps_.size(), false);
  if (steps_.empty()) return;
  util::Hasher base;
  base.str("eurochip.flowcache.v1");
  base.digest(digest_of(design));
  base.digest(digest_of(config.node));
  util::Digest chain = base.finalize();
  for (std::size_t i = 0; i < steps_.size(); ++i) {
    if (!steps_[i].fingerprint) break;
    util::Hasher h;
    h.digest(chain).str(steps_[i].name);
    steps_[i].fingerprint(config, h);
    chain = h.finalize();
    (*keys)[i] = chain;
    (*keyable)[i] = true;
  }
}

std::size_t FlowTemplate::cached_prefix_depth(const rtl::Module& design,
                                              const FlowConfig& config,
                                              const FlowCache& cache) const {
  std::vector<util::Digest> keys;
  std::vector<bool> keyable;
  step_keys(design, config, &keys, &keyable);
  const CacheTier* tier = cache.second_level();
  for (std::size_t i = steps_.size(); i-- > 0;) {
    if (!keyable[i]) continue;
    if (cache.contains(keys[i])) return i + 1;
    if (tier != nullptr && tier->contains(keys[i])) return i + 1;
  }
  return 0;
}

namespace {

void append_detail(FlowContext& ctx, const std::string& name,
                   std::string detail) {
  StepRecord rec;
  rec.name = name;
  rec.detail = std::move(detail);
  ctx.steps.push_back(std::move(rec));
}

// --- symbol provenance (dbg::SymbolTable) --------------------------------
//
// Each recorder is a pure overlay: it reads the artifacts the step just
// produced and never writes back, so a run with symbols is bit-identical
// to one without. Recording is deterministic (fixed iteration orders), so
// cache snapshots of the same prefix carry identical tables. The table is
// shared with cache snapshots, so map/dft/sta extend a copy and publish it.

/// elaborate: the RTL declarations, straight from the design.
void record_rtl_symbols(FlowContext& ctx) {
  auto sym = std::make_shared<dbg::SymbolTable>();
  for (const rtl::Signal& s : ctx.artifacts.design->signals()) {
    dbg::SymbolTable::RtlSignal rs;
    rs.name = sym->intern(s.name);
    rs.kind = static_cast<std::uint8_t>(s.kind);
    rs.width = s.width;
    sym->rtl_signals.push_back(rs);
  }
  sym->stage_mask |= dbg::kStageElab;
  ctx.artifacts.symbols = std::move(sym);
}

/// map: bind every RTL bit to its mapped net/cell and tag cell origins.
/// Port names ARE the elaborator's bit-blast names ("a[3]"); register bits
/// come from the AIG's latch_names(), parallel to latches(), whose DFFs the
/// mapper deterministically names "dff<latch-node-id>".
void record_map_symbols(FlowContext& ctx,
                        const std::vector<netlist::CellId>& buffer_cells) {
  if (!ctx.artifacts.symbols || !ctx.artifacts.mapped) return;
  auto copy = std::make_shared<dbg::SymbolTable>(*ctx.artifacts.symbols);
  dbg::SymbolTable& sym = *copy;
  const netlist::Netlist& nl = *ctx.artifacts.mapped;
  sym.bits.clear();
  for (const netlist::Port& p : nl.inputs()) {
    dbg::SymbolTable::Bit bit;
    bit.name = sym.intern(p.name);
    bit.kind = dbg::SymbolTable::BitKind::kInput;
    bit.net = p.net;
    sym.bits.push_back(bit);
  }
  for (const netlist::Port& p : nl.outputs()) {
    dbg::SymbolTable::Bit bit;
    bit.name = sym.intern(p.name);
    bit.kind = dbg::SymbolTable::BitKind::kOutput;
    bit.net = p.net;
    if (nl.driver_kind(p.net) == netlist::DriverKind::kCell) {
      bit.cell = nl.driver_cell(p.net);
    }
    sym.bits.push_back(bit);
  }
  if (ctx.artifacts.aig) {
    std::unordered_map<std::string, netlist::CellId> by_name;
    for (netlist::CellId id : nl.all_cells()) {
      by_name.emplace(std::string(nl.cell_name(id)), id);
    }
    const auto& latches = ctx.artifacts.aig->latches();
    const auto& latch_names = ctx.artifacts.aig->latch_names();
    const std::size_t n = std::min(latches.size(), latch_names.size());
    for (std::size_t i = 0; i < n; ++i) {
      const auto it = by_name.find("dff" + std::to_string(latches[i]));
      if (it == by_name.end()) continue;
      dbg::SymbolTable::Bit bit;
      bit.name = sym.intern(latch_names[i]);
      bit.kind = dbg::SymbolTable::BitKind::kReg;
      bit.cell = it->second;
      bit.net = nl.cell(it->second).output;
      sym.bits.push_back(bit);
    }
  }
  sym.cell_origin.assign(
      nl.num_cells(), static_cast<std::uint8_t>(dbg::CellOrigin::kMapped));
  for (netlist::CellId id : nl.all_cells()) {
    const std::string_view name = nl.cell_name(id);
    if (name == "tie0" || name == "tie1") {
      sym.cell_origin[id.value] =
          static_cast<std::uint8_t>(dbg::CellOrigin::kTie);
    }
  }
  for (netlist::CellId id : buffer_cells) {
    if (id.value < sym.cell_origin.size()) {
      sym.cell_origin[id.value] =
          static_cast<std::uint8_t>(dbg::CellOrigin::kBuffer);
    }
  }
  sym.stage_mask |= dbg::kStageMap;
  ctx.artifacts.symbols = std::move(copy);
}

/// dft: tag scan cells, then freeze the verilog writer's uniquified names
/// for the now-final netlist (place/route/sta never rename anything).
void record_final_symbols(FlowContext& ctx,
                          const std::vector<netlist::CellId>& scan_cells) {
  if (!ctx.artifacts.symbols || !ctx.artifacts.mapped) return;
  auto copy = std::make_shared<dbg::SymbolTable>(*ctx.artifacts.symbols);
  dbg::SymbolTable& sym = *copy;
  const netlist::Netlist& nl = *ctx.artifacts.mapped;
  sym.cell_origin.resize(
      nl.num_cells(), static_cast<std::uint8_t>(dbg::CellOrigin::kMapped));
  for (netlist::CellId id : scan_cells) {
    if (id.value < sym.cell_origin.size()) {
      sym.cell_origin[id.value] =
          static_cast<std::uint8_t>(dbg::CellOrigin::kScan);
    }
  }
  const netlist::VerilogNames names = netlist::verilog_names(nl);
  sym.module_name = sym.intern(names.module_name);
  sym.clock_name = sym.intern(names.clock);
  sym.input_names.clear();
  for (const std::string& s : names.input_names) {
    sym.input_names.push_back(sym.intern(s));
  }
  sym.output_names.clear();
  for (const std::string& s : names.output_names) {
    sym.output_names.push_back(sym.intern(s));
  }
  sym.net_names.clear();
  for (const std::string& s : names.net_names) {
    sym.net_names.push_back(sym.intern(s));
  }
  sym.instance_names.clear();
  for (const std::string& s : names.instance_names) {
    sym.instance_names.push_back(sym.intern(s));
  }
  sym.stage_mask |= dbg::kStageNames;
  ctx.artifacts.symbols = std::move(copy);
}

/// sta: per-net arrival windows.
void record_sta_symbols(FlowContext& ctx,
                        const std::vector<timing::NetArrival>& arrivals) {
  if (!ctx.artifacts.symbols) return;
  auto copy = std::make_shared<dbg::SymbolTable>(*ctx.artifacts.symbols);
  dbg::SymbolTable& sym = *copy;
  sym.arrival_ps.resize(arrivals.size());
  sym.arrival_min_ps.resize(arrivals.size());
  sym.net_driven.resize(arrivals.size());
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    sym.arrival_ps[i] = arrivals[i].arrival_ps;
    sym.arrival_min_ps[i] = arrivals[i].arrival_min_ps;
    sym.net_driven[i] = arrivals[i].driven ? 1 : 0;
  }
  sym.stage_mask |= dbg::kStageSta;
  ctx.artifacts.symbols = std::move(copy);
}

util::Status step_library(FlowContext& ctx) {
  ctx.artifacts.library = std::make_shared<const netlist::CellLibrary>(
      pdk::build_library(ctx.config.node));
  append_detail(ctx, "library",
                std::to_string(ctx.artifacts.library->size()) + " cells for " +
                    ctx.config.node.name);
  return util::Status::Ok();
}

util::Status step_elaborate(FlowContext& ctx) {
  auto aig = synth::elaborate(*ctx.artifacts.design);
  if (!aig.ok()) return aig.status();
  ctx.artifacts.aig = std::make_shared<const synth::Aig>(std::move(*aig));
  record_rtl_symbols(ctx);
  append_detail(ctx, "elaborate",
                std::to_string(ctx.artifacts.aig->num_ands()) + " AND nodes, " +
                    std::to_string(ctx.artifacts.aig->latches().size()) +
                    " registers");
  return util::Status::Ok();
}

util::Status step_synth(FlowContext& ctx) {
  if (!ctx.artifacts.aig) {
    return util::Status::FailedPrecondition("synth requires elaborate");
  }
  const EffortKnobs k = knobs_for(ctx.config.quality, ctx.config.seed,
                                  ctx.config.utilization);
  const int iters =
      ctx.config.synth_iterations.value_or(k.synth_iterations);
  synth::OptStats stats;
  ctx.artifacts.aig = std::make_shared<const synth::Aig>(
      synth::optimize(*ctx.artifacts.aig, iters, &stats));
  append_detail(ctx, "synth",
                std::to_string(stats.initial_ands) + " -> " +
                    std::to_string(stats.final_ands) + " ANDs, depth " +
                    std::to_string(stats.initial_depth) + " -> " +
                    std::to_string(stats.final_depth));
  return util::Status::Ok();
}

util::Status step_map(FlowContext& ctx) {
  if (!ctx.artifacts.aig || !ctx.artifacts.library) {
    return util::Status::FailedPrecondition("map requires synth + library");
  }
  const EffortKnobs k = knobs_for(ctx.config.quality, ctx.config.seed,
                                  ctx.config.utilization);
  const synth::MapOptions mo = ctx.config.map_options.value_or(k.map_options);

  // Commercial effort: also try the other objective and keep the faster
  // result (area tie-break) — proprietary flows run multi-objective
  // mapping trials; the open preset maps once.
  const bool dual_trial = ctx.config.quality == FlowQuality::kCommercial &&
                          !ctx.config.map_options.has_value();
  struct MapTrial {
    synth::MapOptions mo;
    synth::MapStats stats;
    std::optional<util::Result<netlist::Netlist>> mapped;
    double fmax_mhz = 0.0;
    bool timed = false;
  };
  std::vector<MapTrial> trials(dual_trial ? 2 : 1);
  trials[0].mo = mo;
  if (dual_trial) {
    trials[1].mo = mo;
    trials[1].mo.objective = mo.objective == synth::MapObjective::kDelay
                                 ? synth::MapObjective::kArea
                                 : synth::MapObjective::kDelay;
  }
  for (MapTrial& t : trials) {
    t.mapped.emplace(synth::map_to_library(
        *ctx.artifacts.aig, *ctx.artifacts.library, t.mo, &t.stats));
    if (!dual_trial || !t.mapped->ok()) continue;
    timing::StaOptions so;
    so.clock_period_ps = ctx.config.effective_clock_ps();
    if (const auto rpt = timing::analyze(**t.mapped, ctx.config.node, so);
        rpt.ok()) {
      t.fmax_mhz = rpt->fmax_mhz;
      t.timed = true;
    }
  }
  if (!trials[0].mapped->ok()) return trials[0].mapped->status();
  auto mapped = std::move(*trials[0].mapped);
  synth::MapStats stats = trials[0].stats;
  if (dual_trial && trials[1].mapped->ok() && trials[0].timed &&
      trials[1].timed) {
    const bool alt_faster = trials[1].fmax_mhz > trials[0].fmax_mhz * 1.001;
    const bool alt_tied_smaller =
        trials[1].fmax_mhz >= trials[0].fmax_mhz * 0.999 &&
        trials[1].stats.area_um2 < trials[0].stats.area_um2;
    if (alt_faster || alt_tied_smaller) {
      mapped = std::move(*trials[1].mapped);
      stats = trials[1].stats;
    }
  }

  // Fanout buffering (commercial preset) edits the local netlist before it
  // is published.
  std::string buffer_note;
  synth::BufferStats bstats;
  if (k.buffer_max_fanout >= 2) {
    if (util::Status s = synth::insert_buffers(
            *mapped, *ctx.artifacts.library, k.buffer_max_fanout, &bstats);
        !s.ok()) {
      return s;
    }
    if (bstats.buffers_inserted > 0) {
      buffer_note =
          ", +" + std::to_string(bstats.buffers_inserted) + " fanout buffers";
    }
  }
  ctx.artifacts.mapped =
      std::make_shared<const netlist::Netlist>(std::move(*mapped));
  record_map_symbols(ctx, bstats.cells);
  append_detail(ctx, "map",
                std::to_string(ctx.artifacts.mapped->num_cells()) +
                    " cells, " +
                    util::fmt(ctx.artifacts.mapped->total_area_um2(), 1) +
                    " um2" + buffer_note);
  return util::Status::Ok();
}

util::Status step_dft(FlowContext& ctx) {
  if (!ctx.artifacts.mapped) {
    return util::Status::FailedPrecondition("dft requires map");
  }
  if (!ctx.config.insert_scan) {
    record_final_symbols(ctx, {});
    append_detail(ctx, "dft", "scan insertion disabled");
    return util::Status::Ok();
  }
  if (ctx.artifacts.mapped->sequential_cells().empty()) {
    record_final_symbols(ctx, {});
    append_detail(ctx, "dft", "combinational design, no scan chain");
    return util::Status::Ok();
  }
  // Scan insertion edits a copy: the mapped netlist may be shared with
  // cache snapshots.
  auto scanned = std::make_shared<netlist::Netlist>(*ctx.artifacts.mapped);
  synth::ScanStats stats;
  if (util::Status s = synth::insert_scan_chain(
          *scanned, *ctx.artifacts.library, &stats);
      !s.ok()) {
    return s;
  }
  ctx.artifacts.mapped = std::move(scanned);
  record_final_symbols(ctx, stats.cells);
  append_detail(ctx, "dft",
                std::to_string(stats.flops_in_chain) +
                    " flops in scan chain, +" +
                    std::to_string(stats.muxes_added) + " muxes");
  return util::Status::Ok();
}

util::Status step_place(FlowContext& ctx) {
  if (!ctx.artifacts.mapped) {
    return util::Status::FailedPrecondition("place requires map");
  }
  const EffortKnobs k = knobs_for(ctx.config.quality, ctx.config.seed,
                                  ctx.config.utilization);
  const place::PlacementOptions po =
      ctx.config.place_options.value_or(k.place_options);
  place::PlaceStats stats;
  auto placed =
      place::place(*ctx.artifacts.mapped, ctx.config.node, po, &stats);
  if (!placed.ok()) return placed.status();
  ctx.artifacts.placed =
      std::make_shared<const place::PlacedDesign>(std::move(*placed));
  append_detail(ctx, "place",
                "HPWL " + util::fmt_si(static_cast<double>(stats.hpwl_final), 2) +
                    " dbu, " + std::to_string(stats.cells) + " cells");
  return util::Status::Ok();
}

util::Status step_cts(FlowContext& ctx) {
  if (!ctx.artifacts.placed) {
    return util::Status::FailedPrecondition("cts requires place");
  }
  if (ctx.artifacts.mapped->sequential_cells().empty()) {
    append_detail(ctx, "cts", "combinational design, no clock tree");
    return util::Status::Ok();
  }
  auto tree = cts::build_htree(*ctx.artifacts.placed, ctx.config.node);
  if (!tree.ok()) return tree.status();
  ctx.artifacts.clock_tree =
      std::make_shared<const cts::ClockTree>(std::move(*tree));
  append_detail(ctx, "cts",
                std::to_string(ctx.artifacts.clock_tree->buffer_count) +
                    " buffers, skew " +
                    util::fmt(ctx.artifacts.clock_tree->skew_ps(), 2) + " ps");
  return util::Status::Ok();
}

util::Status step_route(FlowContext& ctx) {
  if (!ctx.artifacts.placed) {
    return util::Status::FailedPrecondition("route requires place");
  }
  const EffortKnobs k = knobs_for(ctx.config.quality, ctx.config.seed,
                                  ctx.config.utilization);
  const route::RouteOptions ro =
      ctx.config.route_options.value_or(k.route_options);
  route::RouteStats stats;
  auto routed = route::route(*ctx.artifacts.placed, ctx.config.node, ro, &stats);
  if (!routed.ok()) return routed.status();
  ctx.artifacts.routed =
      std::make_shared<const route::RoutedDesign>(std::move(*routed));
  append_detail(
      ctx, "route",
      "wirelength " +
          util::fmt_si(static_cast<double>(
                           ctx.artifacts.routed->total_wirelength_dbu), 2) +
          " dbu, overflow " +
          std::to_string(ctx.artifacts.routed->overflowed_edges));
  return util::Status::Ok();
}

util::Status step_sta(FlowContext& ctx) {
  if (!ctx.artifacts.mapped) {
    return util::Status::FailedPrecondition("sta requires map");
  }
  timing::StaOptions so;
  so.clock_period_ps = ctx.config.effective_clock_ps();
  if (ctx.artifacts.clock_tree) {
    so.clock_skew_ps = ctx.artifacts.clock_tree->skew_ps();
  }
  std::vector<timing::NetArrival> arrivals;
  auto report = timing::analyze(*ctx.artifacts.mapped, ctx.config.node, so,
                                ctx.artifacts.routed.get(), &arrivals);
  if (!report.ok()) return report.status();
  ctx.artifacts.timing = std::move(*report);
  record_sta_symbols(ctx, arrivals);
  append_detail(ctx, "sta",
                "WNS " + util::fmt(ctx.artifacts.timing.wns_ps, 1) +
                    " ps, fmax " + util::fmt(ctx.artifacts.timing.fmax_mhz, 1) +
                    " MHz, hold " +
                    (ctx.artifacts.timing.hold_met() ? "clean" : "VIOLATED"));
  return util::Status::Ok();
}

util::Status step_power(FlowContext& ctx) {
  if (!ctx.artifacts.mapped) {
    return util::Status::FailedPrecondition("power requires map");
  }
  const power::PowerOptions po =
      ctx.config.power_options.value_or(power::PowerOptions{});
  auto report = power::estimate(*ctx.artifacts.mapped, ctx.config.node, po,
                                ctx.artifacts.routed.get());
  if (!report.ok()) return report.status();
  ctx.artifacts.power = std::move(*report);
  append_detail(ctx, "power",
                util::fmt(ctx.artifacts.power.total_uw, 1) + " uW total");
  return util::Status::Ok();
}

util::Status step_drc(FlowContext& ctx) {
  if (!ctx.artifacts.placed) {
    return util::Status::FailedPrecondition("drc requires place");
  }
  ctx.artifacts.drc = drc::check(*ctx.artifacts.placed, ctx.config.node,
                                 ctx.artifacts.routed.get());
  append_detail(ctx, "drc",
                std::to_string(ctx.artifacts.drc.violations.size()) +
                    " violations");
  return util::Status::Ok();
}

util::Status step_gds(FlowContext& ctx) {
  if (!ctx.artifacts.placed) {
    return util::Status::FailedPrecondition("gds requires place");
  }
  const gds::Library lib =
      gds::layout_to_gds(*ctx.artifacts.placed, ctx.artifacts.design->name());
  ctx.artifacts.gds_bytes = gds::write(lib);
  if (!ctx.config.gds_output_path.empty()) {
    if (util::Status s = gds::write_file(lib, ctx.config.gds_output_path);
        !s.ok()) {
      return s;
    }
  }
  append_detail(ctx, "gds",
                util::fmt_si(static_cast<double>(ctx.artifacts.gds_bytes.size()), 1) +
                    " bytes");
  return util::Status::Ok();
}

// --- cache fingerprints --------------------------------------------------
//
// Each fingerprint absorbs exactly the FlowConfig knobs its step consumes
// (the design and node digests are already in the base key; upstream
// artifacts are covered transitively by the key chain). Over-inclusion
// would only cost hit rate; under-inclusion would serve stale artifacts —
// when in doubt a knob is included. FlowConfig::threads is read by no
// step, so no fingerprint absorbs it.

void fp_const(const FlowConfig&, util::Hasher&) {}

void fp_synth(const FlowConfig& c, util::Hasher& h) {
  h.u8(static_cast<std::uint8_t>(c.quality));
  h.boolean(c.synth_iterations.has_value());
  if (c.synth_iterations.has_value()) h.i64(*c.synth_iterations);
}

void fp_map(const FlowConfig& c, util::Hasher& h) {
  h.u8(static_cast<std::uint8_t>(c.quality));
  hash_optional(h, c.map_options);
  // The commercial preset's multi-objective trial ranks candidates by STA
  // at the target clock, and fanout buffering depends on the preset.
  h.f64(c.effective_clock_ps());
}

void fp_dft(const FlowConfig& c, util::Hasher& h) { h.boolean(c.insert_scan); }

void fp_place(const FlowConfig& c, util::Hasher& h) {
  h.u8(static_cast<std::uint8_t>(c.quality));
  h.u64(c.seed);
  h.f64(c.utilization);
  hash_optional(h, c.place_options);
}

void fp_route(const FlowConfig& c, util::Hasher& h) {
  h.u8(static_cast<std::uint8_t>(c.quality));
  hash_optional(h, c.route_options);
}

void fp_sta(const FlowConfig& c, util::Hasher& h) {
  // Skew comes from the in-flow clock tree, already covered by the chain.
  h.f64(c.effective_clock_ps());
}

void fp_power(const FlowConfig& c, util::Hasher& h) {
  hash_optional(h, c.power_options);
}

void fp_gds(const FlowConfig& c, util::Hasher& h) {
  // The output path is part of the step's observable effect (the written
  // file), so runs with different paths never share this stage.
  h.str(c.gds_output_path);
}

}  // namespace

FlowTemplate reference_template() {
  FlowTemplate t("rtl-to-gds");
  t.add_step({"library", step_library, fp_const});
  t.add_step({"elaborate", step_elaborate, fp_const});
  t.add_step({"synth", step_synth, fp_synth});
  t.add_step({"map", step_map, fp_map});
  t.add_step({"dft", step_dft, fp_dft});
  t.add_step({"place", step_place, fp_place});
  t.add_step({"cts", step_cts, fp_const});
  t.add_step({"route", step_route, fp_route});
  t.add_step({"sta", step_sta, fp_sta});
  t.add_step({"power", step_power, fp_power});
  t.add_step({"drc", step_drc, fp_const});
  t.add_step({"gds", step_gds, fp_gds});
  return t;
}

util::Result<FlowResult> run_reference_flow(const rtl::Module& design,
                                            const FlowConfig& config) {
  return reference_template().execute(design, config);
}

std::string render_report(const FlowResult& result, const FlowConfig& config) {
  util::Table steps("Flow steps (" + config.node.name + ", " +
                    to_string(config.quality) + " preset)");
  steps.set_header({"step", "runtime_ms", "detail"});
  for (const auto& s : result.steps) {
    steps.add_row({s.name, util::fmt(s.runtime_ms, 2),
                   s.cached ? s.detail + " [cached]" : s.detail});
  }

  const PpaReport& ppa = result.ppa;
  util::Table summary("PPA summary");
  summary.set_header({"metric", "value"});
  summary.add_row({"cells", std::to_string(ppa.cell_count)});
  summary.add_row({"cell area (um2)", util::fmt(ppa.area_um2, 1)});
  summary.add_row({"die area (mm2)", util::fmt(ppa.die_area_mm2, 4)});
  summary.add_row({"clock period (ps)",
                   util::fmt(config.effective_clock_ps(), 1)});
  summary.add_row({"WNS (ps)", util::fmt(ppa.wns_ps, 1)});
  summary.add_row({"fmax (MHz)", util::fmt(ppa.fmax_mhz, 1)});
  summary.add_row({"timing met", ppa.timing_met ? "yes" : "NO"});
  summary.add_row({"clock skew (ps)", util::fmt(ppa.clock_skew_ps, 2)});
  summary.add_row({"clock buffers", std::to_string(ppa.clock_buffers)});
  summary.add_row({"power (uW)", util::fmt(ppa.power_uw, 1)});
  summary.add_row({"leakage (uW)", util::fmt(ppa.leakage_uw, 2)});
  summary.add_row({"wirelength (dbu)",
                   util::fmt_si(static_cast<double>(ppa.wirelength_dbu), 2)});
  summary.add_row({"DRC violations", std::to_string(ppa.drc_violations)});
  summary.add_row({"GDSII bytes", util::fmt_si(ppa.gds_bytes, 1)});
  summary.add_row({"total runtime (ms)",
                   util::fmt(result.total_runtime_ms, 1)});
  return steps.render() + "\n" + summary.render();
}

}  // namespace eurochip::flow
