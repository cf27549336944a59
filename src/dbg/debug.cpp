#include "eurochip/dbg/debug.hpp"

#include <algorithm>
#include <deque>
#include <unordered_set>
#include <utility>

#include "eurochip/util/strings.hpp"

namespace eurochip::dbg {

const char* to_string(QueryKind kind) {
  switch (kind) {
    case QueryKind::kWhereIs: return "where_is";
    case QueryKind::kWhySlack: return "why_slack";
    case QueryKind::kNetRoute: return "net_route";
    case QueryKind::kConeOf: return "cone_of";
    case QueryKind::kFlight: return "flight";
    case QueryKind::kTrace: return "trace";
  }
  return "?";
}

Query Query::where_is(std::string rtl_name) {
  return Query{QueryKind::kWhereIs, std::move(rtl_name)};
}
Query Query::why_slack(std::string endpoint) {
  return Query{QueryKind::kWhySlack, std::move(endpoint)};
}
Query Query::net_route(std::string net) {
  return Query{QueryKind::kNetRoute, std::move(net)};
}
Query Query::cone_of(std::string pin) {
  return Query{QueryKind::kConeOf, std::move(pin)};
}
Query Query::flight() { return Query{QueryKind::kFlight, ""}; }
Query Query::trace() { return Query{QueryKind::kTrace, ""}; }

namespace {

const char* bit_kind_name(SymbolTable::BitKind k) {
  switch (k) {
    case SymbolTable::BitKind::kInput: return "input";
    case SymbolTable::BitKind::kOutput: return "output";
    case SymbolTable::BitKind::kReg: return "reg";
  }
  return "?";
}

QueryResult not_found(QueryKind kind, std::string why) {
  QueryResult r;
  r.kind = kind;
  r.found = false;
  r.text = std::move(why);
  return r;
}

/// The name a user would see in a netlist dump: the verilog writer's
/// uniquified instance name once dft froze names, the raw cell name before.
std::string cell_display_name(const SymbolTable* sym,
                              const netlist::Netlist& nl,
                              netlist::CellId id) {
  if (sym != nullptr && sym->has(kStageNames) &&
      id.value < sym->instance_names.size()) {
    return std::string(sym->sv(sym->instance_names[id.value]));
  }
  return std::string(nl.cell_name(id));
}

/// Resolves an RTL bit name, a verilog wire name, or a raw netlist net
/// name to a NetId; invalid when nothing matches.
netlist::NetId resolve_net(const flow::FlowContext& ctx,
                           std::string_view name) {
  const SymbolTable* sym = ctx.artifacts.symbols.get();
  if (sym != nullptr) {
    const std::vector<const SymbolTable::Bit*> bits = sym->find_bits(name);
    if (!bits.empty()) return bits.front()->net;
  }
  const netlist::Netlist* nl = ctx.artifacts.mapped.get();
  if (nl == nullptr) return {};
  if (sym != nullptr && sym->has(kStageNames)) {
    for (std::size_t i = 0; i < sym->net_names.size(); ++i) {
      if (sym->sv(sym->net_names[i]) == name) {
        return netlist::NetId{static_cast<std::uint32_t>(i)};
      }
    }
  }
  for (netlist::NetId id : nl->all_nets()) {
    if (nl->net(id).name == name) return id;
  }
  return {};
}

BitLocation locate_bit(const SymbolTable& sym, const SymbolTable::Bit& bit,
                       const flow::FlowArtifacts& a) {
  BitLocation loc;
  loc.bit_name = std::string(sym.sv(bit.name));
  loc.kind = bit_kind_name(bit.kind);
  loc.net = bit.net.value;
  loc.cell = bit.cell.value;
  const netlist::Netlist* nl = a.mapped.get();
  if (bit.cell.valid() && nl != nullptr) {
    loc.origin = to_string(sym.origin(bit.cell));
    loc.cell_name = cell_display_name(&sym, *nl, bit.cell);
  }
  if (a.placed != nullptr && nl != nullptr) {
    const place::PlacedDesign& placed = *a.placed;
    if (bit.cell.valid() && bit.cell.value < placed.cell_origin.size()) {
      loc.placed = true;
      loc.x = placed.cell_origin[bit.cell.value].x;
      loc.y = placed.cell_origin[bit.cell.value].y;
    } else if (bit.kind == SymbolTable::BitKind::kInput) {
      for (std::size_t i = 0; i < nl->inputs().size(); ++i) {
        if (nl->inputs()[i].name == loc.bit_name &&
            i < placed.input_pad.size()) {
          loc.placed = true;
          loc.x = placed.input_pad[i].x;
          loc.y = placed.input_pad[i].y;
          break;
        }
      }
    } else if (bit.kind == SymbolTable::BitKind::kOutput) {
      for (std::size_t i = 0; i < nl->outputs().size(); ++i) {
        if (nl->outputs()[i].name == loc.bit_name &&
            i < placed.output_pad.size()) {
          loc.placed = true;
          loc.x = placed.output_pad[i].x;
          loc.y = placed.output_pad[i].y;
          break;
        }
      }
    }
  }
  if (a.routed != nullptr && bit.net.valid() &&
      bit.net.value < a.routed->nets.size()) {
    const route::NetRoute& nr = a.routed->nets[bit.net.value];
    loc.routed = nr.routed;
    loc.wirelength_dbu = nr.wirelength_dbu;
    loc.vias = nr.vias;
  }
  if (sym.has(kStageSta) && bit.net.valid() &&
      bit.net.value < sym.arrival_ps.size() &&
      bit.net.value < sym.net_driven.size() &&
      sym.net_driven[bit.net.value] != 0) {
    loc.timed = true;
    loc.arrival_ps = sym.arrival_ps[bit.net.value];
  }
  return loc;
}

QueryResult answer_where_is(const Query& q, const flow::FlowContext& ctx) {
  const SymbolTable* sym = ctx.artifacts.symbols.get();
  if (sym == nullptr || !sym->has(kStageMap)) {
    return not_found(q.kind,
                     "where_is '" + q.arg +
                         "': no mapped symbols yet (flow has not reached "
                         "the map step, or symbols were not recorded)");
  }
  const std::vector<const SymbolTable::Bit*> bits = sym->find_bits(q.arg);
  if (bits.empty()) {
    return not_found(q.kind, "where_is '" + q.arg +
                                 "': no RTL port or register by that name");
  }
  QueryResult r;
  r.kind = q.kind;
  r.found = true;
  r.where_is.rtl_name = q.arg;
  if (const SymbolTable::RtlSignal* s = sym->find_rtl_signal(q.arg)) {
    r.where_is.declared_width = s->width;
  }
  r.text = "where_is " + q.arg + ": " + std::to_string(bits.size()) +
           " bit(s)\n";
  for (const SymbolTable::Bit* bit : bits) {
    BitLocation loc = locate_bit(*sym, *bit, ctx.artifacts);
    r.text += "  " + loc.bit_name + ": " + loc.kind;
    if (!loc.cell_name.empty()) {
      r.text += ", cell " + loc.cell_name + " (" + loc.origin + ")";
    }
    if (loc.net != netlist::NetId::kInvalid) {
      r.text += ", net " + std::to_string(loc.net);
    }
    if (loc.placed) {
      r.text += ", at (" + std::to_string(loc.x) + ", " +
                std::to_string(loc.y) + ") dbu";
    }
    if (loc.routed) {
      r.text += ", wire " + std::to_string(loc.wirelength_dbu) + " dbu / " +
                std::to_string(loc.vias) + " vias";
    }
    if (loc.timed) {
      r.text += ", arrival " + util::fmt(loc.arrival_ps, 1) + " ps";
    }
    r.text += "\n";
    r.where_is.bits.push_back(std::move(loc));
  }
  return r;
}

QueryResult answer_why_slack(const Query& q, const flow::FlowContext& ctx) {
  const timing::TimingReport& t = ctx.artifacts.timing;
  if (t.endpoints.empty()) {
    return not_found(q.kind, "why_slack: no timing report (sta has not run)");
  }
  // Endpoints are sorted by ascending slack; empty arg means the worst.
  const timing::Endpoint* ep = nullptr;
  if (q.arg.empty()) {
    ep = &t.endpoints.front();
  } else {
    for (const timing::Endpoint& e : t.endpoints) {
      if (e.name == q.arg) {
        ep = &e;
        break;
      }
    }
  }
  if (ep == nullptr) {
    return not_found(q.kind, "why_slack '" + q.arg +
                                 "': no such timing endpoint");
  }
  QueryResult r;
  r.kind = q.kind;
  r.found = true;
  r.why_slack.endpoint = ep->name;
  r.why_slack.slack_ps = ep->slack_ps;
  r.why_slack.arrival_ps = ep->arrival_ps;
  r.why_slack.required_ps = ep->required_ps;
  r.why_slack.is_critical = ep->name == t.endpoints.front().name;
  if (r.why_slack.is_critical) r.why_slack.path = t.critical_path;
  r.text = "why_slack " + ep->name + ": slack " +
           util::fmt(ep->slack_ps, 1) + " ps (arrival " +
           util::fmt(ep->arrival_ps, 1) + ", required " +
           util::fmt(ep->required_ps, 1) + ")\n";
  if (r.why_slack.is_critical) {
    r.text += "  critical path (" + std::to_string(r.why_slack.path.size()) +
              " points):\n";
    for (const timing::PathStep& s : r.why_slack.path) {
      r.text += "    " + s.point + "  arrival " + util::fmt(s.arrival_ps, 1) +
                " ps (+" + util::fmt(s.incr_ps, 1) + ")\n";
    }
  }
  return r;
}

QueryResult answer_net_route(const Query& q, const flow::FlowContext& ctx) {
  if (ctx.artifacts.routed == nullptr) {
    return not_found(q.kind, "net_route '" + q.arg +
                                 "': flow has not reached the route step");
  }
  const netlist::NetId net = resolve_net(ctx, q.arg);
  if (!net.valid() || net.value >= ctx.artifacts.routed->nets.size()) {
    return not_found(q.kind,
                     "net_route '" + q.arg + "': no net by that name");
  }
  const route::RoutedDesign& routed = *ctx.artifacts.routed;
  const route::NetRoute& nr = routed.nets[net.value];
  QueryResult r;
  r.kind = q.kind;
  r.found = true;
  r.net_route.net_name = q.arg;
  r.net_route.net = net.value;
  r.net_route.is_routed = nr.routed;
  r.net_route.wirelength_dbu = nr.wirelength_dbu;
  r.net_route.vias = nr.vias;
  r.net_route.gcell_dbu = routed.gcell_dbu;
  for (std::size_t s = 0; s + 1 < nr.seg_begin.size(); ++s) {
    r.net_route.segments.emplace_back(
        nr.waypoints.begin() + nr.seg_begin[s],
        nr.waypoints.begin() + nr.seg_begin[s + 1]);
  }
  r.text = "net_route " + q.arg + " (net " + std::to_string(net.value) +
           "): " + (nr.routed ? "routed" : "UNROUTED") + ", " +
           std::to_string(nr.wirelength_dbu) + " dbu, " +
           std::to_string(nr.vias) + " vias, " +
           std::to_string(r.net_route.segments.size()) + " segments\n";
  for (const std::vector<route::RoutePoint>& seg : r.net_route.segments) {
    r.text += " ";
    for (const route::RoutePoint& p : seg) {
      r.text +=
          " (" + std::to_string(p.x) + "," + std::to_string(p.y) + ")";
    }
    r.text += "\n";
  }
  return r;
}

QueryResult answer_cone_of(const Query& q, const flow::FlowContext& ctx) {
  const netlist::Netlist* nl = ctx.artifacts.mapped.get();
  if (nl == nullptr) {
    return not_found(q.kind, "cone_of '" + q.arg +
                                 "': flow has not reached the map step");
  }
  const netlist::NetId root = resolve_net(ctx, q.arg);
  if (!root.valid() || root.value >= nl->num_nets()) {
    return not_found(q.kind,
                     "cone_of '" + q.arg + "': no net by that name");
  }
  const SymbolTable* sym = ctx.artifacts.symbols.get();
  QueryResult r;
  r.kind = q.kind;
  r.found = true;
  r.cone.root = q.arg;
  r.cone.net = root.value;
  // Breadth-first walk over drivers: net -> driver cell -> its fanin nets.
  std::unordered_set<std::uint32_t> seen_nets;
  std::unordered_set<std::uint32_t> seen_cells;
  std::deque<std::pair<netlist::NetId, std::size_t>> frontier;
  frontier.emplace_back(root, 0);
  seen_nets.insert(root.value);
  while (!frontier.empty()) {
    const auto [net, depth] = frontier.front();
    frontier.pop_front();
    r.cone.depth = std::max(r.cone.depth, depth);
    const netlist::NetView nv = nl->net(net);
    if (nv.driver_kind == netlist::DriverKind::kCell) {
      const netlist::CellId cell = nv.driver_cell;
      if (!seen_cells.insert(cell.value).second) continue;
      r.cone.cells.push_back(cell_display_name(sym, *nl, cell));
      for (const netlist::NetId fanin : nl->cell(cell).fanin) {
        if (seen_nets.insert(fanin.value).second) {
          frontier.emplace_back(fanin, depth + 1);
        }
      }
    } else if (nv.driver_kind == netlist::DriverKind::kInput) {
      for (const netlist::Port& p : nl->inputs()) {
        if (p.net.value == net.value) {
          r.cone.inputs.push_back(p.name);
          break;
        }
      }
    }
  }
  std::sort(r.cone.inputs.begin(), r.cone.inputs.end());
  r.text = "cone_of " + q.arg + ": " + std::to_string(r.cone.cells.size()) +
           " cells, depth " + std::to_string(r.cone.depth) + ", from " +
           std::to_string(r.cone.inputs.size()) + " inputs";
  if (!r.cone.inputs.empty()) {
    r.text += " [" + util::join(r.cone.inputs, ", ") + "]";
  }
  r.text += "\n";
  return r;
}

}  // namespace

QueryResult answer(const Query& q, const flow::FlowContext& ctx) {
  switch (q.kind) {
    case QueryKind::kWhereIs: return answer_where_is(q, ctx);
    case QueryKind::kWhySlack: return answer_why_slack(q, ctx);
    case QueryKind::kNetRoute: return answer_net_route(q, ctx);
    case QueryKind::kConeOf: return answer_cone_of(q, ctx);
    case QueryKind::kFlight:
    case QueryKind::kTrace:
      return not_found(q.kind,
                       std::string(to_string(q.kind)) +
                           ": answered by the hub, not from artifacts");
  }
  return not_found(q.kind, "unknown query kind");
}

util::Result<QueryResult> answer_from_cache(const Query& q,
                                            const rtl::Module& design,
                                            const flow::FlowConfig& config,
                                            flow::FlowCache& cache) {
  const flow::FlowTemplate tmpl = flow::reference_template();
  std::vector<util::Digest> keys;
  std::vector<bool> keyable;
  tmpl.step_keys(design, config, &keys, &keyable);
  flow::FlowContext ctx;
  ctx.config = config;
  ctx.config.cache = nullptr;
  ctx.config.breakpoint = nullptr;
  ctx.artifacts.design = &design;
  std::size_t restored = 0;
  while (restored < keys.size() && keyable[restored] &&
         cache.lookup(keys[restored], ctx)) {
    ++restored;
  }
  if (restored == 0) {
    return util::Status::NotFound("no cached step for design '" +
                                  design.name() + "'");
  }
  return answer(q, ctx);
}

}  // namespace eurochip::dbg
