// The design-debug query API: "where did my adder go?"
//
// A Query is a small value object naming one question about a flow run;
// answer() resolves it against a FlowContext — live parked state exposed by
// a flow breakpoint, the terminal artifacts of a finished run, or a context
// rebuilt from cache entries (answer_from_cache). The resolution chain is
// always the dbg::SymbolTable the flow recorded (symbols.hpp): RTL name ->
// mapped net/cell -> placed coordinates -> routed geometry -> STA arrivals.
//
// Every result carries both a structured payload (for tests and tools) and
// a rendered `text` (for humans); `found` distinguishes "the question has
// no answer at this flow depth" from an error. Queries never mutate the
// context — hub::JobServer answers them under BreakController::inspect
// while the flow thread is parked, so const-ness here is load-bearing.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "eurochip/dbg/symbols.hpp"
#include "eurochip/flow/cache.hpp"
#include "eurochip/flow/flow.hpp"
#include "eurochip/route/router.hpp"
#include "eurochip/util/result.hpp"

namespace eurochip::dbg {

enum class QueryKind : std::uint8_t {
  kWhereIs,   ///< RTL signal -> mapped/placed/routed/timed locations
  kWhySlack,  ///< endpoint slack + the critical path through the design
  kNetRoute,  ///< a net's routed geometry
  kConeOf,    ///< transitive fanin cone of a net or bit
  kFlight,    ///< the job's flight record (answered by the hub, not here)
  kTrace,     ///< the job's trace slice (answered by the hub, not here)
};

const char* to_string(QueryKind kind);

struct Query {
  QueryKind kind = QueryKind::kWhereIs;
  /// The subject: an RTL signal for kWhereIs, an endpoint name (or empty
  /// for the worst) for kWhySlack, a net/bit name for kNetRoute/kConeOf.
  std::string arg;

  static Query where_is(std::string rtl_name);
  static Query why_slack(std::string endpoint = "");
  static Query net_route(std::string net);
  static Query cone_of(std::string pin);
  static Query flight();
  static Query trace();
};

/// One RTL bit's location at every stage the flow has reached so far.
struct BitLocation {
  std::string bit_name;   ///< bit-blasted name ("sum[3]")
  std::string kind;       ///< "input" | "output" | "reg"
  std::uint32_t net = netlist::NetId::kInvalid;
  std::uint32_t cell = netlist::CellId::kInvalid;
  std::string cell_name;  ///< verilog instance name when names are frozen
  std::string origin;     ///< CellOrigin of `cell` ("mapped", "scan", ...)
  bool placed = false;
  std::int64_t x = 0;     ///< dbu; the DFF origin for regs, the pad for IO
  std::int64_t y = 0;
  bool routed = false;
  std::int64_t wirelength_dbu = 0;
  int vias = 0;
  bool timed = false;
  double arrival_ps = 0.0;
};

struct WhereIsResult {
  std::string rtl_name;
  std::int32_t declared_width = 0;  ///< 0 when the RTL declaration is gone
  std::vector<BitLocation> bits;
};

struct WhySlackResult {
  std::string endpoint;
  double slack_ps = 0.0;
  double arrival_ps = 0.0;
  double required_ps = 0.0;
  bool is_critical = false;  ///< endpoint terminates the critical path
  std::vector<timing::PathStep> path;  ///< non-empty only when critical
};

struct NetRouteResult {
  std::string net_name;
  std::uint32_t net = netlist::NetId::kInvalid;
  bool is_routed = false;
  std::int64_t wirelength_dbu = 0;
  int vias = 0;
  std::int64_t gcell_dbu = 0;
  /// Bend waypoints per segment, in gcell coordinates.
  std::vector<std::vector<route::RoutePoint>> segments;
};

struct ConeOfResult {
  std::string root;               ///< resolved net name
  std::uint32_t net = netlist::NetId::kInvalid;
  std::vector<std::string> cells;   ///< cone cell names, discovery order
  std::vector<std::string> inputs;  ///< primary inputs feeding the cone
  std::size_t depth = 0;            ///< longest driver chain in the cone
};

struct QueryResult {
  QueryKind kind = QueryKind::kWhereIs;
  bool found = false;
  std::string text;  ///< human-readable rendering (always set when found)
  WhereIsResult where_is;
  WhySlackResult why_slack;
  NetRouteResult net_route;
  ConeOfResult cone;
};

/// Answers `q` from the artifacts `ctx` holds right now. Questions about
/// stages the flow has not reached (or that were not recorded) come back
/// found=false with an explanatory `text`; kFlight/kTrace always come back
/// found=false here — the hub owns those records.
[[nodiscard]] QueryResult answer(const Query& q, const flow::FlowContext& ctx);

/// Answers `q` from the cache entries `cache` holds for (design, config):
/// recomputes the reference template's step keys, restores the leading run
/// of resident steps into a scratch context, and answers from it. NotFound
/// when the first step is not resident.
[[nodiscard]] util::Result<QueryResult> answer_from_cache(
    const Query& q, const rtl::Module& design, const flow::FlowConfig& config,
    flow::FlowCache& cache);

}  // namespace eurochip::dbg
