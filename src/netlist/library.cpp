#include "eurochip/netlist/library.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace eurochip::netlist {

const char* to_string(CellFn fn) {
  switch (fn) {
    case CellFn::kTie0: return "tie0";
    case CellFn::kTie1: return "tie1";
    case CellFn::kBuf: return "buf";
    case CellFn::kInv: return "inv";
    case CellFn::kAnd2: return "and2";
    case CellFn::kNand2: return "nand2";
    case CellFn::kOr2: return "or2";
    case CellFn::kNor2: return "nor2";
    case CellFn::kXor2: return "xor2";
    case CellFn::kXnor2: return "xnor2";
    case CellFn::kAnd3: return "and3";
    case CellFn::kNand3: return "nand3";
    case CellFn::kOr3: return "or3";
    case CellFn::kNor3: return "nor3";
    case CellFn::kAoi21: return "aoi21";
    case CellFn::kOai21: return "oai21";
    case CellFn::kMux2: return "mux2";
    case CellFn::kDff: return "dff";
  }
  return "?";
}

int fn_num_inputs(CellFn fn) {
  switch (fn) {
    case CellFn::kTie0:
    case CellFn::kTie1:
      return 0;
    case CellFn::kBuf:
    case CellFn::kInv:
    case CellFn::kDff:
      return 1;
    case CellFn::kAnd2:
    case CellFn::kNand2:
    case CellFn::kOr2:
    case CellFn::kNor2:
    case CellFn::kXor2:
    case CellFn::kXnor2:
      return 2;
    case CellFn::kAnd3:
    case CellFn::kNand3:
    case CellFn::kOr3:
    case CellFn::kNor3:
    case CellFn::kAoi21:
    case CellFn::kOai21:
    case CellFn::kMux2:
      return 3;
  }
  return 0;
}

std::uint16_t fn_truth_table(CellFn fn) {
  // Bit i = output for input assignment i (input pin 0 is the LSB of i).
  switch (fn) {
    case CellFn::kTie0: return 0x0;
    case CellFn::kTie1: return 0x1;
    case CellFn::kBuf: return 0b10;          // out = a
    case CellFn::kInv: return 0b01;          // out = !a
    case CellFn::kAnd2: return 0b1000;
    case CellFn::kNand2: return 0b0111;
    case CellFn::kOr2: return 0b1110;
    case CellFn::kNor2: return 0b0001;
    case CellFn::kXor2: return 0b0110;
    case CellFn::kXnor2: return 0b1001;
    case CellFn::kAnd3: return 0x80;
    case CellFn::kNand3: return 0x7F;
    case CellFn::kOr3: return 0xFE;
    case CellFn::kNor3: return 0x01;
    case CellFn::kAoi21: return 0x07;  // inputs a,b,c: out = !((a & b) | c)
    case CellFn::kOai21: return 0x1F;  // out = !((a | b) & c)
    case CellFn::kMux2: return 0xCA;   // inputs a,b,s: out = s ? b : a
    case CellFn::kDff:
      break;
  }
  assert(false && "truth table requested for sequential cell");
  return 0;
}

bool fn_eval(CellFn fn, unsigned input_bits) {
  return (fn_truth_table(fn) >> input_bits & 1u) != 0;
}

NldmTable::NldmTable(std::vector<double> slew_axis,
                     std::vector<double> load_axis, std::vector<double> values)
    : slew_axis_(std::move(slew_axis)),
      load_axis_(std::move(load_axis)),
      values_(std::move(values)) {
  if (slew_axis_.empty() || load_axis_.empty() ||
      values_.size() != slew_axis_.size() * load_axis_.size()) {
    throw std::invalid_argument("NldmTable: inconsistent axis/value sizes");
  }
  if (!std::is_sorted(slew_axis_.begin(), slew_axis_.end()) ||
      !std::is_sorted(load_axis_.begin(), load_axis_.end())) {
    throw std::invalid_argument("NldmTable: axes must be ascending");
  }
}

NldmTable NldmTable::constant(double value) {
  return NldmTable({0.0}, {0.0}, {value});
}

namespace {
/// Finds interpolation segment [i, i+1] and fraction for x on an axis,
/// clamping outside the axis range.
std::pair<std::size_t, double> axis_locate(const std::vector<double>& axis,
                                           double x) {
  if (axis.size() == 1 || x <= axis.front()) return {0, 0.0};
  if (x >= axis.back()) return {axis.size() - 2, 1.0};
  const auto it = std::upper_bound(axis.begin(), axis.end(), x);
  const auto hi = static_cast<std::size_t>(it - axis.begin());
  const std::size_t lo = hi - 1;
  const double span = axis[hi] - axis[lo];
  const double frac = span > 0.0 ? (x - axis[lo]) / span : 0.0;
  return {lo, frac};
}
}  // namespace

double NldmTable::lookup(double slew_ps, double load_ff) const {
  assert(!empty());
  const auto [si, sf] = axis_locate(slew_axis_, slew_ps);
  const auto [li, lf] = axis_locate(load_axis_, load_ff);
  const std::size_t cols = load_axis_.size();
  const auto at = [&](std::size_t s, std::size_t l) {
    return values_[s * cols + l];
  };
  if (slew_axis_.size() == 1 && load_axis_.size() == 1) return at(0, 0);
  if (slew_axis_.size() == 1) {
    return at(0, li) * (1.0 - lf) + at(0, li + 1) * lf;
  }
  if (load_axis_.size() == 1) {
    return at(si, 0) * (1.0 - sf) + at(si + 1, 0) * sf;
  }
  const double v0 = at(si, li) * (1.0 - lf) + at(si, li + 1) * lf;
  const double v1 = at(si + 1, li) * (1.0 - lf) + at(si + 1, li + 1) * lf;
  return v0 * (1.0 - sf) + v1 * sf;
}

std::size_t CellLibrary::add_cell(LibraryCell cell) {
  for (const auto& existing : cells_) {
    if (existing.name == cell.name) {
      throw std::invalid_argument("duplicate library cell name: " + cell.name);
    }
  }
  cells_.push_back(std::move(cell));
  return cells_.size() - 1;
}

util::Result<std::size_t> CellLibrary::find(const std::string& name) const {
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    if (cells_[i].name == name) return i;
  }
  return util::Status::NotFound("library cell not found: " + name);
}

std::vector<std::size_t> CellLibrary::cells_for(CellFn fn) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    if (cells_[i].fn == fn) out.push_back(i);
  }
  std::sort(out.begin(), out.end(), [this](std::size_t a, std::size_t b) {
    return cells_[a].drive_strength < cells_[b].drive_strength;
  });
  return out;
}

std::optional<std::size_t> CellLibrary::smallest_for(CellFn fn) const {
  std::optional<std::size_t> best;
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    if (cells_[i].fn != fn) continue;
    if (!best || cells_[i].area_um2 < cells_[*best].area_um2) best = i;
  }
  return best;
}

std::optional<std::size_t> CellLibrary::strongest_for(CellFn fn) const {
  std::optional<std::size_t> best;
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    if (cells_[i].fn != fn) continue;
    if (!best || cells_[i].drive_strength > cells_[*best].drive_strength) {
      best = i;
    }
  }
  return best;
}

}  // namespace eurochip::netlist
