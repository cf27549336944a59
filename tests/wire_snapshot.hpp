// A reference-flow run in wire format v5, the way the second-level cache
// holds it: one sealed entry per step, under that step's key. Shared by the
// serialization tests.
#pragma once

#include <cstdint>
#include <vector>

#include "eurochip/flow/flow.hpp"
#include "eurochip/flow/serialize.hpp"

namespace eurochip::wire_test {

struct WireSnapshot {
  std::vector<util::Digest> keys;
  std::vector<std::vector<std::uint8_t>> entries;
};

/// Splits `ctx`, the end state of a reference-flow run over ctx.config and
/// ctx.artifacts.design, into one entry per step: the slots the step
/// writes, as `ctx` holds them, and the step's record.
inline WireSnapshot to_wire(const flow::FlowContext& ctx) {
  const flow::FlowTemplate tmpl = flow::reference_template();
  WireSnapshot wire;
  std::vector<bool> keyable;
  tmpl.step_keys(*ctx.artifacts.design, ctx.config, &wire.keys, &keyable);
  for (std::size_t i = 0; i < tmpl.steps().size(); ++i) {
    wire.entries.push_back(flow::serialize_entry(
        wire.keys[i], ctx.artifacts, tmpl.steps()[i].writes, ctx.steps[i]));
  }
  return wire;
}

/// Decodes every entry of `wire` into `ctx`, in step order.
inline util::Status from_wire(const WireSnapshot& wire,
                              flow::FlowContext& ctx) {
  for (std::size_t i = 0; i < wire.entries.size(); ++i) {
    flow::ArtifactMask writes = 0;
    flow::StepRecord record;
    util::Status st = flow::deserialize_entry(wire.keys[i], wire.entries[i],
                                              ctx.artifacts, writes, record);
    if (!st.ok()) return st;
    ctx.steps.push_back(std::move(record));
  }
  return util::Status::Ok();
}

}  // namespace eurochip::wire_test
