#include "sim/levelized_schedule.h"

#include <algorithm>
#include <mutex>
#include <unordered_map>

#include "util/error.h"

namespace ssresf::sim {

using netlist::Cell;
using netlist::CellKind;
using netlist::is_flip_flop;
using netlist::is_sequential;
using netlist::MemoryInfo;

namespace {

const Netlist& require_finalized(const Netlist& netlist) {
  if (!netlist.finalized()) {
    throw InvalidArgument("zero-delay engines require a finalized netlist");
  }
  return netlist;
}

/// A memory's combinational read output depends on its read-address pins
/// only; everything else it reads is sampled at the clock edge.
bool is_read_address_pin(const Netlist& netlist, const netlist::Fanout& fo) {
  const MemoryInfo& mi = netlist.memory(netlist.cell(fo.cell).memory_index);
  return fo.input_index >= 3 && fo.input_index < 3u + mi.addr_bits;
}

}  // namespace

std::vector<CellId> levelized_eval_order(const Netlist& netlist) {
  // Topological order over "evaluation nodes": combinational cells (inputs =
  // all pins) and memory macros (inputs = ADDR pins only; their read output
  // is combinational in a levelized model, everything else is sampled).
  const std::size_t n = netlist.num_cells();
  std::vector<std::uint32_t> pending(n, 0);
  std::vector<CellId> ready;

  auto eval_inputs = [&](const Cell& cell) {
    std::vector<NetId> ins;
    if (cell.kind == CellKind::kMemory) {
      const MemoryInfo& mi = netlist.memory(cell.memory_index);
      for (int i = 0; i < mi.addr_bits; ++i) ins.push_back(cell.inputs[3u + i]);
    } else {
      ins = cell.inputs;
    }
    return ins;
  };
  auto is_eval_node = [&](const Cell& cell) {
    return !is_sequential(cell.kind) || cell.kind == CellKind::kMemory;
  };
  // A net is a "source" if it is a primary input or driven by a flip-flop.
  auto net_is_source = [&](NetId id) {
    const auto& net = netlist.net(id);
    if (net.is_primary_input) return true;
    return is_flip_flop(netlist.cell(net.driver).kind);
  };

  std::size_t num_eval_nodes = 0;
  for (std::uint32_t ci = 0; ci < n; ++ci) {
    const Cell& cell = netlist.cell(CellId{ci});
    if (!is_eval_node(cell)) continue;
    ++num_eval_nodes;
    std::uint32_t unresolved = 0;
    for (const NetId in : eval_inputs(cell)) {
      if (!net_is_source(in)) ++unresolved;
    }
    pending[ci] = unresolved;
    if (unresolved == 0) ready.push_back(CellId{ci});
  }

  std::vector<CellId> order;
  order.reserve(num_eval_nodes);
  while (!ready.empty()) {
    const CellId id = ready.back();
    ready.pop_back();
    order.push_back(id);
    const Cell& cell = netlist.cell(id);
    for (const NetId out : cell.outputs) {
      for (const netlist::Fanout& fo : netlist.fanout(out)) {
        const Cell& sink = netlist.cell(fo.cell);
        if (!is_eval_node(sink)) continue;
        // Only count edges that the sink's eval-input set contains.
        if (sink.kind == CellKind::kMemory && !is_read_address_pin(netlist, fo)) {
          continue;
        }
        if (--pending[fo.cell.index()] == 0) ready.push_back(fo.cell);
      }
    }
  }
  if (order.size() != num_eval_nodes) {
    throw Error("levelized eval order: combinational cycle in netlist");
  }
  return order;
}

std::shared_ptr<const LevelizedSchedule::Topology>
LevelizedSchedule::shared_topology(const Netlist& netlist) {
  // Keyed by address: a live entry means a live schedule over that netlist.
  // Engines hold a reference to their netlist and derive more from it at
  // construction (clock nets, sequential cells), so a netlist must neither
  // die nor be reassigned while an engine over it exists; under that rule
  // the object at a live entry's address is the one it was built from.
  // Sharing matters for memory: every campaign thread holds engine
  // replicas, and a per-engine copy of the order and positions measured
  // about +5 MiB peak RSS on the five-scenario sweep.
  static std::mutex mutex;
  static std::unordered_map<const Netlist*, std::weak_ptr<const Topology>> cache;
  const std::lock_guard<std::mutex> lock(mutex);
  std::erase_if(cache, [](const auto& entry) { return entry.second.expired(); });
  std::weak_ptr<const Topology>& slot = cache[&netlist];
  if (std::shared_ptr<const Topology> topology = slot.lock()) return topology;

  auto topology = std::make_shared<Topology>();
  topology->order = levelized_eval_order(require_finalized(netlist));
  if (topology->order.size() >= kMemoryBit) {
    throw InvalidArgument("levelized schedule: too many evaluation nodes");
  }
  topology->pos_of.assign(netlist.num_cells(), kNotScheduled);
  for (std::uint32_t pos = 0; pos < topology->order.size(); ++pos) {
    const CellId id = topology->order[pos];
    const bool memory = netlist.cell(id).kind == CellKind::kMemory;
    topology->pos_of[id.index()] = memory ? (pos | kMemoryBit) : pos;
  }
  slot = topology;
  return topology;
}

LevelizedSchedule::LevelizedSchedule(const Netlist& netlist)
    : netlist_(&netlist),
      topology_(shared_topology(netlist)),
      order_(topology_->order.data()),
      pos_of_(topology_->pos_of.data()),
      bits_((topology_->order.size() + 63) / 64, 0),
      lo_(bits_.size()) {}

void LevelizedSchedule::mark_all() {
  if (bits_.empty()) return;
  std::fill(bits_.begin(), bits_.end(), ~std::uint64_t{0});
  if (const std::size_t tail = topology_->order.size() % 64; tail != 0) {
    bits_.back() = (std::uint64_t{1} << tail) - 1;
  }
  lo_ = 0;
  hi_ = bits_.size() - 1;
}

void LevelizedSchedule::clear() {
  if (settled()) return;
  std::fill(bits_.begin() + static_cast<std::ptrdiff_t>(lo_),
            bits_.begin() + static_cast<std::ptrdiff_t>(hi_) + 1, 0);
  lo_ = bits_.size();
  hi_ = 0;
}

bool LevelizedSchedule::is_read_address_pin(const netlist::Fanout& fo) const {
  return sim::is_read_address_pin(*netlist_, fo);
}

}  // namespace ssresf::sim
