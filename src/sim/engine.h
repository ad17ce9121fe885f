#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "netlist/netlist.h"

namespace ssresf::util {
class ByteWriter;
class ByteReader;
}  // namespace ssresf::util

namespace ssresf::sim {

using netlist::CellId;
using netlist::Logic;
using netlist::Netlist;
using netlist::NetId;

/// Change-notification hook (used by the VCD writer): (net, time_ps, value).
using ChangeObserver = std::function<void(NetId, std::uint64_t, Logic)>;

/// Opaque snapshot of an engine's complete dynamic state (net values, FF
/// state, memory arrays, pending events, time). Produced by
/// Engine::save_state and consumed by Engine::restore_state of an engine of
/// the same concrete type over the same netlist; immutable once taken, so
/// one snapshot can seed any number of engines (including concurrently).
class EngineState {
 public:
  virtual ~EngineState() = default;
};

/// Common interface of the simulation engines.
///
/// EventSimulator is the timing-accurate reference (the role Synopsys VCS
/// plays in the paper); LevelizedSimulator is the second, cycle-based engine
/// (the role of OSS-CVC); BitParallelSimulator packs 64 levelized runs into
/// every machine word for campaign throughput. All expose the same
/// VPI-style injection primitives — force/release/deposit — that the paper
/// drives through the IEEE 1364 VPI.
class Engine {
 public:
  virtual ~Engine() = default;

  [[nodiscard]] virtual const Netlist& design() const = 0;

  /// Restore power-on state: FFs unknown (or reset), memories re-initialised,
  /// time zero.
  virtual void reset_state() = 0;

  /// Snapshot the complete dynamic state. The snapshot stays valid for the
  /// lifetime of the netlist and may be restored into any engine of the same
  /// concrete type built over the same netlist.
  [[nodiscard]] virtual std::unique_ptr<EngineState> save_state() const = 0;

  /// Resume from a snapshot taken by save_state on a compatible engine.
  /// Throws InvalidArgument if the snapshot came from a different engine
  /// type or a differently sized design. The observer is not part of the
  /// state and is left untouched.
  virtual void restore_state(const EngineState& state) = 0;

  /// Serializes a snapshot taken by this engine type into a portable byte
  /// stream (see sim/state_codec.h for the framed, optionally compressed
  /// container built on top of this). Counters and semantic state round-trip;
  /// bookkeeping that state_matches ignores (event sequence numbers,
  /// cancelled queue entries) may be re-normalized. Throws InvalidArgument
  /// for a foreign snapshot.
  virtual void serialize_state(const EngineState& state,
                               util::ByteWriter& out) const = 0;

  /// Rebuilds a snapshot from serialize_state output. The result restores
  /// into this engine (same concrete type, same design) and satisfies
  /// state_matches against the original snapshot. Throws InvalidArgument on
  /// malformed bytes or a design-size mismatch.
  [[nodiscard]] virtual std::unique_ptr<EngineState> deserialize_state(
      util::ByteReader& in) const = 0;

  /// True when the engine's dynamic state is semantically identical to the
  /// snapshot — same time, net values, forces, sequential state, memories,
  /// and pending activity (bookkeeping counters excluded) — so the two
  /// futures coincide under identical stimulus. The campaign uses this to
  /// prove a faulty run has reconverged with the golden run and stop it.
  /// Returns false (never throws) for a foreign snapshot.
  [[nodiscard]] virtual bool state_matches(const EngineState& state) const = 0;

  /// Drive a primary input at the current time.
  virtual void set_input(NetId net, Logic value) = 0;

  /// Process activity up to (and including) absolute time `time_ps`.
  virtual void advance_to(std::uint64_t time_ps) = 0;

  [[nodiscard]] virtual std::uint64_t now() const = 0;

  /// Effective (consumer-visible) value of a net.
  [[nodiscard]] virtual Logic value(NetId net) const = 0;

  // --- VPI-style injection ---------------------------------------------------
  /// Overrides a net with a value until release_net. Models a SET transient
  /// when applied for a bounded window.
  virtual void force_net(NetId net, Logic value) = 0;
  virtual void release_net(NetId net) = 0;

  /// Rewrites a flip-flop's stored state (SEU) and propagates Q/QN.
  virtual void deposit_ff(CellId ff, Logic q) = 0;
  [[nodiscard]] virtual Logic ff_state(CellId ff) const = 0;

  /// Direct access to a memory macro's array (SEU in a RAM bit).
  virtual void write_mem_word(CellId mem, std::uint32_t word,
                              std::uint64_t value) = 0;
  [[nodiscard]] virtual std::uint64_t read_mem_word(CellId mem,
                                                    std::uint32_t word) const = 0;

  /// Value-change observer (may be empty). Only the event engine reports
  /// per-ps changes; the levelized engine reports once per settle.
  virtual void set_observer(ChangeObserver observer) = 0;

  /// Human-readable engine name for reports ("event" / "levelized").
  [[nodiscard]] virtual std::string_view name() const = 0;
};

/// Which engine to instantiate: the two baselines of Table III plus the
/// bit-parallel packed engine (64 runs per word, levelized timing) that the
/// campaign's word-batch scheduler exploits.
enum class EngineKind { kEvent, kLevelized, kBitParallel };

[[nodiscard]] std::unique_ptr<Engine> make_engine(EngineKind kind,
                                                  const Netlist& netlist);

}  // namespace ssresf::sim
