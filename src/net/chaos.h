#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "net/protocol.h"
#include "util/socket.h"

namespace ssresf::net {

/// Deterministic in-process network-chaos harness. A ChaosSchedule sits at
/// the worker's frame-send seam and injects faults at fixed *operation
/// indices* (the worker's lifetime count of sent frames), never at wall-clock
/// times — so a chaos test replays bit-identically and asserts without sleeps
/// or retries. Every fault surfaces through the transport's normal failure
/// machinery (digest rejection, mid-frame EOF, clean close), which is exactly
/// the point: chaos tests prove the *recovery* paths, not the faults.
///
/// Events are consumed when they fire. A worker that reconnects after a
/// kDisconnect keeps counting ops from where it left off, so the same fault
/// can never re-fire and starve progress.
enum class ChaosKind : std::uint8_t {
  /// Close the connection instead of sending the frame — a crashed or
  /// partitioned worker from the coordinator's point of view.
  kDisconnect = 0,
  /// Flip one payload bit and send — the coordinator's digest check must
  /// reject the frame and drop the connection.
  kGarbleSend = 1,
  /// Send only the first `arg` bytes of the frame, then close — the
  /// coordinator sees a mid-frame EOF.
  kTruncateSend = 2,
  /// Sleep `arg` milliseconds, then send intact — latency without
  /// corruption; merged results must be unaffected.
  kDelayMs = 3,
};

struct ChaosEvent {
  std::uint64_t op_index = 0;  // which send operation the fault hits
  ChaosKind kind = ChaosKind::kDelayMs;
  std::uint32_t arg = 0;  // ms for kDelayMs; byte count for kTruncateSend
};

class ChaosSchedule {
 public:
  ChaosSchedule() = default;

  void add(ChaosEvent event) { events_.push_back(event); }

  /// `count` events at deterministic, seed-derived op indices in
  /// [first_op, first_op + span), kinds and args also seed-derived.
  /// Same seed, same schedule — across processes and runs.
  [[nodiscard]] static ChaosSchedule from_seed(std::uint64_t seed,
                                               std::size_t count,
                                               std::uint64_t first_op,
                                               std::uint64_t span);

  [[nodiscard]] bool empty() const { return events_.empty(); }
  [[nodiscard]] std::size_t pending() const { return events_.size(); }
  [[nodiscard]] std::uint64_t ops_sent() const { return ops_sent_; }

  /// The worker's frame-send seam: counts the op, applies at most one
  /// matching event (consuming it), and sends whatever the event dictates.
  /// Returns false when the event closed the socket (kDisconnect /
  /// kTruncateSend) — the caller treats it like any other lost connection
  /// and goes through its reconnect path.
  [[nodiscard]] bool send_frame(util::Socket& socket, MsgType type,
                                std::span<const std::uint8_t> payload);

 private:
  [[nodiscard]] std::optional<ChaosEvent> take(std::uint64_t op_index);

  std::vector<ChaosEvent> events_;
  std::uint64_t ops_sent_ = 0;
};

/// The coordinator-side counterpart: deterministic coordinator *death*.
/// Counts the frames the coordinator receives and fires once at a fixed
/// frame index — the in-process stand-in for `kill -9` on the head node.
/// When it fires, the coordinator abruptly closes every connection and its
/// listener (no redirect, no shutdown, no drain — nothing a SIGKILLed
/// process could send) and throws CoordinatorKilled. The trigger is a
/// frame count, optionally armed only once the election roster lists a
/// given number of workers — with several workers the count alone does not
/// say who has joined the fleet by then.
class CoordinatorDeathSchedule {
 public:
  CoordinatorDeathSchedule() = default;
  /// Dies upon receiving frame number `die_at_frame` (1-based count of the
  /// frames received since the roster first listed `armed_at_roster`
  /// workers; 0 = from the first frame). die_at_frame 0 = never.
  explicit CoordinatorDeathSchedule(std::uint64_t die_at_frame,
                                    std::size_t armed_at_roster = 0)
      : die_at_frame_(die_at_frame), armed_at_roster_(armed_at_roster) {}

  /// The coordinator's roster seam: the election roster now lists `size`
  /// workers.
  void on_roster(std::size_t size) { roster_size_ = size; }

  /// The coordinator's frame-received seam: counts the frame, returns true
  /// exactly once — when the schedule says this incarnation dies now.
  [[nodiscard]] bool on_frame() {
    if (roster_size_ < armed_at_roster_) return false;
    ++frames_seen_;
    if (fired_ || die_at_frame_ == 0 || frames_seen_ < die_at_frame_) {
      return false;
    }
    fired_ = true;
    return true;
  }

  [[nodiscard]] std::uint64_t frames_seen() const { return frames_seen_; }
  [[nodiscard]] bool fired() const { return fired_; }

 private:
  std::uint64_t die_at_frame_ = 0;
  std::size_t armed_at_roster_ = 0;
  std::size_t roster_size_ = 0;
  std::uint64_t frames_seen_ = 0;
  bool fired_ = false;
};

}  // namespace ssresf::net
