#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fi/campaign_exec.h"
#include "util/bytes.h"

namespace ssresf::fi {

/// The shippable golden work of a campaign: everything prepare_campaign
/// derives by simulating the fault-free SoC. A coordinator computes it once
/// and ships it to every worker (socket transport) or writes it next to the
/// shard files (process transport), so workers skip the golden pass — the
/// halt search, trace recording and ladder snapshots — that each shard would
/// otherwise simulate. Checkpoints travel as sim/state_codec RLE frames, so
/// the bundle is host-portable like the .ssfs shard files.
struct GoldenBundle {
  /// Resolved workload length: config.run_cycles when set, else the length
  /// the coordinator's golden run halted at (plus margin).
  int run_cycles = 0;
  sim::OutputTrace trace;  // golden samples of every cycle, reset included
  struct Rung {
    int cycle = 0;
    std::vector<std::uint8_t> state;  // sim::encode_state blob (RLE)
  };
  std::vector<Rung> rungs;  // the checkpoint ladder, ascending cycle order
};

/// Extracts the bundle from an execution-ready prep (each ladder rung is
/// encoded with the golden engine's codec).
[[nodiscard]] GoldenBundle extract_golden_bundle(
    const soc::SocModel& model, const CampaignConfig& config,
    const detail::CampaignPrep& prep);

void encode_golden_bundle(util::ByteWriter& out, const GoldenBundle& bundle);

/// Throws InvalidArgument on malformed input.
[[nodiscard]] GoldenBundle decode_golden_bundle(util::ByteReader& in);

/// prepare_campaign with the golden work installed from `bundle` instead of
/// simulated: plans with for_execution=false under the bundle's resolved run
/// length (so not even the halt-length golden run happens), then adopts the
/// shipped trace and decodes the ladder into restorable snapshots. The
/// returned prep is execution-ready and produces records byte-identical to a
/// locally prepared one. Throws InvalidArgument when the bundle contradicts
/// (model, config) — wrong run length, trace shape, or snapshot design size.
[[nodiscard]] detail::CampaignPrep prepare_campaign_with_bundle(
    const soc::SocModel& model, const CampaignConfig& config,
    const radiation::SoftErrorDatabase& database, const GoldenBundle& bundle);

/// Golden-bundle file ("SSGB" magic, version, campaign_config_digest,
/// bundle): the process-transport coordinator writes one into the shard
/// scratch dir and points workers at it. The digest binds the file to the
/// exact campaign, like the .ssfs header does.
void write_golden_bundle_file(const std::string& path,
                              const soc::SocModel& model,
                              const CampaignConfig& config,
                              const GoldenBundle& bundle);

/// Throws InvalidArgument on a malformed file or a digest mismatch.
[[nodiscard]] GoldenBundle read_golden_bundle_file(
    const std::string& path, const soc::SocModel& model,
    const CampaignConfig& config);

}  // namespace ssresf::fi
