// Random sequential netlists for the property and engine-equivalence
// suites: a mix of every combinational cell kind, DFF variants, and
// optionally a memory macro, in hierarchical scopes.
#pragma once

#include <string>
#include <vector>

#include "netlist/builder.h"
#include "util/rng.h"

namespace ssresf::testing_support {

using netlist::NetId;
using netlist::Netlist;
using netlist::NetlistBuilder;

struct RandomDesign {
  Netlist netlist;
  NetId clk;
  NetId rstn;
  std::vector<NetId> inputs;
  std::vector<NetId> outputs;
};

/// Random hierarchical sequential netlist: scopes two levels deep, a mix of
/// every combinational kind, DFF variants, and (optionally) a memory macro.
inline RandomDesign random_design(std::uint64_t seed, bool with_memory) {
  util::Rng rng(seed);
  NetlistBuilder b("rand" + std::to_string(seed));
  RandomDesign d{Netlist{}, {}, {}, {}, {}};
  d.clk = b.input("clk");
  d.rstn = b.input("rstn");
  for (int i = 0; i < 4; ++i) {
    d.inputs.push_back(b.input("in" + std::to_string(i)));
  }
  std::vector<NetId> pool = d.inputs;
  const auto pick = [&] {
    return pool[static_cast<std::size_t>(rng.below(pool.size()))];
  };

  const int num_scopes = 2 + static_cast<int>(rng.below(3));
  for (int s = 0; s < num_scopes; ++s) {
    const auto mclass = static_cast<netlist::ModuleClass>(1 + rng.below(4));
    const auto outer = b.scope("blk" + std::to_string(s), mclass);
    const auto inner = b.scope("sub" + std::to_string(s));
    const int gates = 10 + static_cast<int>(rng.below(30));
    for (int g = 0; g < gates; ++g) {
      NetId out;
      switch (rng.below(12)) {
        case 0:
          out = b.inv(pick());
          break;
        case 1:
          out = b.and2(pick(), pick());
          break;
        case 2:
          out = b.or2(pick(), pick());
          break;
        case 3:
          out = b.nand2(pick(), pick());
          break;
        case 4:
          out = b.nor2(pick(), pick());
          break;
        case 5:
          out = b.xor2(pick(), pick());
          break;
        case 6:
          out = b.xnor2(pick(), pick());
          break;
        case 7:
          out = b.mux2(pick(), pick(), pick());
          break;
        case 8:
          out = b.aoi21(pick(), pick(), pick());
          break;
        case 9:
          out = b.oai21(pick(), pick(), pick());
          break;
        case 10:
          out = b.dffr(pick(), d.clk, d.rstn).q;
          break;
        default:
          out = b.dffe(pick(), d.clk, d.rstn, pick()).q;
          break;
      }
      pool.push_back(out);
    }
  }
  if (with_memory) {
    const auto scope = b.scope("ram", netlist::ModuleClass::kMemory);
    netlist::MemoryInfo info;
    info.words = 16;
    info.width = 4;
    info.tech = netlist::MemTech::kDram;
    info.init = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 0};
    std::vector<NetId> raddr = {pick(), pick(), pick(), pick()};
    std::vector<NetId> waddr = {pick(), pick(), pick(), pick()};
    std::vector<NetId> wdata = {pick(), pick(), pick(), pick()};
    const auto mem = b.memory(std::move(info), d.clk, b.one(), pick(), raddr,
                              waddr, wdata, "u_ram");
    for (const NetId r : mem.rdata) pool.push_back(r);
  }
  for (int i = 0; i < 6; ++i) {
    const NetId out = pool[pool.size() - 1 - static_cast<std::size_t>(i)];
    d.outputs.push_back(out);
    b.output(out, "out" + std::to_string(i));
  }
  d.netlist = b.finish();
  return d;
}

}  // namespace ssresf::testing_support
