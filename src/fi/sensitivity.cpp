#include "fi/sensitivity.h"

#include <algorithm>
#include <cstdio>

#include "netlist/netlist.h"
#include "util/csv.h"

namespace ssresf::fi {

namespace {

std::array<double, netlist::kModuleClassCount> class_sensitivity(
    const std::array<ClassStats, netlist::kModuleClassCount>& per_class) {
  std::array<double, netlist::kModuleClassCount> out{};
  for (std::size_t c = 0; c < out.size(); ++c) {
    const ClassStats& cls = per_class[c];
    out[c] = cls.samples > 0 ? 100.0 * static_cast<double>(cls.errors) /
                                   static_cast<double>(cls.samples)
                             : 0.0;
  }
  return out;
}

std::vector<ClusterStats> sort_by_ser(std::vector<ClusterStats> sorted) {
  std::sort(sorted.begin(), sorted.end(),
            [](const ClusterStats& a, const ClusterStats& b) {
              return a.ser_percent > b.ser_percent;
            });
  return sorted;
}

}  // namespace

std::array<double, netlist::kModuleClassCount>
high_sensitivity_percent_by_class(const CampaignResult& result) {
  return class_sensitivity(result.per_class);
}

std::array<double, netlist::kModuleClassCount>
high_sensitivity_percent_by_class(const CampaignStats& stats) {
  return class_sensitivity(stats.per_class);
}

std::vector<ClusterStats> clusters_by_ser(const CampaignResult& result) {
  return sort_by_ser(result.clusters);
}

std::vector<ClusterStats> clusters_by_ser(const CampaignStats& stats) {
  return sort_by_ser(stats.clusters);
}

void write_sensitivity_csv(
    const std::string& path, std::span<const ClusterStats> clusters,
    const std::array<ClassStats, netlist::kModuleClassCount>& per_class,
    double chip_ser_percent) {
  util::write_csv_file(path, [&](std::FILE* f) {
    std::fputs(
        "section,id,num_cells,samples,errors,propagation_ratio,xsect_cm2,"
        "ser_percent\n",
        f);
    for (const ClusterStats& c : clusters) {
      std::fprintf(f, "cluster,%d,%llu,%llu,%llu,%.17g,%.17g,%.17g\n",
                   c.cluster, static_cast<unsigned long long>(c.num_cells),
                   static_cast<unsigned long long>(c.samples),
                   static_cast<unsigned long long>(c.errors),
                   c.propagation_ratio, c.xsect_cm2, c.ser_percent);
    }
    for (std::size_t k = 0; k < per_class.size(); ++k) {
      const ClassStats& cls = per_class[k];
      const double ratio =
          cls.samples > 0 ? static_cast<double>(cls.errors) /
                                static_cast<double>(cls.samples)
                          : 0.0;
      std::fprintf(
          f, "class,%s,,%llu,%llu,%.17g,%.17g,%.17g\n",
          std::string(netlist::module_class_name(
                          static_cast<netlist::ModuleClass>(k)))
              .c_str(),
          static_cast<unsigned long long>(cls.samples),
          static_cast<unsigned long long>(cls.errors), ratio, cls.xsect_cm2,
          cls.ser_percent);
    }
    std::fprintf(f, "chip,,,,,,,%.17g\n", chip_ser_percent);
  });
}

void write_sensitivity_csv(const std::string& path,
                           const CampaignResult& result) {
  write_sensitivity_csv(path, result.clusters, result.per_class,
                        result.chip_ser_percent);
}

void write_sensitivity_csv(const std::string& path,
                           const CampaignStats& stats) {
  write_sensitivity_csv(path, stats.clusters, stats.per_class,
                        stats.chip_ser_percent);
}

}  // namespace ssresf::fi
