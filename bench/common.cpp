#include "common.h"

#include <sys/vfs.h>

#include <cstdio>

namespace vmp::bench {

util::Summary SeriesResult::creation_summary() const {
  util::Summary s;
  for (const auto& sample : samples) s.add(sample.timing.total_sec);
  return s;
}

util::Summary SeriesResult::cloning_summary() const {
  util::Summary s;
  for (const auto& sample : samples) s.add(sample.timing.clone_sec);
  return s;
}

std::vector<SeriesResult> run_paper_experiment(
    const PaperExperimentConfig& config) {
  std::vector<SeriesResult> results;
  for (const auto& [memory_mb, count] : config.series) {
    cluster::DeploymentConfig dc;
    dc.plant_count = config.plant_count;
    dc.seed = config.seed ^ memory_mb;
    cluster::SimulatedDeployment site(dc);
    if (!workload::publish_paper_goldens(&site.warehouse()).ok()) continue;

    SeriesResult series;
    series.memory_mb = memory_mb;
    series.samples = site.run_sequence(
        workload::workspace_requests(memory_mb, count, "acis.ufl.edu"));
    results.push_back(std::move(series));
  }
  return results;
}

void print_histogram(const std::string& label, const util::Histogram& h) {
  std::printf("# %s\n", label.c_str());
  std::printf("%-12s %8s %12s\n", "bin_center_s", "count", "normalized");
  for (std::size_t i = 0; i < h.bin_count(); ++i) {
    std::printf("%-12.0f %8zu %12.3f\n", h.bin_center(i), h.count_at(i),
                h.normalized(i));
  }
  std::printf("\n");
}

void print_header(const std::string& artefact, const std::string& paper_claim) {
  std::printf("==============================================================\n");
  std::printf("%s\n", artefact.c_str());
  std::printf("paper: %s\n", paper_claim.c_str());
  std::printf("==============================================================\n\n");
}

void print_summary_row(const std::string& name, const std::string& paper,
                       const std::string& measured) {
  std::printf("SUMMARY %-32s paper=[%s] measured=[%s]\n", name.c_str(),
              paper.c_str(), measured.c_str());
}

std::string filesystem_type(const std::filesystem::path& dir) {
  struct statfs fs{};
  if (::statfs(dir.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0x01021994ul: return "tmpfs";
    case 0xEF53ul: return "ext4";  // ext2/3/4 share one magic
    case 0x58465342ul: return "xfs";
    case 0x9123683Eul: return "btrfs";
    case 0x794C7630ul: return "overlayfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof hex, "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return hex;
    }
  }
}

}  // namespace vmp::bench
