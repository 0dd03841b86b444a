// Warehouse lifecycle tour: quota pressure, lease-protected eviction,
// zombies, and a crash + warm restart — all deterministic.
//
// The paper's VM Warehouse (§3.2) only ever grows; this walks the
// lifecycle subsystem that makes a finite warehouse safe to operate:
//
//   1. publishes under a disk budget until admission must evict-to-fit;
//   2. clones against a golden, evicts the base mid-clone, and shows the
//      lease turning deletion into a zombie (artefacts intact, index
//      entry gone) until the last clone is destroyed;
//   3. "crashes" (drops every in-memory structure), warm-starts a fresh
//      manager from the descriptors on disk, and shows the rebuilt ledger
//      matching the pre-crash one with the zombie's remains swept as an
//      orphan.
//
// Build & run:  ./build/examples/warehouse_lifecycle_tour
#include <cstdio>
#include <filesystem>
#include <memory>

#include "hypervisor/hypervisor.h"
#include "lifecycle/lifecycle.h"
#include "storage/artifact_store.h"
#include "warehouse/warehouse.h"

namespace {

vmp::warehouse::GoldenImage golden(const std::string& id,
                                   std::uint64_t mem_mb,
                                   std::uint64_t disk_mb,
                                   std::vector<std::string> performed = {}) {
  vmp::warehouse::GoldenImage image;
  image.id = id;
  image.backend = "vmware-gsx";
  image.spec.os = "linux-mandrake-8.1";
  image.spec.memory_bytes = mem_mb << 20;
  image.spec.suspended = true;
  image.spec.disk = vmp::storage::DiskSpec{
      "disk0", disk_mb << 20, 2, vmp::storage::DiskMode::kNonPersistent};
  image.guest.os = image.spec.os;
  image.performed = std::move(performed);
  return image;
}

void print_ledger(const vmp::lifecycle::LifecycleManager& lifecycle) {
  std::printf("  ledger (%s): %llu/%llu MB used\n",
              lifecycle.policy_name(),
              static_cast<unsigned long long>(lifecycle.used_bytes() >> 20),
              static_cast<unsigned long long>(lifecycle.budget_bytes() >> 20));
  for (const auto& stats : lifecycle.stats()) {
    std::printf("    %-12s %5llu MB  hits=%llu leases=%u%s%s\n",
                stats.id.c_str(),
                static_cast<unsigned long long>(stats.physical_bytes >> 20),
                static_cast<unsigned long long>(stats.hits), stats.leases,
                stats.pinned ? "  [pinned]" : "",
                stats.zombie ? "  [zombie]" : "");
  }
}

}  // namespace

int main() {
  using namespace vmp;

  const auto sandbox =
      std::filesystem::temp_directory_path() / "vmplants-lifecycle-tour";
  std::filesystem::remove_all(sandbox);
  storage::ArtifactStore store(sandbox);
  auto warehouse =
      std::make_unique<warehouse::Warehouse>(&store, "warehouse");

  // ~520 MB budget: enough for three of the four goldens below.
  lifecycle::LifecycleManager::Config config;
  config.disk_budget_bytes = 520ull << 20;
  config.policy = "gdsf";
  auto created = lifecycle::LifecycleManager::create(warehouse.get(), config);
  if (!created.ok()) return 1;
  auto lifecycle = std::move(created).value();

  // -- 1. Quota pressure ----------------------------------------------------
  std::printf("== publish under a %llu MB budget\n",
              static_cast<unsigned long long>(config.disk_budget_bytes >> 20));
  if (!lifecycle->publish(golden("base", 32, 96)).ok()) return 1;
  if (!lifecycle->publish(golden("matlab", 32, 96, {"install-matlab"})).ok())
    return 1;
  if (!lifecycle->publish(golden("bulk-data", 32, 160)).ok()) return 1;
  // Two production orders lease 'base' — GDSF now values it well above the
  // larger, never-used 'bulk-data'.
  for (int i = 0; i < 2; ++i) {
    if (!lifecycle->acquire("base").ok()) return 1;
    lifecycle->release("base");
  }
  print_ledger(*lifecycle);

  // The fourth image does not fit: admission must evict in policy order.
  // GDSF picks 'bulk-data' — biggest footprint, no hits, cheap per byte.
  if (!lifecycle->pin("matlab", true).ok()) return 1;
  std::printf("\n== publish 'workspace' (needs eviction; matlab pinned)\n");
  if (!lifecycle->publish(golden("workspace", 64, 128)).ok()) return 1;
  print_ledger(*lifecycle);

  // -- 2. Leases turn eviction into zombies ---------------------------------
  std::printf("\n== clone 'base', then evict it while the clone lives\n");
  hv::Hypervisor gsx("vmware-gsx", &store);
  gsx.set_lease_hook(lifecycle.get());
  if (!store.make_dir("clones").ok()) return 1;
  auto base = warehouse->lookup("base");
  if (!base.ok()) return 1;
  hv::CloneSource source;
  source.layout = base.value().layout;
  source.spec = base.value().spec;
  source.guest = base.value().guest;
  source.golden_id = "base";
  if (!gsx.clone_vm(source, "clones/vm1", "vm1").ok()) return 1;

  if (!lifecycle->evict("base").ok()) return 1;
  std::printf("  evicted leased 'base': in index=%s, artefacts on disk=%s, "
              "zombies=%zu\n",
              warehouse->contains("base") ? "yes" : "no",
              store.exists("warehouse/base/disk0-s001.vmdk") ? "yes" : "no",
              lifecycle->zombie_count());
  auto refused = gsx.clone_vm(source, "clones/vm2", "vm2");
  std::printf("  new clone against the zombie: %s\n",
              refused.ok() ? "allowed (BUG)"
                           : refused.error().message().c_str());

  // -- 3. Crash + warm restart ----------------------------------------------
  // Drop every in-memory structure (the "crash"); the clone's lease dies
  // with the process, so the zombie's remains become an orphan on disk.
  std::printf("\n== crash: discard index + ledger, warm-start from disk\n");
  // What a descriptor-driven rebuild must reproduce: the LIVE entries
  // (the zombie's descriptor is already gone — it can never resurrect).
  std::uint64_t live_before_crash = 0;
  for (const auto& stats : lifecycle->stats()) {
    if (!stats.zombie) live_before_crash += stats.physical_bytes;
  }
  gsx.set_lease_hook(nullptr);
  lifecycle.reset();
  warehouse = std::make_unique<warehouse::Warehouse>(&store, "warehouse");
  created = lifecycle::LifecycleManager::create(warehouse.get(), config);
  if (!created.ok()) return 1;
  lifecycle = std::move(created).value();
  if (!lifecycle->warm_start().ok()) return 1;
  print_ledger(*lifecycle);
  std::printf("  live bytes: pre-crash %llu MB, rebuilt %llu MB (%s)\n",
              static_cast<unsigned long long>(live_before_crash >> 20),
              static_cast<unsigned long long>(lifecycle->used_bytes() >> 20),
              live_before_crash == lifecycle->used_bytes() ? "identical"
                                                           : "DIFFER");
  std::printf("  zombie 'base' resurrected: %s\n",
              warehouse->contains("base") ? "yes (BUG)" : "no");

  auto swept = lifecycle->reap_orphans();
  if (!swept.ok()) return 1;
  std::printf("  orphan sweep: %zu directories, %llu MB freed\n",
              swept.value().directories,
              static_cast<unsigned long long>(swept.value().bytes_freed >> 20));

  std::filesystem::remove_all(sandbox);
  return 0;
}
