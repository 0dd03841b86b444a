// Tests for the paper's §6 future-work features implemented as extensions:
// the Xen paravirtual backend, speculative pre-creation, and cross-plant VM
// migration.  The VMBroker indirect-bidding path is tested with the
// federation (federation_test, BrokerTest).
#include <gtest/gtest.h>

#include <filesystem>

#include "cluster/timing_model.h"
#include "core/migration.h"
#include "core/plant.h"
#include "hypervisor/gsx.h"
#include "hypervisor/xen.h"
#include "util/stats.h"
#include "workload/dag_library.h"
#include "workload/request_gen.h"

namespace vmp {
namespace {

constexpr std::uint64_t kMb = 1ull << 20;

class ExtensionsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::temp_directory_path() /
            ("vmp-ext-test-" + std::to_string(::getpid()) + "-" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(root_);
    store_ = std::make_unique<storage::ArtifactStore>(root_);
    warehouse_ = std::make_unique<warehouse::Warehouse>(store_.get(), "warehouse");
    ASSERT_TRUE(workload::publish_paper_goldens(warehouse_.get()).ok());
  }
  void TearDown() override {
    warehouse_.reset();
    store_.reset();
    std::filesystem::remove_all(root_);
  }

  std::unique_ptr<core::VmPlant> make_plant(const std::string& name,
                                            const std::string& backend =
                                                "vmware-gsx") {
    core::PlantConfig pc;
    pc.name = name;
    pc.backend = backend;
    return std::make_unique<core::VmPlant>(pc, store_.get(), warehouse_.get());
  }

  std::filesystem::path root_;
  std::unique_ptr<storage::ArtifactStore> store_;
  std::unique_ptr<warehouse::Warehouse> warehouse_;
};

// -- Xen backend ----------------------------------------------------------------

/// Publish a Xen golden (powered-off COW image, like UML's).
void publish_xen_golden(warehouse::Warehouse* wh, std::uint32_t mem_mb) {
  storage::MachineSpec spec;
  spec.os = "linux-mandrake-8.1";
  spec.memory_bytes = mem_mb * kMb;
  spec.suspended = false;
  spec.disk = {"rootfs", 2048ull * kMb, 1, storage::DiskMode::kNonPersistent};
  hv::GuestState guest;
  guest.os = spec.os;
  guest.packages = {"vnc-server", "web-file-manager"};
  ASSERT_TRUE(wh->publish_new("golden-xen-" + std::to_string(mem_mb) + "mb",
                              "xen", spec, guest,
                              workload::invigo_golden_history())
                  .ok());
}

TEST_F(ExtensionsTest, XenBackendBootsClones) {
  publish_xen_golden(warehouse_.get(), 64);
  auto plant = make_plant("xenplant", "xen");
  auto ad = plant->create(workload::workspace_request(64, 0, "d", "xen"));
  ASSERT_TRUE(ad.ok()) << ad.error().to_string();
  EXPECT_EQ(ad.value().get_string(core::attrs::kBackend).value(), "xen");
  // Boot path: no memory checkpoint copied.
  EXPECT_LT(ad.value().get_integer(core::attrs::kCloneBytesCopied).value(),
            static_cast<std::int64_t>(1 * kMb));
}

TEST_F(ExtensionsTest, XenRefusesSuspendedGolden) {
  hv::XenHypervisor xen(store_.get());
  hv::CloneSource source;
  source.layout = storage::ImageLayout{"warehouse/golden-32mb"};
  auto golden = warehouse_->lookup("golden-32mb");
  ASSERT_TRUE(golden.ok());
  source.spec = golden.value().spec;  // suspended GSX checkpoint
  auto id = xen.clone_vm(source, "clones/x1", "x1");
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.error().code(), util::ErrorCode::kFailedPrecondition);
}

TEST_F(ExtensionsTest, XenTimingFasterThanUmlSlowerThanResume) {
  cluster::TimingModel model(cluster::TimingConfig{}, 3);
  cluster::CreationObservation xen, uml, gsx;
  xen.backend = "xen";
  uml.backend = "uml";
  gsx.backend = "vmware-gsx";
  for (auto* obs : {&xen, &uml, &gsx}) {
    obs->memory_bytes = 32 * kMb;
    obs->clone_links = 1;
  }
  gsx.clone_bytes_copied = 32 * kMb;
  util::Summary sx, su, sg;
  for (int i = 0; i < 50; ++i) {
    sx.add(model.time_creation(xen).clone_sec);
    su.add(model.time_creation(uml).clone_sec);
    sg.add(model.time_creation(gsx).clone_sec);
  }
  EXPECT_LT(sx.mean(), su.mean());   // paravirt boot beats full UML boot
  EXPECT_GT(sx.mean(), sg.mean());   // but resume-from-checkpoint wins
}

// -- Speculative pre-creation -----------------------------------------------------

TEST_F(ExtensionsTest, PreCreateParksInstances) {
  auto plant = make_plant("plant0");
  ASSERT_TRUE(plant->pre_create("golden-64mb", 3).ok());
  EXPECT_EQ(plant->speculative_pool_size("golden-64mb"), 3u);
  EXPECT_EQ(plant->speculative_pool_size(), 3u);
  // Parked instances are resident (they are resumed and waiting).
  EXPECT_EQ(plant->resident_memory_bytes(), 3 * 64 * kMb);
}

TEST_F(ExtensionsTest, CreateAdoptsParkedInstance) {
  auto plant = make_plant("plant0");
  ASSERT_TRUE(plant->pre_create("golden-64mb", 2).ok());

  auto ad = plant->create(workload::workspace_request(64, 0, "d"));
  ASSERT_TRUE(ad.ok()) << ad.error().to_string();
  EXPECT_TRUE(ad.value().get_boolean(core::attrs::kSpeculativeHit).value());
  EXPECT_EQ(ad.value().get_integer(core::attrs::kCloneBytesCopied).value(), 0);
  EXPECT_EQ(plant->speculative_pool_size("golden-64mb"), 1u);

  // The adopted VM is fully configured despite skipping the clone.
  const std::string vm_id = ad.value().get_string(core::attrs::kVmId).value();
  const hv::VmInstance* vm = plant->hypervisor().find(vm_id);
  ASSERT_NE(vm, nullptr);
  EXPECT_TRUE(vm->guest.users.count("user0"));
  EXPECT_TRUE(vm->guest.running_services.count("vnc-server"));
}

TEST_F(ExtensionsTest, PoolExhaustionFallsBackToCloning) {
  auto plant = make_plant("plant0");
  ASSERT_TRUE(plant->pre_create("golden-64mb", 1).ok());
  auto first = plant->create(workload::workspace_request(64, 0, "d"));
  auto second = plant->create(workload::workspace_request(64, 1, "d"));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(first.value().get_boolean(core::attrs::kSpeculativeHit).value());
  EXPECT_FALSE(second.value().get_boolean(core::attrs::kSpeculativeHit).value());
  EXPECT_EQ(plant->speculative_pool_size(), 0u);
}

TEST_F(ExtensionsTest, PoolIgnoredForDifferentGolden) {
  auto plant = make_plant("plant0");
  ASSERT_TRUE(plant->pre_create("golden-32mb", 1).ok());
  auto ad = plant->create(workload::workspace_request(64, 0, "d"));
  ASSERT_TRUE(ad.ok());
  EXPECT_FALSE(ad.value().get_boolean(core::attrs::kSpeculativeHit).value());
  EXPECT_EQ(plant->speculative_pool_size("golden-32mb"), 1u);
}

TEST_F(ExtensionsTest, DiscardSpeculativeFreesResources) {
  auto plant = make_plant("plant0");
  ASSERT_TRUE(plant->pre_create("golden-256mb", 2).ok());
  EXPECT_EQ(plant->resident_memory_bytes(), 2 * 256 * kMb);
  plant->discard_speculative();
  EXPECT_EQ(plant->speculative_pool_size(), 0u);
  EXPECT_EQ(plant->resident_memory_bytes(), 0u);
}

TEST_F(ExtensionsTest, PreCreateValidation) {
  auto plant = make_plant("plant0");
  EXPECT_FALSE(plant->pre_create("no-such-golden", 1).ok());
  ASSERT_TRUE(workload::publish_uml_golden(warehouse_.get(), 32).ok());
  // Backend mismatch: a GSX plant cannot pre-create UML images.
  EXPECT_FALSE(plant->pre_create("golden-uml-32mb", 1).ok());
}

// -- Migration ----------------------------------------------------------------------

TEST_F(ExtensionsTest, MigrationMovesRunningVm) {
  auto source = make_plant("plantA");
  auto target = make_plant("plantB");

  auto ad = source->create(workload::workspace_request(64, 0, "ufl.edu"));
  ASSERT_TRUE(ad.ok());
  const std::string vm_id = ad.value().get_string(core::attrs::kVmId).value();
  const std::string original_ip =
      ad.value().get_string(core::attrs::kIp).value();

  auto migrated = core::migrate_vm(source.get(), target.get(), vm_id);
  ASSERT_TRUE(migrated.ok()) << migrated.error().to_string();

  // Gone from the source; alive at the target with its guest state intact.
  EXPECT_EQ(source->active_vms(), 0u);
  EXPECT_EQ(source->allocator().free_networks(), 4u);
  EXPECT_EQ(target->active_vms(), 1u);
  const std::string new_id =
      migrated.value().get_string(core::attrs::kVmId).value();
  EXPECT_NE(new_id, vm_id);
  EXPECT_EQ(migrated.value().get_string(core::attrs::kMigratedFrom).value(),
            vm_id);

  const hv::VmInstance* vm = target->hypervisor().find(new_id);
  ASSERT_NE(vm, nullptr);
  EXPECT_EQ(vm->power, hv::PowerState::kRunning);
  EXPECT_EQ(vm->guest.ip, original_ip);
  EXPECT_TRUE(vm->guest.users.count("user0"));
  // The domain holds a host-only network at the target now.
  EXPECT_EQ(target->allocator().free_networks(), 3u);

  // The migrated VM is queryable and collectable at the target.
  EXPECT_TRUE(target->query(new_id).ok());
  EXPECT_TRUE(target->collect(new_id).ok());
}

TEST_F(ExtensionsTest, MigrationFailureResumesAtSource) {
  auto source = make_plant("plantA");
  // Target with zero capacity: migrate_in must fail.
  core::PlantConfig pc;
  pc.name = "plantB";
  pc.max_vms = 0;
  core::VmPlant target(pc, store_.get(), warehouse_.get());

  auto ad = source->create(workload::workspace_request(64, 0, "d"));
  ASSERT_TRUE(ad.ok());
  const std::string vm_id = ad.value().get_string(core::attrs::kVmId).value();

  auto migrated = core::migrate_vm(source.get(), &target, vm_id);
  ASSERT_FALSE(migrated.ok());
  // Source still owns the VM, resumed.
  EXPECT_EQ(source->active_vms(), 1u);
  EXPECT_EQ(source->hypervisor().find(vm_id)->power,
            hv::PowerState::kRunning);
}

TEST_F(ExtensionsTest, MigrationRejectsBootOnlyBackends) {
  ASSERT_TRUE(workload::publish_uml_golden(warehouse_.get(), 32).ok());
  auto source = make_plant("umlA", "uml");
  auto target = make_plant("umlB", "uml");
  auto ad = source->create(workload::workspace_request(32, 0, "d", "uml"));
  ASSERT_TRUE(ad.ok());
  const std::string vm_id = ad.value().get_string(core::attrs::kVmId).value();
  auto migrated = core::migrate_vm(source.get(), target.get(), vm_id);
  ASSERT_FALSE(migrated.ok());
  EXPECT_EQ(migrated.error().code(), util::ErrorCode::kFailedPrecondition);
}

TEST_F(ExtensionsTest, MigrateUnknownVmFails) {
  auto source = make_plant("plantA");
  auto target = make_plant("plantB");
  EXPECT_FALSE(core::migrate_vm(source.get(), target.get(), "ghost").ok());
  EXPECT_FALSE(core::migrate_vm(source.get(), source.get(), "x").ok());
}

// -- copy_tree / import_vm (migration substrate) -------------------------------------

TEST_F(ExtensionsTest, CopyTreePreservesFilesAndLinks) {
  ASSERT_TRUE(store_->write_file("src/a.txt", "alpha").ok());
  ASSERT_TRUE(store_->write_file("src/sub/b.txt", "beta").ok());
  ASSERT_TRUE(store_->link_file("src/a.txt", "src/link-to-a").ok());
  auto acct = store_->copy_tree("src", "dst");
  ASSERT_TRUE(acct.ok()) << acct.error().to_string();
  EXPECT_EQ(store_->read_file("dst/a.txt").value(), "alpha");
  EXPECT_EQ(store_->read_file("dst/sub/b.txt").value(), "beta");
  EXPECT_TRUE(store_->is_symlink("dst/link-to-a"));
  EXPECT_EQ(store_->read_file("dst/link-to-a").value(), "alpha");
  EXPECT_GE(acct.value().links_created, 1u);
  // Target existing or source missing fail.
  EXPECT_FALSE(store_->copy_tree("src", "dst").ok());
  EXPECT_FALSE(store_->copy_tree("missing", "other").ok());
}

TEST_F(ExtensionsTest, ImportVmValidation) {
  hv::GsxHypervisor gsx(store_.get());
  auto golden = warehouse_->lookup("golden-32mb");
  ASSERT_TRUE(golden.ok());
  // Copy the golden dir to act as an imported clone directory.
  ASSERT_TRUE(store_->copy_tree(golden.value().layout.dir, "import/vm").ok());

  auto imported = gsx.import_vm("import/vm", golden.value().spec,
                                golden.value().guest, "m1", true);
  ASSERT_TRUE(imported.ok()) << imported.error().to_string();
  EXPECT_EQ(gsx.find("m1")->power, hv::PowerState::kSuspended);
  ASSERT_TRUE(gsx.start_vm("m1").ok());

  // Duplicate id and missing artefacts fail.
  EXPECT_FALSE(gsx.import_vm("import/vm", golden.value().spec,
                             golden.value().guest, "m1", true)
                   .ok());
  EXPECT_FALSE(gsx.import_vm("does/not/exist", golden.value().spec,
                             golden.value().guest, "m2", true)
                   .ok());
}

}  // namespace
}  // namespace vmp
