// Fault-injection framework tests: FaultPlan parsing, rule semantics
// (after/times/target/probability/windows), deterministic replay, the
// zero-impact guarantee of a disarmed registry, and partial-tree cleanup
// that an armed store.remove rule cannot block.
#include <gtest/gtest.h>

#include <filesystem>

#include "core/plant.h"
#include "fault/fault.h"
#include "hypervisor/hypervisor.h"
#include "storage/clone_ops.h"
#include "util/error.h"
#include "util/retry.h"
#include "warehouse/warehouse.h"
#include "workload/request_gen.h"

namespace vmp {
namespace {

using fault::FaultPlan;
using fault::FaultRegistry;
using fault::ScopedFaultPlan;
using util::ErrorCode;

// -- Parsing ------------------------------------------------------------------------

TEST(FaultPlanTest, EmptySpecYieldsEmptyPlan) {
  auto plan = FaultPlan::parse("");
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan.value().empty());
}

TEST(FaultPlanTest, ParsesFullRule) {
  auto plan = FaultPlan::parse(
      "store.write:target=clones,after=2,times=1,code=INTERNAL,p=0.5,"
      "from=1.5,until=9,msg=disk died", 7);
  ASSERT_TRUE(plan.ok()) << plan.error().to_string();
  ASSERT_EQ(plan.value().rules().size(), 1u);
  const fault::FaultRule& r = plan.value().rules()[0];
  EXPECT_EQ(r.point, "store.write");
  EXPECT_EQ(r.target, "clones");
  EXPECT_EQ(r.after, 2u);
  EXPECT_EQ(r.times, 1u);
  EXPECT_EQ(r.code, ErrorCode::kInternal);
  EXPECT_TRUE(r.code_explicit);
  EXPECT_DOUBLE_EQ(r.probability, 0.5);
  EXPECT_DOUBLE_EQ(r.from_time, 1.5);
  EXPECT_DOUBLE_EQ(r.until_time, 9.0);
  EXPECT_EQ(r.message, "disk died");
  EXPECT_EQ(plan.value().seed(), 7u);
}

TEST(FaultPlanTest, MultiRulePlansKeepOrder) {
  auto plan = FaultPlan::parse("bus.send;store.read:times=2;bus.timeout");
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan.value().rules().size(), 3u);
  EXPECT_EQ(plan.value().rules()[0].point, "bus.send");
  EXPECT_EQ(plan.value().rules()[1].point, "store.read");
  EXPECT_EQ(plan.value().rules()[2].point, "bus.timeout");
}

TEST(FaultPlanTest, RejectsUnknownPoint) {
  auto plan = FaultPlan::parse("store.wrte:times=1");
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.error().code(), ErrorCode::kParseError);
}

TEST(FaultPlanTest, RejectsUnknownKeyBadCodeAndBadProbability) {
  EXPECT_EQ(FaultPlan::parse("bus.send:bogus=1").error().code(),
            ErrorCode::kParseError);
  EXPECT_EQ(FaultPlan::parse("bus.send:code=NOT_A_CODE").error().code(),
            ErrorCode::kParseError);
  EXPECT_EQ(FaultPlan::parse("bus.send:code=OK").error().code(),
            ErrorCode::kParseError);
  EXPECT_EQ(FaultPlan::parse("bus.send:p=1.5").error().code(),
            ErrorCode::kParseError);
}

TEST(FaultPlanTest, DefaultCodesPerPoint) {
  EXPECT_EQ(fault::default_code("bus.timeout"), ErrorCode::kTimeout);
  EXPECT_EQ(fault::default_code("hypervisor.resume"), ErrorCode::kInternal);
  EXPECT_EQ(fault::default_code("plant.configure_action"),
            ErrorCode::kConfigActionFailed);
  EXPECT_EQ(fault::default_code("store.write"), ErrorCode::kUnavailable);
  auto plan = FaultPlan::parse("bus.timeout");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().rules()[0].code, ErrorCode::kTimeout);
  EXPECT_FALSE(plan.value().rules()[0].code_explicit);
}

TEST(FaultPlanTest, SpecStringRoundTrips) {
  const std::string spec =
      "store.write:target=clones,after=2,times=1,code=INTERNAL;"
      "bus.send:p=0.25;hypervisor.resume:times=3";
  auto plan = FaultPlan::parse(spec, 99);
  ASSERT_TRUE(plan.ok());
  auto reparsed = FaultPlan::parse(plan.value().to_spec_string(), 99);
  ASSERT_TRUE(reparsed.ok()) << reparsed.error().to_string();
  EXPECT_EQ(reparsed.value().to_spec_string(),
            plan.value().to_spec_string());
  ASSERT_EQ(reparsed.value().rules().size(), 3u);
  EXPECT_EQ(reparsed.value().rules()[0].after, 2u);
  EXPECT_EQ(reparsed.value().rules()[1].probability, 0.25);
}

// -- Registry semantics --------------------------------------------------------------

TEST(FaultRegistryTest, AfterAndTimesGateFiring) {
  ScopedFaultPlan scoped(
      FaultPlan::parse("store.read:after=2,times=2").value());
  FaultRegistry& reg = FaultRegistry::instance();
  // Consults 1,2 pass; 3,4 fire; 5+ pass (times exhausted).
  EXPECT_TRUE(fault::check(fault::points::kStoreRead, "f").ok());
  EXPECT_TRUE(fault::check(fault::points::kStoreRead, "f").ok());
  auto third = fault::check(fault::points::kStoreRead, "f");
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.error().code(), ErrorCode::kUnavailable);
  EXPECT_FALSE(fault::check(fault::points::kStoreRead, "f").ok());
  EXPECT_TRUE(fault::check(fault::points::kStoreRead, "f").ok());
  EXPECT_EQ(reg.fired(fault::points::kStoreRead), 2u);
  EXPECT_EQ(reg.checks(), 5u);
}

TEST(FaultRegistryTest, TargetFiltersOnDetailSubstring) {
  ScopedFaultPlan scoped(
      FaultPlan::parse("bus.send:target=plant1").value());
  EXPECT_TRUE(fault::check(fault::points::kBusSend, "plant0").ok());
  EXPECT_FALSE(fault::check(fault::points::kBusSend, "plant1").ok());
  EXPECT_TRUE(fault::check(fault::points::kBusSend, "plant2").ok());
  EXPECT_EQ(FaultRegistry::instance().fired_total(), 1u);
}

TEST(FaultRegistryTest, CustomMessageAndCodeSurface) {
  ScopedFaultPlan scoped(
      FaultPlan::parse("store.write:code=RESOURCE_EXHAUSTED,msg=disk full")
          .value());
  auto s = fault::check(fault::points::kStoreWrite, "x");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code(), ErrorCode::kResourceExhausted);
  EXPECT_EQ(s.error().message(), "disk full");
}

TEST(FaultRegistryTest, SimTimeWindowGatesRules) {
  ScopedFaultPlan scoped(
      FaultPlan::parse("bus.send:from=10,until=20").value());
  FaultRegistry& reg = FaultRegistry::instance();
  double now = 0.0;
  reg.set_clock([&now] { return now; });
  EXPECT_TRUE(fault::check(fault::points::kBusSend, "a").ok());   // before
  now = 10.0;
  EXPECT_FALSE(fault::check(fault::points::kBusSend, "a").ok());  // inside
  now = 19.9;
  EXPECT_FALSE(fault::check(fault::points::kBusSend, "a").ok());  // inside
  now = 20.0;
  EXPECT_TRUE(fault::check(fault::points::kBusSend, "a").ok());   // past
}

TEST(FaultRegistryTest, DeterministicReplaySameSeedSameSequence) {
  // Probabilistic plan driven through an identical consult schedule twice:
  // the firing sequence must replay byte-identically.
  const auto run = [](std::uint64_t seed) {
    ScopedFaultPlan scoped(
        FaultPlan::parse("store.write:p=0.5;bus.send:p=0.3,code=TIMEOUT", seed)
            .value());
    for (int i = 0; i < 64; ++i) {
      (void)fault::check(fault::points::kStoreWrite,
                         "file-" + std::to_string(i % 7));
      (void)fault::check(fault::points::kBusSend,
                         "plant" + std::to_string(i % 3));
    }
    return FaultRegistry::instance().sequence();
  };
  const std::vector<std::string> first = run(1234);
  const std::vector<std::string> second = run(1234);
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first.empty());
  // Entries are "point@detail" records in firing order.
  for (const std::string& entry : first) {
    EXPECT_NE(entry.find('@'), std::string::npos) << entry;
  }
}

TEST(FaultRegistryTest, ReportCountsPerPoint) {
  ScopedFaultPlan scoped(
      FaultPlan::parse("store.read:times=2;bus.send:times=1").value());
  (void)fault::check(fault::points::kStoreRead, "a");
  (void)fault::check(fault::points::kStoreRead, "b");
  (void)fault::check(fault::points::kStoreRead, "c");  // exhausted, passes
  (void)fault::check(fault::points::kBusSend, "d");
  util::FaultReport report = FaultRegistry::instance().report();
  EXPECT_EQ(report.count("store.read"), 2u);
  EXPECT_EQ(report.count("bus.send"), 1u);
  EXPECT_EQ(report.count("never.fired"), 0u);
  EXPECT_EQ(report.total(), 3u);
  EXPECT_NE(report.to_string().find("store.read=2"), std::string::npos);
}

TEST(FaultRegistryTest, ScopedPlanDisarmsOnDestruction) {
  {
    ScopedFaultPlan scoped(FaultPlan::parse("store.read").value());
    EXPECT_TRUE(FaultRegistry::instance().armed());
    EXPECT_FALSE(fault::check(fault::points::kStoreRead, "x").ok());
  }
  EXPECT_FALSE(FaultRegistry::instance().armed());
  EXPECT_TRUE(fault::check(fault::points::kStoreRead, "x").ok());
}

// -- Disabled registry: zero behavioral difference -----------------------------------

class FaultZeroImpactTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::temp_directory_path() /
            ("vmp-fault-zero-" + std::to_string(::getpid()) + "-" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(root_);
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  // One full plant-level creation; returns the classad rendered to XML so
  // runs can be compared structurally.
  std::string run_creation(const std::string& subdir) {
    storage::ArtifactStore store(root_ / subdir);
    warehouse::Warehouse warehouse(&store, "warehouse");
    EXPECT_TRUE(workload::publish_paper_goldens(&warehouse).ok());
    core::VmPlant plant(core::PlantConfig{}, &store, &warehouse);
    auto ad = plant.create(workload::workspace_request(32, 0, "d"));
    EXPECT_TRUE(ad.ok());
    if (!ad.ok()) return "<failed>";
    xml::Element out("ad");
    ad.value().to_xml(&out);
    return out.to_string();
  }

  std::filesystem::path root_;
};

TEST_F(FaultZeroImpactTest, DisarmedRegistryChangesNothing) {
  FaultRegistry::instance().clear();
  const std::string baseline = run_creation("baseline");
  const std::string disarmed = run_creation("disarmed");
  EXPECT_EQ(baseline, disarmed);
  // An armed-but-empty plan is also inert (checks are counted, nothing
  // fires, results identical).
  std::string empty_armed;
  {
    ScopedFaultPlan scoped(FaultPlan::parse("").value());
    empty_armed = run_creation("empty-armed");
    EXPECT_EQ(FaultRegistry::instance().fired_total(), 0u);
    EXPECT_GT(FaultRegistry::instance().checks(), 0u);
  }
  EXPECT_EQ(baseline, empty_armed);
}

// -- Cleanup of half-built trees cannot be blocked (DESIGN.md §7) ------------------

// Each case arms a write fault that aborts a clone or publish plus a
// store.remove rule: the abort still removes its partial tree, and the rule
// stays armed for the removal it models.
class StoreRemoveCleanupTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::temp_directory_path() /
            ("vmp-fault-cleanup-" + std::to_string(::getpid()) + "-" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(root_);
    store_ = std::make_unique<storage::ArtifactStore>(root_);
    spec_.os = "linux";
    spec_.memory_bytes = 32ull << 20;
    spec_.suspended = true;
    spec_.disk = {"disk0", 128ull << 20, 2, storage::DiskMode::kNonPersistent};
    ASSERT_TRUE(storage::materialize_image(store_.get(), golden_, spec_).ok());
  }
  void TearDown() override {
    store_.reset();
    std::filesystem::remove_all(root_);
  }

  std::uint64_t removes_fired() const {
    return FaultRegistry::instance().fired(fault::points::kStoreRemove);
  }

  std::filesystem::path root_;
  std::unique_ptr<storage::ArtifactStore> store_;
  storage::MachineSpec spec_;
  const storage::ImageLayout golden_{"golden"};
};

TEST_F(StoreRemoveCleanupTest, FailedCloneImageLeavesNoTree) {
  ScopedFaultPlan scoped(
      FaultPlan::parse("store.write:target=clones,times=1;store.remove:times=1")
          .value());
  auto failed = storage::clone_image(store_.get(), golden_, spec_, "clones/c1",
                                     storage::CloneStrategy::kLinked);
  ASSERT_FALSE(failed.ok());
  EXPECT_FALSE(store_->exists("clones/c1"));
  EXPECT_EQ(removes_fired(), 0u);

  // Collecting a clone is a modeled removal: it fails once, then succeeds.
  ASSERT_TRUE(storage::clone_image(store_.get(), golden_, spec_, "clones/c2",
                                   storage::CloneStrategy::kLinked)
                  .ok());
  auto blocked = storage::destroy_clone(store_.get(), "clones/c2");
  ASSERT_FALSE(blocked.ok());
  EXPECT_EQ(blocked.error().code(), ErrorCode::kUnavailable);
  EXPECT_TRUE(store_->exists("clones/c2"));
  EXPECT_EQ(removes_fired(), 1u);
  EXPECT_TRUE(storage::destroy_clone(store_.get(), "clones/c2").ok());
  EXPECT_FALSE(store_->exists("clones/c2"));
}

TEST_F(StoreRemoveCleanupTest, FailedHypervisorCloneLeavesNoTree) {
  hv::Hypervisor hypervisor("vmware-gsx", store_.get());
  hv::CloneSource source;
  source.layout = golden_;
  source.spec = spec_;
  ScopedFaultPlan scoped(
      FaultPlan::parse("store.write:target=guest.state,times=1;"
                       "store.remove:times=1")
          .value());
  ASSERT_FALSE(hypervisor.clone_vm(source, "clones/vm1", "vm1").ok());
  EXPECT_FALSE(store_->exists("clones/vm1"));
  EXPECT_EQ(hypervisor.instance_count(), 0u);
  EXPECT_EQ(removes_fired(), 0u);
}

TEST_F(StoreRemoveCleanupTest, FailedPublishLeavesNoTree) {
  warehouse::Warehouse warehouse(store_.get(), "warehouse");
  warehouse::GoldenImage image;
  image.id = "g1";
  image.backend = "vmware-gsx";
  image.spec = spec_;
  ScopedFaultPlan scoped(
      FaultPlan::parse("store.write:target=descriptor.xml,times=1;"
                       "store.remove:times=1")
          .value());
  ASSERT_FALSE(warehouse.publish(image).ok());
  EXPECT_FALSE(store_->exists("warehouse/g1"));
  EXPECT_FALSE(warehouse.claimed("g1"));
  EXPECT_EQ(removes_fired(), 0u);
}

// -- Retry policy arithmetic ---------------------------------------------------------

TEST(RetryPolicyTest, BackoffIsDeterministicExponentialWithCeiling) {
  util::RetryPolicy policy;
  policy.initial_backoff_s = 0.5;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_s = 3.0;
  EXPECT_DOUBLE_EQ(policy.backoff(0), 0.5);
  EXPECT_DOUBLE_EQ(policy.backoff(1), 1.0);
  EXPECT_DOUBLE_EQ(policy.backoff(2), 2.0);
  EXPECT_DOUBLE_EQ(policy.backoff(3), 3.0);  // clamped
  EXPECT_DOUBLE_EQ(policy.backoff(9), 3.0);
}

TEST(RetryPolicyTest, StateHonorsAttemptCap) {
  util::RetryPolicy policy;
  policy.max_attempts = 3;
  util::RetryState state(policy);
  EXPECT_TRUE(state.allow_retry());   // failure 1 -> retry 1
  EXPECT_TRUE(state.allow_retry());   // failure 2 -> retry 2
  EXPECT_FALSE(state.allow_retry());  // failure 3 == cap
  EXPECT_FALSE(state.timed_out());
  EXPECT_EQ(state.retries_granted(), 2);
  EXPECT_DOUBLE_EQ(state.elapsed_backoff_s(), 0.5 + 1.0);
}

TEST(RetryPolicyTest, StateHonorsSimTimeBudget) {
  util::RetryPolicy policy;
  policy.max_attempts = 100;
  policy.initial_backoff_s = 4.0;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_s = 64.0;
  policy.request_timeout_s = 10.0;
  util::RetryState state(policy);
  EXPECT_TRUE(state.allow_retry());   // 4s elapsed
  EXPECT_FALSE(state.allow_retry());  // +8s would exceed 10s budget
  EXPECT_TRUE(state.timed_out());
}

TEST(RetryPolicyTest, SingleAttemptPolicyNeverRetries) {
  util::RetryPolicy policy;
  policy.max_attempts = 1;
  util::RetryState state(policy);
  EXPECT_FALSE(state.allow_retry());
  EXPECT_FALSE(state.timed_out());
}

}  // namespace
}  // namespace vmp
