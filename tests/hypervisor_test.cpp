// Unit tests for the guest model/agent, the hypervisor backends and the
// conformance suite every backend passes.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <thread>

#include "fault/fault.h"
#include "hypervisor/guest.h"
#include "hypervisor/hypervisor.h"

namespace vmp::hv {
namespace {

// -- GuestState serialization ----------------------------------------------------

TEST(GuestStateTest, RenderParseRoundTrip) {
  GuestState s;
  s.os = "linux-mandrake-8.1";
  s.hostname = "ws1";
  s.ip = "10.0.0.5";
  s.mac = "02:56:4d:00:00:05";
  s.packages = {"vnc-server", "web-file-manager"};
  s.users = {{"arijit", "/home/arijit"}};
  s.mounts = {{"/home/arijit", "nfs://punch/home/arijit"}};
  s.running_services = {"vnc-server"};
  s.files = {{"/etc/motd", "hello\nworld\twith\ttabs"}};

  auto parsed = parse_guest_state(render_guest_state(s));
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_TRUE(parsed.value() == s);
}

TEST(GuestStateTest, EmptyStateRoundTrips) {
  GuestState s;
  auto parsed = parse_guest_state(render_guest_state(s));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value() == s);
}

TEST(GuestStateTest, UnknownTagRejected) {
  EXPECT_FALSE(parse_guest_state("bogus\tx\n").ok());
}

// -- GuestAgent -------------------------------------------------------------------

class AgentTest : public ::testing::Test {
 protected:
  GuestOutput run(const std::string& script) {
    return agent_.execute(&state_, script);
  }
  GuestState state_;
  GuestAgent agent_;
};

TEST_F(AgentTest, InstallAndRequire) {
  auto out = run("install vnc-server\nrequire vnc-server\n");
  EXPECT_TRUE(out.success);
  EXPECT_EQ(out.commands_run, 2u);
  EXPECT_TRUE(state_.packages.count("vnc-server"));
}

TEST_F(AgentTest, RequireMissingFails) {
  auto out = run("require emacs");
  EXPECT_FALSE(out.success);
  EXPECT_NE(out.failure_message.find("emacs"), std::string::npos);
}

TEST_F(AgentTest, InstallOsSetsIdentity) {
  auto out = run("installos redhat-8.0");
  EXPECT_TRUE(out.success);
  EXPECT_EQ(state_.os, "redhat-8.0");
}

TEST_F(AgentTest, UserLifecycle) {
  EXPECT_TRUE(run("adduser alice").success);
  EXPECT_EQ(state_.users.at("alice"), "/home/alice");
  EXPECT_TRUE(run("adduser bob /export/bob").success);
  EXPECT_EQ(state_.users.at("bob"), "/export/bob");
  EXPECT_FALSE(run("adduser alice").success);  // duplicate
  EXPECT_TRUE(run("deluser alice").success);
  EXPECT_FALSE(run("deluser alice").success);
}

TEST_F(AgentTest, NetworkAndHostname) {
  EXPECT_TRUE(run("ifconfig 10.1.2.3 02:56:4d:00:00:01").success);
  EXPECT_EQ(state_.ip, "10.1.2.3");
  EXPECT_EQ(state_.mac, "02:56:4d:00:00:01");
  EXPECT_TRUE(run("hostname ws7").success);
  EXPECT_EQ(state_.hostname, "ws7");
}

TEST_F(AgentTest, MountLifecycle) {
  EXPECT_TRUE(run("mount nfs://server/home /home/u").success);
  EXPECT_EQ(state_.mounts.at("/home/u"), "nfs://server/home");
  EXPECT_FALSE(run("mount other /home/u").success);  // busy
  EXPECT_TRUE(run("umount /home/u").success);
  EXPECT_FALSE(run("umount /home/u").success);
}

TEST_F(AgentTest, ServicesRequireInstalledPackage) {
  EXPECT_FALSE(run("start vnc-server").success);
  EXPECT_TRUE(run("install vnc-server\nstart vnc-server").success);
  EXPECT_TRUE(state_.running_services.count("vnc-server"));
  EXPECT_TRUE(run("stop vnc-server").success);
  EXPECT_FALSE(state_.running_services.count("vnc-server"));
}

TEST_F(AgentTest, WriteFileAndOutputs) {
  auto out = run("writefile /etc/conf key=value with spaces\n"
                 "output ip 10.0.0.9\noutput note all good");
  EXPECT_TRUE(out.success);
  EXPECT_EQ(state_.files.at("/etc/conf"), "key=value with spaces");
  EXPECT_EQ(out.outputs.at("ip"), "10.0.0.9");
  EXPECT_EQ(out.outputs.at("note"), "all good");
}

TEST_F(AgentTest, CommentsAndBlankLinesSkipped) {
  auto out = run("# comment\n\n   \ninstall x\n");
  EXPECT_TRUE(out.success);
  EXPECT_EQ(out.commands_run, 1u);
}

TEST_F(AgentTest, FailStopsExecution) {
  auto out = run("install a\nrequire missing-pkg\ninstall b");
  EXPECT_FALSE(out.success);
  EXPECT_EQ(out.failure_message, "require: package not installed: missing-pkg");
  EXPECT_TRUE(state_.packages.count("a"));
  EXPECT_FALSE(state_.packages.count("b"));  // stopped before b
}

TEST_F(AgentTest, SshKeygenRequiresUserAndIsDeterministic) {
  EXPECT_FALSE(run("sshkeygen ghost").success);
  ASSERT_TRUE(run("hostname ws1\nifconfig 10.0.0.2\nadduser alice").success);
  auto out1 = run("sshkeygen alice");
  ASSERT_TRUE(out1.success);
  const std::string key1 = out1.outputs.at("SSHKey_alice");
  EXPECT_FALSE(key1.empty());
  EXPECT_TRUE(state_.files.count("/home/alice/.ssh/id_rsa.pub"));
  // Same identity -> same fingerprint; different host -> different key.
  auto out2 = run("sshkeygen alice");
  EXPECT_EQ(out2.outputs.at("SSHKey_alice"), key1);
  ASSERT_TRUE(run("hostname ws2").success);
  auto out3 = run("sshkeygen alice");
  EXPECT_NE(out3.outputs.at("SSHKey_alice"), key1);
}

TEST_F(AgentTest, GridCertWritesCredentialAndOutput) {
  EXPECT_FALSE(run("gridcert ghost /O=Grid/CN=x").success);
  ASSERT_TRUE(run("adduser bob").success);
  auto out = run("gridcert bob /O=Grid/OU=ACIS/CN=Bob Smith");
  ASSERT_TRUE(out.success);
  EXPECT_EQ(out.outputs.at("GSISubject_bob"), "/O=Grid/OU=ACIS/CN=Bob Smith");
  EXPECT_EQ(state_.files.at("/etc/grid-security/bob.pem"),
            "SUBJECT=/O=Grid/OU=ACIS/CN=Bob Smith");
  EXPECT_FALSE(run("gridcert bob").success);  // missing subject
}

TEST_F(AgentTest, UnknownCommandFails) {
  EXPECT_FALSE(run("explode now").success);
}

TEST_F(AgentTest, MissingArgumentsFail) {
  EXPECT_FALSE(run("install").success);
  EXPECT_FALSE(run("adduser").success);
  EXPECT_FALSE(run("mount just-one").success);
  EXPECT_FALSE(run("output keyonly").success);
  EXPECT_FALSE(run("flaky token notanumber").success);
}

// -- Hypervisor fixtures --------------------------------------------------------------

class HypervisorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Parameterized test names carry a '/', which must not nest the root.
    std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::replace(name.begin(), name.end(), '/', '-');
    root_ = std::filesystem::temp_directory_path() /
            ("vmp-hv-test-" + std::to_string(::getpid()) + "-" + name);
    std::filesystem::remove_all(root_);
    store_ = std::make_unique<storage::ArtifactStore>(root_);
  }
  void TearDown() override {
    store_.reset();
    std::filesystem::remove_all(root_);
  }

  CloneSource make_golden(bool suspended, std::uint64_t mem_mb = 64,
                          const std::string& dir = "warehouse/golden") {
    storage::MachineSpec spec;
    spec.os = "linux-mandrake-8.1";
    spec.memory_bytes = mem_mb << 20;
    spec.suspended = suspended;
    spec.disk = storage::DiskSpec{"disk0", 256ull << 20, suspended ? 4u : 1u,
                                  storage::DiskMode::kNonPersistent};
    storage::ImageLayout layout{dir};
    EXPECT_TRUE(storage::materialize_image(store_.get(), layout, spec).ok());

    CloneSource source;
    source.layout = layout;
    source.spec = spec;
    source.guest.os = spec.os;
    source.guest.packages = {"vnc-server"};
    return source;
  }

  std::filesystem::path root_;
  std::unique_ptr<storage::ArtifactStore> store_;
};

/// Runs `script` in the guest the way the production line does: connect
/// it as an ISO, then let the guest daemon execute it.
util::Result<GuestOutput> run_script(Hypervisor& hv, const std::string& vm_id,
                                     const std::string& script) {
  auto iso = hv.connect_script_iso(vm_id, script);
  if (!iso.ok()) return iso.propagate<GuestOutput>();
  return hv.execute_connected_script(vm_id);
}

/// Lease hook that only counts (thread-safe for the destroy race).
class CountingLeaseHook : public GoldenLeaseHook {
 public:
  util::Status acquire(const std::string&) override {
    acquires.fetch_add(1);
    return util::Status();
  }
  void release(const std::string&) noexcept override { releases.fetch_add(1); }
  std::atomic<int> acquires{0};
  std::atomic<int> releases{0};
};

// -- GSX -------------------------------------------------------------------------------

TEST_F(HypervisorTest, GsxCloneResumeLifecycle) {
  Hypervisor gsx("vmware-gsx", store_.get());
  EXPECT_EQ(gsx.type(), "vmware-gsx");
  EXPECT_TRUE(gsx.resumes_from_checkpoint());

  const CloneSource golden = make_golden(/*suspended=*/true);
  auto id = gsx.clone_vm(golden, "clones/vm1", "vm1");
  ASSERT_TRUE(id.ok()) << id.error().to_string();

  const VmInstance* vm = gsx.find("vm1");
  ASSERT_NE(vm, nullptr);
  EXPECT_EQ(vm->power, PowerState::kStopped);
  EXPECT_EQ(vm->guest.os, "linux-mandrake-8.1");
  EXPECT_TRUE(vm->guest.packages.count("vnc-server"));

  ASSERT_TRUE(gsx.start_vm("vm1").ok());
  EXPECT_EQ(gsx.find("vm1")->power, PowerState::kRunning);
  // Resume keeps services/state (no boot) — the golden's packages persist.
  EXPECT_TRUE(gsx.find("vm1")->guest.packages.count("vnc-server"));

  ASSERT_TRUE(gsx.power_off("vm1").ok());
  EXPECT_EQ(gsx.find("vm1")->power, PowerState::kStopped);
  ASSERT_TRUE(gsx.destroy_vm("vm1").ok());
  EXPECT_FALSE(store_->exists("clones/vm1"));
}

TEST_F(HypervisorTest, UnknownBackendFallsBackToGsx) {
  Hypervisor hv("bochs", store_.get());
  EXPECT_EQ(hv.type(), "vmware-gsx");
  EXPECT_TRUE(hv.resumes_from_checkpoint());
}

TEST_F(HypervisorTest, GsxRefusesBootOnlyGolden) {
  Hypervisor gsx("vmware-gsx", store_.get());
  const CloneSource golden = make_golden(/*suspended=*/false);
  auto id = gsx.clone_vm(golden, "clones/vm1", "vm1");
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.error().code(), util::ErrorCode::kFailedPrecondition);
}

TEST_F(HypervisorTest, GsxSuspendWritesCheckpoint) {
  Hypervisor gsx("vmware-gsx", store_.get());
  auto id = gsx.clone_vm(make_golden(true), "clones/vm1", "vm1");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(gsx.start_vm("vm1").ok());
  ASSERT_TRUE(run_script(gsx, "vm1", "adduser eve").ok());
  ASSERT_TRUE(gsx.suspend_vm("vm1").ok());
  EXPECT_EQ(gsx.find("vm1")->power, PowerState::kSuspended);
  // guest.state on disk reflects the suspended guest.
  auto text = store_->read_file("clones/vm1/guest.state");
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text.value().find("eve"), std::string::npos);
}

TEST_F(HypervisorTest, DuplicateVmIdRejected) {
  Hypervisor gsx("vmware-gsx", store_.get());
  ASSERT_TRUE(gsx.clone_vm(make_golden(true), "clones/a", "vm1").ok());
  auto dup = gsx.clone_vm(make_golden(true), "clones/b", "vm1");
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.error().code(), util::ErrorCode::kAlreadyExists);
}

TEST_F(HypervisorTest, OperationsOnMissingVmFail) {
  Hypervisor gsx("vmware-gsx", store_.get());
  EXPECT_FALSE(gsx.start_vm("ghost").ok());
  EXPECT_FALSE(gsx.power_off("ghost").ok());
  EXPECT_FALSE(gsx.destroy_vm("ghost").ok());
  EXPECT_FALSE(gsx.connect_script_iso("ghost", "install x").ok());
  EXPECT_FALSE(gsx.execute_connected_script("ghost").ok());
}

TEST_F(HypervisorTest, DoubleStartRejected) {
  Hypervisor gsx("vmware-gsx", store_.get());
  ASSERT_TRUE(gsx.clone_vm(make_golden(true), "clones/a", "vm1").ok());
  ASSERT_TRUE(gsx.start_vm("vm1").ok());
  EXPECT_FALSE(gsx.start_vm("vm1").ok());
}

TEST_F(HypervisorTest, InjectedStartFailureFiresOnce) {
  Hypervisor gsx("vmware-gsx", store_.get());
  ASSERT_TRUE(gsx.clone_vm(make_golden(true), "clones/a", "vm1").ok());
  fault::ScopedFaultPlan plan(
      fault::FaultPlan::parse("hypervisor.resume:target=vm1,times=1").value());
  EXPECT_FALSE(gsx.start_vm("vm1").ok());
  EXPECT_TRUE(gsx.start_vm("vm1").ok());  // recovers on retry
}

TEST_F(HypervisorTest, GuestExecutionRequiresRunning) {
  Hypervisor gsx("vmware-gsx", store_.get());
  ASSERT_TRUE(gsx.clone_vm(make_golden(true), "clones/a", "vm1").ok());
  auto out = run_script(gsx, "vm1", "install x");
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.error().code(), util::ErrorCode::kFailedPrecondition);
}

TEST_F(HypervisorTest, IsoScriptPath) {
  Hypervisor gsx("vmware-gsx", store_.get());
  ASSERT_TRUE(gsx.clone_vm(make_golden(true), "clones/a", "vm1").ok());
  ASSERT_TRUE(gsx.start_vm("vm1").ok());

  // No ISO connected yet.
  EXPECT_FALSE(gsx.execute_connected_script("vm1").ok());

  auto iso = gsx.connect_script_iso("vm1", "install emacs\noutput ed emacs");
  ASSERT_TRUE(iso.ok());
  EXPECT_TRUE(store_->exists(iso.value()));

  auto out = gsx.execute_connected_script("vm1");
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out.value().success);
  EXPECT_EQ(out.value().outputs.at("ed"), "emacs");
  EXPECT_TRUE(gsx.find("vm1")->guest.packages.count("emacs"));

  // Second ISO: the daemon executes the most recently connected CD.
  ASSERT_TRUE(gsx.connect_script_iso("vm1", "install vim").ok());
  ASSERT_TRUE(gsx.execute_connected_script("vm1").ok());
  EXPECT_TRUE(gsx.find("vm1")->guest.packages.count("vim"));
  EXPECT_EQ(gsx.find("vm1")->connected_isos.size(), 2u);
}

TEST_F(HypervisorTest, ResidentMemoryAccounting) {
  Hypervisor gsx("vmware-gsx", store_.get());
  ASSERT_TRUE(gsx.clone_vm(make_golden(true, 64), "clones/a", "vm1").ok());
  ASSERT_TRUE(gsx.clone_vm(make_golden(true, 32, "warehouse/golden32"),
                           "clones/b", "vm2")
                  .ok());
  EXPECT_EQ(gsx.resident_memory_bytes(), 0u);  // both stopped
  ASSERT_TRUE(gsx.start_vm("vm1").ok());
  EXPECT_EQ(gsx.resident_memory_bytes(), 64ull << 20);
  ASSERT_TRUE(gsx.start_vm("vm2").ok());
  EXPECT_EQ(gsx.resident_memory_bytes(), 96ull << 20);
  ASSERT_TRUE(gsx.destroy_vm("vm1").ok());
  EXPECT_EQ(gsx.resident_memory_bytes(), 32ull << 20);
  EXPECT_EQ(gsx.instance_ids().size(), 1u);
}

TEST_F(HypervisorTest, SameIdDestroyRaceHasOneWinner) {
  // Two collectors race to destroy one VM: the table entry is the claim,
  // so exactly one destroys the tree and releases the lease.
  Hypervisor gsx("vmware-gsx", store_.get());
  CountingLeaseHook hook;
  gsx.set_lease_hook(&hook);
  CloneSource golden = make_golden(true);
  golden.golden_id = "golden";
  for (int round = 0; round < 20; ++round) {
    const std::string id = "vm" + std::to_string(round);
    ASSERT_TRUE(gsx.clone_vm(golden, "clones/" + id, id).ok());
    std::atomic<bool> go{false};
    util::Status results[2];
    std::thread racers[2];
    for (int t = 0; t < 2; ++t) {
      racers[t] = std::thread([&, t] {
        while (!go.load()) std::this_thread::yield();
        results[t] = gsx.destroy_vm(id);
      });
    }
    go.store(true);
    for (std::thread& racer : racers) racer.join();
    EXPECT_NE(results[0].ok(), results[1].ok()) << "round " << round;
    for (const util::Status& result : results) {
      if (!result.ok()) {
        EXPECT_EQ(result.error().code(), util::ErrorCode::kNotFound);
      }
    }
    EXPECT_FALSE(store_->exists("clones/" + id));
    EXPECT_EQ(hook.releases.load(), round + 1);
  }
  EXPECT_EQ(hook.acquires.load(), 20);
  EXPECT_EQ(gsx.instance_count(), 0u);
}

// -- UML --------------------------------------------------------------------------------

TEST_F(HypervisorTest, UmlBootLifecycle) {
  Hypervisor uml("uml", store_.get());
  EXPECT_EQ(uml.type(), "uml");
  EXPECT_FALSE(uml.resumes_from_checkpoint());

  CloneSource golden = make_golden(/*suspended=*/false);
  golden.guest.running_services = {"vnc-server"};  // was running at capture
  auto id = uml.clone_vm(golden, "clones/u1", "u1");
  ASSERT_TRUE(id.ok()) << id.error().to_string();

  ASSERT_TRUE(uml.start_vm("u1").ok());
  // Boot resets transient runtime state: services are not running.
  EXPECT_TRUE(uml.find("u1")->guest.running_services.empty());
  // But installed packages (disk state) survive.
  EXPECT_TRUE(uml.find("u1")->guest.packages.count("vnc-server"));
}

TEST_F(HypervisorTest, UmlRefusesSuspendedGolden) {
  Hypervisor uml("uml", store_.get());
  auto id = uml.clone_vm(make_golden(/*suspended=*/true), "clones/u1", "u1");
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.error().code(), util::ErrorCode::kFailedPrecondition);
}

TEST_F(HypervisorTest, UmlHasNoSuspendSupport) {
  Hypervisor uml("uml", store_.get());
  ASSERT_TRUE(uml.clone_vm(make_golden(false), "clones/u1", "u1").ok());
  ASSERT_TRUE(uml.start_vm("u1").ok());
  EXPECT_FALSE(uml.suspend_vm("u1").ok());
}

TEST_F(HypervisorTest, UmlCloneIsCowShared) {
  Hypervisor uml("uml", store_.get());
  ASSERT_TRUE(uml.clone_vm(make_golden(false), "clones/u1", "u1").ok());
  const VmInstance* vm = uml.find("u1");
  // The root file-system span is a link; no memory state was copied.
  EXPECT_EQ(vm->clone_report.disk.links_created, 1u);
  EXPECT_EQ(vm->clone_report.memory.bytes_written, 0u);
}

// -- Backend conformance ------------------------------------------------------------------
//
// The contract every backend keeps.  The golden each case clones is the
// kind the backend's one capability asks for: a suspended checkpoint when
// it resumes, a powered-off copy-on-write file system when it boots.

class BackendConformanceTest
    : public HypervisorTest,
      public ::testing::WithParamInterface<const char*> {
 protected:
  void SetUp() override {
    HypervisorTest::SetUp();
    hv_ = std::make_unique<Hypervisor>(GetParam(), store_.get());
    hv_->set_lease_hook(&hook_);
  }
  void TearDown() override {
    hv_.reset();
    HypervisorTest::TearDown();
  }

  /// A golden of the backend's kind (or of the other kind), leased under
  /// the id "golden" and captured with a service running.
  CloneSource golden(bool right_kind = true) {
    const bool suspended = hv_->resumes_from_checkpoint() == right_kind;
    CloneSource source = make_golden(suspended);
    source.golden_id = "golden";
    source.guest.running_services = {"vnc-server"};
    return source;
  }

  CountingLeaseHook hook_;
  std::unique_ptr<Hypervisor> hv_;
};

TEST_P(BackendConformanceTest, CloneStartDestroyLeavesNothing) {
  EXPECT_EQ(hv_->type(), GetParam());
  ASSERT_TRUE(hv_->clone_vm(golden(), "clones/vm1", "vm1").ok());
  EXPECT_TRUE(store_->exists("clones/vm1"));
  ASSERT_TRUE(hv_->start_vm("vm1").ok());
  const auto running = hv_->snapshot_vm("vm1");
  ASSERT_TRUE(running.has_value());
  EXPECT_EQ(running->power, PowerState::kRunning);
  EXPECT_EQ(hv_->resident_memory_bytes(), 64ull << 20);
  // Resume keeps the captured runtime state; boot stops every service.
  EXPECT_EQ(running->guest.running_services.count("vnc-server") == 1,
            hv_->resumes_from_checkpoint());
  EXPECT_TRUE(running->guest.packages.count("vnc-server"));

  ASSERT_TRUE(hv_->destroy_vm("vm1").ok());
  EXPECT_FALSE(store_->exists("clones/vm1"));
  EXPECT_FALSE(hv_->snapshot_vm("vm1").has_value());
  EXPECT_EQ(hv_->instance_count(), 0u);
  EXPECT_EQ(hv_->active_instances(), 0u);
  EXPECT_EQ(hv_->resident_memory_bytes(), 0u);
  const util::Status again = hv_->destroy_vm("vm1");
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.error().code(), util::ErrorCode::kNotFound);
}

TEST_P(BackendConformanceTest, WrongGoldenKindRefused) {
  auto id = hv_->clone_vm(golden(/*right_kind=*/false), "clones/vm1", "vm1");
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.error().code(), util::ErrorCode::kFailedPrecondition);
  EXPECT_FALSE(store_->exists("clones/vm1"));
  EXPECT_EQ(hook_.acquires.load(), 0);
  EXPECT_EQ(hv_->instance_count(), 0u);
}

TEST_P(BackendConformanceTest, SuspendResumeOnlyWhereCheckpointed) {
  ASSERT_TRUE(hv_->clone_vm(golden(), "clones/vm1", "vm1").ok());
  ASSERT_TRUE(hv_->start_vm("vm1").ok());
  ASSERT_TRUE(run_script(*hv_, "vm1", "install late-package").ok());
  const util::Status suspended = hv_->suspend_vm("vm1");
  if (!hv_->resumes_from_checkpoint()) {
    ASSERT_FALSE(suspended.ok());
    EXPECT_EQ(suspended.error().code(), util::ErrorCode::kFailedPrecondition);
    EXPECT_EQ(hv_->find("vm1")->power, PowerState::kRunning);
    return;
  }
  ASSERT_TRUE(suspended.ok()) << suspended.error().to_string();
  EXPECT_EQ(hv_->find("vm1")->power, PowerState::kSuspended);
  EXPECT_TRUE(store_->exists(hv_->find("vm1")->layout.memory_path()));
  ASSERT_TRUE(hv_->start_vm("vm1").ok());
  EXPECT_TRUE(hv_->find("vm1")->guest.packages.count("late-package"));
  EXPECT_TRUE(hv_->find("vm1")->guest.running_services.count("vnc-server"));
}

TEST_P(BackendConformanceTest, PlannedStartFailureFiresOnce) {
  fault::ScopedFaultPlan plan(
      fault::FaultPlan::parse("hypervisor.resume:target=vm1,times=1").value());
  ASSERT_TRUE(hv_->clone_vm(golden(), "clones/vm1", "vm1").ok());
  const util::Status first = hv_->start_vm("vm1");
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.error().code(), util::ErrorCode::kInternal);
  EXPECT_EQ(hv_->find("vm1")->power, PowerState::kStopped);
  EXPECT_TRUE(hv_->start_vm("vm1").ok());  // recovers on retry
}

TEST_P(BackendConformanceTest, OneLeasePerClone) {
  ASSERT_TRUE(hv_->clone_vm(golden(), "clones/vm1", "vm1").ok());
  ASSERT_TRUE(hv_->clone_vm(golden(), "clones/vm2", "vm2").ok());
  EXPECT_EQ(hook_.acquires.load(), 2);
  EXPECT_EQ(hook_.releases.load(), 0);
  ASSERT_TRUE(hv_->destroy_vm("vm1").ok());
  EXPECT_EQ(hook_.releases.load(), 1);
  ASSERT_TRUE(hv_->destroy_vm("vm2").ok());
  EXPECT_EQ(hook_.acquires.load(), 2);
  EXPECT_EQ(hook_.releases.load(), 2);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, BackendConformanceTest,
    ::testing::Values("vmware-gsx", "uml", "xen"),
    [](const ::testing::TestParamInfo<const char*>& param_info) {
      std::string name = param_info.param;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

}  // namespace
}  // namespace vmp::hv
