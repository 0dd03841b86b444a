#include "core/production_line.h"

#include <algorithm>

#include "fault/fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace vmp::core {

using util::Error;
using util::ErrorCode;
using util::Result;
using util::Status;

namespace {

const util::Logger kLog("production-line");

struct LineMetrics {
  obs::Counter* actions;
  obs::Counter* action_failures;
  obs::Timer* action_seconds;
  obs::Timer* configure_seconds;
  obs::Timer* clone_seconds;
  obs::Timer* resume_seconds;

  static LineMetrics& get() {
    static LineMetrics m = [] {
      obs::MetricsRegistry& r = obs::MetricsRegistry::instance();
      return LineMetrics{r.counter("plant.configure_action.count"),
                         r.counter("plant.configure_action_fail.count"),
                         r.timer("plant.configure_action.seconds"),
                         r.timer("plant.configure.seconds"),
                         r.timer("plant.clone.seconds"),
                         r.timer("hypervisor.resume.seconds")};
    }();
    return m;
  }
};

/// Timer readings come from the tracer clock so latency histograms match
/// the spans under an installed virtual clock (deterministic tests).
double now_s() { return obs::Tracer::instance().now(); }

}  // namespace

Result<std::string> compile_guest_script(const dag::Action& action) {
  const std::string& op = action.operation();
  auto need = [&](const char* key) -> Result<std::string> {
    return Result<std::string>(Error(
        ErrorCode::kInvalidArgument,
        "action '" + action.id() + "' (" + op + ") missing param '" + key + "'"));
  };

  if (op == "install-os") {
    if (action.param("distro").empty()) return need("distro");
    return "installos " + action.param("distro");
  }
  if (op == "install-package") {
    if (action.param("package").empty()) return need("package");
    return "install " + action.param("package");
  }
  if (op == "remove-package") {
    if (action.param("package").empty()) return need("package");
    return "remove " + action.param("package");
  }
  if (op == "require-package") {
    if (action.param("package").empty()) return need("package");
    return "require " + action.param("package");
  }
  if (op == "create-user") {
    if (action.param("name").empty()) return need("name");
    std::string line = "adduser " + action.param("name");
    if (!action.param("home").empty()) line += " " + action.param("home");
    return line;
  }
  if (op == "delete-user") {
    if (action.param("name").empty()) return need("name");
    return "deluser " + action.param("name");
  }
  if (op == "configure-network") {
    if (action.param("ip").empty()) return need("ip");
    std::string line = "ifconfig " + action.param("ip");
    if (!action.param("mac").empty()) line += " " + action.param("mac");
    return line;
  }
  if (op == "set-hostname") {
    if (action.param("name").empty()) return need("name");
    return "hostname " + action.param("name");
  }
  if (op == "mount") {
    if (action.param("source").empty()) return need("source");
    if (action.param("mountpoint").empty()) return need("mountpoint");
    return "mount " + action.param("source") + " " + action.param("mountpoint");
  }
  if (op == "unmount") {
    if (action.param("mountpoint").empty()) return need("mountpoint");
    return "umount " + action.param("mountpoint");
  }
  if (op == "start-service") {
    if (action.param("service").empty()) return need("service");
    return "start " + action.param("service");
  }
  if (op == "stop-service") {
    if (action.param("service").empty()) return need("service");
    return "stop " + action.param("service");
  }
  if (op == "write-file") {
    if (action.param("path").empty()) return need("path");
    return "writefile " + action.param("path") + " " + action.param("content");
  }
  if (op == "emit") {
    if (action.param("key").empty()) return need("key");
    return "output " + action.param("key") + " " + action.param("value");
  }
  if (op == "setup-ssh-key") {
    if (action.param("user").empty()) return need("user");
    return "sshkeygen " + action.param("user");
  }
  if (op == "setup-gsi-cert") {
    if (action.param("user").empty()) return need("user");
    if (action.param("subject").empty()) return need("subject");
    return "gridcert " + action.param("user") + " " + action.param("subject");
  }
  if (op == "inject-fail") {
    return "fail " + action.param("message");
  }
  if (op == "inject-flaky") {
    if (action.param("token").empty()) return need("token");
    if (action.param("count").empty()) return need("count");
    return "flaky " + action.param("token") + " " + action.param("count");
  }
  if (op == "run-script" || !action.script().empty()) {
    if (action.script().empty()) {
      return Result<std::string>(Error(
          ErrorCode::kInvalidArgument,
          "action '" + action.id() + "' is run-script but has no script"));
    }
    return action.script();
  }
  return Result<std::string>(Error(
      ErrorCode::kInvalidArgument,
      "unknown guest operation '" + op + "' in action '" + action.id() + "'"));
}

Status ProductionLine::attempt_action(const dag::Action& action,
                                      const std::string& vm_id,
                                      const std::string& network_name,
                                      ProductionResult* result) {
  if (action.scope() == dag::ActionScope::kHost) {
    const std::string& op = action.operation();
    ++result->host_actions_executed;
    if (op == "host-attach-nic") {
      if (network_name.empty()) {
        return Status(ErrorCode::kFailedPrecondition,
                      "host-attach-nic: plant has no network for this VM");
      }
      result->ad.set_string(attrs::kNetwork, network_name);
      return Status();
    }
    if (op == "host-set-attr") {
      if (action.param("key").empty()) {
        return Status(ErrorCode::kInvalidArgument,
                      "host-set-attr: missing param 'key'");
      }
      result->ad.set_string(action.param("key"), action.param("value"));
      return Status();
    }
    if (op == "host-connect-iso") {
      auto iso = hypervisor_->connect_script_iso(
          vm_id, "# data cd\n" + action.param("content"));
      if (!iso.ok()) return iso.error();
      ++result->isos_connected;
      return Status();
    }
    return Status(ErrorCode::kInvalidArgument,
                  "unknown host operation '" + op + "' in action '" +
                      action.id() + "'");
  }

  // Guest action: compile -> ISO -> guest daemon.  Injected configuration
  // faults flow through the same error-policy machinery (retry / error
  // sub-graph / continue) as organic guest failures.
  if (auto fault = fault::check(fault::points::kPlantConfigureAction,
                                action.id());
      !fault.ok()) {
    return fault;
  }

  auto script = compile_guest_script(action);
  if (!script.ok()) return script.error();

  auto iso = hypervisor_->connect_script_iso(vm_id, script.value());
  if (!iso.ok()) return iso.error();
  ++result->isos_connected;

  auto output = hypervisor_->execute_connected_script(vm_id);
  if (!output.ok()) return output.error();
  ++result->guest_actions_executed;

  for (const auto& [key, value] : output.value().outputs) {
    result->ad.set_string(key, value);
  }
  if (!output.value().success) {
    return Status(ErrorCode::kConfigActionFailed,
                  "action '" + action.id() + "': " +
                      output.value().failure_message);
  }
  return Status();
}

Status ProductionLine::run_action(const dag::ConfigDag& config,
                                  const std::string& action_id,
                                  const std::string& vm_id,
                                  const std::string& network_name,
                                  ProductionResult* result) {
  const dag::Action* action = config.action(action_id);
  if (action == nullptr) {
    return Status(ErrorCode::kInternal,
                  "plan references unknown action " + action_id);
  }

  LineMetrics& metrics = LineMetrics::get();
  obs::ScopedSpan span("configure.action", "production-line", action_id);
  span.set_vm(vm_id);
  const double span_start_s = now_s();
  const auto record = [&](const Status& outcome) {
    metrics.actions->add();
    metrics.action_seconds->record(now_s() - span_start_s);
    if (!outcome.ok()) {
      metrics.action_failures->add();
      span.set_status(util::error_code_name(outcome.error().code()));
    }
    return outcome;
  };

  // Phase 1: direct attempts (1 + retries when the policy allows).
  const int attempts =
      1 + (action->error_policy() == dag::ErrorPolicy::kRetry
               ? std::max(0, action->max_retries())
               : 0);
  Status last;
  for (int i = 0; i < attempts; ++i) {
    last = attempt_action(*action, vm_id, network_name, result);
    if (last.ok()) return record(last);
    kLog.debug() << vm_id << ": action " << action_id << " attempt "
                 << (i + 1) << "/" << attempts << " failed: "
                 << last.error().message();
  }

  // Phase 2: custom error sub-graph, then one more attempt.
  if (const dag::ConfigDag* sub = config.error_subgraph(action_id)) {
    auto order = sub->topological_sort();
    if (order.ok()) {
      bool subgraph_ok = true;
      for (const std::string& sub_id : order.value()) {
        const dag::Action* sub_action = sub->action(sub_id);
        Status s = attempt_action(*sub_action, vm_id, network_name, result);
        if (!s.ok()) {
          kLog.debug() << vm_id << ": error sub-graph node " << sub_id
                       << " failed: " << s.error().message();
          subgraph_ok = false;
          break;
        }
      }
      if (subgraph_ok) {
        last = attempt_action(*action, vm_id, network_name, result);
        if (last.ok()) return record(last);
      }
    }
  }

  // Phase 3: policy fallback.
  if (action->error_policy() == dag::ErrorPolicy::kContinue) {
    ++result->failures_continued;
    result->ad.set_string("ActionFailure_" + action_id,
                          last.error().message());
    (void)record(last);  // record the underlying failure despite continuing
    return Status();
  }
  return record(Status(ErrorCode::kConfigActionFailed,
                       "production aborted at action '" + action_id + "': " +
                           last.error().message()));
}

Result<storage::CloneReport> ProductionLine::clone_and_start(
    const warehouse::GoldenImage& golden, const std::string& vm_id) {
  obs::ScopedSpan span("plant.clone", "production-line", golden.id);
  span.set_vm(vm_id);
  const double clone_start_s = now_s();
  hv::CloneSource source;
  source.layout = golden.layout;
  source.spec = golden.spec;
  source.guest = golden.guest;
  source.golden_id = golden.id;
  const std::string clone_dir = clone_base_dir_ + "/" + vm_id;
  auto cloned = hypervisor_->clone_vm(source, clone_dir, vm_id);
  if (!cloned.ok()) {
    span.set_status(util::error_code_name(cloned.error().code()));
    return cloned.propagate<storage::CloneReport>();
  }
  const storage::CloneReport report = hypervisor_->find(vm_id)->clone_report;

  Status started = [&] {
    obs::ScopedSpan resume_span("hypervisor.resume", "hypervisor",
                                hypervisor_->type());
    resume_span.set_vm(vm_id);
    const double resume_start_s = now_s();
    Status s = hypervisor_->start_vm(vm_id);
    LineMetrics::get().resume_seconds->record(now_s() - resume_start_s);
    if (!s.ok()) resume_span.set_status(util::error_code_name(s.error().code()));
    return s;
  }();
  LineMetrics::get().clone_seconds->record(now_s() - clone_start_s);
  if (!started.ok()) {
    (void)hypervisor_->destroy_vm(vm_id);
    span.set_status(util::error_code_name(started.error().code()));
    return started.propagate<storage::CloneReport>();
  }
  return report;
}

Result<ProductionResult> ProductionLine::configure(
    const ProductionPlan& plan, const CreateRequest& request,
    const std::string& vm_id, const std::string& network_name) {
  obs::ScopedSpan span("plant.configure", "production-line",
                       std::to_string(plan.remaining_plan.size()) + " actions");
  span.set_vm(vm_id);
  const double start_s = now_s();
  ProductionResult result;
  result.vm_id = vm_id;
  const hv::VmInstance* vm = hypervisor_->find(vm_id);
  if (vm == nullptr) {
    return Result<ProductionResult>(
        Error(ErrorCode::kNotFound, "configure: no VM " + vm_id));
  }
  result.clone_report = vm->clone_report;

  // Execute the remaining sub-graph in plan order; on any persistent
  // failure the partial clone is destroyed before the error propagates
  // (the plant retries on a different golden or reports the fault
  // upstream).
  for (const std::string& action_id : plan.remaining_plan) {
    Status s = run_action(request.config, action_id, vm_id, network_name,
                          &result);
    if (!s.ok()) {
      (void)hypervisor_->destroy_vm(vm_id);
      LineMetrics::get().configure_seconds->record(now_s() - start_s);
      span.set_status(util::error_code_name(s.error().code()));
      return s.propagate<ProductionResult>();
    }
  }
  LineMetrics::get().configure_seconds->record(now_s() - start_s);
  return result;
}

Status ProductionLine::collect(const std::string& vm_id) {
  return hypervisor_->destroy_vm(vm_id);
}

}  // namespace vmp::core
