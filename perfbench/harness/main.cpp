// The repository's end-to-end benchmark harness.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --sandbox <dir> [--spans <file>]
//
// Runs closed-loop create+destroy cycles from 4 client threads against a
// live site (sites.h) and prints a report followed, as the last line of
// stdout, by one JSON object: {"correct", "attempted", "failed",
// "metrics"}.  With --trace 0 the metrics are the end-to-end ones; with
// --trace 1 a separate run with the program's own tracer (obs::Tracer)
// armed reports the per-layer ones.  See README.md for how to read both.
#include <sys/resource.h>
#include <sys/vfs.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dag/matching.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sites.h"
#include "util/logging.h"
#include "warehouse/warehouse.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using namespace vmp;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kClients = 4;
constexpr std::size_t kSetupRepeats = 3;
constexpr std::uint64_t kCountPassCycles = 16;
constexpr std::uint64_t kProbeEvery = 8;
constexpr std::chrono::milliseconds kInstallPeriod{10};
constexpr std::uint64_t kKeepTraceEvery = 64;
constexpr std::size_t kReasonsKept = 5;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::filesystem::path sandbox;
  std::string spans_out;
};

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Nearest-rank percentile of an unsorted sample; 0 when empty.
double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index =
      static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

double as_double(std::uint64_t v) { return static_cast<double>(v); }

// ---------------------------------------------------------------------------
// Closed-loop phases
// ---------------------------------------------------------------------------

/// What one client saw; merged across clients when the phase ends.
struct Observed {
  std::vector<std::pair<double, double>> creates;  // (done at s, ms)
  std::vector<double> destroys;
  std::vector<double> publishes;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t cycles = 0;
  std::uint64_t cycles_in_time = 0;  // finished before the phase deadline
  std::vector<std::string> reasons;
  // Traced run only: read from the classads and VMs of creates that ran
  // on a real plant, and from the probes.
  std::uint64_t plant_creates = 0;
  std::uint64_t actions = 0;
  std::uint64_t isos = 0;
  std::uint64_t clone_bytes = 0;
  std::uint64_t clone_files = 0;
  std::uint64_t clone_links = 0;
  std::uint64_t hardware = 0;
  std::uint64_t mask_rejected = 0;
  std::uint64_t evaluated = 0;
  std::uint64_t matching = 0;
  std::uint64_t probe_appends = 0;
  std::uint64_t plans_replayed = 0;

  void fail(std::string reason) {
    ++failed;
    if (reasons.size() < kReasonsKept) reasons.push_back(std::move(reason));
  }

  void merge(Observed&& o) {
    creates.insert(creates.end(), o.creates.begin(), o.creates.end());
    destroys.insert(destroys.end(), o.destroys.begin(), o.destroys.end());
    publishes.insert(publishes.end(), o.publishes.begin(), o.publishes.end());
    attempted += o.attempted;
    failed += o.failed;
    cycles += o.cycles;
    cycles_in_time += o.cycles_in_time;
    for (auto& r : o.reasons) {
      if (reasons.size() < kReasonsKept) reasons.push_back(std::move(r));
    }
    plant_creates += o.plant_creates;
    actions += o.actions;
    isos += o.isos;
    clone_bytes += o.clone_bytes;
    clone_files += o.clone_files;
    clone_links += o.clone_links;
    hardware += o.hardware;
    mask_rejected += o.mask_rejected;
    evaluated += o.evaluated;
    matching += o.matching;
    probe_appends += o.probe_appends;
    plans_replayed += o.plans_replayed;
  }

  std::vector<double> create_ms() const {
    std::vector<double> out;
    out.reserve(creates.size());
    for (const auto& c : creates) out.push_back(c.second);
    return out;
  }
};

struct PhaseConfig {
  double seconds = 0.0;          // 0: no time limit
  std::uint64_t max_cycles = 0;  // 0: no cycle limit
  std::uint64_t stream = 0;      // slice of the seed's request stream
  bool traced = false;           // read per-layer counts and run probes
  bool installer = false;        // publish through the site's installer
};

struct PhaseResult {
  Observed seen;
  double elapsed_s = 0.0;
};

/// The PPP's candidate scan and match evaluations, replayed from the
/// benchmark for the warehouse and match-efficiency numbers, which no
/// span inside a create gives: the scan is a span of its own, then the
/// candidates are evaluated in the order ProductionProcessPlanner::plan
/// probes them.
void replay_plan(Site& site, const core::CreateRequest& request,
                 Observed* out) {
  std::vector<std::string> signatures;
  for (const std::string& id : request.config.node_ids()) {
    signatures.push_back(request.config.action(id)->signature());
  }
  const bool digests_valid = request.config.signature_index().ok();
  const std::uint64_t mask =
      digests_valid ? warehouse::action_mask(signatures) : ~0ull;
  const std::uint64_t fingerprint = warehouse::action_fingerprint(signatures);
  warehouse::CandidateSet scan;
  {
    obs::ScopedSpan span("warehouse.scan", "perfbench");
    scan = site.warehouse()->match_candidates(
        request.backend.empty() ? "vmware-gsx" : request.backend,
        [&request](const warehouse::GoldenImage& image) {
          return request.hardware.satisfied_by(image.spec.os,
                                               image.spec.memory_bytes,
                                               image.spec.disk.capacity_bytes);
        },
        mask);
  }
  ++out->plans_replayed;
  out->hardware += scan.hardware_candidates;
  out->mask_rejected += scan.mask_rejected;
  std::vector<std::size_t> order;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < scan.candidates.size(); ++i) {
      const bool equal = scan.candidates[i].fingerprint == fingerprint;
      if (digests_valid ? (equal == (pass == 0)) : pass == 0) {
        order.push_back(i);
      }
    }
  }
  for (const std::size_t i : order) {
    auto eval = dag::evaluate_match(request.config,
                                    scan.candidates[i].performed);
    ++out->evaluated;
    if (!eval.ok() || !eval.value().matches()) continue;
    ++out->matching;
    if (digests_valid &&
        eval.value().satisfied_nodes.size() == request.config.size()) {
      break;
    }
  }
}

/// Traced run: what the create's classad and VM say about the layers,
/// for creates served by a real plant (not a sharded-grid stub).
void read_layers(Site& site, const classad::ClassAd& ad, Observed* out) {
  core::VmPlant* plant =
      site.plant(ad.get_string(core::attrs::kPlant).value_or(""));
  if (plant == nullptr) return;
  const auto vm = plant->hypervisor().snapshot_vm(
      ad.get_string(core::attrs::kVmId).value_or(""));
  if (!vm) return;
  const storage::IoAccounting io = vm->clone_report.total();
  ++out->plant_creates;
  out->actions += static_cast<std::uint64_t>(
      ad.get_integer(core::attrs::kActionsExecuted).value_or(0));
  out->isos += static_cast<std::uint64_t>(
      ad.get_integer(core::attrs::kIsosConnected).value_or(0));
  out->clone_bytes += io.bytes_written;
  out->clone_files += io.files_touched;
  out->clone_links += io.links_created;
}

/// Traced run, every kProbeEvery-th cycle and outside the create: the
/// layers that have no span inside a create.  Each probe is a root span.
void probe_layers(Site& site, const core::CreateRequest& request,
                  Observed* out) {
  if (!site.plants().empty()) replay_plan(site, request, out);
  if (site.journal() != nullptr) {
    obs::ScopedSpan span("journal.append", "perfbench");
    site.journal()->append(obs::JournalEvent::kFaultFired,
                           "perfbench.probe@journal");
    ++out->probe_appends;
  }
}

/// One create+destroy cycle through VmShop (the end-to-end path).
void shop_cycle(Site& site, const Job& job, Clock::time_point phase_start,
                bool traced, bool probe, Observed* out) {
  const auto t0 = Clock::now();
  auto ad = site.shop().create(job.request);
  const auto t1 = Clock::now();
  ++out->attempted;
  if (!ad.ok()) {
    out->fail("create: " + ad.error().to_string());
    return;
  }
  const std::string problem = site.check_ad(job, ad.value());
  if (problem.empty()) {
    out->creates.emplace_back(
        std::chrono::duration<double>(t1 - phase_start).count(),
        ms_between(t0, t1));
  } else {
    out->fail("check: " + problem);
  }
  if (traced) {
    read_layers(site, ad.value(), out);
    if (probe) probe_layers(site, job.request, out);
  }
  bool publish_failed = false;
  const double publish_ms = site.after_create(job, ad.value(), &publish_failed);
  if (publish_ms >= 0.0 || publish_failed) {
    ++out->attempted;
    if (publish_failed) {
      out->fail("publish failed");
    } else {
      out->publishes.push_back(publish_ms);
    }
  }
  const std::string vm = ad.value().get_string(core::attrs::kVmId).value_or("");
  ++out->attempted;
  const auto t2 = Clock::now();
  const util::Status destroyed = site.shop().destroy(vm);
  const auto t3 = Clock::now();
  if (destroyed.ok()) {
    out->destroys.push_back(ms_between(t2, t3));
  } else {
    out->fail("destroy: " + destroyed.error().to_string());
  }
}

PhaseResult run_phase(Site& site, std::uint64_t seed, const PhaseConfig& cfg) {
  std::atomic<std::uint64_t> tickets{0};
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> installs{0};
  std::vector<Observed> seen(kClients);
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(cfg.seconds));
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      util::SplitMix64 rng(seed * 0x9E3779B97F4A7C15ull +
                           cfg.stream * 0x10001ull + c + 1);
      for (std::uint64_t k = 0;; ++k) {
        if (cfg.seconds > 0.0 && Clock::now() >= deadline) break;
        if (cfg.max_cycles != 0 && tickets.fetch_add(1) >= cfg.max_cycles) {
          break;
        }
        const Job job =
            site.make_job(rng, (cfg.stream << 32) + k * kClients + c);
        shop_cycle(site, job, start, cfg.traced, k % kProbeEvery == 0,
                   &seen[c]);
        ++seen[c].cycles;
        if (cfg.seconds > 0.0 && Clock::now() <= deadline) {
          ++seen[c].cycles_in_time;
        }
        site.after_cycle(completed.fetch_add(1) + 1);
        // The installer publishes once per kInstallPeriod: the client that
        // completes a cycle when one is due claims it.
        for (std::uint64_t n = installs.load();
             cfg.installer && Clock::now() >= start + n * kInstallPeriod;) {
          if (!installs.compare_exchange_weak(n, n + 1)) continue;
          ++seen[c].attempted;
          const double ms = site.installer_publish();
          if (ms < 0.0) {
            seen[c].fail("installer publish failed");
          } else {
            seen[c].publishes.push_back(ms);
          }
          break;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  PhaseResult result;
  result.elapsed_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  for (auto& s : seen) result.seen.merge(std::move(s));
  return result;
}

/// The installer's write path on sites whose clients never publish, timed
/// after the timed phase so that phase carries only the workload's own
/// traffic: the clients keep running the workload, untimed, for as long
/// again, and publish one golden per kInstallPeriod between their cycles.
/// The rate only sets how many publishes are sampled; they are timed under
/// the site's own load and across seconds because a quiet batch's latency
/// follows whichever cores it lands on (see README.md).
void installer_phase(Site& site, std::uint64_t seed, double seconds,
                     Observed* out) {
  if (!site.has_installer()) return;
  PhaseConfig cfg;
  cfg.seconds = seconds;
  cfg.stream = 3;
  cfg.installer = true;
  PhaseResult phase = run_phase(site, seed, cfg);
  Observed& seen = phase.seen;
  out->publishes.insert(out->publishes.end(), seen.publishes.begin(),
                        seen.publishes.end());
  out->attempted += seen.attempted;
  out->failed += seen.failed;
  for (auto& r : seen.reasons) {
    if (out->reasons.size() < kReasonsKept) {
      out->reasons.push_back(std::move(r));
    }
  }
}

/// create_ms.p50 over the last tenth of the run divided by that over the
/// first tenth (by completion time).
double create_drift(const Observed& seen) {
  auto creates = seen.creates;
  std::sort(creates.begin(), creates.end());
  const std::size_t tenth = creates.size() / 10;
  if (tenth == 0) return 0.0;
  std::vector<double> first, last;
  for (std::size_t i = 0; i < tenth; ++i) {
    first.push_back(creates[i].second);
    last.push_back(creates[creates.size() - 1 - i].second);
  }
  return ratio(percentile(last, 50), percentile(first, 50));
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string substrate(const std::filesystem::path& dir) {
  struct statfs fs{};
  std::string type = "unknown";
  if (::statfs(dir.c_str(), &fs) == 0) {
    switch (static_cast<unsigned long>(fs.f_type)) {
      case 0x01021994ul: type = "tmpfs"; break;
      case 0xEF53ul: type = "ext4"; break;
      case 0x58465342ul: type = "xfs"; break;
      case 0x9123683Eul: type = "btrfs"; break;
      case 0x794C7630ul: type = "overlayfs"; break;
      default: {
        char hex[32];
        std::snprintf(hex, sizeof hex, "0x%lx",
                      static_cast<unsigned long>(fs.f_type));
        type = hex;
      }
    }
  }
  return "fs=" + type + " cores=" +
         std::to_string(std::thread::hardware_concurrency()) +
         " build=" + PERFBENCH_BUILD_TYPE;
}

double peak_rss_mb() {
  struct rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-36s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void report_phase(const char* label, const PhaseResult& phase) {
  const Observed& s = phase.seen;
  std::printf("%s: %llu cycles in %.3f s, %zu creates timed, %llu of %llu "
              "operations failed\n",
              label, static_cast<unsigned long long>(s.cycles),
              phase.elapsed_s, s.creates.size(),
              static_cast<unsigned long long>(s.failed),
              static_cast<unsigned long long>(s.attempted));
  for (const std::string& r : s.reasons) {
    std::printf("  failure: %s\n", r.c_str());
  }
}

/// Sets up a site and warms it; returns the set-up time in seconds.
double build_site(const Args& args, const std::filesystem::path& sandbox,
                  bool traced, std::unique_ptr<Site>* out) {
  const auto start = Clock::now();
  SiteOptions options;
  options.sandbox = sandbox;
  options.seed = args.seed;
  options.traced = traced;
  *out = make_site(args.workload, options);
  PhaseConfig warm;
  warm.max_cycles = (*out)->warmup_cycles();
  warm.stream = 1;
  const PhaseResult warmed = run_phase(**out, args.seed, warm);
  if (warmed.seen.failed != 0) {
    report_phase("warm-up", warmed);
    throw std::runtime_error("warm-up failed");
  }
  return std::chrono::duration<double>(Clock::now() - start).count();
}

void tear_down(std::unique_ptr<Site>* site,
               const std::filesystem::path& sandbox) {
  site->reset();
  std::error_code ec;
  std::filesystem::remove_all(sandbox, ec);
}

// ---------------------------------------------------------------------------
// --trace 0: the end-to-end run
// ---------------------------------------------------------------------------

int run_end_to_end(const Args& args) {
  std::vector<double> setup_s;
  std::unique_ptr<Site> site;
  std::filesystem::path sandbox;
  for (std::size_t r = 0; r < kSetupRepeats; ++r) {
    if (site != nullptr) tear_down(&site, sandbox);
    sandbox = args.sandbox / ("setup" + std::to_string(r));
    setup_s.push_back(build_site(args, sandbox, false, &site));
  }

  PhaseConfig timed;
  timed.seconds = args.seconds;
  timed.stream = 2;
  const PhaseResult phase = run_phase(*site, args.seed, timed);
  report_phase("timed", phase);
  Observed seen = phase.seen;
  installer_phase(*site, args.seed, args.seconds, &seen);
  ++seen.attempted;
  const std::string problem = site->final_check();
  if (!problem.empty()) seen.fail("final check: " + problem);
  tear_down(&site, sandbox);

  const std::vector<double>& publishes = seen.publishes;
  const std::vector<double> creates = seen.create_ms();
  std::printf("create samples %zu, p99 %.4f ms (%zu beyond it), create "
              "drift %.3f, publish samples %zu\n",
              creates.size(), percentile(creates, 99), creates.size() / 100,
              create_drift(seen), publishes.size());
  const std::vector<Metric> metrics = {
      {"create_ms.p50", percentile(creates, 50), "ms"},
      {"create_ms.p90", percentile(creates, 90), "ms"},
      {"destroy_ms.p50", percentile(seen.destroys, 50), "ms"},
      {"vm_per_s", static_cast<double>(seen.cycles_in_time) / args.seconds,
       "1/s"},
      {"publish_ms.p50", percentile(publishes, 50), "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"setup_s", percentile(setup_s, 50), "s"},
  };
  print_result(seen.failed == 0, seen.attempted, seen.failed, metrics);
  return 0;
}

// ---------------------------------------------------------------------------
// --trace 1: the traced run
// ---------------------------------------------------------------------------

/// Span durations by layer, from the program's own tracer.  Installed as
/// the tracer's root sink: when a root span ends its whole trace is taken
/// out of the tracer and folded in here, so the tracer holds only the
/// traces in flight.  Spans are keyed by name, except that a bus.call is
/// keyed by the hop it makes in a create: "net.estimate_call" under the
/// shop's bid round, "net.create_call" from the shop to a plant or broker.
class SpanStats {
 public:
  void fold(const obs::Span& root) {
    std::vector<obs::Span> trace =
        obs::Tracer::instance().extract_trace(root.trace_id);
    std::map<std::uint64_t, const obs::Span*> by_id;
    for (const obs::Span& s : trace) by_id[s.span_id] = &s;
    const bool create = root.name == "shop.create" && root.ok();
    const double unattributed = create ? unattributed_us(root, trace) : 0.0;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const obs::Span& s : trace) {
      us_[s.name].push_back(s.duration_s() * 1e6);
      if (s.name != "bus.call") continue;
      auto parent = by_id.find(s.parent_id);
      if (parent == by_id.end()) continue;
      if (parent->second->name == "shop.bid") {
        us_["net.estimate_call"].push_back(s.duration_s() * 1e6);
      } else if (parent->second->name == "shop.create" &&
                 s.detail.starts_with("vmplant.create->")) {
        us_["net.create_call"].push_back(s.duration_s() * 1e6);
      }
    }
    if (!create) return;
    unattributed_.push_back(unattributed);
    if (creates_++ % kKeepTraceEvery == 0) {
      kept_.insert(kept_.end(), trace.begin(), trace.end());
    }
  }

  std::vector<double> us(const std::string& key) const {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = us_.find(key);
    return it != us_.end() ? it->second : std::vector<double>{};
  }
  std::vector<double> unattributed_us() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return unattributed_;
  }

  /// A create's wall time minus the time covered by its stage spans.  The
  /// containers are not stages: the plant's create span and, when a real
  /// plant served the create, the bus hops (the plant's spans are the
  /// hop's inside).  A hop to a stub has nothing inside it and counts as a
  /// stage.  Stages nest (a clone holds its storage copy), so what counts
  /// is the union of their intervals.
  static double unattributed_us(const obs::Span& root,
                                const std::vector<obs::Span>& trace) {
    const bool planted = std::any_of(
        trace.begin(), trace.end(),
        [](const obs::Span& s) { return s.name == "plant.create"; });
    std::vector<std::pair<double, double>> stages;
    for (const obs::Span& s : trace) {
      if (s.span_id == root.span_id || s.name == "plant.create" ||
          (planted && s.name == "bus.call")) {
        continue;
      }
      stages.emplace_back(s.start_s, s.end_s);
    }
    std::sort(stages.begin(), stages.end());
    double covered = 0.0, reach = root.start_s;
    for (const auto& [start, end] : stages) {
      covered += std::max(0.0, end - std::max(start, reach));
      reach = std::max(reach, end);
    }
    return (root.duration_s() - covered) * 1e6;
  }

  /// Writes every kKeepTraceEvery-th create's spans as JSONL (the tracer's
  /// own line format, which tools/trace_summarize.py reads).
  std::size_t write_jsonl(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path);
    for (const obs::Span& s : kept_) out << s.to_json() << "\n";
    return out ? kept_.size() : 0;
  }

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::vector<double>> us_;
  std::vector<double> unattributed_;
  std::vector<obs::Span> kept_;
  std::uint64_t creates_ = 0;
};

double sum(const std::vector<double>& v) {
  double total = 0.0;
  for (double x : v) total += x;
  return total;
}

double timer_sum_us(const obs::MetricsSnapshot& snap, const char* name) {
  const obs::TimerStats* t = snap.timer_stats(name);
  return t != nullptr ? t->sum_s * 1e6 : 0.0;
}

int run_traced(const Args& args) {
  const double half = args.seconds / 2.0;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  std::vector<Metric> metrics;
  auto add = [&metrics](std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  };

  // Phase A: the untraced loop, for the tracing overhead, the drift and
  // the run-end hypervisor state, then a serial pass that counts bids and
  // bus traffic per create exactly.
  std::unique_ptr<Site> site;
  std::filesystem::path sandbox = args.sandbox / "untraced";
  build_site(args, sandbox, false, &site);
  PhaseConfig plain;
  plain.seconds = half;
  plain.stream = 2;
  const PhaseResult untraced = run_phase(*site, args.seed, plain);
  report_phase("untraced", untraced);
  Observed seen = untraced.seen;

  std::size_t retained = 0;
  std::vector<double> scan_us;
  hv::Hypervisor* busiest = nullptr;
  for (const auto& plant : site->plants()) {
    hv::Hypervisor& hv = plant->hypervisor();
    retained += hv.instance_count() - hv.active_instances();
    if (busiest == nullptr ||
        hv.instance_count() > busiest->instance_count()) {
      busiest = &hv;
    }
  }
  for (int i = 0; busiest != nullptr && i < 101; ++i) {
    const auto t0 = Clock::now();
    (void)busiest->active_instances();
    scan_us.push_back(ms_between(t0, Clock::now()) * 1000.0);
  }

  std::uint64_t calls = 0, bytes = 0, bid_calls = 0, bids = 0;
  {
    util::SplitMix64 rng(args.seed ^ 0x636f756e74ull);
    net::MessageBus& bus = site->bus();
    for (std::uint64_t k = 0; k < kCountPassCycles; ++k) {
      const Job job = site->make_job(rng, (3ull << 32) + k);
      const std::uint64_t c0 = bus.calls_total();
      bids += site->shop().collect_bids(job.request).size();
      const std::uint64_t c1 = bus.calls_total(), b1 = bus.bytes_total();
      auto ad = site->shop().create(job.request);
      calls += bus.calls_total() - c1;
      bytes += bus.bytes_total() - b1;
      bid_calls += c1 - c0;
      ++seen.attempted;
      if (!ad.ok()) {
        seen.fail("count pass create: " + ad.error().to_string());
        continue;
      }
      if (const std::string p = site->check_ad(job, ad.value()); !p.empty()) {
        seen.fail("count pass check: " + p);
      }
      bool publish_failed = false;
      (void)site->after_create(job, ad.value(), &publish_failed);
      if (publish_failed) seen.fail("count pass publish failed");
      ++seen.attempted;
      if (!site->shop()
               .destroy(ad.value().get_string(core::attrs::kVmId).value_or(""))
               .ok()) {
        seen.fail("count pass destroy failed");
      }
    }
  }
  ++seen.attempted;
  if (const std::string p = site->final_check(); !p.empty()) {
    seen.fail("final check (untraced): " + p);
  }
  tear_down(&site, sandbox);

  // Phase B: the same loop on a fresh site, the same number of cycles,
  // with the tracer armed after warm-up.  It has no installer phase, so
  // lifecycle.publish.us reads 0 where the clients never publish.
  sandbox = args.sandbox / "traced";
  build_site(args, sandbox, true, &site);
  SpanStats stats;
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.set_root_sink([&stats](const obs::Span& root) { stats.fold(root); });
  tracer.arm();
  registry.reset();
  auto broker_totals = [&site] {
    std::pair<std::uint64_t, std::uint64_t> n{0, 0};
    for (const auto& b : site->brokers()) {
      n.first += b->bids_cached_served();
      n.second += b->bids_refreshed();
    }
    return n;
  };
  const auto brokers0 = broker_totals();
  const std::uint64_t appended0 =
      site->journal() != nullptr ? site->journal()->appended() : 0;
  const std::uint64_t deep0 = site->deep_hits();
  const std::uint64_t publishes0 = site->publishes();
  PhaseConfig traced_cfg;
  traced_cfg.seconds = args.seconds;  // cap; normally ends on the count
  traced_cfg.max_cycles = std::max<std::uint64_t>(untraced.seen.cycles, 1);
  traced_cfg.stream = 2;
  traced_cfg.traced = true;
  const PhaseResult traced = run_phase(*site, args.seed, traced_cfg);
  report_phase("traced", traced);
  Observed t = traced.seen;
  const double journal_appends =
      site->journal() != nullptr
          ? as_double(site->journal()->appended() - appended0 -
                      t.probe_appends)
          : 0.0;
  tracer.disarm();
  tracer.set_root_sink(nullptr);
  const obs::MetricsSnapshot timers = registry.snapshot();
  std::printf("tracer buffer after the run: %zu spans\n", tracer.span_count());
  tracer.clear();
  seen.attempted += t.attempted;
  seen.failed += t.failed;
  ++seen.attempted;
  if (const std::string p = site->final_check(); !p.empty()) {
    seen.fail("final check (traced): " + p);
  }

  auto p50_us = [&stats](const char* key) {
    return percentile(stats.us(key), 50);
  };
  auto sum_us = [&stats](const char* key) { return sum(stats.us(key)); };
  const double creates = as_double(t.creates.size());
  const double plant_creates = as_double(t.plant_creates);
  const auto brokers1 = broker_totals();
  const double cached = as_double(brokers1.first - brokers0.first);
  const double refreshed = as_double(brokers1.second - brokers0.second);
  const double evictions =
      as_double(timers.counter("lifecycle.evict.count") +
                timers.counter("lifecycle.evict_zombie.count"));
  const double counted = as_double(kCountPassCycles);
  const double untraced_p50 = percentile(untraced.seen.create_ms(), 50);
  const double traced_p50 = percentile(t.create_ms(), 50);

  add("shop.bid_round.us", p50_us("shop.bid"), "us");
  add("shop.bids_per_create", as_double(bids) / counted, "count");
  add("net.calls_per_create", as_double(calls) / counted, "count");
  add("net.bytes_per_create", as_double(bytes) / counted, "bytes");
  add("net.estimate_call.us", p50_us("net.estimate_call"), "us");
  add("net.create_call.us", p50_us("net.create_call"), "us");
  add("ppp.plan.us", p50_us("ppp.match"), "us");
  add("ppp.candidates_evaluated",
      ratio(as_double(t.evaluated), as_double(t.plans_replayed)), "count");
  add("ppp.useful_ratio",
      ratio(as_double(t.matching), as_double(t.evaluated)), "ratio");
  add("warehouse.scan.us", p50_us("warehouse.scan"), "us");
  add("warehouse.mask_rejected_ratio",
      ratio(as_double(t.mask_rejected), as_double(t.hardware)), "ratio");
  add("vnet.attach.us", p50_us("vnet.attach"), "us");
  add("storage.clone.us", p50_us("storage.clone"), "us");
  add("storage.clone_bytes", ratio(as_double(t.clone_bytes), plant_creates),
      "bytes");
  add("storage.clone_files", ratio(as_double(t.clone_files), plant_creates),
      "count");
  add("storage.clone_links", ratio(as_double(t.clone_links), plant_creates),
      "count");
  add("storage.destroy.us", p50_us("plant.collect"), "us");
  add("hypervisor.resume.us", p50_us("hypervisor.resume"), "us");
  add("hypervisor.retained_instances", as_double(retained), "count");
  add("hypervisor.active_scan.us", percentile(scan_us, 50), "us");
  add("configure.us", p50_us("plant.configure"), "us");
  add("configure.actions_per_create",
      ratio(as_double(t.actions), plant_creates), "count");
  add("configure.isos_per_create", ratio(as_double(t.isos), plant_creates),
      "count");
  add("lifecycle.acquire.us", p50_us("lifecycle.acquire"), "us");
  add("lifecycle.publish.us", p50_us("lifecycle.publish"), "us");
  add("lifecycle.evictions_per_publish",
      ratio(evictions, as_double(site->publishes() - publishes0)), "count");
  add("lifecycle.deep_hit_ratio",
      ratio(as_double(site->deep_hits() - deep0), creates), "ratio");
  add("journal.appends_per_create", ratio(journal_appends, creates), "count");
  add("journal.append.us", p50_us("journal.append"), "us");
  add("federation.cached_bid_ratio", ratio(cached, cached + refreshed),
      "ratio");
  add("federation.bid_msgs_per_create", as_double(bid_calls) / counted,
      "count");
  add("federation.refresh.ms", p50_us("broker.refresh") / 1000.0, "ms");
  add("plant.unattributed.us", percentile(stats.unattributed_us(), 50), "us");
  add("plant.create_drift", create_drift(untraced.seen), "ratio");
  add("trace.create_ms.p50", traced_p50, "ms");
  add("trace.untraced_create_ms.p50", untraced_p50, "ms");
  add("trace.overhead_ms", traced_p50 - untraced_p50, "ms");
  // Span sums against the program's always-on timers over the same traced
  // loop (1.0 = the spans account for exactly the timed work).
  add("xcheck.ppp_plan.ratio",
      ratio(sum_us("ppp.match"), timer_sum_us(timers, "ppp.plan.seconds")),
      "ratio");
  add("xcheck.shop_bid.ratio",
      ratio(sum_us("shop.bid"), timer_sum_us(timers, "shop.bid.seconds")),
      "ratio");
  add("xcheck.clone.ratio",
      ratio(sum_us("storage.clone"),
            timer_sum_us(timers, "storage.clone_linked.seconds") +
                timer_sum_us(timers, "storage.clone_full.seconds")),
      "ratio");
  add("xcheck.configure.ratio",
      ratio(sum_us("plant.configure"),
            timer_sum_us(timers, "plant.configure.seconds")),
      "ratio");
  add("xcheck.resume.ratio",
      ratio(sum_us("hypervisor.resume"),
            timer_sum_us(timers, "hypervisor.resume.seconds")),
      "ratio");

  if (!args.spans_out.empty()) {
    const std::size_t written = stats.write_jsonl(args.spans_out);
    std::printf("spans: %zu written to %s\n", written, args.spans_out.c_str());
  }
  tear_down(&site, sandbox);
  print_result(seen.failed == 0, seen.attempted, seen.failed, metrics);
  return 0;
}

bool parse_args(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::stoull(value);
    } else if (key == "--seconds") {
      args->seconds = std::stod(value);
    } else if (key == "--trace") {
      args->trace = std::stoi(value);
    } else if (key == "--sandbox") {
      args->sandbox = value;
    } else if (key == "--spans") {
      args->spans_out = value;
    } else {
      return false;
    }
  }
  const auto& names = workload_names();
  return argc % 2 == 1 && !args->sandbox.empty() && args->seconds > 0.0 &&
         (args->trace == 0 || args->trace == 1) &&
         std::find(names.begin(), names.end(), args->workload) != names.end();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  try {
    if (!perfbench::parse_args(argc, argv, &args)) {
      std::fprintf(stderr,
                   "usage: perfbench --workload <name> --seed <n> "
                   "--seconds <s> --trace <0|1> --sandbox <dir> "
                   "[--spans <file>]\n");
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bad argument: %s\n", e.what());
    return 2;
  }
  // Each create logs two info lines; keep stderr for warnings.
  vmp::util::set_log_level(vmp::util::LogLevel::kWarn);
  std::error_code ec;
  std::filesystem::remove_all(args.sandbox, ec);
  std::filesystem::create_directories(args.sandbox, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s: %s\n",
                 args.sandbox.c_str(), ec.message().c_str());
    return 1;
  }
  std::printf("workload %s seed %llu seconds %g trace %d\nsubstrate %s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace,
              perfbench::substrate(args.sandbox).c_str());
  int rc = 1;
  try {
    rc = args.trace == 0 ? perfbench::run_end_to_end(args)
                         : perfbench::run_traced(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    rc = 1;
  }
  std::filesystem::remove_all(args.sandbox, ec);
  return rc;
}
