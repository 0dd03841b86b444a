// The four benchmark sites: a live shop -> bus -> plant -> warehouse ->
// store -> hypervisor deployment per workload, the request generator that
// drives it, and the checks its outputs must pass.
//
//   workspace-clone  1 plant, 1 golden with a 4 MiB incompressible memory
//                    checkpoint, In-VIGO workspace requests (paper Fig. 4/5)
//   catalog-churn    8 plants over one warehouse of layered-DAG goldens
//                    under a lifecycle disk budget with a durable journal;
//                    Zipf requests, misses publish their class's golden
//   wide-site        64 plants behind a flat shop, one sparse golden
//   sharded-grid     10 000 stub plant endpoints behind 16 ShardBrokers,
//                    one broker refreshing its bid cache per 1024 creates
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "classad/classad.h"
#include "core/plant.h"
#include "core/request.h"
#include "core/shop.h"
#include "federation/federation.h"
#include "lifecycle/lifecycle.h"
#include "net/bus.h"
#include "net/registry.h"
#include "obs/journal.h"
#include "storage/artifact_store.h"
#include "util/random.h"
#include "warehouse/warehouse.h"

namespace perfbench {

/// One generated request and what the checks judge it by.
struct Job {
  vmp::core::CreateRequest request;
  std::size_t cls = 0;
  /// catalog-churn: the class's goldens (id, history length) that were in
  /// the warehouse when the job was made.  Ids are never reused, so one
  /// still there when the classad is checked was there for the whole plan.
  std::vector<std::pair<std::string, std::size_t>> resident;
};

struct SiteOptions {
  std::filesystem::path sandbox;
  std::uint64_t seed = 1;
  /// Traced run: wrap the lifecycle lease hook so each acquire and release
  /// inside a create is a span of the armed obs::Tracer.
  bool traced = false;
};

class Site {
 public:
  explicit Site(const SiteOptions& options);
  virtual ~Site();
  Site(const Site&) = delete;
  Site& operator=(const Site&) = delete;

  /// Untimed create+destroy cycles run before timing starts.
  virtual std::uint64_t warmup_cycles() const { return 200; }

  /// Request for a client's next create, made just before it is sent; the
  /// same rng state and serial give the same request.
  virtual Job make_job(vmp::util::SplitMix64& rng, std::uint64_t serial) = 0;

  /// "" when the classad is what this job must produce, else the reason.
  virtual std::string check_ad(const Job& job,
                               const vmp::classad::ClassAd& ad) const;

  /// What the client does after a correct create, before destroying the
  /// VM.  catalog-churn publishes its class's golden after a miss and
  /// returns the publish latency in ms; the others return a negative value.
  virtual double after_create(const Job& job, const vmp::classad::ClassAd& ad,
                              bool* failed);

  /// Called with the site-wide count after every completed cycle.
  virtual void after_cycle(std::uint64_t completed);

  /// Checks over the whole site once every client has stopped.
  virtual std::string final_check() const;

  vmp::net::MessageBus& bus() { return bus_; }
  vmp::core::VmShop& shop() { return *shop_; }
  vmp::warehouse::Warehouse* warehouse() { return warehouse_.get(); }
  vmp::obs::Journal* journal() { return journal_.get(); }
  const std::vector<std::unique_ptr<vmp::core::VmPlant>>& plants() const {
    return plants_;
  }
  const std::vector<std::unique_ptr<vmp::federation::ShardBroker>>& brokers()
      const {
    return brokers_;
  }
  /// The plant named `name`, or null (the sharded grid's stubs).
  vmp::core::VmPlant* plant(const std::string& name) const;
  /// True when the site has an installer: a warehouse of its own that
  /// installer_publish() fills through VmShop::publish_image (workloads
  /// whose clients never publish).
  bool has_installer() const { return installer_warehouse_ != nullptr; }
  /// Publishes the installer's next golden; its latency in ms, negative
  /// when the publish failed.  Thread-safe.
  double installer_publish();
  std::uint64_t deep_hits() const { return deep_hits_.load(); }
  std::uint64_t publishes() const { return publishes_.load(); }

 protected:
  /// Creates `count` plants named <prefix><i> over the shared store and
  /// warehouse, attached to the bus.
  void add_plants(std::size_t count, const std::string& prefix,
                  std::size_t worker_threads);
  /// The flat shop over the registry; `lifecycle` takes its publishes.
  void add_shop(vmp::lifecycle::LifecycleManager* lifecycle);
  /// Gives the shop an installer warehouse and lifecycle manager of their
  /// own, so workloads whose clients never publish still time the path.
  void add_installer();
  /// Times one VmShop::publish_image, ms; negative when it failed.
  double timed_publish(const vmp::warehouse::GoldenImage& image);

  SiteOptions options_;
  vmp::net::MessageBus bus_;
  vmp::net::ServiceRegistry registry_;
  std::unique_ptr<vmp::storage::ArtifactStore> store_;
  std::unique_ptr<vmp::warehouse::Warehouse> warehouse_;
  std::unique_ptr<vmp::obs::Journal> journal_;
  std::unique_ptr<vmp::lifecycle::LifecycleManager> lifecycle_;
  std::unique_ptr<vmp::warehouse::Warehouse> installer_warehouse_;
  std::unique_ptr<vmp::lifecycle::LifecycleManager> installer_lifecycle_;
  std::unique_ptr<vmp::hv::GoldenLeaseHook> lease_wrapper_;
  std::vector<std::unique_ptr<vmp::core::VmPlant>> plants_;
  std::vector<std::unique_ptr<vmp::federation::ShardBroker>> brokers_;
  std::unique_ptr<vmp::core::VmShop> shop_;

  std::atomic<std::uint64_t> installer_published_{0};
  std::atomic<std::uint64_t> deep_hits_{0};
  std::atomic<std::uint64_t> publishes_{0};
  std::string expected_golden_;  // "" when the site checks goldens itself
};

/// Workload names, in the order the benchmark documents them.
const std::vector<std::string>& workload_names();

/// Builds and populates the named site (set-up up to, not including,
/// warm-up).  Returns null for an unknown name; throws on set-up failure.
std::unique_ptr<Site> make_site(const std::string& workload,
                                const SiteOptions& options);

}  // namespace perfbench
