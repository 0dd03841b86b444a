#include "sites.h"

#include <chrono>
#include <cmath>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>

#include "dag/matching.h"
#include "obs/trace.h"
#include "util/strings.h"
#include "workload/dag_library.h"
#include "workload/request_gen.h"
#include "xml/xml.h"

namespace perfbench {

using namespace vmp;

namespace {

constexpr std::uint64_t kMb = 1ull << 20;
constexpr std::uint32_t kMemoryMb = 32;

// workspace-clone: the memory checkpoint every clone copies.
constexpr std::size_t kMemoryPayloadBytes = 4ull << 20;

// catalog-churn: 40 DAG classes of 6 x 6 layered nodes, each published at
// three prefix depths over a pinned base golden holding the first two
// layers; the disk budget holds 32 goldens.
constexpr std::size_t kCatalogPlants = 8;
constexpr std::size_t kClasses = 40;
constexpr std::size_t kLayers = 6;
constexpr std::size_t kWidth = 6;
constexpr std::size_t kBaseLayers = 2;
constexpr double kEdgeDensity = 0.3;
constexpr std::size_t kResidentGoldens = 32;
constexpr double kZipfExponent = 1.0;
constexpr std::uint64_t kCatalogSeed = 2004;

// wide-site
constexpr std::size_t kWidePlants = 64;

// sharded-grid
constexpr std::size_t kStubPlants = 10000;
constexpr std::size_t kShards = 16;
constexpr std::size_t kGridClasses = 3;
constexpr std::uint64_t kRefreshEvery = 1024;

void require(const util::Status& status, const std::string& what) {
  if (!status.ok()) {
    throw std::runtime_error(what + ": " + status.error().to_string());
  }
}

storage::MachineSpec golden_spec() {
  storage::MachineSpec spec;
  spec.os = "linux-mandrake-8.1";
  spec.memory_bytes = kMemoryMb * kMb;
  spec.suspended = true;
  spec.disk.name = "disk0";
  spec.disk.capacity_bytes = 2048ull * kMb;
  spec.disk.span_count = 16;
  spec.disk.mode = storage::DiskMode::kNonPersistent;
  return spec;
}

hv::GuestState golden_guest() {
  hv::GuestState guest;
  guest.os = golden_spec().os;
  guest.hostname = "golden";
  guest.packages = {"vnc-server", "web-file-manager"};
  return guest;
}

warehouse::GoldenImage golden_image(const std::string& id,
                                    std::vector<std::string> performed) {
  warehouse::GoldenImage image;
  image.id = id;
  image.backend = "vmware-gsx";
  image.spec = golden_spec();
  image.guest = golden_guest();
  image.performed = std::move(performed);
  return image;
}

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

std::string client_domain(util::SplitMix64& rng) {
  return "vo" + std::to_string(rng.next_below(4)) + ".grid";
}

/// Wraps the lifecycle manager's lease protocol so the traced run sees
/// the acquire/release the hypervisor makes inside clone and destroy,
/// which have no span of their own.
class TimedLeaseHook : public hv::GoldenLeaseHook {
 public:
  explicit TimedLeaseHook(hv::GoldenLeaseHook* inner) : inner_(inner) {}
  util::Status acquire(const std::string& golden_id) override {
    obs::ScopedSpan span("lifecycle.acquire", "perfbench", golden_id);
    return inner_->acquire(golden_id);
  }
  void release(const std::string& golden_id) noexcept override {
    obs::ScopedSpan span("lifecycle.release", "perfbench", golden_id);
    inner_->release(golden_id);
  }

 private:
  hv::GoldenLeaseHook* inner_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Site
// ---------------------------------------------------------------------------

Site::Site(const SiteOptions& options) : options_(options) {
  std::filesystem::create_directories(options_.sandbox / "store");
  store_ = std::make_unique<storage::ArtifactStore>(options_.sandbox / "store");
  warehouse_ =
      std::make_unique<warehouse::Warehouse>(store_.get(), "warehouse");
}

Site::~Site() = default;

void Site::add_plants(std::size_t count, const std::string& prefix,
                      std::size_t worker_threads) {
  for (std::size_t i = 0; i < count; ++i) {
    core::PlantConfig config;
    config.name = prefix + std::to_string(i);
    config.worker_threads = worker_threads;
    auto plant = std::make_unique<core::VmPlant>(config, store_.get(),
                                                 warehouse_.get());
    require(plant->attach_to_bus(&bus_, &registry_), "attach " + config.name);
    if (lifecycle_ != nullptr) {
      if (options_.traced && lease_wrapper_ == nullptr) {
        lease_wrapper_ = std::make_unique<TimedLeaseHook>(lifecycle_.get());
      }
      plant->hypervisor().set_lease_hook(
          options_.traced ? lease_wrapper_.get() : lifecycle_.get());
    }
    plants_.push_back(std::move(plant));
  }
}

void Site::add_shop(lifecycle::LifecycleManager* lifecycle) {
  core::ShopConfig config;
  config.tie_break_seed = options_.seed;
  shop_ = std::make_unique<core::VmShop>(config, &bus_, &registry_);
  require(shop_->attach_to_bus(), "attach shop");
  shop_->set_lifecycle(lifecycle);
}

double Site::timed_publish(const warehouse::GoldenImage& image) {
  const auto start = std::chrono::steady_clock::now();
  const util::Status published = shop_->publish_image(image);
  const double ms = ms_since(start);
  return published.ok() ? ms : -1.0;
}

void Site::add_installer() {
  installer_warehouse_ =
      std::make_unique<warehouse::Warehouse>(store_.get(), "installer");
  auto lifecycle = lifecycle::LifecycleManager::create(
      installer_warehouse_.get(), lifecycle::LifecycleManager::Config{});
  require(lifecycle.ok() ? util::Status() : lifecycle.error(),
          "installer lifecycle");
  installer_lifecycle_ = std::move(lifecycle).value();
  shop_->set_lifecycle(installer_lifecycle_.get());
}

double Site::installer_publish() {
  const std::uint64_t n = installer_published_.fetch_add(1);
  return timed_publish(golden_image("installer-" + std::to_string(n),
                                    workload::invigo_golden_history()));
}

core::VmPlant* Site::plant(const std::string& name) const {
  for (const auto& p : plants_) {
    if (p->name() == name) return p.get();
  }
  return nullptr;
}

std::string Site::check_ad(const Job& job, const classad::ClassAd& ad) const {
  if (ad.get_string(core::attrs::kVmId).value_or("").empty()) return "no VMID";
  const std::string golden =
      ad.get_string(core::attrs::kGoldenImage).value_or("");
  if (golden != expected_golden_) return "golden '" + golden + "'";
  if (ad.get_string(core::attrs::kNetwork).value_or("").empty()) {
    return "no network";
  }
  const auto executed = ad.get_integer(core::attrs::kActionsExecuted);
  const auto satisfied = ad.get_integer(core::attrs::kActionsSatisfied);
  if (!executed || !satisfied ||
      static_cast<std::size_t>(*executed + *satisfied) !=
          job.request.config.size()) {
    return "actions executed + satisfied != DAG size";
  }
  return "";
}

double Site::after_create(const Job&, const classad::ClassAd&, bool*) {
  return -1.0;
}

void Site::after_cycle(std::uint64_t) {}

std::string Site::final_check() const {
  for (const auto& plant : plants_) {
    auto footprint = store_->tree_footprint(plant->config().clone_base_dir);
    if (!footprint.ok()) return plant->name() + ": clone base unreadable";
    if (footprint.value().files != 0 || footprint.value().links != 0) {
      return plant->name() + ": clone trees left behind";
    }
  }
  if (lifecycle_ != nullptr && lifecycle_->budget_bytes() != 0 &&
      lifecycle_->used_bytes() > lifecycle_->budget_bytes()) {
    return "lifecycle ledger over budget";
  }
  return "";
}

namespace {

// ---------------------------------------------------------------------------
// workspace-clone
// ---------------------------------------------------------------------------

class WorkspaceClone : public Site {
 public:
  explicit WorkspaceClone(const SiteOptions& options) : Site(options) {
    require(workload::publish_paper_goldens(warehouse_.get(), {kMemoryMb}),
            "publish golden");
    // Incompressible checkpoint: every clone copies these bytes.
    util::SplitMix64 rng(options.seed ^ 0x6d656d6f7279ull);
    std::string payload(kMemoryPayloadBytes, '\0');
    for (std::size_t i = 0; i + 8 <= payload.size(); i += 8) {
      const std::uint64_t word = rng.next_u64();
      payload.replace(i, 8, reinterpret_cast<const char*>(&word), 8);
    }
    auto written =
        store_->write_file("warehouse/golden-32mb/memory.vmss", payload);
    require(written.ok() ? util::Status() : written.error(), "memory payload");
    add_plants(1, "plant", 0);
    add_shop(nullptr);
    add_installer();
    expected_golden_ = "golden-32mb";
  }

  Job make_job(util::SplitMix64& rng, std::uint64_t serial) override {
    return Job{workload::workspace_request(kMemoryMb, serial,
                                           client_domain(rng)),
               0, {}};
  }
};

// ---------------------------------------------------------------------------
// wide-site
// ---------------------------------------------------------------------------

class WideSite : public Site {
 public:
  explicit WideSite(const SiteOptions& options) : Site(options) {
    require(workload::publish_paper_goldens(warehouse_.get(), {kMemoryMb}),
            "publish golden");
    add_plants(kWidePlants, "plant", 1);
    add_shop(nullptr);
    add_installer();
    expected_golden_ = "golden-32mb";
  }

  Job make_job(util::SplitMix64& rng, std::uint64_t serial) override {
    return Job{workload::workspace_request(kMemoryMb, serial,
                                           client_domain(rng)),
               0, {}};
  }
};

// ---------------------------------------------------------------------------
// catalog-churn
// ---------------------------------------------------------------------------

class CatalogChurn : public Site {
 public:
  explicit CatalogChurn(const SiteOptions& options) : Site(options) {
    journal_ = std::make_unique<obs::Journal>();
    require(journal_->open_durable(options.sandbox / "journal"),
            "open journal");
    lifecycle::LifecycleManager::Config config;
    config.disk_budget_bytes =
        kResidentGoldens *
        lifecycle::LifecycleManager::estimate_publish_bytes(golden_spec());
    config.journal = journal_.get();
    auto lifecycle =
        lifecycle::LifecycleManager::create(warehouse_.get(), config);
    require(lifecycle.ok() ? util::Status() : lifecycle.error(), "lifecycle");
    lifecycle_ = std::move(lifecycle).value();
    add_plants(kCatalogPlants, "plant", 1);
    add_shop(lifecycle_.get());

    // Classes: layered DAGs over one node set, differing in their edges.
    // Each class's goldens hold prefixes of a randomized topological order
    // of its own DAG, so other classes' goldens pass the hardware filter
    // and the action-mask prune but mostly fail the prefix or order test.
    // The first kBaseLayers layers come first in every order: a golden
    // holding just them (the pinned base) is a valid prefix for any class.
    // The catalog is the site's configuration, the same for every seed;
    // the seed drives the request stream (class draws, users, domains).
    util::SplitMix64 order_rng(kCatalogSeed);
    double total = 0.0;
    for (std::size_t c = 0; c < kClasses; ++c) {
      dag::ConfigDag graph = workload::random_layered_dag(
          kCatalogSeed + c, kLayers, kWidth, kEdgeDensity);
      std::vector<std::string> history;
      for (const std::string& id : random_order(graph, order_rng)) {
        history.push_back(graph.action(id)->signature());
      }
      classes_.push_back(ClassInfo{std::move(graph), std::move(history)});
      total += 1.0 / std::pow(static_cast<double>(c + 1), kZipfExponent);
      zipf_cdf_.push_back(total);
    }
    for (double& p : zipf_cdf_) p /= total;

    std::vector<std::string> base;
    for (std::size_t layer = 0; layer < kBaseLayers; ++layer) {
      for (std::size_t i = 0; i < kWidth; ++i) {
        base.push_back(
            classes_[0].graph.action(node_id(layer, i))->signature());
      }
    }
    tracked_.resize(kClasses);
    publish_setup("base", kClasses, base);
    require(lifecycle_->pin("base", true), "pin base");
    for (auto& t : tracked_) t.emplace_back("base", base.size());
    const std::size_t nodes = kLayers * kWidth;
    for (std::size_t c = 0; c < kClasses; ++c) {
      for (const std::size_t depth : {nodes / 2, 3 * nodes / 4, nodes}) {
        const auto& h = classes_[c].history;
        const std::string id = catalog_id(c, "-d", depth);
        publish_setup(id, c,
                      std::vector<std::string>(h.begin(), h.begin() + depth));
        tracked_[c].emplace_back(id, depth);
      }
    }
  }

  // Long enough for the catalog to settle from its set-up mix to the
  // request stream's.
  std::uint64_t warmup_cycles() const override { return 800; }

  Job make_job(util::SplitMix64& rng, std::uint64_t serial) override {
    const double u = rng.next_double();
    std::size_t cls = 0;
    while (cls + 1 < kClasses && zipf_cdf_[cls] < u) ++cls;
    Job job;
    job.cls = cls;
    core::CreateRequest& r = job.request;
    r.request_id = "cat-" + std::to_string(serial);
    r.client = "invigo-portal";
    r.domain = client_domain(rng);
    r.proxy_address = "proxy." + r.domain + ":4096";
    r.backend = "vmware-gsx";
    r.hardware.os = golden_spec().os;
    r.hardware.memory_bytes = golden_spec().memory_bytes;
    r.hardware.min_disk_bytes = golden_spec().disk.capacity_bytes;
    r.config = classes_[cls].graph;
    // The per-user step no golden holds: every create configures it.
    dag::Action host("hostname", "set-hostname");
    host.set_param("name", "ws" + std::to_string(serial));
    require(r.config.add_action(std::move(host)), "suffix node");
    for (std::size_t i = 0; i < kWidth; ++i) {
      require(r.config.add_edge(node_id(kLayers - 1, i), "hostname"),
              "suffix edge");
    }
    // Which of the class's goldens the planner can see right now.  One
    // found gone is evicted for good (ids are never reused): stop tracking
    // it.
    std::vector<std::pair<std::string, std::size_t>> tracked;
    {
      std::lock_guard<std::mutex> lock(catalog_mutex_);
      tracked = tracked_[cls];
    }
    std::set<std::string> gone;
    for (auto& golden : tracked) {
      if (warehouse_->contains(golden.first)) {
        job.resident.push_back(std::move(golden));
      } else {
        gone.insert(golden.first);
      }
    }
    if (!gone.empty()) {
      std::lock_guard<std::mutex> lock(catalog_mutex_);
      std::erase_if(tracked_[cls], [&gone](const auto& golden) {
        return gone.count(golden.first) != 0;
      });
    }
    return job;
  }

  std::string check_ad(const Job& job,
                       const classad::ClassAd& ad) const override {
    if (ad.get_string(core::attrs::kVmId).value_or("").empty()) {
      return "no VMID";
    }
    if (ad.get_string(core::attrs::kNetwork).value_or("").empty()) {
      return "no network";
    }
    const std::string golden =
        ad.get_string(core::attrs::kGoldenImage).value_or("");
    std::vector<std::string> history;
    {
      std::lock_guard<std::mutex> lock(catalog_mutex_);
      auto it = catalog_.find(golden);
      if (it == catalog_.end()) return "golden '" + golden + "' unknown";
      history = it->second.history;
    }
    auto eval = dag::evaluate_match(job.request.config, history);
    if (!eval.ok() || !eval.value().matches()) {
      return "golden '" + golden + "' does not match the request";
    }
    const auto executed = ad.get_integer(core::attrs::kActionsExecuted);
    const auto satisfied = ad.get_integer(core::attrs::kActionsSatisfied);
    if (!executed || !satisfied ||
        static_cast<std::size_t>(*satisfied) != history.size() ||
        static_cast<std::size_t>(*executed + *satisfied) !=
            job.request.config.size()) {
      return "actions executed + satisfied != DAG size";
    }
    // The PPP picks the match that satisfies most: at least as many
    // actions as the deepest of the class's goldens that stayed in the
    // warehouse from before the create until now (the class's full
    // history when one of those is full depth).
    std::size_t deepest = 0;
    std::string deepest_id;
    for (const auto& [id, depth] : job.resident) {
      if (depth > deepest && warehouse_->contains(id)) {
        deepest = depth;
        deepest_id = id;
      }
    }
    if (static_cast<std::size_t>(*satisfied) < deepest) {
      return "golden '" + golden + "' satisfies " +
             std::to_string(*satisfied) + " actions; resident '" +
             deepest_id + "' satisfies " + std::to_string(deepest);
    }
    return "";
  }

  double after_create(const Job& job, const classad::ClassAd& ad,
                      bool* failed) override {
    const std::string golden =
        ad.get_string(core::attrs::kGoldenImage).value_or("");
    {
      std::lock_guard<std::mutex> lock(catalog_mutex_);
      auto it = catalog_.find(golden);
      if (it != catalog_.end() && it->second.cls == job.cls &&
          it->second.history.size() == classes_[job.cls].history.size()) {
        deep_hits_.fetch_add(1);
        return -1.0;
      }
    }
    // A miss: the client publishes its class's deepest golden.
    const std::string id =
        catalog_id(job.cls, "-g", generation_.fetch_add(1));
    {
      std::lock_guard<std::mutex> lock(catalog_mutex_);
      catalog_[id] = Entry{job.cls, classes_[job.cls].history};
    }
    const double ms =
        timed_publish(golden_image(id, classes_[job.cls].history));
    publishes_.fetch_add(1);
    if (ms < 0.0) {
      *failed = true;
    } else {
      std::lock_guard<std::mutex> lock(catalog_mutex_);
      tracked_[job.cls].emplace_back(id, classes_[job.cls].history.size());
    }
    return ms;
  }

 private:
  /// "c<cls><tag><n>", appended piecewise (GCC 12 misreports a
  /// -Wrestrict overlap for the operator+ chain).
  static std::string catalog_id(std::size_t cls, const char* tag,
                                std::uint64_t n) {
    std::string id = "c";
    id += std::to_string(cls);
    id += tag;
    id += std::to_string(n);
    return id;
  }

  static std::string node_id(std::size_t layer, std::size_t i) {
    return "L" + std::to_string(layer) + "N" + std::to_string(i);
  }

  /// The base layers in id order, then the rest in a random order that
  /// respects the DAG's edges.
  static std::vector<std::string> random_order(const dag::ConfigDag& graph,
                                               util::SplitMix64& rng) {
    std::vector<std::string> order;
    std::map<std::string, std::size_t> waiting;  // unmet predecessors
    for (const std::string& id : graph.node_ids()) {
      if (std::stoul(id.substr(1, id.find('N') - 1)) < kBaseLayers) {
        order.push_back(id);
      }
    }
    std::set<std::string> done(order.begin(), order.end());
    std::vector<std::string> ready;
    for (const std::string& id : graph.node_ids()) {
      if (done.count(id) != 0) continue;
      std::size_t unmet = 0;
      for (const std::string& pred : graph.predecessors(id)) {
        unmet += done.count(pred) == 0 ? 1 : 0;
      }
      if (unmet == 0) {
        ready.push_back(id);
      } else {
        waiting[id] = unmet;
      }
    }
    while (!ready.empty()) {
      const std::size_t pick = rng.next_below(ready.size());
      const std::string id = ready[pick];
      ready.erase(ready.begin() + static_cast<std::ptrdiff_t>(pick));
      order.push_back(id);
      for (const std::string& next : graph.successors(id)) {
        auto it = waiting.find(next);
        if (it != waiting.end() && --it->second == 0) {
          ready.push_back(next);
          waiting.erase(it);
        }
      }
    }
    return order;
  }

  struct ClassInfo {
    dag::ConfigDag graph;
    std::vector<std::string> history;  // signatures, topological order
  };
  struct Entry {
    std::size_t cls = 0;
    std::vector<std::string> history;
  };

  void publish_setup(const std::string& id, std::size_t cls,
                     std::vector<std::string> history) {
    {
      std::lock_guard<std::mutex> lock(catalog_mutex_);
      catalog_[id] = Entry{cls, history};
    }
    const double ms = timed_publish(golden_image(id, std::move(history)));
    if (ms < 0.0) throw std::runtime_error("publish " + id + " failed");
  }

  std::vector<ClassInfo> classes_;
  std::vector<double> zipf_cdf_;
  mutable std::mutex catalog_mutex_;
  std::map<std::string, Entry> catalog_;  // every id ever published
  // Per class: its goldens (id, history length) not yet seen evicted,
  // the pinned base included.
  std::vector<std::vector<std::pair<std::string, std::size_t>>> tracked_;
  std::atomic<std::uint64_t> generation_{0};
};

// ---------------------------------------------------------------------------
// sharded-grid
// ---------------------------------------------------------------------------

class ShardedGrid : public Site {
 public:
  explicit ShardedGrid(const SiteOptions& options) : Site(options) {
    for (std::size_t k = 0; k < kGridClasses; ++k) {
      domains_.push_back("vo" + std::to_string(k) + ".grid");
      const std::string key = federation::dag_class_key(
          workload::workspace_request(kMemoryMb, 0, domains_.back()));
      class_of_key_[key] = k;
    }
    // Deterministic per-(plant, class) prices; the cheapest member of
    // each class is the only correct landing place for its creates.
    costs_.assign(kGridClasses, std::vector<double>(kStubPlants));
    min_cost_.assign(kGridClasses, 1e300);
    util::SplitMix64 rng(options.seed ^ 0x7072696365ull);
    for (std::size_t k = 0; k < kGridClasses; ++k) {
      for (std::size_t i = 0; i < kStubPlants; ++i) {
        costs_[k][i] = 10.0 + static_cast<double>(rng.next_below(1000000)) /
                                  1000.0;
        min_cost_[k] = std::min(min_cost_[k], costs_[k][i]);
      }
    }
    for (std::size_t s = 0; s < kShards; ++s) {
      federation::ShardBrokerConfig config;
      config.name = "shard" + std::to_string(s);
      config.bid_ttl_s = 1e9;  // refreshed by the sweep, never on-path
      brokers_.push_back(std::make_unique<federation::ShardBroker>(
          config, &bus_, &registry_));
      brokers_.back()->set_clock([] { return 0.0; });
    }
    for (std::size_t i = 0; i < kStubPlants; ++i) {
      const std::string name = "stub" + std::to_string(i);
      require(bus_.register_endpoint(name,
                                     [this, i](const net::Message& m) {
                                       return handle_stub(i, m);
                                     }),
              "register stub");
      brokers_[i % kShards]->add_member(name);
    }
    for (auto& broker : brokers_) require(broker->attach_to_bus(), "broker");
    add_shop(nullptr);
    add_installer();
    // Seed every shard's cache with every class.
    for (std::size_t k = 0; k < kGridClasses; ++k) {
      auto ad = shop_->create(
          workload::workspace_request(kMemoryMb, k, domains_[k]));
      require(ad.ok() ? util::Status() : ad.error(), "seed create");
      require(shop_->destroy(*ad.value().get_string(core::attrs::kVmId)),
              "seed destroy");
    }
  }

  Job make_job(util::SplitMix64& rng, std::uint64_t serial) override {
    const std::size_t k = rng.next_below(kGridClasses);
    return Job{workload::workspace_request(kMemoryMb, serial, domains_[k]), k,
               {}};
  }

  std::string check_ad(const Job& job,
                       const classad::ClassAd& ad) const override {
    if (ad.get_string(core::attrs::kVmId).value_or("").empty()) {
      return "no VMID";
    }
    const std::string plant = ad.get_string(core::attrs::kPlant).value_or("");
    if (!plant.starts_with("stub")) return "landed on '" + plant + "'";
    const std::size_t index = std::stoul(plant.substr(4));
    if (index >= kStubPlants || costs_[job.cls][index] != min_cost_[job.cls]) {
      return "landed on " + plant + ", not the cheapest member";
    }
    if (ad.get_string(core::attrs::kGoldenImage).value_or("") !=
        "stub-golden") {
      return "wrong golden";
    }
    if (ad.get_string(core::attrs::kNetwork).value_or("").empty()) {
      return "no network";
    }
    const auto executed = ad.get_integer(core::attrs::kActionsExecuted);
    const auto satisfied = ad.get_integer(core::attrs::kActionsSatisfied);
    if (!executed || !satisfied ||
        static_cast<std::size_t>(*executed + *satisfied) !=
            job.request.config.size()) {
      return "actions executed + satisfied != DAG size";
    }
    return "";
  }

  // The cache's write side: every kRefreshEvery creates the next broker
  // in turn re-prices every cached class across its members, so each
  // broker refreshes once per kShards * kRefreshEvery creates.
  void after_cycle(std::uint64_t completed) override {
    if (completed % kRefreshEvery != 0) return;
    const std::size_t broker = (completed / kRefreshEvery) % kShards;
    (void)brokers_[broker]->refresh_all();
  }

 private:
  // A plant endpoint with no storage or hypervisor behind it: prices from
  // the table and answers creates with a classad, as bench/federation does.
  net::Message handle_stub(std::size_t index, const net::Message& m) {
    net::Message response = net::Message::response_to(m);
    const std::string name = "stub" + std::to_string(index);
    if (m.service() == "vmplant.estimate_batch") {
      xml::Element& bids = response.body().add_child("bids");
      for (const xml::Element* cls : m.body().children_named("class")) {
        auto it = class_of_key_.find(cls->attr("key"));
        if (it == class_of_key_.end()) continue;
        xml::Element& bid = bids.add_child("bid");
        bid.set_attr("class", cls->attr("key"));
        bid.set_attr("plant", name);
        bid.set_attr("cost", util::format_double(costs_[it->second][index]));
      }
      return response;
    }
    if (m.service() == "vmplant.query" || m.service() == "vmplant.collect") {
      const xml::Element* vm = m.body().child("vm");
      const std::string vm_id = vm != nullptr ? vm->attr("id") : "";
      if (m.service() == "vmplant.collect") {
        response.body().add_child("collected").set_attr("id", vm_id);
      } else {
        classad::ClassAd ad;
        ad.set_string(core::attrs::kVmId, vm_id);
        ad.set_string(core::attrs::kPlant, name);
        ad.to_xml(&response.body());
      }
      return response;
    }
    const xml::Element* req_elem = m.body().child("create-request");
    auto request = req_elem != nullptr
                       ? core::CreateRequest::from_xml(*req_elem)
                       : util::Result<core::CreateRequest>(util::Error(
                             util::ErrorCode::kParseError, "no request"));
    if (!request.ok()) return net::Message::fault_to(m, request.error());
    auto it = class_of_key_.find(federation::dag_class_key(request.value()));
    if (it == class_of_key_.end()) {
      return net::Message::fault_to(
          m, util::Error(util::ErrorCode::kInvalidArgument, "unknown class"));
    }
    if (m.service() == "vmplant.estimate") {
      xml::Element& bid = response.body().add_child("bid");
      bid.set_attr("plant", name);
      bid.set_attr("cost", util::format_double(costs_[it->second][index]));
      return response;
    }
    classad::ClassAd ad;
    ad.set_string(core::attrs::kVmId,
                  name + "-vm" + std::to_string(vm_ids_.fetch_add(1)));
    ad.set_string(core::attrs::kPlant, name);
    ad.set_string(core::attrs::kGoldenImage, "stub-golden");
    ad.set_string(core::attrs::kNetwork, "stubnet-" + domains_[it->second]);
    ad.set_integer(core::attrs::kActionsExecuted,
                   static_cast<std::int64_t>(request.value().config.size()));
    ad.set_integer(core::attrs::kActionsSatisfied, 0);
    ad.to_xml(&response.body());
    return response;
  }

  std::vector<std::string> domains_;
  std::map<std::string, std::size_t> class_of_key_;
  std::vector<std::vector<double>> costs_;  // [class][plant]
  std::vector<double> min_cost_;
  std::atomic<std::uint64_t> vm_ids_{0};
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "workspace-clone", "catalog-churn", "wide-site", "sharded-grid"};
  return names;
}

std::unique_ptr<Site> make_site(const std::string& workload,
                                const SiteOptions& options) {
  std::unique_ptr<Site> site;
  if (workload == "workspace-clone") {
    site = std::make_unique<WorkspaceClone>(options);
  } else if (workload == "catalog-churn") {
    site = std::make_unique<CatalogChurn>(options);
  } else if (workload == "wide-site") {
    site = std::make_unique<WideSite>(options);
  } else if (workload == "sharded-grid") {
    site = std::make_unique<ShardedGrid>(options);
  }
  return site;
}

}  // namespace perfbench
