// Shop-side fleet observability: pull, merge, judge.
//
// The paper's VMShop keeps no per-VM state (§3.1), but grid-scale plant
// selection (§3.4's bid auction) improves when the shop knows how plants
// have been behaving — the CMS-style deployments the paper targets run
// hundreds of creations against plants whose storage and VMM degrade
// independently.  The FleetAggregator is that feedback loop:
//
//   1. every sweep it pulls each discovered plant's "obs://metrics" classad
//      over the message bus (vmplant.query — the same wire path clients
//      use, so no new protocol);
//   2. reconstructs a mergeable obs::MetricsSnapshot from each ad
//      (obs::metrics_snapshot_from_ad) and merges the plant-scoped
//      "<plant>.create.*" SLI metrics — including the log-linear latency
//      histograms — into a fleet rollup published as "obs://fleet/metrics";
//   3. feeds each plant's good/bad creation deltas into a per-plant
//      obs::SloTracker and publishes the verdict (health, burn rates, SLI
//      quantile) as "obs://health/<plant>";
//   4. exposes health() for VmShop::set_health_provider, closing the loop:
//      bids from burning plants get penalized (DESIGN.md §9).
//
// Plants that go silent keep their last verdict until stale_after_s passes,
// then their health ad ages out and they drop from the rollup; health()
// reverts to neutral (bids only come from reachable plants anyway).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "classad/classad.h"
#include "core/info_system.h"
#include "net/bus.h"
#include "net/registry.h"
#include "obs/metrics.h"
#include "obs/slo.h"

namespace vmp::core {

struct FleetAggregatorConfig {
  std::string name = "fleet-aggregator";
  /// A plant unseen for longer than this loses its health ad and drops out
  /// of the fleet rollup (seconds on the aggregator's clock).
  double stale_after_s = 30.0;
  /// SLO applied to every plant's create SLI.
  obs::SloPolicy slo;
  /// Plant-scoped SLI metric suffixes; the full metric name is
  /// "<plant>.<suffix>" (VmPlant records these alongside the globals).
  std::string sli_timer_suffix = "create.seconds";
  std::string good_counter_suffix = "create.count";
  std::string bad_counter_suffix = "create_fail.count";
  /// Burn-window ring geometry (per plant).
  std::size_t ring_buckets = 128;
  double ring_bucket_width_s = 1.0;
};

/// Reserved attribute names in "obs://health/<plant>" ads.
namespace fleet_attrs {
inline constexpr const char* kKind = "ObsKind";  // "health"
inline constexpr const char* kPlant = "Plant";
inline constexpr const char* kHealth = "Health";
inline constexpr const char* kShortBurn = "ShortBurn";
inline constexpr const char* kLongBurn = "LongBurn";
inline constexpr const char* kSliQuantileSeconds = "SliQuantileSeconds";
inline constexpr const char* kGoodTotal = "GoodTotal";
inline constexpr const char* kBadTotal = "BadTotal";
inline constexpr const char* kLastSeenSeconds = "LastSeenSeconds";
inline constexpr const char* kHeadroomBytes = "LifecycleHeadroomBytes";
inline constexpr const char* kJournalDropped = "JournalDroppedRecords";
inline constexpr const char* kPlantCount = "PlantCount";  // fleet rollup ad
// "obs://broker/<name>" shard ads (federation, DESIGN.md §16).
inline constexpr const char* kBroker = "Broker";
inline constexpr const char* kBrokerMembers = "Members";
inline constexpr const char* kForwarded = "CreationsForwarded";
inline constexpr const char* kBidsCached = "BidsCachedServed";
inline constexpr const char* kBidsRefreshed = "BidsRefreshed";
inline constexpr const char* kBidCacheSize = "BidCacheSize";
inline constexpr const char* kSubtreeHeadroom = "SubtreeHeadroomBytes";
inline constexpr const char* kBrokerCount = "BrokerCount";  // rollup ad
}  // namespace fleet_attrs

class FleetAggregator {
 public:
  /// One plant's SLO verdict as of the last sweep that reached it.
  struct PlantHealth {
    std::string plant;
    double health = 1.0;
    double short_burn = 0.0;
    double long_burn = 0.0;
    /// SLI latency at the policy's target quantile (absent until the plant
    /// has recorded creations).
    std::optional<double> sli_quantile_s;
    std::uint64_t good_total = 0;
    std::uint64_t bad_total = 0;
    /// Warehouse quota headroom (budget - used - reserved) the plant last
    /// reported via its lifecycle.headroom_bytes.gauge; 0 when the plant
    /// runs without a disk budget.  The shop can bid placements on this.
    std::int64_t lifecycle_headroom_bytes = 0;
    /// Journal records the plant's flight recorder failed to make durable
    /// (lifecycle.journal.dropped.count); non-zero means the plant's
    /// crash-forensics timeline has holes.
    std::uint64_t journal_dropped = 0;
    double last_seen_s = 0.0;
  };

  /// One federation shard broker's last-sweep facts (registry records with
  /// property broker=true are swept as brokers, never as plants — a broker
  /// runs no production line, so SLO verdicts would be meaningless).
  struct BrokerState {
    std::string broker;
    std::int64_t members = 0;
    std::uint64_t creations_forwarded = 0;
    std::uint64_t bids_cached_served = 0;
    std::uint64_t bids_refreshed = 0;
    std::int64_t bid_cache_size = 0;
    std::int64_t subtree_headroom_bytes = 0;
    double last_seen_s = 0.0;
  };

  /// Publishes into `info` (the shop-side store): per-plant
  /// "obs://health/<plant>" ads plus the "obs://fleet/metrics" rollup.
  FleetAggregator(FleetAggregatorConfig config, net::MessageBus* bus,
                  net::ServiceRegistry* registry, VmInformationSystem* info);
  ~FleetAggregator();

  FleetAggregator(const FleetAggregator&) = delete;
  FleetAggregator& operator=(const FleetAggregator&) = delete;

  const FleetAggregatorConfig& config() const { return config_; }

  /// Install a time source (e.g. the DES clock); nullptr restores wall
  /// seconds since construction.  Burn windows and staleness use it.
  void set_clock(std::function<double()> clock);
  double now() const;

  /// Pull every discovered plant once, update SLO state, republish the
  /// health and rollup ads.  Returns how many plants answered.
  std::size_t sweep();

  /// Health in [0, 1] for the shop's bid penalty.  Neutral (1.0) for
  /// unknown or staled-out plants.
  double health(const std::string& plant) const;

  /// Last verdict per plant (stale plants excluded), sorted by name.
  std::vector<PlantHealth> plant_healths() const;
  std::optional<PlantHealth> plant_health(const std::string& plant) const;

  /// Last facts per fresh shard broker, sorted by name (empty in flat
  /// deployments).
  std::vector<BrokerState> broker_states() const;

  /// The current fleet rollup: every fresh plant's SLI metrics merged
  /// (histograms included) under "fleet.*" names.
  obs::MetricsSnapshot fleet_snapshot() const;

  /// Sweeps completed.
  std::uint64_t sweeps() const { return sweeps_.load(); }

  /// Run sweep() on a background thread every `interval` (wall time; the
  /// observation clock is still whatever set_clock installed).
  void start_periodic(std::chrono::milliseconds interval);
  void stop_periodic();
  bool periodic_running() const { return thread_.joinable(); }

  /// Remove every ad this aggregator published (health + rollup).
  void clear_published();

  /// Append the published ads as JSON lines ({"id": ..., "attrs": {...}})
  /// for tools/fleet_report.py.  Returns false when the file cannot be
  /// opened.
  bool export_jsonl(const std::string& path) const;

 private:
  struct PlantState {
    std::unique_ptr<obs::SloTracker> slo;
    std::uint64_t last_good = 0;  // counter readings at the last sweep
    std::uint64_t last_bad = 0;
    obs::TimerStats sli;          // plant-scoped SLI timer, latest pull
    /// Per-stage critical-path self-time timers (tail_self_*_seconds) the
    /// plant's tail sampler exported, latest pull; merged fleet-wide so
    /// the rollup answers "which stage dominates slow creates".
    std::map<std::string, obs::TimerStats> tail_self;
    PlantHealth verdict;
    bool ever_seen = false;       // answered at least one sweep
    bool fresh = false;           // seen within stale_after_s of last sweep
  };

  struct BrokerSweepState {
    BrokerState facts;
    bool ever_seen = false;
    bool fresh = false;
  };

  util::Result<classad::ClassAd> pull_metrics_ad(const std::string& plant);
  void publish_locked(double now_s);
  std::optional<double> sli_quantile(const obs::TimerStats& stats) const;

  FleetAggregatorConfig config_;
  net::MessageBus* bus_;
  net::ServiceRegistry* registry_;
  VmInformationSystem* info_;

  mutable std::mutex mutex_;
  std::function<double()> clock_;
  std::chrono::steady_clock::time_point epoch_;
  std::map<std::string, PlantState> plants_;
  std::map<std::string, BrokerSweepState> brokers_;

  std::thread thread_;
  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;
  bool stopping_ = false;
  std::atomic<std::uint64_t> sweeps_{0};
};

}  // namespace vmp::core
