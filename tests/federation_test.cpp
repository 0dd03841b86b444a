// Federation tests (DESIGN.md §16): the ShardBroker's cached bid
// aggregation, headroom-aware routing, and graceful degradation; the plain
// VMBroker paths at bid_ttl_s = 0 (BrokerTest: hidden members, shop
// failover; VmBrokerSeedTest: markup arithmetic, winning-member forwarding,
// VMID-map routing); and the shop-side bid-collection robustness knobs.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>

#include "cluster/deployment.h"
#include "core/fleet.h"
#include "core/plant.h"
#include "core/shop.h"
#include "fault/fault.h"
#include "federation/federation.h"
#include "obs/export.h"
#include "workload/request_gen.h"

namespace vmp {
namespace {

class FederationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::temp_directory_path() /
            ("vmp-fed-test-" + std::to_string(::getpid()) + "-" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(root_);
    store_ = std::make_unique<storage::ArtifactStore>(root_);
    warehouse_ =
        std::make_unique<warehouse::Warehouse>(store_.get(), "warehouse");
    ASSERT_TRUE(workload::publish_paper_goldens(warehouse_.get()).ok());
  }
  void TearDown() override {
    warehouse_.reset();
    store_.reset();
    std::filesystem::remove_all(root_);
  }

  std::unique_ptr<core::VmPlant> make_plant(const std::string& name) {
    core::PlantConfig pc;
    pc.name = name;
    return std::make_unique<core::VmPlant>(pc, store_.get(), warehouse_.get());
  }

  /// A hidden member plant: bus endpoint, no registry entry.
  std::unique_ptr<core::VmPlant> make_member(const std::string& name) {
    auto plant = make_plant(name);
    EXPECT_TRUE(plant->attach_to_bus(&bus_, nullptr).ok());
    return plant;
  }

  /// ShardBroker with a controllable clock.  Names must be unique across
  /// tests: scoped metrics live in the process-wide registry.
  std::unique_ptr<federation::ShardBroker> make_shard(
      federation::ShardBrokerConfig config) {
    auto broker = std::make_unique<federation::ShardBroker>(
        std::move(config), &bus_, &registry_);
    broker->set_clock([this] { return clock_s_; });
    EXPECT_TRUE(broker->attach_to_bus().ok());
    return broker;
  }

  std::filesystem::path root_;
  std::unique_ptr<storage::ArtifactStore> store_;
  std::unique_ptr<warehouse::Warehouse> warehouse_;
  net::MessageBus bus_;
  net::ServiceRegistry registry_;
  double clock_s_ = 0.0;
};

// -- dag_class_key ------------------------------------------------------------------

TEST_F(FederationTest, DagClassKeyGroupsByRequestShape) {
  const auto a = workload::workspace_request(64, 0, "ufl.edu");
  const auto b = workload::workspace_request(64, 7, "ufl.edu");  // other user
  const auto c = workload::workspace_request(32, 0, "ufl.edu");  // other size
  const auto d = workload::workspace_request(64, 0, "nwu.edu");  // other domain
  EXPECT_EQ(federation::dag_class_key(a), federation::dag_class_key(b));
  EXPECT_NE(federation::dag_class_key(a), federation::dag_class_key(c));
  EXPECT_NE(federation::dag_class_key(a), federation::dag_class_key(d));
}

// -- vmplant.estimate_batch (plant side) --------------------------------------------

TEST_F(FederationTest, PlantPricesBatchOfClasses) {
  auto plant = make_member("batch-plant");
  net::Message m =
      net::Message::request("vmplant.estimate_batch", "t", "batch-plant", "c");
  for (std::uint32_t mb : {32u, 64u}) {
    const auto request = workload::workspace_request(mb, 0, "d");
    xml::Element& cls = m.body().add_child("class");
    cls.set_attr("key", federation::dag_class_key(request));
    request.to_xml(&cls);
  }
  auto response = net::call_expecting_success(&bus_, m);
  ASSERT_TRUE(response.ok()) << response.error().to_string();
  const xml::Element* bids = response.value().body().child("bids");
  ASSERT_NE(bids, nullptr);
  EXPECT_EQ(bids->children_named("bid").size(), 2u);
  for (const xml::Element* bid : bids->children_named("bid")) {
    EXPECT_EQ(bid->attr("plant"), "batch-plant");
    EXPECT_GT(bid->attr_double("cost", -1.0), 0.0);
  }
}

TEST_F(FederationTest, BatchSkipsMalformedClassesInsteadOfFaulting) {
  auto plant = make_member("partial-plant");
  net::Message m = net::Message::request("vmplant.estimate_batch", "t",
                                         "partial-plant", "c");
  const auto good = workload::workspace_request(64, 0, "d");
  xml::Element& ok_cls = m.body().add_child("class");
  ok_cls.set_attr("key", federation::dag_class_key(good));
  good.to_xml(&ok_cls);
  // A class with no <create-request>: absent from the reply, not fatal.
  m.body().add_child("class").set_attr("key", "broken");
  auto response = net::call_expecting_success(&bus_, m);
  ASSERT_TRUE(response.ok()) << response.error().to_string();
  EXPECT_EQ(response.value().body().child("bids")->children_named("bid").size(),
            1u);
}

// -- Cached bid aggregation ---------------------------------------------------------

TEST_F(FederationTest, SecondEstimateServedFromCacheWithZeroDownstreamMessages) {
  auto m0 = make_member("cacheA0");
  auto m1 = make_member("cacheA1");
  auto shard = make_shard({.name = "fedshardA", .bid_ttl_s = 30.0});
  shard->add_member("cacheA0");
  shard->add_member("cacheA1");

  core::VmShop shop(core::ShopConfig{.name = "shopA"}, &bus_, &registry_);
  ASSERT_TRUE(shop.attach_to_bus().ok());
  const auto request = workload::workspace_request(64, 0, "d");

  // Miss: synchronous single-class refresh (one batch per member).
  ASSERT_EQ(shop.collect_bids(request).size(), 1u);
  EXPECT_EQ(shard->bids_refreshed(), 1u);
  EXPECT_EQ(shard->bids_cached_served(), 0u);

  // Hit: the estimate is answered from the cache — exactly ONE bus call
  // total (shop -> broker), nothing downstream.
  const std::uint64_t calls_before = bus_.calls_total();
  ASSERT_EQ(shop.collect_bids(request).size(), 1u);
  EXPECT_EQ(bus_.calls_total() - calls_before, 1u);
  EXPECT_EQ(shard->bids_cached_served(), 1u);
  EXPECT_EQ(shard->bids_refreshed(), 1u);

  const auto entry =
      shard->cached(federation::dag_class_key(request));
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->member_bids.size(), 2u);
  EXPECT_EQ(entry->served, 1u);
}

TEST_F(FederationTest, FederationRunsOverBinaryWireFormat) {
  // The refresh batches and cached-bid replies are ordinary bus messages,
  // so the binary codec (net/codec.h) carries them unchanged.
  net::MessageBus binbus(net::BusConfig{net::WireFormat::kBinary, 7});
  net::ServiceRegistry registry;
  auto plant = make_plant("binM0");
  ASSERT_TRUE(plant->attach_to_bus(&binbus, nullptr).ok());
  federation::ShardBroker shard({.name = "fedshardBin"}, &binbus, &registry);
  shard.add_member("binM0");
  ASSERT_TRUE(shard.attach_to_bus().ok());
  core::VmShop shop(core::ShopConfig{.name = "shopBin"}, &binbus, &registry);
  ASSERT_TRUE(shop.attach_to_bus().ok());

  const auto request = workload::workspace_request(64, 0, "d");
  auto bids = shop.collect_bids(request);  // miss -> binary batch refresh
  ASSERT_EQ(bids.size(), 1u);
  EXPECT_EQ(bids[0].plant_address, "fedshardBin");
  auto ad = shop.create(request);
  ASSERT_TRUE(ad.ok()) << ad.error().to_string();
  EXPECT_EQ(ad.value().get_string(core::attrs::kPlant).value(), "binM0");
  EXPECT_EQ(shard.bids_refreshed(), 1u);
}

TEST_F(FederationTest, StaleEntryRefreshesAfterTtl) {
  auto m0 = make_member("ttlB0");
  auto shard = make_shard({.name = "fedshardB", .bid_ttl_s = 10.0});
  shard->add_member("ttlB0");

  core::VmShop shop(core::ShopConfig{.name = "shopB"}, &bus_, &registry_);
  ASSERT_TRUE(shop.attach_to_bus().ok());
  const auto request = workload::workspace_request(64, 0, "d");

  ASSERT_EQ(shop.collect_bids(request).size(), 1u);
  clock_s_ = 5.0;  // within TTL: cached
  ASSERT_EQ(shop.collect_bids(request).size(), 1u);
  EXPECT_EQ(shard->bids_cached_served(), 1u);
  clock_s_ = 11.0;  // past TTL: stale, re-priced
  ASSERT_EQ(shop.collect_bids(request).size(), 1u);
  EXPECT_EQ(shard->bids_refreshed(), 2u);
}

TEST_F(FederationTest, RefreshAllSendsOneBatchMessagePerMember) {
  auto m0 = make_member("rfC0");
  auto m1 = make_member("rfC1");
  auto m2 = make_member("rfC2");
  auto shard = make_shard({.name = "fedshardC", .bid_ttl_s = 5.0});
  for (const char* m : {"rfC0", "rfC1", "rfC2"}) shard->add_member(m);

  core::VmShop shop(core::ShopConfig{.name = "shopC"}, &bus_, &registry_);
  ASSERT_TRUE(shop.attach_to_bus().ok());
  // Prime two DAG-classes.
  ASSERT_EQ(shop.collect_bids(workload::workspace_request(32, 0, "d")).size(),
            1u);
  ASSERT_EQ(shop.collect_bids(workload::workspace_request(64, 0, "d")).size(),
            1u);
  EXPECT_EQ(shard->bid_cache_size(), 2u);

  clock_s_ = 100.0;  // everything stale
  const std::uint64_t calls_before = bus_.calls_total();
  EXPECT_EQ(shard->refresh_all(), 2u);  // both classes fresh again
  // O(children): one vmplant.estimate_batch per member covers ALL classes.
  EXPECT_EQ(bus_.calls_total() - calls_before, 3u);

  // Both entries now serve from cache at the new clock.
  const std::uint64_t cached_before = shard->bids_cached_served();
  ASSERT_EQ(shop.collect_bids(workload::workspace_request(32, 1, "d")).size(),
            1u);
  EXPECT_EQ(shard->bids_cached_served(), cached_before + 1);
}

TEST_F(FederationTest, AggregateBidIsCheapestMemberPlusMarkup) {
  auto m0 = make_member("mkD0");
  auto m1 = make_member("mkD1");
  // Warm mkD0 with a VM in the client's domain: under the network-compute
  // cost model, domain affinity makes it strictly cheaper than cold mkD1.
  ASSERT_TRUE(m0->create(workload::workspace_request(256, 0, "d")).ok());

  const auto request = workload::workspace_request(64, 0, "d");
  const double cheapest = m0->estimate(request).value();
  ASSERT_LT(cheapest, m1->estimate(request).value());

  auto shard = make_shard({.name = "fedshardD", .bid_markup = 3.5});
  shard->add_member("mkD0");
  shard->add_member("mkD1");
  core::VmShop shop(core::ShopConfig{.name = "shopD"}, &bus_, &registry_);
  ASSERT_TRUE(shop.attach_to_bus().ok());
  auto bids = shop.collect_bids(request);
  ASSERT_EQ(bids.size(), 1u);
  EXPECT_DOUBLE_EQ(bids[0].cost, cheapest + 3.5);
}

// -- Headroom-aware routing ---------------------------------------------------------

TEST_F(FederationTest, DrainedHeadroomScalesBidsUp) {
  auto m0 = make_member("hrE0");
  federation::ShardBrokerConfig config;
  config.name = "fedshardE";
  config.headroom_weight = 1.0;
  config.subtree_budget_bytes = 1000;
  auto shard = make_shard(config);
  shard->add_member("hrE0");
  core::VmShop shop(core::ShopConfig{.name = "shopE"}, &bus_, &registry_);
  ASSERT_TRUE(shop.attach_to_bus().ok());
  const auto request = workload::workspace_request(64, 0, "d");

  std::int64_t headroom = 1000;  // full headroom: no pressure
  shard->set_headroom_provider([&headroom] { return headroom; });
  auto relaxed = shop.collect_bids(request);
  ASSERT_EQ(relaxed.size(), 1u);

  headroom = 0;  // budget exhausted: pressure 1.0 doubles the bid
  auto pressured = shop.collect_bids(request);
  ASSERT_EQ(pressured.size(), 1u);
  EXPECT_DOUBLE_EQ(pressured[0].cost, relaxed[0].cost * 2.0);
  EXPECT_EQ(shard->last_headroom_bytes(), 0);
}

TEST_F(FederationTest, HeadroomFromRollupReadsFleetMetricsAd) {
  obs::MetricsSnapshot snap;
  snap.gauges["fleet.lifecycle.headroom_bytes.gauge"] = 777;
  core::VmInformationSystem info;
  info.store(core::kObsFleetMetricsId,
             obs::metrics_ad(snap, util::FaultReport{}));
  auto headroom = federation::headroom_from_rollup(info);
  ASSERT_TRUE(headroom.has_value());
  EXPECT_EQ(*headroom, 777);
  core::VmInformationSystem empty;
  EXPECT_FALSE(federation::headroom_from_rollup(empty).has_value());
}

// -- Creation routing and degradation -----------------------------------------------

TEST_F(FederationTest, CreateQueryCollectRouteThroughShard) {
  auto m0 = make_member("rtF0");
  auto m1 = make_member("rtF1");
  auto shard = make_shard({.name = "fedshardF"});
  shard->add_member("rtF0");
  shard->add_member("rtF1");
  core::VmShop shop(core::ShopConfig{.name = "shopF"}, &bus_, &registry_);
  ASSERT_TRUE(shop.attach_to_bus().ok());

  auto ad = shop.create(workload::workspace_request(64, 0, "d"));
  ASSERT_TRUE(ad.ok()) << ad.error().to_string();
  EXPECT_EQ(shard->creations_forwarded(), 1u);
  const std::string vm_id = ad.value().get_string(core::attrs::kVmId).value();

  auto queried = shop.query(vm_id);
  ASSERT_TRUE(queried.ok()) << queried.error().to_string();
  EXPECT_EQ(queried.value().get_string(core::attrs::kVmId).value(), vm_id);

  ASSERT_TRUE(shop.destroy(vm_id).ok());
  EXPECT_EQ(m0->active_vms() + m1->active_vms(), 0u);
}

TEST_F(FederationTest, StaleMisrouteFallsBackToNextMemberAndInvalidates) {
  auto m0 = make_member("fbG0");
  auto m1 = make_member("fbG1");
  auto shard = make_shard({.name = "fedshardG", .bid_ttl_s = 1000.0});
  shard->add_member("fbG0");
  shard->add_member("fbG1");
  core::VmShop shop(core::ShopConfig{.name = "shopG"}, &bus_, &registry_);
  ASSERT_TRUE(shop.attach_to_bus().ok());
  const auto request = workload::workspace_request(64, 0, "d");
  const std::string key = federation::dag_class_key(request);

  // Prime the cache, then kill the cheapest member: the cached entry now
  // misroutes.  The shard falls back within itself and drops the entry.
  ASSERT_EQ(shop.collect_bids(request).size(), 1u);
  const std::string cheapest = shard->cached(key)->member_bids.front().second;
  bus_.set_down(cheapest, true);

  auto ad = shop.create(request);
  ASSERT_TRUE(ad.ok()) << ad.error().to_string();
  const std::string survivor = cheapest == "fbG0" ? "fbG1" : "fbG0";
  EXPECT_EQ(ad.value().get_string(core::attrs::kPlant).value(), survivor);
  // The misrouting entry was invalidated; the next estimate re-prices.
  EXPECT_FALSE(shard->cached(key).has_value());
}

TEST_F(FederationTest, DeadShardFaultsCreateAndShopFailsOverToSurvivor) {
  auto m0 = make_member("svH0");
  auto m1 = make_member("svH1");
  auto shard_a = make_shard({.name = "fedshardH0"});
  shard_a->add_member("svH0");
  auto shard_b = make_shard({.name = "fedshardH1"});
  shard_b->add_member("svH1");
  core::VmShop shop(core::ShopConfig{.name = "shopH"}, &bus_, &registry_);
  ASSERT_TRUE(shop.attach_to_bus().ok());
  const auto request = workload::workspace_request(64, 0, "d");

  // Prime both shards' caches, then kill shard A's only member: its cached
  // bid still wins ties sometimes, but its create faults — and the shop's
  // next-best-bid failover moves the create to shard B.
  ASSERT_EQ(shop.collect_bids(request).size(), 2u);
  bus_.set_down("svH0", true);
  auto ad = shop.create(request);
  ASSERT_TRUE(ad.ok()) << ad.error().to_string();
  EXPECT_EQ(ad.value().get_string(core::attrs::kPlant).value(), "svH1");
  EXPECT_EQ(m1->active_vms(), 1u);
}

TEST_F(FederationTest, DeadBrokerDegradesToDirectBiddingAgainstSurvivors) {
  auto m0 = make_member("dgI0");
  auto m1 = make_member("dgI1");
  auto shard_a = make_shard({.name = "fedshardI0"});
  shard_a->add_member("dgI0");
  auto shard_b = make_shard({.name = "fedshardI1"});
  shard_b->add_member("dgI1");
  core::VmShop shop(core::ShopConfig{.name = "shopI"}, &bus_, &registry_);
  ASSERT_TRUE(shop.attach_to_bus().ok());
  const auto request = workload::workspace_request(64, 0, "d");
  ASSERT_EQ(shop.collect_bids(request).size(), 2u);

  // Broker process death: the whole subtree behind it goes dark.  Bidding
  // degrades to the surviving shard; creations keep succeeding.
  bus_.set_down("fedshardI0", true);
  auto bids = shop.collect_bids(request);
  ASSERT_EQ(bids.size(), 1u);
  EXPECT_EQ(bids[0].plant_address, "fedshardI1");
  EXPECT_EQ(shop.bids_skipped(), 1u);  // transport-class loss, not a decline
  auto ad = shop.create(request);
  ASSERT_TRUE(ad.ok()) << ad.error().to_string();
  EXPECT_EQ(m1->active_vms(), 1u);
}

// -- Shop bid-collection robustness -------------------------------------------------

TEST_F(FederationTest, VanishedPlantIsSkippedNotFatal) {
  auto plant = make_plant("aliveJ");
  ASSERT_TRUE(plant->attach_to_bus(&bus_, &registry_).ok());
  // A record whose endpoint is gone: detached after the registry snapshot.
  net::ServiceRecord ghost;
  ghost.type = "vmplant";
  ghost.address = "ghostJ";
  registry_.publish(ghost);

  core::VmShop shop(core::ShopConfig{.name = "shopJ"}, &bus_, &registry_);
  ASSERT_TRUE(shop.attach_to_bus().ok());
  auto bids = shop.collect_bids(workload::workspace_request(64, 0, "d"));
  ASSERT_EQ(bids.size(), 1u);
  EXPECT_EQ(bids[0].plant_address, "aliveJ");
  EXPECT_EQ(shop.bids_skipped(), 1u);
}

TEST_F(FederationTest, BidTimeoutHookLosesOneBidOnly) {
  auto p0 = make_plant("slowK");
  auto p1 = make_plant("fastK");
  ASSERT_TRUE(p0->attach_to_bus(&bus_, &registry_).ok());
  ASSERT_TRUE(p1->attach_to_bus(&bus_, &registry_).ok());

  core::ShopConfig sc;
  sc.name = "shopK";
  sc.bid_timeout_s = 0.25;
  core::VmShop shop(sc, &bus_, &registry_);
  ASSERT_TRUE(shop.attach_to_bus().ok());

  auto plan = fault::FaultPlan::parse("shop.bid:target=slowK");
  ASSERT_TRUE(plan.ok());
  fault::ScopedFaultPlan armed(std::move(plan).value());
  auto bids = shop.collect_bids(workload::workspace_request(64, 0, "d"));
  ASSERT_EQ(bids.size(), 1u);
  EXPECT_EQ(bids[0].plant_address, "fastK");
  EXPECT_EQ(shop.bids_skipped(), 1u);
  EXPECT_EQ(fault::FaultRegistry::instance().fired(fault::points::kShopBid),
            1u);
}

// -- Fleet aggregation over brokers -------------------------------------------------

TEST_F(FederationTest, FleetSweepPublishesPerShardBrokerAds) {
  auto m0 = make_member("flL0");
  auto m1 = make_member("flL1");
  auto shard = make_shard({.name = "fedshardL"});
  shard->add_member("flL0");
  shard->add_member("flL1");
  core::VmShop shop(core::ShopConfig{.name = "shopL"}, &bus_, &registry_);
  ASSERT_TRUE(shop.attach_to_bus().ok());
  auto ad = shop.create(workload::workspace_request(64, 0, "d"));
  ASSERT_TRUE(ad.ok()) << ad.error().to_string();

  core::VmInformationSystem info;
  core::FleetAggregator aggregator(core::FleetAggregatorConfig{}, &bus_,
                                   &registry_, &info);
  EXPECT_EQ(aggregator.sweep(), 1u);  // the broker answered, no public plants

  auto brokers = aggregator.broker_states();
  ASSERT_EQ(brokers.size(), 1u);
  EXPECT_EQ(brokers[0].broker, "fedshardL");
  EXPECT_EQ(brokers[0].members, 2);
  EXPECT_GE(brokers[0].creations_forwarded, 1u);
  EXPECT_GE(brokers[0].bids_refreshed, 1u);

  auto broker_ad = info.query(std::string(core::kObsBrokerPrefix) +
                              "fedshardL");
  ASSERT_TRUE(broker_ad.ok());
  EXPECT_EQ(broker_ad.value().get_string(core::fleet_attrs::kKind).value(),
            "broker");
  auto rollup = info.query(core::kObsFleetMetricsId);
  ASSERT_TRUE(rollup.ok());
  EXPECT_EQ(rollup.value().get_integer(core::fleet_attrs::kBrokerCount).value(),
            1);
}

// -- VMBroker (paper §3.1, §3.3): a ShardBroker with bid_ttl_s = 0 -----------------

TEST_F(FederationTest, ZeroTtlPricesEveryEstimateAtTheMembers) {
  // No cache hit even on this static clock: each estimate costs one shop
  // call plus one batch per member, and nothing more.
  constexpr std::size_t kMembers = 3;
  auto shard = make_shard({.name = "fedshardZ", .bid_ttl_s = 0.0});
  std::vector<std::unique_ptr<core::VmPlant>> plants;
  for (std::size_t i = 0; i < kMembers; ++i) {
    const std::string name = "zeroZ" + std::to_string(i);
    plants.push_back(make_member(name));
    shard->add_member(name);
  }
  core::ShopConfig sc;
  sc.name = "shopZ";
  core::VmShop shop(sc, &bus_, &registry_);
  ASSERT_TRUE(shop.attach_to_bus().ok());
  const auto request = workload::workspace_request(64, 0, "d");

  for (int round = 0; round < 2; ++round) {
    const std::uint64_t calls_before = bus_.calls_total();
    ASSERT_EQ(shop.collect_bids(request).size(), 1u);
    EXPECT_EQ(bus_.calls_total() - calls_before, 1u + kMembers);
  }
  EXPECT_EQ(shard->bids_cached_served(), 0u);
  EXPECT_EQ(shard->bids_refreshed(), 2u);
}

/// The plain VMBroker: two hidden member plants reachable only through the
/// broker, one public plant, and no bid cache — every estimate and every
/// create prices the request at the members.
class BrokerTest : public FederationTest {
 protected:
  void SetUp() override {
    FederationTest::SetUp();
    hidden0_ = make_member("hidden0");
    hidden1_ = make_member("hidden1");
    public0_ = make_plant("public0");
    ASSERT_TRUE(public0_->attach_to_bus(&bus_, &registry_).ok());
    broker_ = make_shard({.name = "broker0", .bid_ttl_s = 0.0});
    broker_->add_member("hidden0");
    broker_->add_member("hidden1");
    shop_ = std::make_unique<core::VmShop>(core::ShopConfig{}, &bus_,
                                           &registry_);
    ASSERT_TRUE(shop_->attach_to_bus().ok());
  }
  void TearDown() override {
    shop_.reset();
    broker_.reset();
    hidden0_.reset();
    hidden1_.reset();
    public0_.reset();
    FederationTest::TearDown();
  }

  std::unique_ptr<core::VmPlant> hidden0_, hidden1_, public0_;
  std::unique_ptr<federation::ShardBroker> broker_;
  std::unique_ptr<core::VmShop> shop_;
};

TEST_F(BrokerTest, ShopSeesBrokerAsAPlant) {
  auto bids = shop_->collect_bids(workload::workspace_request(64, 0, "d"));
  // public0 + broker (representing two hidden plants) = 2 bids.
  ASSERT_EQ(bids.size(), 2u);
}

TEST_F(BrokerTest, CreationRoutesThroughBrokerToHiddenPlant) {
  // Make the public plant expensive by marking it down: the broker wins.
  bus_.set_down("public0", true);
  auto ad = shop_->create(workload::workspace_request(64, 0, "ufl.edu"));
  ASSERT_TRUE(ad.ok()) << ad.error().to_string();
  const std::string plant = ad.value().get_string(core::attrs::kPlant).value();
  EXPECT_TRUE(plant == "hidden0" || plant == "hidden1") << plant;
  EXPECT_EQ(broker_->creations_forwarded(), 1u);
  EXPECT_EQ(hidden0_->active_vms() + hidden1_->active_vms(), 1u);
}

TEST_F(BrokerTest, QueryAndDestroyRouteThroughBroker) {
  bus_.set_down("public0", true);
  auto ad = shop_->create(workload::workspace_request(32, 0, "d"));
  ASSERT_TRUE(ad.ok());
  const std::string vm_id = ad.value().get_string(core::attrs::kVmId).value();
  bus_.set_down("public0", false);

  auto q = shop_->query(vm_id);
  ASSERT_TRUE(q.ok()) << q.error().to_string();
  EXPECT_EQ(q.value().get_string(core::attrs::kVmId).value(), vm_id);

  ASSERT_TRUE(shop_->destroy(vm_id).ok());
  EXPECT_EQ(hidden0_->active_vms() + hidden1_->active_vms(), 0u);
}

TEST_F(BrokerTest, MarkupRaisesBrokerBids) {
  federation::ShardBroker pricey(
      {.name = "pricey", .bid_markup = 10.0, .bid_ttl_s = 0.0}, &bus_,
      &registry_);
  pricey.add_member("hidden0");
  ASSERT_TRUE(pricey.attach_to_bus().ok());

  auto bids = shop_->collect_bids(workload::workspace_request(64, 0, "d"));
  double broker_bid = -1, pricey_bid = -1;
  for (const core::Bid& bid : bids) {
    if (bid.plant_address == "broker0") broker_bid = bid.cost;
    if (bid.plant_address == "pricey") pricey_bid = bid.cost;
  }
  ASSERT_GE(broker_bid, 0.0);
  ASSERT_GE(pricey_bid, 0.0);
  EXPECT_DOUBLE_EQ(pricey_bid, broker_bid + 10.0);
}

TEST_F(BrokerTest, BrokerWithNoMembersDeclines) {
  federation::ShardBroker empty({.name = "empty", .bid_ttl_s = 0.0}, &bus_,
                                &registry_);
  ASSERT_TRUE(empty.attach_to_bus().ok());
  net::Message m = net::Message::request("vmplant.estimate", "x", "empty", "c");
  workload::workspace_request(64, 0, "d").to_xml(&m.body());
  auto response = net::call_expecting_success(&bus_, m);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.error().code(), util::ErrorCode::kNoBids);
}

TEST_F(BrokerTest, ShopFailsOverWhenChosenMembersFailMidCreate) {
  // public0 stands by as the shop's failover target.  Warm hidden0 so the
  // broker's bid beats public0's — the shop must genuinely pick the
  // broker first.
  ASSERT_TRUE(hidden0_->create(workload::workspace_request(256, 0, "d")).ok());
  // Member creates fail mid-request (the VMM resume fault targets only
  // member-hosted vm ids): the broker bids fine, every member it tries
  // then faults the creation, and the shop fails over to its next-best bid.
  fault::ScopedFaultPlan scoped(
      fault::FaultPlan::parse("hypervisor.resume:target=hidden").value());
  auto ad = shop_->create(workload::workspace_request(64, 0, "d"));
  ASSERT_TRUE(ad.ok()) << ad.error().to_string();
  EXPECT_EQ(ad.value().get_string(core::attrs::kPlant).value(), "public0");
  EXPECT_GE(shop_->failovers(), 1u);
}

/// The seed's broker paths, on a TTL-0 ShardBroker with a markup of 2:
/// two hidden members and no public plant.
class VmBrokerSeedTest : public FederationTest {
 protected:
  void SetUp() override {
    FederationTest::SetUp();
    member0_ = make_member("seedM0");
    member1_ = make_member("seedM1");
    broker_ = make_shard(
        {.name = "seedbroker", .bid_markup = 2.0, .bid_ttl_s = 0.0});
    broker_->add_member("seedM0");
    broker_->add_member("seedM1");
    shop_ = std::make_unique<core::VmShop>(
        core::ShopConfig{.name = "seedshop"}, &bus_, &registry_);
    ASSERT_TRUE(shop_->attach_to_bus().ok());
  }
  void TearDown() override {
    shop_.reset();
    broker_.reset();
    member0_.reset();
    member1_.reset();
    FederationTest::TearDown();
  }

  std::unique_ptr<core::VmPlant> member0_, member1_;
  std::unique_ptr<federation::ShardBroker> broker_;
  std::unique_ptr<core::VmShop> shop_;
};

TEST_F(VmBrokerSeedTest, MarkupArithmeticOnCheapestMember) {
  const auto request = workload::workspace_request(64, 0, "d");
  const double cheapest = std::min(member0_->estimate(request).value(),
                                   member1_->estimate(request).value());
  auto bids = shop_->collect_bids(request);
  ASSERT_EQ(bids.size(), 1u);
  EXPECT_EQ(bids[0].plant_address, "seedbroker");
  EXPECT_DOUBLE_EQ(bids[0].cost, cheapest + 2.0);
}

TEST_F(VmBrokerSeedTest, CreationForwardsToWinningMember) {
  // Domain affinity (network-compute cost model) makes member0 strictly
  // cheaper, so it wins the broker's internal auction.
  ASSERT_TRUE(member0_->create(workload::workspace_request(256, 0, "d")).ok());
  auto ad = shop_->create(workload::workspace_request(64, 0, "d"));
  ASSERT_TRUE(ad.ok()) << ad.error().to_string();
  EXPECT_EQ(ad.value().get_string(core::attrs::kPlant).value(), "seedM0");
  EXPECT_EQ(broker_->creations_forwarded(), 1u);
}

TEST_F(VmBrokerSeedTest, QueryAndCollectRouteByVmidMap) {
  auto ad = shop_->create(workload::workspace_request(32, 0, "d"));
  ASSERT_TRUE(ad.ok());
  const std::string vm_id = ad.value().get_string(core::attrs::kVmId).value();
  auto queried = shop_->query(vm_id);
  ASSERT_TRUE(queried.ok()) << queried.error().to_string();
  EXPECT_EQ(queried.value().get_string(core::attrs::kVmId).value(), vm_id);
  ASSERT_TRUE(shop_->destroy(vm_id).ok());
  EXPECT_EQ(member0_->active_vms() + member1_->active_vms(), 0u);
  // The VMID map forgot the VM: a re-query faults kNotFound.
  EXPECT_FALSE(shop_->query(vm_id).ok());
}

// -- Sharded SimulatedDeployment ----------------------------------------------------

TEST(FederationDeploymentTest, ShardedDeploymentHidesPlantsBehindBrokers) {
  cluster::DeploymentConfig config;
  config.plant_count = 4;
  config.federation_shards = 2;
  cluster::SimulatedDeployment deployment(config);
  ASSERT_TRUE(workload::publish_paper_goldens(&deployment.warehouse()).ok());
  ASSERT_EQ(deployment.broker_count(), 2u);
  EXPECT_EQ(deployment.broker(0).members().size(), 2u);
  // Only the brokers are discoverable.
  EXPECT_EQ(deployment.registry().discover("vmplant").size(), 2u);

  auto samples =
      deployment.run_sequence(workload::workspace_requests(64, 4, "ufl.edu"));
  ASSERT_EQ(samples.size(), 4u);
  EXPECT_EQ(deployment.broker(0).creations_forwarded() +
                deployment.broker(1).creations_forwarded(),
            4u);
  EXPECT_GT(deployment.refresh_federation(), 0u);
}

TEST(FederationDeploymentTest, FlatDeploymentStaysBrokerless) {
  cluster::DeploymentConfig config;
  config.plant_count = 3;
  cluster::SimulatedDeployment deployment(config);
  EXPECT_EQ(deployment.broker_count(), 0u);
  EXPECT_EQ(deployment.registry().discover("vmplant").size(), 3u);
}

}  // namespace
}  // namespace vmp
