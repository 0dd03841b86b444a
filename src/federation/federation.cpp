#include "federation/federation.h"

#include <algorithm>
#include <chrono>
#include <memory>

#include "classad/classad.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/strings.h"
#include "xml/xml.h"

namespace vmp::federation {

using util::Error;
using util::ErrorCode;
using util::Result;
using util::Status;

namespace {
const util::Logger kLog("federation");
}  // namespace

std::string dag_class_key(const core::CreateRequest& request) {
  // Hardware shape + backend + client domain: what the §3.4 cost models
  // actually price.  Per-user DAG suffixes (user accounts, IPs) ride on
  // the same aggregate bid.
  return request.backend + "|" + request.hardware.os + "|" +
         std::to_string(request.hardware.memory_bytes) + "|" +
         std::to_string(request.hardware.min_disk_bytes) + "|" +
         request.domain;
}

ShardBroker::ShardBroker(ShardBrokerConfig config, net::MessageBus* bus,
                         net::ServiceRegistry* registry)
    : config_(std::move(config)),
      bus_(bus),
      registry_(registry),
      epoch_(std::chrono::steady_clock::now()) {
  obs::MetricsRegistry& r = obs::MetricsRegistry::instance();
  bids_cached_ = r.counter("broker.bids.cached.count");
  bids_refreshed_ = r.counter("broker.bids.refreshed.count");
  refreshes_ = r.counter("broker.refresh.count");
  forwarded_ = r.counter("broker.creations_forwarded.count");
  member_failovers_ = r.counter("broker.member_failover.count");
  refresh_seconds_ = r.timer("broker.refresh.seconds");
  scoped_bids_cached_ =
      r.counter(config_.name + ".broker.bids.cached.count");
  scoped_bids_refreshed_ =
      r.counter(config_.name + ".broker.bids.refreshed.count");
  scoped_forwarded_ =
      r.counter(config_.name + ".broker.creations_forwarded.count");
  scoped_refresh_seconds_ = r.timer(config_.name + ".broker.refresh.seconds");
  scoped_cache_size_ = r.gauge(config_.name + ".broker.bid_cache.size.gauge");
}

ShardBroker::~ShardBroker() { detach_from_bus(); }

void ShardBroker::add_member(const std::string& address) {
  std::lock_guard<std::mutex> lock(mutex_);
  members_.push_back(address);
}

std::vector<std::string> ShardBroker::members() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return members_;
}

Status ShardBroker::attach_to_bus() {
  VMP_RETURN_IF_ERROR(bus_->register_endpoint(
      bus_address(),
      [this](const net::Message& m) { return handle_message(m); }));
  attached_ = true;
  if (registry_ != nullptr) {
    net::ServiceRecord record;
    record.type = "vmplant";  // shops bid against brokers transparently
    record.address = bus_address();
    record.properties["broker"] = "true";
    record.properties["members"] = std::to_string(members().size());
    registry_->publish(record);
  }
  return Status();
}

void ShardBroker::detach_from_bus() {
  if (attached_) {
    (void)bus_->unregister_endpoint(bus_address());
    if (registry_ != nullptr) (void)registry_->withdraw(bus_address());
    attached_ = false;
  }
}

void ShardBroker::set_clock(std::function<double()> clock) {
  std::lock_guard<std::mutex> lock(mutex_);
  clock_ = std::move(clock);
}

void ShardBroker::set_headroom_provider(
    std::function<std::int64_t()> provider) {
  std::lock_guard<std::mutex> lock(mutex_);
  headroom_provider_ = std::move(provider);
}

std::int64_t ShardBroker::last_headroom_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return last_headroom_;
}

double ShardBroker::now() const {
  std::function<double()> clock;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    clock = clock_;
  }
  if (clock) return clock();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

double ShardBroker::headroom_multiplier(std::int64_t* headroom_out) const {
  std::function<std::int64_t()> provider;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    provider = headroom_provider_;
  }
  if (!provider || config_.headroom_weight <= 0.0 ||
      config_.subtree_budget_bytes <= 0) {
    return 1.0;
  }
  const std::int64_t headroom = provider();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    last_headroom_ = headroom;
  }
  if (headroom_out != nullptr) *headroom_out = headroom;
  const double fraction =
      std::clamp(static_cast<double>(headroom) /
                     static_cast<double>(config_.subtree_budget_bytes),
                 0.0, 1.0);
  return 1.0 + config_.headroom_weight * (1.0 - fraction);
}

std::uint64_t ShardBroker::creations_forwarded() const {
  return scoped_forwarded_->value();
}
std::uint64_t ShardBroker::bids_cached_served() const {
  return scoped_bids_cached_->value();
}
std::uint64_t ShardBroker::bids_refreshed() const {
  return scoped_bids_refreshed_->value();
}
std::size_t ShardBroker::bid_cache_size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cache_.size();
}

std::optional<CachedBid> ShardBroker::cached(
    const std::string& class_key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = cache_.find(class_key);
  if (it == cache_.end()) return std::nullopt;
  return it->second;
}

std::map<std::string, std::vector<std::pair<double, std::string>>>
ShardBroker::collect_member_bids(
    const std::vector<std::pair<std::string, std::string>>& batch) const {
  std::vector<std::string> member_list;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    member_list = members_;
  }
  // Parse each class once per refresh; every member's batch gets clones.
  std::vector<std::pair<std::string, std::unique_ptr<xml::Element>>> classes;
  for (const auto& [key, request_xml] : batch) {
    auto parsed = xml::parse(request_xml);
    if (parsed.ok()) classes.emplace_back(key, std::move(parsed.value()));
  }
  std::map<std::string, std::vector<std::pair<double, std::string>>> bids;
  for (const std::string& member : member_list) {
    net::Message m = net::Message::request("vmplant.estimate_batch",
                                           config_.name, member, "refresh");
    for (const auto& [key, request] : classes) {
      xml::Element& cls = m.body().add_child("class");
      cls.set_attr("key", key);
      cls.adopt_child(request->clone());
    }
    auto response = net::call_expecting_success(bus_, m);
    if (!response.ok()) {
      kLog.debug() << config_.name << ": member " << member
                   << " skipped this refresh: "
                   << response.error().to_string();
      continue;  // dead or declining member: its bids are simply absent
    }
    const xml::Element* bids_elem = response.value().body().child("bids");
    if (bids_elem == nullptr) continue;
    for (const xml::Element* bid : bids_elem->children_named("bid")) {
      if (!bid->has_attr("class")) continue;
      bids[bid->attr("class")].emplace_back(bid->attr_double("cost", 0.0),
                                            member);
    }
  }
  for (auto& [key, member_bids] : bids) {
    std::stable_sort(member_bids.begin(), member_bids.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
  }
  return bids;
}

std::size_t ShardBroker::refresh_all() {
  obs::ScopedSpan span("broker.refresh", "broker", config_.name);
  const double start_s = obs::Tracer::instance().now();
  std::vector<std::pair<std::string, std::string>> batch;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [key, entry] : cache_) {
      batch.emplace_back(key, entry.request_xml);
    }
  }
  if (batch.empty()) return 0;

  const auto bids = collect_member_bids(batch);
  const double t = now();
  std::size_t refreshed = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [key, entry] : cache_) {
      auto it = bids.find(key);
      if (it == bids.end()) continue;  // nobody priced it: entry stays stale
      entry.member_bids = it->second;
      entry.refreshed_at = t;
      ++refreshed;
    }
    scoped_cache_size_->set(static_cast<std::int64_t>(cache_.size()));
  }
  bids_refreshed_->add(refreshed);
  scoped_bids_refreshed_->add(refreshed);
  refreshes_->add();
  refresh_seconds_->record(obs::Tracer::instance().now() - start_s);
  scoped_refresh_seconds_->record(obs::Tracer::instance().now() - start_s);
  return refreshed;
}

Result<ShardBroker::Selection> ShardBroker::select(
    const std::string& class_key, const xml::Element& request_body) {
  bool fresh = false;
  std::string request_xml;
  std::vector<std::pair<double, std::string>> member_bids;
  const double t = now();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = cache_.find(class_key);
    // Strictly younger than the TTL: bid_ttl_s = 0 never serves from
    // cache, even when the clock has not moved since the refresh.
    if (it != cache_.end() && it->second.refreshed_at >= 0.0 &&
        t - it->second.refreshed_at < config_.bid_ttl_s &&
        !it->second.member_bids.empty()) {
      fresh = true;
      ++it->second.served;
      member_bids = it->second.member_bids;
    } else {
      const xml::Element* req_elem = request_body.child("create-request");
      if (req_elem == nullptr) {
        return Result<Selection>(
            Error(ErrorCode::kParseError, "missing <create-request>"));
      }
      request_xml =
          it != cache_.end() ? it->second.request_xml : req_elem->to_string();
    }
  }

  if (fresh) {
    bids_cached_->add();
    scoped_bids_cached_->add();
  } else {
    // Miss / stale: synchronous single-class refresh, one batch message
    // per member.  This is the slow path the TTL keeps rare.
    auto bids = collect_member_bids({{class_key, request_xml}});
    auto it = bids.find(class_key);
    if (it == bids.end() || it->second.empty()) {
      return Result<Selection>(Error(
          ErrorCode::kNoBids,
          config_.name + ": no member priced class " + class_key));
    }
    member_bids = it->second;
    const double refreshed_t = now();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      CachedBid& entry = cache_[class_key];
      entry.member_bids = member_bids;
      entry.request_xml = request_xml;
      entry.refreshed_at = refreshed_t;
      scoped_cache_size_->set(static_cast<std::int64_t>(cache_.size()));
    }
    bids_refreshed_->add();
    scoped_bids_refreshed_->add();
  }

  Selection selection;
  selection.member_bids = std::move(member_bids);
  const double multiplier = headroom_multiplier(&selection.headroom);
  selection.effective_cost =
      (selection.member_bids.front().first + config_.bid_markup) * multiplier;
  return selection;
}

net::Message ShardBroker::handle_message(const net::Message& request_msg) {
  const std::string& service = request_msg.service();
  if (service == "vmplant.estimate") return handle_estimate(request_msg);
  if (service == "vmplant.estimate_batch") return handle_batch(request_msg);
  if (service == "vmplant.create") return handle_create(request_msg);
  if (service == "vmplant.query" || service == "vmplant.collect") {
    return handle_routed(request_msg);
  }
  return net::Message::fault_to(
      request_msg,
      Error(ErrorCode::kInvalidArgument, "unknown service: " + service));
}

net::Message ShardBroker::handle_estimate(const net::Message& request_msg) {
  const xml::Element* req_elem = request_msg.body().child("create-request");
  if (req_elem == nullptr) {
    return net::Message::fault_to(
        request_msg, Error(ErrorCode::kParseError, "missing <create-request>"));
  }
  auto request = core::CreateRequest::from_xml(*req_elem);
  if (!request.ok()) {
    return net::Message::fault_to(request_msg, request.error());
  }
  auto selection = select(dag_class_key(request.value()), request_msg.body());
  if (!selection.ok()) {
    return net::Message::fault_to(request_msg, selection.error());
  }
  net::Message reply = net::Message::response_to(request_msg);
  xml::Element& bid = reply.body().add_child("bid");
  bid.set_attr("plant", config_.name);
  bid.set_attr("cost", util::format_double(selection.value().effective_cost));
  bid.set_attr("via", selection.value().member_bids.front().second);
  bid.set_attr("headroom",
               std::to_string(selection.value().headroom));
  return reply;
}

net::Message ShardBroker::handle_batch(const net::Message& request_msg) {
  // A parent broker refreshing its subtree: answer every requested class
  // from this shard's cache (stale classes take the synchronous
  // single-class path), one response message for the whole batch.
  net::Message reply = net::Message::response_to(request_msg);
  xml::Element& bids = reply.body().add_child("bids");
  for (const xml::Element* cls : request_msg.body().children_named("class")) {
    if (!cls->has_attr("key")) continue;
    auto selection = select(cls->attr("key"), *cls);
    if (!selection.ok()) continue;  // nobody in this subtree priced it
    xml::Element& bid = bids.add_child("bid");
    bid.set_attr("class", cls->attr("key"));
    bid.set_attr("plant", config_.name);
    bid.set_attr("cost",
                 util::format_double(selection.value().effective_cost));
  }
  return reply;
}

net::Message ShardBroker::handle_create(const net::Message& request_msg) {
  const xml::Element* req_elem = request_msg.body().child("create-request");
  if (req_elem == nullptr) {
    return net::Message::fault_to(
        request_msg, Error(ErrorCode::kParseError, "missing <create-request>"));
  }
  auto request = core::CreateRequest::from_xml(*req_elem);
  if (!request.ok()) {
    return net::Message::fault_to(request_msg, request.error());
  }
  const std::string class_key = dag_class_key(request.value());
  auto selection = select(class_key, request_msg.body());
  if (!selection.ok()) {
    return net::Message::fault_to(request_msg, selection.error());
  }

  // Try members cheapest-first.  A member that faults (or vanished since
  // the cache was refreshed — the stale-cache misroute) is skipped and
  // its cache entry invalidated; when the whole shard is out, the fault
  // reaches the shop, whose next-best-bid failover covers the surviving
  // subtrees.
  std::string last_failure = "no member attempted";
  for (std::size_t i = 0; i < selection.value().member_bids.size(); ++i) {
    const std::string& member = selection.value().member_bids[i].second;
    net::Message forward =
        net::Message::request("vmplant.create", config_.name, member,
                              request_msg.correlation());
    for (const auto& child : request_msg.body().children()) {
      forward.body().adopt_child(child->clone());
    }
    auto response = net::call_expecting_success(bus_, forward);
    if (!response.ok()) {
      last_failure = member + ": " + response.error().to_string();
      kLog.warn() << config_.name << ": member create failed (" << last_failure
                  << "); trying next member";
      member_failovers_->add();
      // The cached aggregate pointed at a member that cannot deliver:
      // drop the entry so the next estimate re-prices the class.
      std::lock_guard<std::mutex> lock(mutex_);
      cache_.erase(class_key);
      scoped_cache_size_->set(static_cast<std::int64_t>(cache_.size()));
      continue;
    }

    auto ad = classad::ClassAd::from_xml(response.value().body());
    if (ad.ok()) {
      const auto vm_id = ad.value().get_string(core::attrs::kVmId);
      if (vm_id.has_value()) {
        std::lock_guard<std::mutex> lock(mutex_);
        vm_to_member_[*vm_id] = member;
      }
    }
    forwarded_->add();
    scoped_forwarded_->add();
    net::Message reply = net::Message::response_to(request_msg);
    for (const auto& child : response.value().body().children()) {
      reply.body().adopt_child(child->clone());
    }
    return reply;
  }
  return net::Message::fault_to(
      request_msg,
      Error(ErrorCode::kUnavailable,
            config_.name + ": every member failed; last: " + last_failure));
}

net::Message ShardBroker::handle_routed(const net::Message& request_msg) {
  const xml::Element* vm_elem = request_msg.body().child("vm");
  if (vm_elem == nullptr || !vm_elem->has_attr("id")) {
    return net::Message::fault_to(
        request_msg, Error(ErrorCode::kParseError, "missing <vm id=...>"));
  }
  const std::string vm_id = vm_elem->attr("id");

  // The fleet aggregator's metrics pull: answer with this broker's own
  // export (the scoped "<name>.broker.*" metrics ride in the process
  // snapshot) plus subtree facts the per-shard rollup wants.
  if (request_msg.service() == "vmplant.query" &&
      vm_id == core::kObsMetricsId) {
    classad::ClassAd ad = obs::metrics_ad(
        obs::MetricsRegistry::instance().snapshot(), util::FaultReport{});
    ad.set_string("BrokerName", config_.name);
    ad.set_integer("BrokerMembers",
                   static_cast<std::int64_t>(members().size()));
    ad.set_integer("SubtreeHeadroomBytes", last_headroom_bytes());
    net::Message reply = net::Message::response_to(request_msg);
    ad.to_xml(&reply.body());
    return reply;
  }

  std::string member;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = vm_to_member_.find(vm_id);
    if (it != vm_to_member_.end()) member = it->second;
  }
  if (member.empty()) {
    return net::Message::fault_to(
        request_msg, Error(ErrorCode::kNotFound,
                           config_.name + ": unknown VM " + vm_id));
  }
  net::Message forward = net::Message::request(
      request_msg.service(), config_.name, member, request_msg.correlation());
  for (const auto& child : request_msg.body().children()) {
    forward.body().adopt_child(child->clone());
  }
  auto response = bus_->call(forward);
  if (!response.ok()) {
    return net::Message::fault_to(request_msg, response.error());
  }
  if (request_msg.service() == "vmplant.collect" &&
      !response.value().is_fault()) {
    std::lock_guard<std::mutex> lock(mutex_);
    vm_to_member_.erase(vm_id);
  }
  if (response.value().is_fault()) {
    return net::Message::fault_to(request_msg,
                                  response.value().fault_error());
  }
  net::Message reply = net::Message::response_to(request_msg);
  for (const auto& child : response.value().body().children()) {
    reply.body().adopt_child(child->clone());
  }
  return reply;
}

std::optional<std::int64_t> headroom_from_rollup(
    const core::VmInformationSystem& info) {
  auto ad = info.query(core::kObsFleetMetricsId);
  if (!ad.ok()) return std::nullopt;
  const classad::Value v =
      ad.value().evaluate("fleet_lifecycle_headroom_bytes_gauge");
  if (v.type() != classad::ValueType::kInteger) return std::nullopt;
  return v.as_integer();
}

}  // namespace vmp::federation
