// Unit tests for message envelopes, the in-process bus, and the registry.
#include <gtest/gtest.h>

#include "fault/fault.h"
#include "net/bus.h"
#include "net/message.h"
#include "net/registry.h"

namespace vmp::net {
namespace {

// -- Message ---------------------------------------------------------------------

TEST(MessageTest, RequestFactorySetsHeader) {
  Message m = Message::request("vmplant.create", "shop", "plant0", "req-1");
  EXPECT_EQ(m.kind(), MessageKind::kRequest);
  EXPECT_EQ(m.service(), "vmplant.create");
  EXPECT_EQ(m.from(), "shop");
  EXPECT_EQ(m.to(), "plant0");
  EXPECT_EQ(m.correlation(), "req-1");
  EXPECT_FALSE(m.is_fault());
}

TEST(MessageTest, ResponseSwapsDirection) {
  Message req = Message::request("svc", "a", "b", "c1");
  Message resp = Message::response_to(req);
  EXPECT_EQ(resp.kind(), MessageKind::kResponse);
  EXPECT_EQ(resp.from(), "b");
  EXPECT_EQ(resp.to(), "a");
  EXPECT_EQ(resp.correlation(), "c1");
}

TEST(MessageTest, FaultCarriesError) {
  Message req = Message::request("svc", "a", "b", "c1");
  Message fault = Message::fault_to(
      req, util::Error(util::ErrorCode::kResourceExhausted, "plant full"));
  EXPECT_TRUE(fault.is_fault());
  const util::Error err = fault.fault_error();
  EXPECT_EQ(err.code(), util::ErrorCode::kResourceExhausted);
  EXPECT_EQ(err.message(), "plant full");
}

TEST(MessageTest, SerializeDeserializeRoundTrip) {
  Message m = Message::request("vmshop.create", "client", "vmshop", "r-9");
  m.body().add_child("create-request").set_attr("id", "r-9");
  m.body().child("create-request")->add_child("note").set_text("a<b&c");

  auto parsed = Message::deserialize(m.serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed.value().service(), "vmshop.create");
  EXPECT_EQ(parsed.value().correlation(), "r-9");
  ASSERT_NE(parsed.value().body().child("create-request"), nullptr);
  EXPECT_EQ(parsed.value().body().child("create-request")->child_text("note"),
            "a<b&c");
}

TEST(MessageTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(Message::deserialize("not xml").ok());
  EXPECT_FALSE(Message::deserialize("<other/>").ok());
  EXPECT_FALSE(Message::deserialize("<message kind=\"bogus\"/>").ok());
}

TEST(MessageTest, FaultErrorOnNonFaultBody) {
  Message m = Message::request("svc", "a", "b", "c");
  EXPECT_EQ(m.fault_error().code(), util::ErrorCode::kInternal);
}

// -- MessageBus -------------------------------------------------------------------

TEST(BusTest, CallRoutesToHandler) {
  MessageBus bus;
  ASSERT_TRUE(bus.register_endpoint("echo", [](const Message& m) {
                   Message r = Message::response_to(m);
                   r.body().add_child("echo").set_text(
                       m.body().child_text("data"));
                   return r;
                 }).ok());

  Message m = Message::request("echo.svc", "caller", "echo", "c-1");
  m.body().add_child("data").set_text("hello");
  auto response = bus.call(m);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().body().child_text("echo"), "hello");
}

TEST(BusTest, UnknownEndpointIsUnavailable) {
  MessageBus bus;
  auto r = bus.call(Message::request("svc", "a", "ghost", "c"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), util::ErrorCode::kUnavailable);
}

TEST(BusTest, DuplicateRegistrationRejected) {
  MessageBus bus;
  ASSERT_TRUE(bus.register_endpoint("a", [](const Message& m) {
                   return Message::response_to(m);
                 }).ok());
  EXPECT_FALSE(bus.register_endpoint("a", [](const Message& m) {
                    return Message::response_to(m);
                  }).ok());
}

TEST(BusTest, UnregisterRemovesEndpoint) {
  MessageBus bus;
  ASSERT_TRUE(bus.register_endpoint("a", [](const Message& m) {
                   return Message::response_to(m);
                 }).ok());
  EXPECT_TRUE(bus.has_endpoint("a"));
  ASSERT_TRUE(bus.unregister_endpoint("a").ok());
  EXPECT_FALSE(bus.has_endpoint("a"));
  EXPECT_FALSE(bus.unregister_endpoint("a").ok());
}

TEST(BusTest, DownEndpointRefusesCalls) {
  MessageBus bus;
  ASSERT_TRUE(bus.register_endpoint("p", [](const Message& m) {
                   return Message::response_to(m);
                 }).ok());
  bus.set_down("p", true);
  auto r = bus.call(Message::request("svc", "a", "p", "c"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), util::ErrorCode::kUnavailable);
  bus.set_down("p", false);
  EXPECT_TRUE(bus.call(Message::request("svc", "a", "p", "c")).ok());
}

TEST(BusTest, DropRateProducesTimeouts) {
  MessageBus bus;
  ASSERT_TRUE(bus.register_endpoint("flaky", [](const Message& m) {
                   return Message::response_to(m);
                 }).ok());
  {
    fault::ScopedFaultPlan scoped(
        fault::FaultPlan::parse("bus.timeout:target=flaky,p=1", 7).value());
    auto r = bus.call(Message::request("svc", "a", "flaky", "c"));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code(), util::ErrorCode::kTimeout);
  }

  fault::ScopedFaultPlan scoped(
      fault::FaultPlan::parse("bus.timeout:target=flaky,p=0.5", 7).value());
  int timeouts = 0;
  for (int i = 0; i < 200; ++i) {
    if (!bus.call(Message::request("svc", "a", "flaky", "c")).ok()) ++timeouts;
  }
  EXPECT_GT(timeouts, 50);
  EXPECT_LT(timeouts, 150);
  EXPECT_EQ(fault::FaultRegistry::instance().fired("bus.timeout"),
            static_cast<std::uint64_t>(timeouts));
}

TEST(BusTest, StatsCountCallsAndBytes) {
  MessageBus bus;
  ASSERT_TRUE(bus.register_endpoint("p", [](const Message& m) {
                   return Message::response_to(m);
                 }).ok());
  const auto before = bus.calls_total();
  (void)bus.call(Message::request("svc", "a", "p", "c"));
  EXPECT_EQ(bus.calls_total(), before + 1);
  EXPECT_GT(bus.bytes_total(), 0u);
}

TEST(BusTest, PayloadSurvivesFullWireEncoding) {
  MessageBus bus;
  // The handler sees a *decoded copy*, proving requests round-trip the
  // wire format rather than sharing in-memory structure.
  ASSERT_TRUE(bus.register_endpoint("p", [](const Message& m) {
                   Message r = Message::response_to(m);
                   r.body().add_child("len").set_text(std::to_string(
                       m.body().child("blob")->text().size()));
                   return r;
                 }).ok());
  Message m = Message::request("svc", "a", "p", "c");
  m.body().add_child("blob").set_text(std::string(10000, 'x') + "<&>\"'");
  auto r = bus.call(m);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().body().child_text("len"), "10005");
}

TEST(BusTest, CallExpectingSuccessUnwrapsFaults) {
  MessageBus bus;
  ASSERT_TRUE(bus.register_endpoint("p", [](const Message& m) {
                   return Message::fault_to(
                       m, util::Error(util::ErrorCode::kNoMatchingImage,
                                      "nothing cached"));
                 }).ok());
  auto r = call_expecting_success(&bus,
                                  Message::request("svc", "a", "p", "c"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), util::ErrorCode::kNoMatchingImage);
  EXPECT_EQ(r.error().message(), "nothing cached");
}

TEST(BusTest, EndpointsListed) {
  MessageBus bus;
  ASSERT_TRUE(bus.register_endpoint("b", [](const Message& m) {
                   return Message::response_to(m);
                 }).ok());
  ASSERT_TRUE(bus.register_endpoint("a", [](const Message& m) {
                   return Message::response_to(m);
                 }).ok());
  EXPECT_EQ(bus.endpoints(), (std::vector<std::string>{"a", "b"}));
}

// -- ServiceRegistry -------------------------------------------------------------------

TEST(RegistryTest, PublishDiscoverBind) {
  ServiceRegistry registry;
  registry.publish({"vmplant", "plant0", {{"backend", "vmware-gsx"}}});
  registry.publish({"vmplant", "plant1", {}});
  registry.publish({"vmshop", "shop", {}});

  const auto plants = registry.discover("vmplant");
  ASSERT_EQ(plants.size(), 2u);
  EXPECT_EQ(plants[0].address, "plant0");
  EXPECT_EQ(plants[1].address, "plant1");
  EXPECT_EQ(registry.discover("vmshop").size(), 1u);
  EXPECT_TRUE(registry.discover("nothing").empty());

  auto bound = registry.bind("plant0");
  ASSERT_TRUE(bound.ok());
  EXPECT_EQ(bound.value().properties.at("backend"), "vmware-gsx");
  EXPECT_FALSE(registry.bind("ghost").ok());
}

TEST(RegistryTest, RepublishReplaces) {
  ServiceRegistry registry;
  registry.publish({"vmplant", "plant0", {{"v", "1"}}});
  registry.publish({"vmplant", "plant0", {{"v", "2"}}});
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_EQ(registry.bind("plant0").value().properties.at("v"), "2");
}

TEST(RegistryTest, WithdrawRemoves) {
  ServiceRegistry registry;
  registry.publish({"vmplant", "plant0", {}});
  EXPECT_TRUE(registry.withdraw("plant0"));
  EXPECT_FALSE(registry.withdraw("plant0"));
  EXPECT_TRUE(registry.discover("vmplant").empty());
}

}  // namespace
}  // namespace vmp::net
