// Binary wire codec: frame discipline, per-object round trips, the
// bus-level wire-format negotiation, committed-fixture compatibility
// (the wire-compat CI job), and adversarial robustness sweeps — every
// truncation offset, every single-bit flip, and oversized length prefixes
// must fail CLEANLY (error Status, no crash, no giant allocation).
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "net/bus.h"
#include "net/codec.h"
#include "net/message.h"
#include "util/bytebuffer.h"
#include "wire_fixtures.h"

namespace vmp {
namespace {

namespace codec = net::codec;
using util::ByteBuffer;
using util::ByteReader;

void expect_image_eq(const warehouse::GoldenImage& a,
                     const warehouse::GoldenImage& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.backend, b.backend);
  EXPECT_EQ(a.layout.dir, b.layout.dir);
  EXPECT_EQ(a.spec.os, b.spec.os);
  EXPECT_EQ(a.spec.memory_bytes, b.spec.memory_bytes);
  EXPECT_EQ(a.spec.suspended, b.spec.suspended);
  EXPECT_EQ(a.spec.disk.name, b.spec.disk.name);
  EXPECT_EQ(a.spec.disk.capacity_bytes, b.spec.disk.capacity_bytes);
  EXPECT_EQ(a.spec.disk.span_count, b.spec.disk.span_count);
  EXPECT_EQ(a.spec.disk.mode, b.spec.disk.mode);
  EXPECT_TRUE(a.guest == b.guest);
  EXPECT_EQ(a.performed, b.performed);
}

void expect_message_eq(const net::Message& a, const net::Message& b) {
  EXPECT_EQ(a.kind(), b.kind());
  EXPECT_EQ(a.service(), b.service());
  EXPECT_EQ(a.from(), b.from());
  EXPECT_EQ(a.to(), b.to());
  EXPECT_EQ(a.correlation(), b.correlation());
  EXPECT_EQ(a.trace().trace_id, b.trace().trace_id);
  EXPECT_EQ(a.trace().span_id, b.trace().span_id);
  EXPECT_EQ(a.body().to_compact_string(), b.body().to_compact_string());
}

void expect_classad_eq(const classad::ClassAd& a, const classad::ClassAd& b) {
  ASSERT_EQ(a.names(), b.names());
  for (const std::string& name : a.names()) {
    ASSERT_NE(a.lookup(name), nullptr);
    ASSERT_NE(b.lookup(name), nullptr);
    EXPECT_EQ(a.lookup(name)->to_string(), b.lookup(name)->to_string())
        << "attr " << name;
  }
}

// ---- ByteBuffer / ByteReader primitives ------------------------------------

TEST(ByteBufferTest, PrimitiveRoundTrip) {
  ByteBuffer buf;
  buf.put_u8(0xab);
  buf.put_u16(0xbeef);
  buf.put_u32(0xdeadbeefu);
  buf.put_u64(0x0123456789abcdefull);
  buf.put_f64(-2.5);
  buf.put_bool(true);
  buf.put_varint(0);
  buf.put_varint(127);
  buf.put_varint(128);
  buf.put_varint(~0ull);
  buf.put_svarint(-1);
  buf.put_svarint(1);
  buf.put_svarint(-(1ll << 40));
  buf.put_string("hello");
  buf.put_string("");

  ByteReader in(buf.bytes());
  EXPECT_EQ(in.u8(), 0xab);
  EXPECT_EQ(in.u16(), 0xbeef);
  EXPECT_EQ(in.u32(), 0xdeadbeefu);
  EXPECT_EQ(in.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(in.f64(), -2.5);
  EXPECT_TRUE(in.boolean());
  EXPECT_EQ(in.varint(), 0u);
  EXPECT_EQ(in.varint(), 127u);
  EXPECT_EQ(in.varint(), 128u);
  EXPECT_EQ(in.varint(), ~0ull);
  EXPECT_EQ(in.svarint(), -1);
  EXPECT_EQ(in.svarint(), 1);
  EXPECT_EQ(in.svarint(), -(1ll << 40));
  EXPECT_EQ(in.string_field(), "hello");
  EXPECT_EQ(in.string_field(), "");
  EXPECT_TRUE(in.done());
  EXPECT_TRUE(in.status().ok());
}

TEST(ByteBufferTest, ReadPastEndLatchesError) {
  ByteBuffer buf;
  buf.put_u16(7);
  ByteReader in(buf.bytes());
  (void)in.u32();  // 4 > 2 remaining
  EXPECT_FALSE(in.ok());
  EXPECT_FALSE(in.status().ok());
  // Latched: everything after the first failure reads as zero.
  EXPECT_EQ(in.u8(), 0);
  EXPECT_EQ(in.varint(), 0u);
  EXPECT_EQ(in.string_field(), "");
}

TEST(ByteBufferTest, OversizedStringPrefixRejectedBeforeAllocation) {
  ByteBuffer buf;
  buf.put_varint(1ull << 60);  // length prefix far beyond the buffer
  buf.append_raw("xy");
  ByteReader in(buf.bytes());
  EXPECT_EQ(in.string_view_field(), "");
  EXPECT_FALSE(in.ok());
}

TEST(ByteBufferTest, OverlongVarintRejected) {
  // 11 continuation bytes: more than any valid 64-bit LEB128.
  const std::string overlong(11, '\x80');
  ByteReader in(overlong);
  (void)in.varint();
  EXPECT_FALSE(in.ok());
}

TEST(ByteBufferTest, CheckCountRejectsImplausibleCounts) {
  ByteBuffer buf;
  buf.put_varint(1ull << 40);
  ByteReader in(buf.bytes());
  const std::uint64_t count = in.varint();
  EXPECT_FALSE(in.check_count(count, 2));
  EXPECT_FALSE(in.ok());
}

// ---- Frame layer ------------------------------------------------------------

TEST(ByteBufferTest, FnvMatchesPublishedTestVectors) {
  // The FNV-1a reference vectors (offset bases 0x811c9dc5 and
  // 0xcbf29ce484222325): journal checksums, explore digests and derived
  // seeds all hash through these two functions.
  EXPECT_EQ(util::fnv1a32(""), 0x811c9dc5u);
  EXPECT_EQ(util::fnv1a32("a"), 0xe40c292cu);
  EXPECT_EQ(util::fnv1a32("foobar"), 0xbf9cf968u);
  EXPECT_EQ(util::fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(util::fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(util::fnv1a64("foobar"), 0x85944171f73967e8ull);
}

TEST(FrameTest, SealAndOpen) {
  const std::string frame =
      codec::seal_frame(codec::FrameTag::kClassAd, "payload-bytes");
  auto view = codec::open_frame(frame);
  ASSERT_TRUE(view.ok()) << view.error().to_string();
  EXPECT_EQ(view.value().tag, codec::FrameTag::kClassAd);
  EXPECT_EQ(view.value().version, codec::kCodecVersion);
  EXPECT_EQ(view.value().payload, "payload-bytes");
}

TEST(FrameTest, TagMismatchRejected) {
  const std::string frame = codec::seal_frame(codec::FrameTag::kClassAd, "x");
  EXPECT_FALSE(codec::open_frame(frame, codec::FrameTag::kMessage).ok());
}

TEST(FrameTest, FutureVersionRejected) {
  std::string frame = codec::seal_frame(codec::FrameTag::kMessage, "x");
  frame[3] = static_cast<char>(codec::kCodecVersion + 1);
  EXPECT_FALSE(codec::open_frame(frame).ok());
  frame[3] = 0;
  EXPECT_FALSE(codec::open_frame(frame).ok());
}

TEST(FrameTest, ChecksumMismatchRejected) {
  std::string frame = codec::seal_frame(codec::FrameTag::kMessage, "payload");
  frame.back() ^= 0x01;  // corrupt payload, leave header intact
  EXPECT_FALSE(codec::open_frame(frame).ok());
}

TEST(FrameTest, LengthMismatchRejected) {
  std::string frame = codec::seal_frame(codec::FrameTag::kMessage, "payload");
  EXPECT_FALSE(codec::open_frame(frame + "extra").ok());
}

// ---- Object round trips -----------------------------------------------------

TEST(CodecTest, MessageRoundTrip) {
  const net::Message original = testing::wire_fixture_message();
  auto decoded = codec::decode_message(codec::encode_message(original));
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  expect_message_eq(original, decoded.value());
}

TEST(CodecTest, FaultMessageRoundTrip) {
  const net::Message request = testing::wire_fixture_message();
  const net::Message fault = net::Message::fault_to(
      request, util::Error(util::ErrorCode::kResourceExhausted,
                           "warehouse budget exhausted"));
  auto decoded = codec::decode_message(codec::encode_message(fault));
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  EXPECT_TRUE(decoded.value().is_fault());
  EXPECT_EQ(decoded.value().fault_error().code(),
            util::ErrorCode::kResourceExhausted);
  EXPECT_EQ(decoded.value().fault_error().message(),
            "warehouse budget exhausted");
}

TEST(CodecTest, DescriptorRoundTrip) {
  const warehouse::GoldenImage original = testing::wire_fixture_descriptor();
  auto decoded = codec::decode_descriptor(codec::encode_descriptor(original));
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  expect_image_eq(original, decoded.value());
}

TEST(CodecTest, DescriptorValidatesSpecLikeXmlParser) {
  warehouse::GoldenImage bad = testing::wire_fixture_descriptor();
  bad.spec.memory_bytes = 0;  // structurally encodable, semantically invalid
  auto decoded = codec::decode_descriptor(codec::encode_descriptor(bad));
  EXPECT_FALSE(decoded.ok());
}

TEST(CodecTest, ClassAdRoundTrip) {
  const classad::ClassAd original = testing::wire_fixture_classad();
  auto decoded = codec::decode_classad(codec::encode_classad(original));
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  expect_classad_eq(original, decoded.value());
}

TEST(CodecTest, BinaryDescriptorSmallerThanXml) {
  const warehouse::GoldenImage image = testing::wire_fixture_descriptor();
  EXPECT_LT(codec::encode_descriptor(image).size(),
            warehouse::render_descriptor(image).size());
}

// ---- Bus wire-format negotiation --------------------------------------------

TEST(BusWireFormatTest, NamesParseAndRender) {
  EXPECT_STREQ(net::wire_format_name(net::WireFormat::kXml), "xml");
  EXPECT_STREQ(net::wire_format_name(net::WireFormat::kBinary), "binary");
  ASSERT_TRUE(net::parse_wire_format("binary").ok());
  EXPECT_EQ(net::parse_wire_format("binary").value(),
            net::WireFormat::kBinary);
  EXPECT_FALSE(net::parse_wire_format("protobuf").ok());
}

void exercise_bus(net::WireFormat wire) {
  net::MessageBus bus{net::BusConfig{wire}};
  EXPECT_EQ(bus.wire_format(), wire);
  ASSERT_TRUE(bus.register_endpoint("echo", [](const net::Message& m) {
                   net::Message response = net::Message::response_to(m);
                   auto& result = response.body().add_child("result");
                   result.set_attr("seen", m.service());
                   result.set_text(m.body().child_text("note"));
                   return response;
                 }).ok());

  net::Message request =
      net::Message::request("echo.ping", "client", "echo", "c1");
  request.body().add_child("note").set_text("payload survives the wire");
  auto response = bus.call(request);
  ASSERT_TRUE(response.ok()) << response.error().to_string();
  EXPECT_EQ(response.value().kind(), net::MessageKind::kResponse);
  EXPECT_EQ(response.value().correlation(), "c1");
  const xml::Element* result = response.value().body().child("result");
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->attr("seen"), "echo.ping");
  EXPECT_EQ(result->text(), "payload survives the wire");

  // Fault responses survive the wire too.
  ASSERT_TRUE(bus.register_endpoint("faulty", [](const net::Message& m) {
                   return net::Message::fault_to(
                       m, util::Error(util::ErrorCode::kNotFound, "no vm"));
                 }).ok());
  auto fault = bus.call(
      net::Message::request("vm.destroy", "client", "faulty", "c2"));
  ASSERT_TRUE(fault.ok()) << fault.error().to_string();
  EXPECT_TRUE(fault.value().is_fault());
  EXPECT_EQ(fault.value().fault_error().code(), util::ErrorCode::kNotFound);
}

TEST(BusWireFormatTest, XmlBusRoundTrips) {
  exercise_bus(net::WireFormat::kXml);
}

TEST(BusWireFormatTest, BinaryBusRoundTrips) {
  exercise_bus(net::WireFormat::kBinary);
}

// ---- Committed golden fixtures (the wire-compat contract) -------------------

std::string read_fixture(const std::string& name) {
  const std::string path = std::string(VMP_WIRE_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path
                         << " (regenerate with wire_fixture_gen)";
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(WireCompatTest, DecodesCommittedMessageFixture) {
  const std::string frame = read_fixture("v1-message.bin");
  ASSERT_FALSE(frame.empty());
  auto decoded = codec::decode_message(frame);
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  expect_message_eq(testing::wire_fixture_message(), decoded.value());
}

TEST(WireCompatTest, DecodesCommittedDescriptorFixture) {
  const std::string frame = read_fixture("v1-descriptor.bin");
  ASSERT_FALSE(frame.empty());
  auto decoded = codec::decode_descriptor(frame);
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  expect_image_eq(testing::wire_fixture_descriptor(), decoded.value());
}

TEST(WireCompatTest, DecodesCommittedClassAdFixture) {
  const std::string frame = read_fixture("v1-classad.bin");
  ASSERT_FALSE(frame.empty());
  auto decoded = codec::decode_classad(frame);
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  expect_classad_eq(testing::wire_fixture_classad(), decoded.value());
}

TEST(WireCompatTest, CurrentEncoderMatchesCurrentVersionFixturesByteForByte) {
  // Any encoding change must come with a kCodecVersion bump and fresh
  // fixtures for the NEW version; silently re-encoding the current version
  // differently would orphan persisted frames.
  ASSERT_EQ(codec::kCodecVersion, 1) << "codec version bumped: commit new "
                                        "v2-*.bin fixtures and extend this "
                                        "test instead of editing v1's";
  EXPECT_EQ(read_fixture("v1-message.bin"),
            codec::encode_message(testing::wire_fixture_message()));
  EXPECT_EQ(read_fixture("v1-descriptor.bin"),
            codec::encode_descriptor(testing::wire_fixture_descriptor()));
  EXPECT_EQ(read_fixture("v1-classad.bin"),
            codec::encode_classad(testing::wire_fixture_classad()));
}

// ---- Robustness sweeps ------------------------------------------------------

/// Decode `frame` as whatever `tag` says it is; must return error, never
/// crash.  Returns true when the decode was (unexpectedly) accepted.
bool decode_any(codec::FrameTag tag, const std::string& frame) {
  switch (tag) {
    case codec::FrameTag::kMessage:
      return codec::decode_message(frame).ok();
    case codec::FrameTag::kDescriptor:
      return codec::decode_descriptor(frame).ok();
    case codec::FrameTag::kClassAd:
      return codec::decode_classad(frame).ok();
    case codec::FrameTag::kSnapshot:
      return false;  // exercised by snapshot_test's sweep
  }
  return false;
}

TEST(RobustnessTest, TruncationAtEveryOffsetFailsCleanly) {
  const struct {
    codec::FrameTag tag;
    std::string frame;
  } cases[] = {
      {codec::FrameTag::kMessage,
       codec::encode_message(testing::wire_fixture_message())},
      {codec::FrameTag::kDescriptor,
       codec::encode_descriptor(testing::wire_fixture_descriptor())},
      {codec::FrameTag::kClassAd,
       codec::encode_classad(testing::wire_fixture_classad())},
  };
  for (const auto& c : cases) {
    for (std::size_t len = 0; len < c.frame.size(); ++len) {
      EXPECT_FALSE(decode_any(c.tag, c.frame.substr(0, len)))
          << codec::frame_tag_name(c.tag) << " truncated to " << len
          << " bytes was accepted";
    }
  }
}

TEST(RobustnessTest, SingleBitFlipsAtEveryPositionFailCleanly) {
  const struct {
    codec::FrameTag tag;
    std::string frame;
  } cases[] = {
      {codec::FrameTag::kMessage,
       codec::encode_message(testing::wire_fixture_message())},
      {codec::FrameTag::kDescriptor,
       codec::encode_descriptor(testing::wire_fixture_descriptor())},
      {codec::FrameTag::kClassAd,
       codec::encode_classad(testing::wire_fixture_classad())},
  };
  for (const auto& c : cases) {
    for (std::size_t byte = 0; byte < c.frame.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string flipped = c.frame;
        flipped[byte] ^= static_cast<char>(1 << bit);
        EXPECT_FALSE(decode_any(c.tag, flipped))
            << codec::frame_tag_name(c.tag) << " with bit " << bit
            << " of byte " << byte << " flipped was accepted";
      }
    }
  }
}

TEST(RobustnessTest, OversizedLengthPrefixInsidePayloadFailsCleanly) {
  // A well-formed frame whose payload claims a giant string: the length
  // prefix must be rejected against remaining bytes, not allocated.
  ByteBuffer payload;
  payload.put_varint(1);             // one classad attribute...
  payload.put_varint(1ull << 62);    // ...whose name claims 2^62 bytes
  payload.append_raw("x");
  const std::string frame =
      codec::seal_frame(codec::FrameTag::kClassAd, payload.take());
  EXPECT_FALSE(codec::decode_classad(frame).ok());
}

TEST(RobustnessTest, HugeElementCountsFailCleanly) {
  ByteBuffer payload;
  payload.put_varint(1ull << 40);  // implausible attribute count
  const std::string frame =
      codec::seal_frame(codec::FrameTag::kClassAd, payload.take());
  EXPECT_FALSE(codec::decode_classad(frame).ok());
}

}  // namespace
}  // namespace vmp
