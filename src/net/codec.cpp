#include "net/codec.h"

namespace vmp::net::codec {

using util::ByteBuffer;
using util::ByteReader;
using util::Error;
using util::ErrorCode;
using util::Result;

namespace {

constexpr char kMagic0 = 'V';
constexpr char kMagic1 = 'W';
constexpr std::size_t kHeaderBytes = 12;
/// Corrupted child counts cannot recurse unboundedly past this.
constexpr int kMaxElementDepth = 64;

Result<warehouse::GoldenImage> reader_error(const ByteReader& in,
                                            const char* what) {
  return Result<warehouse::GoldenImage>(
      Error(ErrorCode::kParseError,
            std::string(what) + ": " + in.status().error().message()));
}

}  // namespace

const char* frame_tag_name(FrameTag tag) noexcept {
  switch (tag) {
    case FrameTag::kMessage: return "message";
    case FrameTag::kDescriptor: return "descriptor";
    case FrameTag::kClassAd: return "classad";
    case FrameTag::kSnapshot: return "snapshot";
  }
  return "unknown";
}

std::string seal_frame(FrameTag tag, std::string payload) {
  ByteBuffer header;
  header.reserve(kHeaderBytes + payload.size());
  header.put_u8(static_cast<std::uint8_t>(kMagic0));
  header.put_u8(static_cast<std::uint8_t>(kMagic1));
  header.put_u8(static_cast<std::uint8_t>(tag));
  header.put_u8(kCodecVersion);
  header.put_u32(static_cast<std::uint32_t>(payload.size()));
  header.put_u32(util::frame_checksum32(payload));
  std::string out = header.take();
  out += payload;
  return out;
}

Result<FrameView> open_frame(std::string_view frame) {
  if (frame.size() < kHeaderBytes) {
    return Result<FrameView>(Error(
        ErrorCode::kParseError, "frame shorter than the 12-byte header (" +
                                    std::to_string(frame.size()) + " bytes)"));
  }
  ByteReader header(frame.substr(0, kHeaderBytes));
  const char magic0 = static_cast<char>(header.u8());
  const char magic1 = static_cast<char>(header.u8());
  if (magic0 != kMagic0 || magic1 != kMagic1) {
    return Result<FrameView>(
        Error(ErrorCode::kParseError, "bad frame magic (not a VW frame)"));
  }
  const std::uint8_t tag_byte = header.u8();
  const std::uint8_t version = header.u8();
  const std::uint32_t payload_len = header.u32();
  const std::uint32_t checksum = header.u32();
  if (tag_byte < static_cast<std::uint8_t>(FrameTag::kMessage) ||
      tag_byte > static_cast<std::uint8_t>(FrameTag::kSnapshot)) {
    return Result<FrameView>(Error(
        ErrorCode::kParseError,
        "unknown frame tag " + std::to_string(tag_byte)));
  }
  if (version == 0 || version > kCodecVersion) {
    return Result<FrameView>(Error(
        ErrorCode::kParseError,
        "unsupported codec version " + std::to_string(version) +
            " (this decoder speaks 1.." + std::to_string(kCodecVersion) +
            ")"));
  }
  const std::string_view payload = frame.substr(kHeaderBytes);
  if (payload.size() != payload_len) {
    return Result<FrameView>(Error(
        ErrorCode::kParseError,
        "frame length mismatch: header says " + std::to_string(payload_len) +
            " payload bytes, " + std::to_string(payload.size()) + " present"));
  }
  if (util::frame_checksum32(payload) != checksum) {
    return Result<FrameView>(
        Error(ErrorCode::kParseError, "frame checksum mismatch"));
  }
  FrameView view;
  view.tag = static_cast<FrameTag>(tag_byte);
  view.version = version;
  view.payload = payload;
  return view;
}

Result<FrameView> open_frame(std::string_view frame, FrameTag expected) {
  auto view = open_frame(frame);
  if (!view.ok()) return view;
  if (view.value().tag != expected) {
    return Result<FrameView>(Error(
        ErrorCode::kParseError,
        std::string("expected a ") + frame_tag_name(expected) + " frame, got " +
            frame_tag_name(view.value().tag)));
  }
  return view;
}

// -- XML element trees --------------------------------------------------------

void encode_element(const xml::Element& element, ByteBuffer* out) {
  out->put_string(element.name());
  out->put_varint(element.attrs().size());
  for (const auto& [key, value] : element.attrs()) {
    out->put_string(key);
    out->put_string(value);
  }
  out->put_string(element.text());
  out->put_varint(element.children().size());
  for (const auto& child : element.children()) {
    encode_element(*child, out);
  }
}

namespace {

std::unique_ptr<xml::Element> decode_element_at(ByteReader* in, int depth) {
  if (depth > kMaxElementDepth) {
    in->fail("element tree deeper than " + std::to_string(kMaxElementDepth));
    return nullptr;
  }
  std::string name = in->string_field();
  if (!in->ok()) return nullptr;
  if (name.empty()) {
    in->fail("element with empty name");
    return nullptr;
  }
  auto element = std::make_unique<xml::Element>(std::move(name));
  const std::uint64_t nattrs = in->varint();
  // Each attribute costs at least two length prefixes (2 bytes).
  if (!in->check_count(nattrs, 2)) return nullptr;
  for (std::uint64_t i = 0; i < nattrs && in->ok(); ++i) {
    std::string key = in->string_field();
    std::string value = in->string_field();
    if (!in->ok()) return nullptr;
    element->set_attr(std::move(key), std::move(value));
  }
  element->set_text(in->string_field());
  const std::uint64_t nchildren = in->varint();
  // A minimal child is name prefix + empty text prefix + counts: 4 bytes.
  if (!in->check_count(nchildren, 4)) return nullptr;
  for (std::uint64_t i = 0; i < nchildren && in->ok(); ++i) {
    auto child = decode_element_at(in, depth + 1);
    if (child == nullptr) return nullptr;
    element->adopt_child(std::move(child));
  }
  return in->ok() ? std::move(element) : nullptr;
}

}  // namespace

Result<std::unique_ptr<xml::Element>> decode_element(ByteReader* in) {
  auto element = decode_element_at(in, 0);
  if (element == nullptr) {
    return Result<std::unique_ptr<xml::Element>>(Error(
        ErrorCode::kParseError,
        "element decode: " + in->status().error().message()));
  }
  return element;
}

// -- Message envelopes --------------------------------------------------------

std::string encode_message(const Message& message,
                           const obs::TraceContext& trace) {
  ByteBuffer payload;
  payload.reserve(256);
  payload.put_u8(static_cast<std::uint8_t>(message.kind()));
  payload.put_string(message.service());
  payload.put_string(message.from());
  payload.put_string(message.to());
  payload.put_string(message.correlation());
  payload.put_string(trace.trace_id);
  payload.put_varint(trace.span_id);
  encode_element(message.body(), &payload);
  return seal_frame(FrameTag::kMessage, payload.take());
}

Result<Message> decode_message(std::string_view frame) {
  auto view = open_frame(frame, FrameTag::kMessage);
  if (!view.ok()) return view.propagate<Message>();

  ByteReader in(view.value().payload);
  const std::uint8_t kind_byte = in.u8();
  if (in.ok() && kind_byte > static_cast<std::uint8_t>(MessageKind::kFault)) {
    in.fail("message kind byte " + std::to_string(kind_byte) +
            " out of range");
  }
  std::string service = in.string_field();
  std::string from = in.string_field();
  std::string to = in.string_field();
  std::string correlation = in.string_field();
  obs::TraceContext trace;
  trace.trace_id = in.string_field();
  trace.span_id = in.varint();
  if (!in.ok()) {
    return Result<Message>(Error(
        ErrorCode::kParseError,
        "message envelope: " + in.status().error().message()));
  }

  Message message = Message::assemble(static_cast<MessageKind>(kind_byte),
                                      std::move(service), std::move(from),
                                      std::move(to), std::move(correlation));
  message.set_trace(std::move(trace));

  auto body = decode_element(&in);
  if (!body.ok()) return body.propagate<Message>();
  if (!in.done()) {
    return Result<Message>(Error(
        ErrorCode::kParseError,
        std::to_string(in.remaining()) + " trailing bytes after message body"));
  }
  for (const auto& child : body.value()->children()) {
    message.body().adopt_child(child->clone());
  }
  message.body().set_text(body.value()->text());
  return message;
}

// -- Warehouse descriptors ----------------------------------------------------

void encode_descriptor_payload(const warehouse::GoldenImage& image,
                               ByteBuffer* out) {
  out->reserve(out->size() + 512);
  out->put_string(image.id);
  out->put_string(image.backend);
  out->put_string(image.layout.dir);

  out->put_string(image.spec.os);
  out->put_varint(image.spec.memory_bytes);
  out->put_bool(image.spec.suspended);
  out->put_string(image.spec.disk.name);
  out->put_varint(image.spec.disk.capacity_bytes);
  out->put_varint(image.spec.disk.span_count);
  out->put_u8(static_cast<std::uint8_t>(image.spec.disk.mode));

  const hv::GuestState& guest = image.guest;
  out->put_string(guest.os);
  out->put_string(guest.hostname);
  out->put_string(guest.ip);
  out->put_string(guest.mac);
  out->put_varint(guest.packages.size());
  for (const auto& package : guest.packages) out->put_string(package);
  out->put_varint(guest.users.size());
  for (const auto& [name, home] : guest.users) {
    out->put_string(name);
    out->put_string(home);
  }
  out->put_varint(guest.mounts.size());
  for (const auto& [mountpoint, source] : guest.mounts) {
    out->put_string(mountpoint);
    out->put_string(source);
  }
  out->put_varint(guest.running_services.size());
  for (const auto& service : guest.running_services) out->put_string(service);
  out->put_varint(guest.files.size());
  for (const auto& [path, content] : guest.files) {
    out->put_string(path);
    out->put_string(content);
  }

  out->put_varint(image.performed.size());
  for (const auto& signature : image.performed) out->put_string(signature);
}

Result<warehouse::GoldenImage> decode_descriptor_payload(ByteReader* in) {
  warehouse::GoldenImage image;
  image.id = in->string_field();
  image.backend = in->string_field();
  image.layout.dir = in->string_field();
  if (!in->ok()) return reader_error(*in, "descriptor header");
  if (image.id.empty()) {
    return Result<warehouse::GoldenImage>(
        Error(ErrorCode::kParseError, "descriptor: missing id"));
  }

  image.spec.os = in->string_field();
  image.spec.memory_bytes = in->varint();
  image.spec.suspended = in->boolean();
  image.spec.disk.name = in->string_field();
  image.spec.disk.capacity_bytes = in->varint();
  const std::uint64_t span_count = in->varint();
  const std::uint8_t mode_byte = in->u8();
  if (in->ok() && span_count > 0xffffffffull) {
    in->fail("disk span count overflows u32");
  }
  if (in->ok() &&
      mode_byte > static_cast<std::uint8_t>(storage::DiskMode::kNonPersistent)) {
    in->fail("disk mode byte " + std::to_string(mode_byte) + " out of range");
  }
  if (!in->ok()) return reader_error(*in, "descriptor machine spec");
  image.spec.disk.span_count = static_cast<std::uint32_t>(span_count);
  image.spec.disk.mode = static_cast<storage::DiskMode>(mode_byte);

  hv::GuestState& guest = image.guest;
  guest.os = in->string_field();
  guest.hostname = in->string_field();
  guest.ip = in->string_field();
  guest.mac = in->string_field();
  // The encoder walked sorted containers, so entries arrive in order and
  // end-hinted inserts are amortized O(1) (no descent, no rebalancing).
  const std::uint64_t npackages = in->varint();
  if (!in->check_count(npackages)) return reader_error(*in, "guest packages");
  for (std::uint64_t i = 0; i < npackages && in->ok(); ++i) {
    guest.packages.emplace_hint(guest.packages.end(), in->string_field());
  }
  const std::uint64_t nusers = in->varint();
  if (!in->check_count(nusers, 2)) return reader_error(*in, "guest users");
  for (std::uint64_t i = 0; i < nusers && in->ok(); ++i) {
    std::string name = in->string_field();
    std::string home = in->string_field();
    guest.users.emplace_hint(guest.users.end(), std::move(name),
                             std::move(home));
  }
  const std::uint64_t nmounts = in->varint();
  if (!in->check_count(nmounts, 2)) return reader_error(*in, "guest mounts");
  for (std::uint64_t i = 0; i < nmounts && in->ok(); ++i) {
    std::string mountpoint = in->string_field();
    std::string source = in->string_field();
    guest.mounts.emplace_hint(guest.mounts.end(), std::move(mountpoint),
                              std::move(source));
  }
  const std::uint64_t nservices = in->varint();
  if (!in->check_count(nservices)) return reader_error(*in, "guest services");
  for (std::uint64_t i = 0; i < nservices && in->ok(); ++i) {
    guest.running_services.emplace_hint(guest.running_services.end(),
                                        in->string_field());
  }
  const std::uint64_t nfiles = in->varint();
  if (!in->check_count(nfiles, 2)) return reader_error(*in, "guest files");
  for (std::uint64_t i = 0; i < nfiles && in->ok(); ++i) {
    std::string path = in->string_field();
    std::string content = in->string_field();
    guest.files.emplace_hint(guest.files.end(), std::move(path),
                             std::move(content));
  }

  const std::uint64_t nperformed = in->varint();
  if (!in->check_count(nperformed)) {
    return reader_error(*in, "performed actions");
  }
  image.performed.reserve(static_cast<std::size_t>(nperformed));
  for (std::uint64_t i = 0; i < nperformed && in->ok(); ++i) {
    image.performed.push_back(in->string_field());
  }
  if (!in->ok()) return reader_error(*in, "descriptor");
  // Same gate as the XML parse_descriptor: a structurally well-formed frame
  // may still carry an unusable machine spec.
  VMP_RETURN_IF_ERROR_AS(image.spec.validate(), warehouse::GoldenImage);
  return image;
}

std::string encode_descriptor(const warehouse::GoldenImage& image) {
  ByteBuffer payload;
  encode_descriptor_payload(image, &payload);
  return seal_frame(FrameTag::kDescriptor, payload.take());
}

Result<warehouse::GoldenImage> decode_descriptor(std::string_view frame) {
  auto view = open_frame(frame, FrameTag::kDescriptor);
  if (!view.ok()) return view.propagate<warehouse::GoldenImage>();
  ByteReader in(view.value().payload);
  auto image = decode_descriptor_payload(&in);
  if (!image.ok()) return image;
  if (!in.done()) {
    return Result<warehouse::GoldenImage>(Error(
        ErrorCode::kParseError,
        std::to_string(in.remaining()) + " trailing bytes after descriptor"));
  }
  return image;
}

// -- ClassAd snapshots --------------------------------------------------------

void encode_classad_payload(const classad::ClassAd& ad, ByteBuffer* out) {
  const std::vector<std::string> names = ad.names();
  out->put_varint(names.size());
  for (const std::string& name : names) {
    out->put_string(name);
    const classad::Expr* expr = ad.lookup(name);
    out->put_string(expr != nullptr ? expr->to_string() : "undefined");
  }
}

Result<classad::ClassAd> decode_classad_payload(ByteReader* in) {
  const std::uint64_t nattrs = in->varint();
  if (!in->check_count(nattrs, 2)) {
    return Result<classad::ClassAd>(Error(
        ErrorCode::kParseError,
        "classad attr count: " + in->status().error().message()));
  }
  classad::ClassAd ad;
  for (std::uint64_t i = 0; i < nattrs && in->ok(); ++i) {
    std::string name = in->string_field();
    std::string expr_text = in->string_field();
    if (!in->ok()) break;
    if (auto set = ad.set_expression(name, expr_text); !set.ok()) {
      return Result<classad::ClassAd>(Error(
          ErrorCode::kParseError, "classad attr '" + name +
                                      "': " + set.error().message()));
    }
  }
  if (!in->ok()) {
    return Result<classad::ClassAd>(Error(
        ErrorCode::kParseError,
        "classad: " + in->status().error().message()));
  }
  return ad;
}

std::string encode_classad(const classad::ClassAd& ad) {
  ByteBuffer payload;
  encode_classad_payload(ad, &payload);
  return seal_frame(FrameTag::kClassAd, payload.take());
}

Result<classad::ClassAd> decode_classad(std::string_view frame) {
  auto view = open_frame(frame, FrameTag::kClassAd);
  if (!view.ok()) return view.propagate<classad::ClassAd>();
  ByteReader in(view.value().payload);
  auto ad = decode_classad_payload(&in);
  if (!ad.ok()) return ad;
  if (!in.done()) {
    return Result<classad::ClassAd>(Error(
        ErrorCode::kParseError,
        std::to_string(in.remaining()) + " trailing bytes after classad"));
  }
  return ad;
}

}  // namespace vmp::net::codec
