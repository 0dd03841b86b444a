#include "net/message.h"

#include <cstdlib>

namespace vmp::net {

using util::Error;
using util::ErrorCode;
using util::Result;

const char* message_kind_name(MessageKind kind) noexcept {
  switch (kind) {
    case MessageKind::kRequest: return "request";
    case MessageKind::kResponse: return "response";
    case MessageKind::kFault: return "fault";
  }
  return "request";
}

Result<MessageKind> parse_message_kind(const std::string& name) {
  if (name == "request") return MessageKind::kRequest;
  if (name == "response") return MessageKind::kResponse;
  if (name == "fault") return MessageKind::kFault;
  return Result<MessageKind>(
      Error(ErrorCode::kParseError, "unknown message kind: " + name));
}

Message Message::request(std::string service, std::string from, std::string to,
                         std::string correlation) {
  Message m;
  m.kind_ = MessageKind::kRequest;
  m.service_ = std::move(service);
  m.from_ = std::move(from);
  m.to_ = std::move(to);
  m.correlation_ = std::move(correlation);
  // Join the calling thread's trace (empty context when tracing is off).
  m.trace_ = obs::current_context();
  return m;
}

Message Message::assemble(MessageKind kind, std::string service,
                          std::string from, std::string to,
                          std::string correlation) {
  Message m;
  m.kind_ = kind;
  m.service_ = std::move(service);
  m.from_ = std::move(from);
  m.to_ = std::move(to);
  m.correlation_ = std::move(correlation);
  return m;
}

Message Message::response_to(const Message& request_msg) {
  Message m;
  m.kind_ = MessageKind::kResponse;
  m.service_ = request_msg.service_;
  m.from_ = request_msg.to_;
  m.to_ = request_msg.from_;
  m.correlation_ = request_msg.correlation_;
  m.trace_ = request_msg.trace_;
  return m;
}

Message Message::fault_to(const Message& request_msg, const Error& error) {
  Message m = response_to(request_msg);
  m.kind_ = MessageKind::kFault;
  xml::Element& fault = m.body().add_child("fault");
  fault.set_attr("code", util::error_code_name(error.code()));
  fault.set_text(error.message());
  return m;
}

Error Message::fault_error() const {
  const xml::Element* fault = body().child("fault");
  if (fault == nullptr) {
    return Error(ErrorCode::kInternal, "fault message without <fault> element");
  }
  const std::string& code_name = fault->attr("code");
  // Reverse-map the code name; unknown names degrade to kInternal.
  for (std::uint32_t c = 0; c <= 14; ++c) {
    const auto code = static_cast<ErrorCode>(c);
    if (code_name == util::error_code_name(code)) {
      return Error(code, fault->text());
    }
  }
  return Error(ErrorCode::kInternal, fault->text());
}

std::string Message::serialize() const {
  xml::Element root("message");
  root.set_attr("kind", message_kind_name(kind_));
  root.set_attr("service", service_);
  root.set_attr("from", from_);
  root.set_attr("to", to_);
  root.set_attr("correlation", correlation_);
  if (trace_.valid()) {
    root.set_attr("trace", trace_.trace_id);
    root.set_attr("span", std::to_string(trace_.span_id));
  }
  for (const auto& child : body_->children()) {
    root.adopt_child(child->clone());
  }
  return root.to_string();
}

Result<Message> Message::deserialize(const std::string& wire) {
  auto doc = xml::parse(wire);
  if (!doc.ok()) return doc.propagate<Message>();
  const xml::Element& root = *doc.value();
  if (root.name() != "message") {
    return Result<Message>(
        Error(ErrorCode::kParseError, "expected <message> root"));
  }
  auto kind = parse_message_kind(root.attr("kind"));
  if (!kind.ok()) return kind.propagate<Message>();

  Message m;
  m.kind_ = kind.value();
  m.service_ = root.attr("service");
  m.from_ = root.attr("from");
  m.to_ = root.attr("to");
  m.correlation_ = root.attr("correlation");
  if (root.has_attr("trace")) {
    m.trace_.trace_id = root.attr("trace");
    m.trace_.span_id = static_cast<std::uint64_t>(
        std::strtoull(root.attr("span").c_str(), nullptr, 10));
  }
  for (const auto& child : root.children()) {
    m.body().adopt_child(child->clone());
  }
  return m;
}

}  // namespace vmp::net
