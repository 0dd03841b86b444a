// Service message envelopes.
//
// The prototype exchanged serialized objects over Berkeley sockets with
// XML-encoded service payloads (paper Section 4.1).  This module keeps the
// same split: an envelope carrying routing metadata, and an XML body.  The
// envelope is itself rendered to XML for wire-format tests:
//
//   <message kind="request" service="vmplant.create" from="shop0"
//            to="plant3" correlation="req-0042">
//     ...payload elements...
//   </message>
#pragma once

#include <memory>
#include <string>

#include "obs/trace.h"
#include "util/error.h"
#include "xml/xml.h"

namespace vmp::net {

enum class MessageKind { kRequest, kResponse, kFault };

const char* message_kind_name(MessageKind kind) noexcept;
util::Result<MessageKind> parse_message_kind(const std::string& name);

class Message {
 public:
  Message() : body_(std::make_unique<xml::Element>("message")) {}

  static Message request(std::string service, std::string from, std::string to,
                         std::string correlation);
  /// Rebuild an envelope from already-decoded fields (wire decoders only —
  /// unlike request(), this neither captures the ambient trace context nor
  /// assumes a kind).
  static Message assemble(MessageKind kind, std::string service,
                          std::string from, std::string to,
                          std::string correlation);
  static Message response_to(const Message& request_msg);
  /// Fault response carrying an error code/description.
  static Message fault_to(const Message& request_msg, const util::Error& error);

  MessageKind kind() const { return kind_; }
  const std::string& service() const { return service_; }
  const std::string& from() const { return from_; }
  const std::string& to() const { return to_; }
  const std::string& correlation() const { return correlation_; }

  /// Payload root (children of <message>).
  xml::Element& body() { return *body_; }
  const xml::Element& body() const { return *body_; }

  /// For faults: the carried error.
  util::Error fault_error() const;
  bool is_fault() const { return kind_ == MessageKind::kFault; }

  /// Trace context riding the envelope (serialized as trace="..."
  /// span="..." attributes when set).  Message::request captures the
  /// calling thread's current span automatically; responses inherit the
  /// request's context.
  const obs::TraceContext& trace() const { return trace_; }
  void set_trace(obs::TraceContext ctx) { trace_ = std::move(ctx); }

  /// Wire form.
  std::string serialize() const;
  static util::Result<Message> deserialize(const std::string& wire);

 private:
  MessageKind kind_ = MessageKind::kRequest;
  std::string service_;
  std::string from_;
  std::string to_;
  std::string correlation_;
  obs::TraceContext trace_;
  std::unique_ptr<xml::Element> body_;
};

}  // namespace vmp::net
