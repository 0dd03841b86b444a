// End-to-end request tracing.
//
// Every Create/Query/Destroy request through the shop yields a span tree:
// span = {name, component, sim-time start/end, status, parent}, linked by a
// trace id that rides on net::Message across bus hops (the in-process
// stand-in for the prototype's socket wire format).  The design goals:
//
//   * ~zero cost disarmed: ScopedSpan's constructor is one relaxed atomic
//     load when no tracing is enabled (bench/obs_overhead holds this to
//     <= 5 ns/op).
//   * no parameter plumbing: the current span is a thread-local, so code
//     deep in the production line opens child spans without every caller
//     threading a context through.  Cross-"process" hops restore the
//     context from the message header instead (ContextGuard).
//   * offline analysis: finished spans drain to a JSONL sink
//     (tools/trace_summarize.py turns it into a per-phase latency table in
//     the spirit of the paper's Figure 6).
//
// Time is virtual-friendly: the tracer reads a pluggable clock (install the
// DES clock via set_clock for sim-time spans); the default is wall seconds
// since process start.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.h"

namespace vmp::obs {

namespace detail {
/// The tracer's armed flag lives at namespace scope so the disarmed fast
/// path is one relaxed load — no function-local-static guard, no call.
extern std::atomic<bool> g_armed;
}  // namespace detail

/// True while tracing is armed (one relaxed atomic load).
inline bool tracer_armed() {
  return detail::g_armed.load(std::memory_order_relaxed);
}

/// Identifies a position in a trace; carried on messages across bus hops.
/// A default-constructed context is "not part of any trace".
struct TraceContext {
  std::string trace_id;    // "" = no trace
  std::uint64_t span_id = 0;

  bool valid() const { return !trace_id.empty(); }
};

/// One finished span.
struct Span {
  std::string trace_id;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;  // 0 = root
  std::string name;             // e.g. "plant.create"
  std::string component;        // e.g. "vmplant"
  std::string detail;           // free-form (plant address, action id, vm id)
  std::string vm_id;            // set when the span produced/handled a VM
  double start_s = 0.0;
  double end_s = 0.0;
  std::string status = "ok";    // "ok", an error-code name, or "retry"

  double duration_s() const { return end_s - start_s; }
  bool ok() const { return status == "ok" || status == "retry"; }

  /// One-line JSON object (the JSONL sink format).
  std::string to_json() const;
  /// Inverse of to_json(): read one JSONL line back.  Unknown keys are
  /// ignored.  A line without "end" is a span that never finished (a crash
  /// or a truncated dump); it reads as open, end = start, so it attributes
  /// zero duration.  kParseError when the line is not a flat JSON object of
  /// strings and numbers or lacks "trace" or "span".
  static util::Result<Span> from_json(std::string_view line);
};

class Tracer {
 public:
  static Tracer& instance();

  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Arm/disarm.  arm() clears previously collected spans so a test or
  /// example starts from a clean buffer.
  void arm();
  void disarm();
  bool armed() const { return tracer_armed(); }

  /// Install a time source (e.g. the DES clock).  nullptr restores the
  /// default wall clock.  Applies to spans started afterwards.
  void set_clock(std::function<double()> clock);
  double now() const;

  /// Mirror span-end events into util::Logger at debug level ("trace"
  /// component).  Off by default.
  void set_log_spans(bool on) { log_spans_.store(on); }

  // -- Span lifecycle (used by ScopedSpan; callable directly) ---------------
  /// Open a span.  Parent resolution: explicit `parent` if valid, else the
  /// calling thread's current span, else a fresh root (new trace id).
  /// The new span becomes the thread's current span.
  TraceContext begin_span(const std::string& name, const std::string& component,
                          const std::string& detail = "",
                          const TraceContext& parent = {});

  /// Close the span begun last on this thread and record it.
  void end_span(const TraceContext& ctx, const std::string& status,
                const std::string& vm_id = "");

  /// Record an instantaneous event span (start == end) under the current
  /// span; used for retry/failover markers.
  void instant(const std::string& name, const std::string& component,
               const std::string& status, const std::string& detail = "");

  // -- Thread-local context -------------------------------------------------
  static TraceContext current();

  // -- Root-completion sink (the tail sampler's hook) -----------------------
  /// Called once per finished ROOT span (parent_id == 0), on the thread
  /// that ended it, after the span landed in the finished buffer.  The
  /// sink runs outside the tracer lock, so it may call back into the
  /// tracer (extract_trace does).  One sink at a time; nullptr uninstalls.
  /// instant() roots (lone markers) do not trigger it.
  using RootSink = std::function<void(const Span& root)>;
  void set_root_sink(RootSink sink);

  // -- Introspection --------------------------------------------------------
  /// Copies of all finished spans (in completion order).
  std::vector<Span> spans() const;
  /// Finished spans of one trace.
  std::vector<Span> trace(const std::string& trace_id) const;
  /// Remove and return one trace's finished spans (completion order kept).
  /// The tail sampler drains every decided trace through this, so an armed
  /// tracer's buffer stays bounded by the in-flight traces instead of
  /// growing with history (DESIGN.md §14).
  std::vector<Span> extract_trace(const std::string& trace_id);
  /// Distinct trace ids seen, in first-completion order.
  std::vector<std::string> trace_ids() const;
  std::size_t span_count() const;

  /// Drop collected spans (arming does this too).
  void clear();

  /// Append every finished span as one JSON object per line.  Returns
  /// false when the file cannot be opened.
  bool write_jsonl(const std::string& path) const;

 private:
  friend class ContextGuard;

  std::atomic<bool> log_spans_{false};
  std::atomic<std::uint64_t> next_span_id_{1};
  std::atomic<std::uint64_t> next_trace_{1};
  /// Fast-path flag so end_span pays for the root copy only when a sink is
  /// actually installed (the armed-span budget in bench/obs_overhead).
  std::atomic<bool> root_sink_armed_{false};

  mutable std::mutex mutex_;
  std::function<double()> clock_;
  RootSink root_sink_;
  std::vector<Span> finished_;

  struct OpenSpan {
    Span span;
  };
};

/// RAII span.  Disarmed: constructor is one relaxed atomic load, destructor
/// a branch.  Armed: opens a child of the thread's current span (or of the
/// explicit parent context) and closes it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, const char* component)
      : active_(tracer_armed()) {
    if (active_) ctx_ = Tracer::instance().begin_span(name, component);
  }
  ScopedSpan(const char* name, const char* component,
             const std::string& detail, const TraceContext& parent = {})
      : active_(tracer_armed()) {
    if (active_) {
      ctx_ = Tracer::instance().begin_span(name, component, detail, parent);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (active_) {
      Tracer::instance().end_span(
          ctx_, status_.empty() ? std::string("ok") : status_, vm_id_);
    }
  }

  /// Mark the span failed (status = error-code name or free-form).
  void set_status(const std::string& status) { status_ = status; }
  /// Associate a VM with this span (per-VM summaries in the exporter).
  void set_vm(const std::string& vm_id) { vm_id_ = vm_id; }

  const TraceContext& context() const { return ctx_; }
  bool active() const { return active_; }

 private:
  bool active_;
  TraceContext ctx_;
  std::string status_;  // empty = "ok"; set via set_status
  std::string vm_id_;
};

/// Restore a trace context received over the wire as this thread's current
/// span for the guard's lifetime (the server half of an RPC hop).  A
/// no-op when the context is invalid or tracing is disarmed.
class ContextGuard {
 public:
  explicit ContextGuard(const TraceContext& ctx);
  ContextGuard(const ContextGuard&) = delete;
  ContextGuard& operator=(const ContextGuard&) = delete;
  ~ContextGuard();

 private:
  bool restored_ = false;
  TraceContext saved_;
};

/// Shorthand for Tracer::instance().current().
inline TraceContext current_context() { return Tracer::current(); }

/// Assemble a parent -> children index for a span set (tree traversal in
/// tests and the exporter).
std::map<std::uint64_t, std::vector<const Span*>> span_children(
    const std::vector<Span>& spans);

/// Find the root span of a trace (parent_id == 0); nullptr when absent.
const Span* find_root(const std::vector<Span>& trace_spans);

}  // namespace vmp::obs
