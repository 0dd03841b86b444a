#include "obs/trace.h"

#include <cctype>
#include <charconv>
#include <chrono>
#include <fstream>
#include <sstream>
#include <utility>

#include "util/logging.h"
#include "util/strings.h"

namespace vmp::obs {

namespace detail {
std::atomic<bool> g_armed{false};
}  // namespace detail

namespace {

/// Wall seconds since the process first asked for the time.
double wall_seconds() {
  static const auto start = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Per-thread stack of contexts: spans begun on this thread plus contexts
/// adopted from the wire (ContextGuard).  The open-span records parallel
/// the subset of entries begun locally.
thread_local std::vector<TraceContext> tl_context_stack;
thread_local std::vector<Span> tl_open_spans;

/// One value of a flat JSON object: the decoded text of a string, or the
/// literal text of anything else (a number).
struct JsonValue {
  std::string text;
  bool is_string = false;
};

/// Decode the string literal starting at text[*pos] == '"', leaving *pos
/// past its closing quote.  Accepts the escapes util::json_escape writes:
/// \" \\ \n \r \t, and \u00XX below 0x80.
bool read_json_string(std::string_view text, std::size_t* pos,
                      std::string* out) {
  for (++*pos; *pos < text.size();) {
    char c = text[(*pos)++];
    if (c == '"') return true;
    if (c != '\\') {
      out->push_back(c);
      continue;
    }
    if (*pos >= text.size()) return false;
    switch (c = text[(*pos)++]) {
      case '"': case '\\': out->push_back(c); break;
      case 'n': out->push_back('\n'); break;
      case 'r': out->push_back('\r'); break;
      case 't': out->push_back('\t'); break;
      case 'u': {
        unsigned code = 0;
        if (text.size() - *pos < 4) return false;
        const char* first = text.data() + *pos;
        const auto [end, ec] = std::from_chars(first, first + 4, code, 16);
        if (ec != std::errc{} || end != first + 4 || code >= 0x80) {
          return false;
        }
        out->push_back(static_cast<char>(code));
        *pos += 4;
        break;
      }
      default: return false;
    }
  }
  return false;
}

/// Parse a one-line JSON object whose values are strings or scalars (the
/// shape to_json writes).  Nested objects and arrays are rejected.
bool parse_flat_object(std::string_view text,
                       std::map<std::string, JsonValue>* out) {
  std::size_t pos = 0;
  const auto skip_space = [&] {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
  };
  // Skip whitespace, then consume `c` if it comes next.
  const auto take = [&](char c) {
    skip_space();
    if (pos >= text.size() || text[pos] != c) return false;
    ++pos;
    return true;
  };
  if (!take('{')) return false;
  do {
    std::string key;
    JsonValue value;
    skip_space();
    if (pos >= text.size() || text[pos] != '"' ||
        !read_json_string(text, &pos, &key) || !take(':')) {
      return false;
    }
    skip_space();
    if (pos < text.size() && text[pos] == '"') {
      if (!read_json_string(text, &pos, &value.text)) return false;
      value.is_string = true;
    } else {
      const std::size_t begin = pos;
      while (pos < text.size() && text[pos] != ',' && text[pos] != '}' &&
             !std::isspace(static_cast<unsigned char>(text[pos]))) {
        ++pos;
      }
      value.text = text.substr(begin, pos - begin);
      if (value.text.empty() || value.text[0] == '{' || value.text[0] == '[') {
        return false;
      }
    }
    (*out)[std::move(key)] = std::move(value);
  } while (take(','));
  if (!take('}')) return false;
  skip_space();
  return pos == text.size();
}

}  // namespace

util::Result<Span> Span::from_json(std::string_view line) {
  static constexpr std::pair<const char*, std::string Span::*> kText[] = {
      {"trace", &Span::trace_id},     {"name", &Span::name},
      {"component", &Span::component}, {"detail", &Span::detail},
      {"vm", &Span::vm_id},           {"status", &Span::status}};
  static constexpr std::pair<const char*, std::uint64_t Span::*> kIds[] = {
      {"span", &Span::span_id}, {"parent", &Span::parent_id}};
  static constexpr std::pair<const char*, double Span::*> kTimes[] = {
      {"start", &Span::start_s}, {"end", &Span::end_s}};
  const auto fail = [](const std::string& what) {
    return util::Result<Span>(
        util::Error(util::ErrorCode::kParseError, "span json: " + what));
  };

  std::map<std::string, JsonValue> fields;
  if (!parse_flat_object(line, &fields)) return fail("not a flat object");
  if (fields.count("trace") == 0 || fields.count("span") == 0) {
    return fail("missing \"trace\" or \"span\"");
  }
  Span span;
  for (const auto& [key, member] : kText) {
    const auto it = fields.find(key);
    if (it == fields.end()) continue;
    if (!it->second.is_string) return fail(std::string(key) + " not a string");
    span.*member = it->second.text;
  }
  for (const auto& [key, member] : kIds) {
    const auto it = fields.find(key);
    if (it == fields.end()) continue;
    const std::string& text = it->second.text;
    const auto [end, ec] = std::from_chars(
        text.data(), text.data() + text.size(), span.*member);
    if (it->second.is_string || ec != std::errc{} ||
        end != text.data() + text.size()) {
      return fail(std::string(key) + " not an unsigned integer");
    }
  }
  for (const auto& [key, member] : kTimes) {
    const auto it = fields.find(key);
    if (it == fields.end()) continue;
    if (it->second.is_string ||
        !util::parse_double(it->second.text, &(span.*member))) {
      return fail(std::string(key) + " not a number");
    }
  }
  if (fields.count("end") == 0) span.end_s = span.start_s;
  return span;
}

std::string Span::to_json() const {
  std::ostringstream out;
  out << "{\"trace\":\"" << util::json_escape(trace_id) << "\""
      << ",\"span\":" << span_id << ",\"parent\":" << parent_id
      << ",\"name\":\"" << util::json_escape(name) << "\""
      << ",\"component\":\"" << util::json_escape(component) << "\"";
  if (!detail.empty()) {
    out << ",\"detail\":\"" << util::json_escape(detail) << "\"";
  }
  if (!vm_id.empty()) out << ",\"vm\":\"" << util::json_escape(vm_id) << "\"";
  out << ",\"start\":" << start_s << ",\"end\":" << end_s
      << ",\"status\":\"" << util::json_escape(status) << "\"}";
  return out.str();
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::arm() {
  clear();
  detail::g_armed.store(true, std::memory_order_relaxed);
}

void Tracer::disarm() {
  detail::g_armed.store(false, std::memory_order_relaxed);
}

void Tracer::set_clock(std::function<double()> clock) {
  std::lock_guard<std::mutex> lock(mutex_);
  clock_ = std::move(clock);
}

double Tracer::now() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return clock_ ? clock_() : wall_seconds();
}

TraceContext Tracer::begin_span(const std::string& name,
                                const std::string& component,
                                const std::string& detail,
                                const TraceContext& parent) {
  Span span;
  span.name = name;
  span.component = component;
  span.detail = detail;
  span.span_id = next_span_id_.fetch_add(1, std::memory_order_relaxed);
  span.start_s = now();

  TraceContext effective_parent = parent;
  if (!effective_parent.valid() && !tl_context_stack.empty()) {
    effective_parent = tl_context_stack.back();
  }
  if (effective_parent.valid()) {
    span.trace_id = effective_parent.trace_id;
    span.parent_id = effective_parent.span_id;
  } else {
    span.trace_id =
        "trace-" +
        std::to_string(next_trace_.fetch_add(1, std::memory_order_relaxed));
    span.parent_id = 0;
  }

  TraceContext ctx{span.trace_id, span.span_id};
  tl_context_stack.push_back(ctx);
  tl_open_spans.push_back(std::move(span));
  return ctx;
}

void Tracer::end_span(const TraceContext& ctx, const std::string& status,
                      const std::string& vm_id) {
  if (tl_open_spans.empty()) return;
  Span span = std::move(tl_open_spans.back());
  tl_open_spans.pop_back();
  // The context stack entry for this span is on top unless a ContextGuard
  // leaked (it cannot: both are strict RAII); be defensive anyway.
  if (!tl_context_stack.empty() &&
      tl_context_stack.back().span_id == ctx.span_id) {
    tl_context_stack.pop_back();
  }
  span.end_s = now();
  span.status = status;
  span.vm_id = vm_id;
  if (log_spans_.load(std::memory_order_relaxed)) {
    util::Logger("trace").debug()
        << span.name << " [" << span.component << "] "
        << span.duration_s() << "s status=" << span.status
        << (span.detail.empty() ? "" : " " + span.detail);
  }
  // A finishing root is the tail sampler's decision point: copy it before
  // the move, land it in the buffer, then run the sink OUTSIDE the lock so
  // it can extract the trace back out.
  const bool notify_root =
      span.parent_id == 0 && root_sink_armed_.load(std::memory_order_relaxed);
  Span root_copy;
  if (notify_root) root_copy = span;
  RootSink sink;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    finished_.push_back(std::move(span));
    if (notify_root) sink = root_sink_;
  }
  if (sink) sink(root_copy);
}

void Tracer::instant(const std::string& name, const std::string& component,
                     const std::string& status, const std::string& detail) {
  if (!armed()) return;
  Span span;
  span.name = name;
  span.component = component;
  span.detail = detail;
  span.status = status;
  span.span_id = next_span_id_.fetch_add(1, std::memory_order_relaxed);
  span.start_s = span.end_s = now();
  if (!tl_context_stack.empty()) {
    span.trace_id = tl_context_stack.back().trace_id;
    span.parent_id = tl_context_stack.back().span_id;
  } else {
    span.trace_id =
        "trace-" +
        std::to_string(next_trace_.fetch_add(1, std::memory_order_relaxed));
  }
  std::lock_guard<std::mutex> lock(mutex_);
  finished_.push_back(std::move(span));
}

TraceContext Tracer::current() {
  if (tl_context_stack.empty()) return TraceContext{};
  return tl_context_stack.back();
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return finished_;
}

std::vector<Span> Tracer::trace(const std::string& trace_id) const {
  std::vector<Span> out;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Span& s : finished_) {
    if (s.trace_id == trace_id) out.push_back(s);
  }
  return out;
}

std::vector<Span> Tracer::extract_trace(const std::string& trace_id) {
  std::vector<Span> out;
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t keep = 0;
  for (std::size_t i = 0; i < finished_.size(); ++i) {
    if (finished_[i].trace_id == trace_id) {
      out.push_back(std::move(finished_[i]));
    } else {
      if (keep != i) finished_[keep] = std::move(finished_[i]);
      ++keep;
    }
  }
  finished_.resize(keep);
  return out;
}

void Tracer::set_root_sink(RootSink sink) {
  std::lock_guard<std::mutex> lock(mutex_);
  root_sink_ = std::move(sink);
  root_sink_armed_.store(static_cast<bool>(root_sink_),
                         std::memory_order_relaxed);
}

std::vector<std::string> Tracer::trace_ids() const {
  std::vector<std::string> out;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Span& s : finished_) {
    bool seen = false;
    for (const std::string& id : out) {
      if (id == s.trace_id) {
        seen = true;
        break;
      }
    }
    if (!seen) out.push_back(s.trace_id);
  }
  return out;
}

std::size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return finished_.size();
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  finished_.clear();
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Span& s : finished_) out << s.to_json() << "\n";
  return static_cast<bool>(out);
}

ContextGuard::ContextGuard(const TraceContext& ctx) {
  if (!ctx.valid() || !tracer_armed()) return;
  tl_context_stack.push_back(ctx);
  restored_ = true;
}

ContextGuard::~ContextGuard() {
  if (restored_ && !tl_context_stack.empty()) tl_context_stack.pop_back();
}

std::map<std::uint64_t, std::vector<const Span*>> span_children(
    const std::vector<Span>& spans) {
  std::map<std::uint64_t, std::vector<const Span*>> index;
  for (const Span& s : spans) index[s.parent_id].push_back(&s);
  return index;
}

const Span* find_root(const std::vector<Span>& trace_spans) {
  for (const Span& s : trace_spans) {
    if (s.parent_id == 0) return &s;
  }
  return nullptr;
}

}  // namespace vmp::obs
