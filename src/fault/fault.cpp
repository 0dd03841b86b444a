#include "fault/fault.h"

#include <algorithm>

#include "util/strings.h"

namespace vmp::fault {

using util::Error;
using util::ErrorCode;
using util::Result;
using util::Status;

const std::vector<std::string>& known_points() {
  static const std::vector<std::string> kPoints = {
      points::kBusSend,          points::kBusTimeout,
      points::kStoreRead,        points::kStoreWrite,
      points::kStoreRemove,      points::kHypervisorResume,
      points::kPlantConfigureAction, points::kShopBid,
  };
  return kPoints;
}

ErrorCode default_code(const std::string& point) {
  if (point == points::kBusTimeout) return ErrorCode::kTimeout;
  if (point == points::kShopBid) return ErrorCode::kTimeout;
  if (point == points::kHypervisorResume) return ErrorCode::kInternal;
  if (point == points::kPlantConfigureAction) {
    return ErrorCode::kConfigActionFailed;
  }
  return ErrorCode::kUnavailable;
}

namespace {

bool is_known_point(const std::string& point) {
  const auto& all = known_points();
  return std::find(all.begin(), all.end(), point) != all.end();
}

Result<std::uint64_t> parse_u64(const std::string& key,
                                const std::string& value) {
  long long parsed = 0;
  if (!util::parse_int64(value, &parsed) || parsed < 0) {
    return Result<std::uint64_t>(Error(
        ErrorCode::kParseError,
        "fault spec: '" + key + "' expects an integer, got '" + value + "'"));
  }
  return static_cast<std::uint64_t>(parsed);
}

Result<double> parse_f64(const std::string& key, const std::string& value) {
  double parsed = 0.0;
  if (!util::parse_double(value, &parsed)) {
    return Result<double>(Error(
        ErrorCode::kParseError,
        "fault spec: '" + key + "' expects a number, got '" + value + "'"));
  }
  return parsed;
}

Status apply_key(FaultRule* rule, const std::string& key,
                 const std::string& value) {
  if (key == "after") {
    auto n = parse_u64(key, value);
    if (!n.ok()) return n.error();
    rule->after = n.value();
    return Status();
  }
  if (key == "times") {
    auto n = parse_u64(key, value);
    if (!n.ok()) return n.error();
    rule->times = n.value();
    return Status();
  }
  if (key == "p") {
    auto p = parse_f64(key, value);
    if (!p.ok()) return p.error();
    if (p.value() < 0.0 || p.value() > 1.0) {
      return Status(ErrorCode::kParseError,
                    "fault spec: p must be in [0,1], got " + value);
    }
    rule->probability = p.value();
    return Status();
  }
  if (key == "from") {
    auto t = parse_f64(key, value);
    if (!t.ok()) return t.error();
    rule->from_time = t.value();
    return Status();
  }
  if (key == "until") {
    auto t = parse_f64(key, value);
    if (!t.ok()) return t.error();
    rule->until_time = t.value();
    return Status();
  }
  if (key == "code") {
    auto code = util::error_code_from_name(value);
    if (!code.has_value()) {
      return Status(ErrorCode::kParseError,
                    "fault spec: unknown error code '" + value + "'");
    }
    if (*code == ErrorCode::kOk) {
      return Status(ErrorCode::kParseError,
                    "fault spec: a fault cannot surface OK");
    }
    rule->code = *code;
    rule->code_explicit = true;
    return Status();
  }
  if (key == "target") {
    rule->target = value;
    return Status();
  }
  if (key == "msg") {
    rule->message = value;
    return Status();
  }
  return Status(ErrorCode::kParseError,
                "fault spec: unknown key '" + key + "'");
}

Result<FaultRule> parse_rule(const std::string& text) {
  const std::string trimmed(util::trim(text));
  const std::size_t colon = trimmed.find(':');
  FaultRule rule;
  rule.point = std::string(util::trim(
      colon == std::string::npos ? trimmed : trimmed.substr(0, colon)));
  if (rule.point.empty()) {
    return Result<FaultRule>(
        Error(ErrorCode::kParseError, "fault spec: empty injection point"));
  }
  if (!is_known_point(rule.point)) {
    return Result<FaultRule>(Error(
        ErrorCode::kParseError,
        "fault spec: unknown injection point '" + rule.point + "'"));
  }
  rule.code = default_code(rule.point);
  if (colon != std::string::npos) {
    for (const std::string& kv :
         util::split(trimmed.substr(colon + 1), ',')) {
      const std::string pair(util::trim(kv));
      if (pair.empty()) continue;
      const std::size_t eq = pair.find('=');
      if (eq == std::string::npos) {
        return Result<FaultRule>(Error(
            ErrorCode::kParseError,
            "fault spec: expected key=value, got '" + pair + "'"));
      }
      VMP_RETURN_IF_ERROR_AS(
          apply_key(&rule, std::string(util::trim(pair.substr(0, eq))),
                    std::string(util::trim(pair.substr(eq + 1)))),
          FaultRule);
    }
  }
  return rule;
}

}  // namespace

std::string FaultRule::to_spec_string() const {
  std::string out = point;
  std::string opts;
  auto add = [&opts](const std::string& kv) {
    if (!opts.empty()) opts += ',';
    opts += kv;
  };
  if (!target.empty()) add("target=" + target);
  if (after != 0) add("after=" + std::to_string(after));
  if (times != 0) add("times=" + std::to_string(times));
  if (probability < 1.0) add("p=" + util::format_double(probability));
  if (from_time > 0.0) add("from=" + util::format_double(from_time));
  if (until_time >= 0.0) add("until=" + util::format_double(until_time));
  if (code_explicit) add(std::string("code=") + util::error_code_name(code));
  if (!message.empty()) add("msg=" + message);
  if (!opts.empty()) out += ':' + opts;
  return out;
}

Result<FaultPlan> FaultPlan::parse(const std::string& spec,
                                   std::uint64_t seed) {
  FaultPlan plan;
  plan.seed_ = seed;
  for (const std::string& rule_text : util::split(spec, ';')) {
    if (util::trim(rule_text).empty()) continue;
    auto rule = parse_rule(rule_text);
    if (!rule.ok()) return rule.propagate<FaultPlan>();
    plan.rules_.push_back(std::move(rule).value());
  }
  return plan;
}

Result<FaultPlan> FaultPlan::from_xml(const xml::Element& root) {
  if (root.name() != "fault-plan") {
    return Result<FaultPlan>(Error(
        ErrorCode::kParseError, "fault plan: expected <fault-plan> root"));
  }
  FaultPlan plan;
  plan.seed_ = static_cast<std::uint64_t>(root.attr_int("seed", 1));
  for (const xml::Element* elem : root.children_named("fault")) {
    if (!elem->has_attr("point")) {
      return Result<FaultPlan>(Error(
          ErrorCode::kParseError, "fault plan: <fault> missing point"));
    }
    // Reassemble the element as a spec rule so both forms share one
    // validation path.
    std::string spec = elem->attr("point");
    std::string opts;
    for (const auto& [key, value] : elem->attrs()) {
      if (key == "point") continue;
      if (!opts.empty()) opts += ',';
      opts += key + "=" + value;
    }
    if (!opts.empty()) spec += ':' + opts;
    auto rule = parse_rule(spec);
    if (!rule.ok()) return rule.propagate<FaultPlan>();
    plan.rules_.push_back(std::move(rule).value());
  }
  return plan;
}

Result<FaultPlan> FaultPlan::from_xml_string(const std::string& text) {
  auto doc = xml::parse(text);
  if (!doc.ok()) return doc.propagate<FaultPlan>();
  return from_xml(*doc.value());
}

std::string FaultPlan::to_spec_string() const {
  std::string out;
  for (const FaultRule& rule : rules_) {
    if (!out.empty()) out += ';';
    out += rule.to_spec_string();
  }
  return out;
}

// ---------------------------------------------------------------------------
// FaultRegistry
// ---------------------------------------------------------------------------

FaultRegistry& FaultRegistry::instance() {
  static FaultRegistry registry;
  return registry;
}

void FaultRegistry::install(FaultPlan plan) {
  std::lock_guard<std::mutex> lock(mutex_);
  plan_ = std::move(plan);
  live_ = plan_.rules();
  seen_.assign(live_.size(), 0);
  rule_fired_.assign(live_.size(), 0);
  rng_ = util::SplitMix64(plan_.seed());
  clock_ = nullptr;
  decider_ = nullptr;
  report_ = util::FaultReport();
  sequence_.clear();
  sequence_traces_.clear();
  checks_ = 0;
  armed_.store(true, std::memory_order_relaxed);
}

void FaultRegistry::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  armed_.store(false, std::memory_order_relaxed);
  plan_ = FaultPlan();
  live_.clear();
  seen_.clear();
  rule_fired_.clear();
  clock_ = nullptr;
  decider_ = nullptr;
  report_ = util::FaultReport();
  sequence_.clear();
  sequence_traces_.clear();
  checks_ = 0;
}

void FaultRegistry::set_clock(std::function<double()> clock) {
  std::lock_guard<std::mutex> lock(mutex_);
  clock_ = std::move(clock);
}

void FaultRegistry::set_decider(Decider decider) {
  std::lock_guard<std::mutex> lock(mutex_);
  decider_ = std::move(decider);
}

void FaultRegistry::set_fire_listener(FireListener listener) {
  std::lock_guard<std::mutex> lock(mutex_);
  fire_listener_ = std::move(listener);
}

void FaultRegistry::set_trace_provider(TraceProvider provider) {
  std::lock_guard<std::mutex> lock(mutex_);
  trace_provider_ = std::move(provider);
}

Status FaultRegistry::consult(const std::string& point,
                              const std::string& detail) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!armed_.load(std::memory_order_relaxed)) return Status();
  ++checks_;
  const double now = clock_ ? clock_() : 0.0;
  for (std::size_t i = 0; i < live_.size(); ++i) {
    const FaultRule& rule = live_[i];
    if (rule.point != point) continue;
    if (!rule.target.empty() &&
        detail.find(rule.target) == std::string::npos) {
      continue;
    }
    if (now < rule.from_time) continue;
    if (rule.until_time >= 0.0 && now >= rule.until_time) continue;
    const std::uint64_t seen = seen_[i]++;
    if (seen < rule.after) continue;
    if (rule.times != 0 && rule_fired_[i] >= rule.times) continue;
    if (decider_) {
      // Exploration mode: the hook outcome is a decision point owned by the
      // explorer, not a draw from the seeded RNG.
      if (!decider_(point, detail)) continue;
    } else if (rule.probability < 1.0 && !rng_.bernoulli(rule.probability)) {
      continue;
    }
    ++rule_fired_[i];
    report_.record(point);
    sequence_.push_back(detail.empty() ? point : point + "@" + detail);
    sequence_traces_.push_back(trace_provider_ ? trace_provider_() : "");
    if (fire_listener_) fire_listener_(point, detail);
    std::string message = rule.message.empty()
                              ? "injected fault: " + point +
                                    (detail.empty() ? "" : " (" + detail + ")")
                              : rule.message;
    return Status(rule.code, std::move(message));
  }
  return Status();
}

util::FaultReport FaultRegistry::report() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return report_;
}

std::uint64_t FaultRegistry::fired(const std::string& point) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return report_.count(point);
}

std::uint64_t FaultRegistry::fired_total() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return report_.total();
}

std::uint64_t FaultRegistry::checks() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return checks_;
}

std::vector<std::string> FaultRegistry::sequence() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sequence_;
}

std::vector<std::string> FaultRegistry::sequence_traces() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sequence_traces_;
}

}  // namespace vmp::fault
