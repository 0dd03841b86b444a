// Tail-latency forensics tests (DESIGN.md §14): the span-dump reader, the
// critical-path analyzer against the golden fixture, the tail sampler's
// quantile/warmup/budget semantics, and the end-to-end acceptance
// scenario — a create slowed by an injected evict-to-fit stall
// whose retained exemplar correlates spans, journal records, and the
// fault firing in causal order.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "lifecycle/lifecycle.h"
#include "obs/critical_path.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/tail.h"
#include "obs/trace.h"
#include "storage/artifact_store.h"
#include "warehouse/warehouse.h"

namespace vmp::obs {
namespace {

// -- Span dumps -------------------------------------------------------------

/// Spans of a Tracer::write_jsonl dump, read back through Span::from_json.
std::vector<Span> load_jsonl(const std::filesystem::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  std::vector<Span> spans;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    auto span = Span::from_json(line);
    EXPECT_TRUE(span.ok()) << line;
    if (span.ok()) spans.push_back(std::move(span).value());
  }
  return spans;
}

std::vector<Span> load_golden_fixture() {
  return load_jsonl(std::filesystem::path(VMP_TRACE_DIR) /
                    "tail_golden.jsonl");
}

Span make_root(const std::string& trace_id, const std::string& name,
               double start, double end, const std::string& status = "ok") {
  Span s;
  s.trace_id = trace_id;
  s.span_id = 1;
  s.parent_id = 0;
  s.name = name;
  s.start_s = start;
  s.end_s = end;
  s.status = status;
  return s;
}

TEST(SpanJsonTest, WriteJsonlRoundTrips) {
  Tracer& tracer = Tracer::instance();
  tracer.arm();
  double clock = 0.25;
  tracer.set_clock([&clock] { return clock; });
  {
    ScopedSpan root("shop.create \"quoted\" \\back", "vmshop", "a\\b");
    clock = 0.5;
    {
      ScopedSpan child("line\nbreak", "vmplant");
      child.set_vm("vm-1");
      child.set_status("TIMEOUT");
      clock = 1.75;
    }
    clock = 2.0;
  }
  tracer.set_clock(nullptr);
  const std::vector<Span> written = tracer.spans();
  tracer.disarm();
  ASSERT_EQ(written.size(), 2u);

  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("vmp_span_roundtrip_" + std::to_string(::getpid()) + ".jsonl");
  ASSERT_TRUE(tracer.write_jsonl(path.string()));
  // A crash leaves a span that never finished: no "end" in its line.
  std::ofstream(path, std::ios::app)
      << R"({"trace":"t","span":7,"parent":1,"name":"open.op","start":0.8})"
      << "\n";
  const std::vector<Span> read = load_jsonl(path);
  std::filesystem::remove(path);
  ASSERT_EQ(read.size(), written.size() + 1);
  for (std::size_t i = 0; i < written.size(); ++i) {
    EXPECT_EQ(read[i].to_json(), written[i].to_json());
    EXPECT_DOUBLE_EQ(read[i].start_s, written[i].start_s);
    EXPECT_DOUBLE_EQ(read[i].end_s, written[i].end_s);
  }
  EXPECT_EQ(read[0].name, "line\nbreak");
  EXPECT_EQ(read[0].vm_id, "vm-1");
  EXPECT_EQ(read[0].status, "TIMEOUT");
  EXPECT_EQ(read[1].name, "shop.create \"quoted\" \\back");
  EXPECT_EQ(read[1].detail, "a\\b");
  EXPECT_EQ(read[0].parent_id, read[1].span_id);

  // The open span reads with end = start: zero duration.
  EXPECT_EQ(read[2].name, "open.op");
  EXPECT_DOUBLE_EQ(read[2].end_s, 0.8);
  EXPECT_DOUBLE_EQ(read[2].duration_s(), 0.0);
  EXPECT_EQ(read[2].status, "ok");

  for (const char* bad :
       {"", "{", R"({"span":1})", R"({"trace":"t","span":"1"})",
        R"({"trace":"t","span":1,"start":"x"})",
        R"({"trace":"t","span":1,"tags":[1]})",
        R"({"trace":"t","span":1} trailing)"}) {
    EXPECT_FALSE(Span::from_json(bad).ok()) << bad;
  }
}

/// Span `id` under `parent` (0 = root) of trace "t".
Span make_span(std::uint64_t id, std::uint64_t parent, const std::string& name,
               double start, double end) {
  Span s = make_root("t", name, start, end);
  s.span_id = id;
  s.parent_id = parent;
  return s;
}

// -- Critical path ----------------------------------------------------------

TEST(CriticalPathTest, GoldenFixtureSelfTimes) {
  const std::vector<Span> spans = load_golden_fixture();
  ASSERT_EQ(spans.size(), 7u);
  const CriticalPath path = critical_path(spans);
  ASSERT_EQ(path.entries.size(), 4u);
  EXPECT_DOUBLE_EQ(path.total_s, 1.0);

  EXPECT_EQ(path.entries[0].span.name, "shop.create");
  EXPECT_NEAR(path.entries[0].self_s, 0.1, 1e-9);
  EXPECT_EQ(path.entries[1].span.name, "plant.create");
  EXPECT_NEAR(path.entries[1].self_s, 0.1, 1e-9);
  EXPECT_EQ(path.entries[2].span.name, "lifecycle.publish");
  EXPECT_NEAR(path.entries[2].self_s, 0.2, 1e-9);
  EXPECT_EQ(path.entries[3].span.name, "lifecycle.evict_to_fit");
  EXPECT_NEAR(path.entries[3].self_s, 0.4, 1e-9);

  const std::map<std::string, double> selves = self_times(path);
  EXPECT_NEAR(selves.at("lifecycle.evict_to_fit"), 0.4, 1e-9);
}

TEST(CriticalPathTest, EmptyAndRootlessTraces) {
  EXPECT_TRUE(critical_path({}).empty());
  // Spans whose parents form a cycle have no root at all.
  EXPECT_TRUE(critical_path({make_span(1, 2, "a", 0.0, 1.0),
                             make_span(2, 1, "b", 0.0, 1.0)})
                  .empty());
  // A span whose parent is missing is an orphan: re-parented to the
  // virtual root, it competes with the real root instead of vanishing (the
  // longer one wins), and alone it is the whole path.
  const Span root = make_span(1, 0, "root", 0.0, 1.0);
  EXPECT_EQ(critical_path({root, make_span(6, 42, "orphan", 0.0, 0.3)})
                .entries.at(0).span.name,
            "root");
  EXPECT_EQ(critical_path({root, make_span(6, 42, "orphan", 0.0, 2.0)})
                .entries.at(0).span.name,
            "orphan");
  const CriticalPath path =
      critical_path({make_span(6, 42, "orphan", 1.0, 3.0)});
  ASSERT_EQ(path.entries.size(), 1u);
  EXPECT_EQ(path.entries[0].span.name, "orphan");
  EXPECT_DOUBLE_EQ(path.entries[0].self_s, 2.0);
}

TEST(CriticalPathTest, OpenChildOnThePathAttributesZero) {
  // Crashed mid-span: the dump has no end for the child, so it reads open.
  auto open = Span::from_json(
      R"({"trace":"t","span":2,"parent":1,"name":"open-child","start":0.1})");
  ASSERT_TRUE(open.ok());
  const CriticalPath path =
      critical_path({make_span(1, 0, "root", 0.0, 1.0), open.value()});
  ASSERT_EQ(path.entries.size(), 2u);
  EXPECT_DOUBLE_EQ(path.entries[0].self_s, 1.0);
  EXPECT_EQ(path.entries[1].span.name, "open-child");
  EXPECT_DOUBLE_EQ(path.entries[1].self_s, 0.0);
}

TEST(CriticalPathTest, OverlappingChildrenClampSelfTimeToZero) {
  // The children overlap, so their durations sum to 1.4 s under a 1 s root.
  const CriticalPath path = critical_path(
      {make_span(1, 0, "root", 0.0, 1.0), make_span(2, 1, "a", 0.0, 0.8),
       make_span(3, 1, "b", 0.3, 0.9)});
  ASSERT_EQ(path.entries.size(), 2u);
  EXPECT_DOUBLE_EQ(path.entries[0].self_s, 0.0);  // clamped, not -0.4
  EXPECT_EQ(path.entries[1].span.name, "a");
}

TEST(CriticalPathTest, RepeatedSpanIdEndsThePath) {
  // A damaged dump reuses id 1 below the root: without a guard the walk
  // would cycle 1 -> 2 -> 1 forever.  Id 0 would make the root its own child.
  CriticalPath path = critical_path(
      {make_span(1, 0, "root", 0.0, 1.0), make_span(2, 1, "a", 0.0, 0.5),
       make_span(1, 2, "dup", 0.0, 0.2)});
  ASSERT_EQ(path.entries.size(), 2u);
  EXPECT_EQ(path.entries[1].span.name, "a");
  path = critical_path({make_span(0, 0, "zero", 0.0, 1.0)});
  ASSERT_EQ(path.entries.size(), 1u);
}

TEST(CriticalPathTest, NegativeDurationsClampToZero) {
  // end < start (clock skew / missing end): attributes zero, never negative.
  const Span s = make_root("t", "skewed", 5.0, 1.0);
  EXPECT_DOUBLE_EQ(attributed_duration(s), 0.0);
  const CriticalPath path = critical_path({s});
  ASSERT_EQ(path.entries.size(), 1u);
  EXPECT_DOUBLE_EQ(path.entries[0].self_s, 0.0);
}

TEST(CriticalPathTest, RecordsSelfTimeHistograms) {
  MetricsRegistry registry;
  std::vector<Span> spans = load_golden_fixture();
  record_critical_path(critical_path(spans), &registry);
  const MetricsSnapshot snap = registry.snapshot();
  const TimerStats* stats =
      snap.timer_stats("tail.self.lifecycle.evict_to_fit.seconds");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->count, 1u);
  EXPECT_NEAR(stats->sum_s, 0.4, 1e-9);
}

// -- Tail sampler semantics -------------------------------------------------

TailSamplerConfig small_config() {
  TailSamplerConfig config;
  config.quantile = 0.5;
  config.reservoir = 8;  // stride 1: threshold recomputed every insert
  config.warmup = 4;
  config.max_retained = 4;
  config.record_metrics = false;
  return config;
}

TEST(TailSamplerTest, WarmupGatesTheQuantileAndErrorsBypassIt) {
  Tracer tracer;
  Journal journal(64);
  TailSampler sampler;
  sampler.arm(small_config(), &tracer, &journal);

  // Before warmup: even a (relatively) slow ok root is not retained...
  for (int i = 0; i < 3; ++i) {
    sampler.observe_root(
        make_root("warm-" + std::to_string(i), "op", 0.0, 0.01));
  }
  EXPECT_LT(sampler.threshold("op"), 0.0);
  sampler.observe_root(make_root("fast-but-early", "op", 0.0, 9.0));
  EXPECT_EQ(sampler.exemplars().size(), 0u);

  // ...but an errored root always is, warmup or not.
  sampler.observe_root(make_root("boom", "op", 0.0, 0.001, "UNAVAILABLE"));
  ASSERT_EQ(sampler.exemplars().size(), 1u);
  EXPECT_EQ(sampler.exemplars()[0].cause, "error");

  // Past warmup the quantile gate arms; strictly-above retains.
  EXPECT_GE(sampler.threshold("op"), 0.0);
  sampler.observe_root(make_root("slow", "op", 0.0, 20.0));
  ASSERT_EQ(sampler.exemplars().size(), 2u);
  EXPECT_EQ(sampler.exemplars()[1].cause, "slow");
  EXPECT_EQ(sampler.observed(), 6u);
  sampler.disarm();
  tracer.disarm();
}

TEST(TailSamplerTest, RetentionBudgetEvictsShortestNonError) {
  Tracer tracer;
  Journal journal(64);
  TailSampler sampler;
  TailSamplerConfig config = small_config();
  config.warmup = 1;
  config.max_retained = 2;
  sampler.arm(config, &tracer, &journal);

  sampler.observe_root(make_root("seed", "op", 0.0, 0.01));  // arms threshold
  sampler.observe_root(make_root("slow-a", "op", 0.0, 1.0));
  sampler.observe_root(make_root("err-b", "op", 0.0, 0.02, "UNAVAILABLE"));
  ASSERT_EQ(sampler.exemplars().size(), 2u);

  // Budget full.  A longer slow one replaces slow-a; the error (higher
  // retention priority despite its tiny duration) survives.
  sampler.observe_root(make_root("slow-c", "op", 0.0, 2.0));
  const std::vector<TailExemplar> kept = sampler.exemplars();
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_FALSE(sampler.exemplar("slow-a").has_value());
  EXPECT_TRUE(sampler.exemplar("err-b").has_value());
  EXPECT_TRUE(sampler.exemplar("slow-c").has_value());
  EXPECT_EQ(sampler.budget_evictions(), 1u);
  EXPECT_EQ(sampler.retained_total(), 3u);
  sampler.disarm();
  tracer.disarm();
}

TEST(TailSamplerTest, CorrelatesOnlyMatchingJournalRecords) {
  Tracer tracer;
  Journal journal(64);
  // Deterministic virtual time: every read advances 50 ms, so any real
  // root lands above the seeded 10 ms threshold.
  auto tick = std::make_shared<double>(0.0);
  tracer.set_clock([tick] { return *tick += 0.05; });
  TailSampler sampler;
  TailSamplerConfig config = small_config();
  config.warmup = 1;
  sampler.arm(config, &tracer, &journal);
  sampler.observe_root(make_root("seed", "op", 0.0, 0.01));

  // A record inside ANOTHER trace, and one with no trace context at all —
  // neither may leak into the exemplar under test.
  {
    const TraceContext ctx = tracer.begin_span("op", "test");
    journal.append(JournalEvent::kEvictBegin, "other-image");
    tracer.end_span(ctx, "ok");
  }
  journal.append(JournalEvent::kLeaseAcquire, "unstamped-image");

  // The trace under test: a child span costs extra clock reads, making
  // this root strictly slower than the earlier one under virtual time.
  const TraceContext ctx = tracer.begin_span("op", "test");
  const std::string trace_id = ctx.trace_id;
  const TraceContext child = tracer.begin_span("child", "test");
  journal.append(JournalEvent::kEvictBegin, "g1");
  tracer.end_span(child, "ok");
  tracer.end_span(ctx, "ok");

  const auto exemplar = sampler.exemplar(trace_id);
  ASSERT_TRUE(exemplar.has_value());
  ASSERT_EQ(exemplar->events.size(), 1u);
  EXPECT_EQ(exemplar->events[0].trace_id, trace_id);
  EXPECT_EQ(exemplar->events[0].image_id, "g1");
  sampler.disarm();
  tracer.disarm();
}

TEST(TailSamplerTest, RootSinkDrainsTracerBufferEvenWhenNotRetained) {
  Tracer tracer;
  tracer.set_clock([] { return 1.0; });  // zero-duration spans, never "slow"
  Journal journal(64);
  TailSampler sampler;
  sampler.arm(small_config(), &tracer, &journal);
  // Fast ok spans are decided and DROPPED — an armed tracer no longer
  // accumulates history (what makes always-on sampling affordable).
  for (int i = 0; i < 50; ++i) {
    const TraceContext ctx = tracer.begin_span("op", "test");
    tracer.end_span(ctx, "ok");
  }
  EXPECT_EQ(tracer.span_count(), 0u);
  EXPECT_EQ(sampler.exemplars().size(), 0u);
  EXPECT_EQ(sampler.observed(), 50u);
  sampler.disarm();
  tracer.disarm();
}

// -- End-to-end acceptance: exemplar capture under an evict-to-fit stall ----

warehouse::GoldenImage golden(const std::string& id) {
  warehouse::GoldenImage image;
  image.id = id;
  image.backend = "vmware-gsx";
  image.spec.os = "linux-mandrake-8.1";
  image.spec.memory_bytes = 32ull << 20;
  image.spec.suspended = true;
  image.spec.disk = storage::DiskSpec{"disk0", 128ull << 20, 2,
                                      storage::DiskMode::kNonPersistent};
  image.guest.os = image.spec.os;
  return image;
}

class TailExemplarCaptureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::temp_directory_path() /
            ("vmp-tail-test-" + std::to_string(::getpid()) + "-" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(root_);
    store_ = std::make_unique<storage::ArtifactStore>(root_);
    warehouse_ =
        std::make_unique<warehouse::Warehouse>(store_.get(), "warehouse");
    journal_ = std::make_unique<Journal>();
    // Deterministic virtual time: every clock read advances 50 ms, so span
    // durations count work (clock reads), not wall time.
    auto tick = std::make_shared<double>(0.0);
    Tracer::instance().set_clock([tick] { return *tick += 0.05; });
    journal_->set_clock([tick] { return *tick += 0.05; });
    // Route fault firings into THIS journal (Journal::instance() normally
    // owns the listener; the test wants one self-contained timeline).
    Journal* j = journal_.get();
    fault::FaultRegistry::instance().set_fire_listener(
        [j](const std::string& point, const std::string& detail) {
          j->append(JournalEvent::kFaultFired,
                    detail.empty() ? point : point + "@" + detail);
        });
    fault::FaultRegistry::instance().set_trace_provider(
        [] { return Tracer::current().trace_id; });
  }

  void TearDown() override {
    sampler_.disarm();
    Tracer::instance().disarm();
    Tracer::instance().set_clock(nullptr);
    fault::FaultRegistry::instance().clear();
    fault::FaultRegistry::instance().set_fire_listener(nullptr);
    fault::FaultRegistry::instance().set_trace_provider(nullptr);
    lifecycle_.reset();
    warehouse_.reset();
    store_.reset();
    journal_.reset();
    std::filesystem::remove_all(root_);
  }

  std::filesystem::path root_;
  std::unique_ptr<storage::ArtifactStore> store_;
  std::unique_ptr<warehouse::Warehouse> warehouse_;
  std::unique_ptr<Journal> journal_;
  std::unique_ptr<lifecycle::LifecycleManager> lifecycle_;
  TailSampler sampler_;
};

TEST_F(TailExemplarCaptureTest, EvictToFitStallYieldsCorrelatedExemplar) {
  // Budget fits two images; the third publish must evict.  The injected
  // store.remove fault fires inside that eviction.
  lifecycle::LifecycleManager::Config config;
  config.disk_budget_bytes = 400ull << 20;
  config.policy = "lru";
  config.journal = journal_.get();
  auto manager = lifecycle::LifecycleManager::create(warehouse_.get(), config);
  ASSERT_TRUE(manager.ok()) << manager.error().to_string();
  lifecycle_ = std::move(manager).value();

  TailSamplerConfig sampler_config;
  sampler_config.quantile = 0.5;
  sampler_config.reservoir = 8;
  sampler_config.warmup = 4;
  sampler_.arm(sampler_config, &Tracer::instance(), journal_.get());

  // Prime the "create.vm" reservoir so the quantile gate is armed before
  // the create under test (a handful of fast synthetic roots).
  for (int i = 0; i < 4; ++i) {
    sampler_.observe_root(
        make_root("prime-" + std::to_string(i), "create.vm", 0.0, 0.01));
  }
  ASSERT_GE(sampler_.threshold("create.vm"), 0.0);

  ASSERT_TRUE(lifecycle_->publish(golden("g1")).ok());
  ASSERT_TRUE(lifecycle_->publish(golden("g2")).ok());

  auto plan = fault::FaultPlan::parse("store.remove:times=1");
  ASSERT_TRUE(plan.ok()) << plan.error().to_string();
  fault::FaultRegistry::instance().install(std::move(plan).value());

  // The create under test: a root span over the publish that stalls in
  // evict-to-fit.  Virtual time makes it deterministically slower than the
  // primed threshold (the stall costs extra clock reads).
  std::string trace_id;
  {
    ScopedSpan root("create.vm", "test");
    trace_id = root.context().trace_id;
    ASSERT_TRUE(lifecycle_->publish(golden("g3")).ok());
  }

  const auto exemplar = sampler_.exemplar(trace_id);
  ASSERT_TRUE(exemplar.has_value())
      << "slow create not retained (threshold "
      << sampler_.threshold("create.vm") << ")";
  EXPECT_EQ(exemplar->cause, "slow");
  EXPECT_EQ(exemplar->op, "create.vm");

  // Span evidence: the root, the publish, and the evict-to-fit stall.
  auto has_span = [&](const std::string& name) {
    for (const Span& s : exemplar->spans) {
      if (s.name == name) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_span("create.vm"));
  EXPECT_TRUE(has_span("lifecycle.publish"));
  EXPECT_TRUE(has_span("lifecycle.evict_to_fit"));

  // Journal evidence: every correlated record carries THIS trace, and the
  // eviction reads begin -> fault -> commit in causal (seq) order.
  ASSERT_FALSE(exemplar->events.empty());
  std::uint64_t begin_seq = 0, fault_seq = 0, commit_seq = 0;
  for (std::size_t i = 1; i < exemplar->events.size(); ++i) {
    EXPECT_LT(exemplar->events[i - 1].seq, exemplar->events[i].seq);
  }
  // First of each kind: with multiple victims the causal claim is
  // begin(first victim) -> fault (its remove) -> commit(first victim).
  for (const JournalRecord& r : exemplar->events) {
    EXPECT_EQ(r.trace_id, trace_id) << journal_event_name(r.kind);
    if (r.kind == JournalEvent::kEvictBegin && begin_seq == 0) {
      begin_seq = r.seq;
    }
    if (r.kind == JournalEvent::kFaultFired && fault_seq == 0) {
      fault_seq = r.seq;
    }
    if (r.kind == JournalEvent::kEvictCommit && commit_seq == 0) {
      commit_seq = r.seq;
    }
  }
  ASSERT_GT(begin_seq, 0u) << "no kEvictBegin correlated";
  ASSERT_GT(fault_seq, 0u) << "no kFaultFired correlated";
  ASSERT_GT(commit_seq, 0u) << "no kEvictCommit correlated";
  EXPECT_LT(begin_seq, fault_seq);
  EXPECT_LT(fault_seq, commit_seq);

  // The registry's own firing log carries the same correlation.
  const auto traces = fault::FaultRegistry::instance().sequence_traces();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_EQ(traces[0], trace_id);

  // Critical path: the stall is attributable, and its self-time histogram
  // landed in the metrics registry for the fleet rollup.
  ASSERT_FALSE(exemplar->path.empty());
  EXPECT_EQ(exemplar->path.entries[0].span.name, "create.vm");
  const std::map<std::string, double> selves = self_times(exemplar->path);
  EXPECT_TRUE(selves.count("lifecycle.evict_to_fit"))
      << "evict-to-fit stall missing from the critical path";
  const MetricsSnapshot snap = MetricsRegistry::instance().snapshot();
  EXPECT_NE(snap.timer_stats("tail.self.lifecycle.evict_to_fit.seconds"),
            nullptr);

  // Dump + reload shape: <trace-id>.exemplar.jsonl with header/spans/events.
  const std::filesystem::path dump_dir = root_ / "exemplars";
  ASSERT_EQ(sampler_.dump(dump_dir), 1u);
  std::ifstream in(dump_dir / (trace_id + ".exemplar.jsonl"));
  ASSERT_TRUE(in.is_open());
  std::string header;
  ASSERT_TRUE(static_cast<bool>(std::getline(in, header)));
  EXPECT_NE(header.find("\"exemplar\": \"" + trace_id + "\""),
            std::string::npos);
  EXPECT_NE(header.find("\"cause\": \"slow\""), std::string::npos);
  EXPECT_NE(header.find("lifecycle.evict_to_fit"), std::string::npos);
  std::size_t lines = 1;
  std::string line;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, 1 + exemplar->spans.size() + exemplar->events.size());
}

}  // namespace
}  // namespace vmp::obs
