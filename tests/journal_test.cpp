// Event-journal tests: flight-recorder ring semantics, the durable segment
// codec, torn-tail / mid-rotation crash tolerance on replay, and the
// lifecycle warm-start fold that brings hit/usage/clock history back after
// a crash (including the crash-at-every-prefix GDSF property).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault.h"
#include "lifecycle/lifecycle.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "warehouse/warehouse.h"

namespace vmp::obs {
namespace {

using util::ErrorCode;

JournalRecord make_record(std::uint64_t seq, JournalEvent kind,
                          const std::string& id, std::int64_t bytes = 0) {
  JournalRecord r;
  r.seq = seq;
  r.kind = kind;
  r.time_s = 1.5 * static_cast<double>(seq);
  r.wall_s = 2.5 * static_cast<double>(seq);
  r.bytes_delta = bytes;
  r.aux = seq * 7;
  r.value = 0.125 * static_cast<double>(seq);
  r.image_id = id;
  return r;
}

void expect_equal(const JournalRecord& a, const JournalRecord& b) {
  EXPECT_EQ(a.seq, b.seq);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_DOUBLE_EQ(a.time_s, b.time_s);
  EXPECT_DOUBLE_EQ(a.wall_s, b.wall_s);
  EXPECT_EQ(a.bytes_delta, b.bytes_delta);
  EXPECT_EQ(a.aux, b.aux);
  EXPECT_DOUBLE_EQ(a.value, b.value);
  EXPECT_EQ(a.image_id, b.image_id);
  EXPECT_EQ(a.trace_id, b.trace_id);
}

class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("vmp-journal-test-" + std::to_string(::getpid()) + "-" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

// -- Codec ------------------------------------------------------------------

TEST_F(JournalTest, EncodeDecodeRoundTrips) {
  const JournalRecord in =
      make_record(42, JournalEvent::kEvictCommit, "golden-a", -123456789);
  std::string bytes;
  Journal::encode(in, &bytes);
  JournalRecord out;
  ASSERT_EQ(Journal::decode(bytes.data(), bytes.size(), &out), bytes.size());
  expect_equal(in, out);
}

TEST_F(JournalTest, TraceIdRoundTripsThroughCodec) {
  JournalRecord in =
      make_record(43, JournalEvent::kFaultFired, "store.remove@g3");
  in.trace_id = "trace-forensics-1";
  std::string bytes;
  Journal::encode(in, &bytes);
  JournalRecord out;
  ASSERT_EQ(Journal::decode(bytes.data(), bytes.size(), &out), bytes.size());
  expect_equal(in, out);
}

TEST_F(JournalTest, EmptyTraceEncodesAsLegacyLayout) {
  // A record appended outside any trace must stay byte-identical to the
  // pre-trace format: no trailing trace block at all, so old journals and
  // old readers interoperate in both directions.
  const JournalRecord untraced =
      make_record(44, JournalEvent::kPublishCommit, "golden-b", 512);
  JournalRecord traced = untraced;
  traced.trace_id = "t";
  std::string legacy_bytes, traced_bytes;
  Journal::encode(untraced, &legacy_bytes);
  Journal::encode(traced, &traced_bytes);
  // Legacy layout: frame (4) + payload (51 + id_len) + checksum (4).
  EXPECT_EQ(legacy_bytes.size(), 8u + 51u + untraced.image_id.size());
  // The traced layout appends exactly u16 trace_len + trace.
  EXPECT_EQ(traced_bytes.size(), legacy_bytes.size() + 2u + 1u);
  JournalRecord out;
  ASSERT_EQ(Journal::decode(legacy_bytes.data(), legacy_bytes.size(), &out),
            legacy_bytes.size());
  EXPECT_TRUE(out.trace_id.empty());
  expect_equal(untraced, out);
}

TEST_F(JournalTest, DecodeRejectsTruncationAtEveryLength) {
  std::string bytes;
  Journal::encode(make_record(7, JournalEvent::kLeaseAcquire, "img"), &bytes);
  JournalRecord out;
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_EQ(Journal::decode(bytes.data(), len, &out), 0u) << len;
  }
}

TEST_F(JournalTest, DecodeRejectsAnySingleBitFlip) {
  std::string bytes;
  Journal::encode(make_record(9, JournalEvent::kReap, "victim", -64), &bytes);
  JournalRecord out;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x40);
    // A flip may survive only by masquerading as a different VALID record
    // (length prefix changes are caught by the length/checksum pair).
    if (Journal::decode(corrupt.data(), corrupt.size(), &out) != 0) {
      std::string reencoded;
      Journal::encode(out, &reencoded);
      EXPECT_EQ(reencoded, corrupt) << "flip at byte " << i;
    }
  }
}

TEST_F(JournalTest, EventNamesAreStable) {
  EXPECT_STREQ(journal_event_name(JournalEvent::kPublishCommit),
               "publish_commit");
  EXPECT_STREQ(journal_event_name(JournalEvent::kFaultFired), "fault_fired");
  EXPECT_STREQ(journal_event_name(static_cast<JournalEvent>(250)), "unknown");
}

// -- Flight recorder --------------------------------------------------------

TEST_F(JournalTest, RingKeepsNewestOldestFirst) {
  Journal journal(4);
  for (int i = 1; i <= 6; ++i) {
    journal.append(JournalEvent::kLeaseAcquire, "img" + std::to_string(i));
  }
  const std::vector<JournalRecord> ring = journal.ring();
  ASSERT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.front().image_id, "img3");
  EXPECT_EQ(ring.back().image_id, "img6");
  for (std::size_t i = 1; i < ring.size(); ++i) {
    EXPECT_LT(ring[i - 1].seq, ring[i].seq);
  }
  EXPECT_EQ(journal.appended(), 6u);
  journal.clear_ring();
  EXPECT_TRUE(journal.ring().empty());
  EXPECT_EQ(journal.appended(), 6u);  // lifetime count survives
}

TEST_F(JournalTest, RingJsonlHasOneObjectPerRecord) {
  Journal journal(8);
  journal.append(JournalEvent::kPublishCommit, "g\"1", 100, 2, 0.5);
  journal.append(JournalEvent::kEvictBegin, "g2");
  const std::string jsonl = journal.ring_jsonl();
  EXPECT_NE(jsonl.find("\"kind\": \"publish_commit\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"kind\": \"evict_begin\""), std::string::npos);
  EXPECT_NE(jsonl.find("g\\\"1"), std::string::npos);  // escaped quote
  EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'), 2);
}

TEST_F(JournalTest, FaultFiringsLandInGlobalRing) {
  Journal& journal = Journal::instance();  // installs the fire listener
  journal.clear_ring();
  fault::ScopedFaultPlan plan(
      fault::FaultPlan::parse("store.write:target=victim,times=1").value());
  EXPECT_TRUE(fault::check(fault::points::kStoreWrite, "other").ok());
  EXPECT_FALSE(fault::check(fault::points::kStoreWrite, "victim-dir").ok());
  const std::vector<JournalRecord> ring = journal.ring();
  ASSERT_EQ(ring.size(), 1u);
  EXPECT_EQ(ring[0].kind, JournalEvent::kFaultFired);
  EXPECT_EQ(ring[0].image_id, "store.write@victim-dir");
}

// -- Durable sink -----------------------------------------------------------

TEST_F(JournalTest, DurableRoundTripAndReopenContinuesSeq) {
  {
    Journal journal;
    ASSERT_TRUE(journal.open_durable(dir_).ok());
    ASSERT_TRUE(journal.recovered().has_value());
    EXPECT_TRUE(journal.recovered()->records.empty());
    journal.append(JournalEvent::kPublishCommit, "g1", 1000);
    journal.append(JournalEvent::kLeaseAcquire, "g1", 0, 1);
    journal.close_durable();
  }
  auto replay = Journal::replay(dir_);
  ASSERT_TRUE(replay.ok());
  EXPECT_FALSE(replay.value().torn_tail());
  ASSERT_EQ(replay.value().records.size(), 2u);
  EXPECT_EQ(replay.value().records[0].kind, JournalEvent::kPublishCommit);
  EXPECT_EQ(replay.value().records[0].bytes_delta, 1000);
  EXPECT_EQ(replay.value().last_seq, replay.value().records[1].seq);

  // Re-open: history is recovered, numbering continues past it, and the
  // new segment never touches the old ones.
  Journal reopened;
  ASSERT_TRUE(reopened.open_durable(dir_).ok());
  ASSERT_TRUE(reopened.recovered().has_value());
  EXPECT_EQ(reopened.recovered()->records.size(), 2u);
  reopened.append(JournalEvent::kEvictCommit, "g1", -1000);
  reopened.close_durable();
  auto again = Journal::replay(dir_);
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(again.value().records.size(), 3u);
  EXPECT_GT(again.value().records[2].seq, again.value().records[1].seq);
}

TEST_F(JournalTest, RotationSpreadsRecordsAcrossSegments) {
  JournalDurableConfig config;
  config.max_segment_bytes = 256;  // a few records per segment
  Journal journal;
  ASSERT_TRUE(journal.open_durable(dir_, config).ok());
  for (int i = 0; i < 32; ++i) {
    journal.append(JournalEvent::kLeaseAcquire, "golden-image-" +
                   std::to_string(i));
  }
  EXPECT_GT(journal.segments_open(), 1u);
  journal.close_durable();
  auto replay = Journal::replay(dir_);
  ASSERT_TRUE(replay.ok());
  EXPECT_GT(replay.value().segments, 1u);
  EXPECT_FALSE(replay.value().torn_tail());
  ASSERT_EQ(replay.value().records.size(), 32u);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(replay.value().records[i].image_id,
              "golden-image-" + std::to_string(i));
  }
}

TEST_F(JournalTest, TornTailIsDroppedOnReplay) {
  {
    Journal journal;
    ASSERT_TRUE(journal.open_durable(dir_).ok());
    journal.append(JournalEvent::kPublishCommit, "g1", 500);
    journal.append(JournalEvent::kPublishCommit, "g2", 600);
    journal.close_durable();
  }
  // Crash mid-append: chop bytes off the last record.
  const std::filesystem::path segment = dir_ / "seg-000001.vmj";
  const auto full = std::filesystem::file_size(segment);
  std::filesystem::resize_file(segment, full - 5);

  auto replay = Journal::replay(dir_);
  ASSERT_TRUE(replay.ok()) << replay.error().to_string();
  EXPECT_TRUE(replay.value().torn_tail());
  ASSERT_EQ(replay.value().records.size(), 1u);
  EXPECT_EQ(replay.value().records[0].image_id, "g1");
  // The tear sits right after the first record's frame and covers the rest
  // of the file.
  std::string first_frame;
  Journal::encode(replay.value().records[0], &first_frame);
  const auto expect_one_tear = [&](const JournalReplay& r) {
    ASSERT_EQ(r.tears.size(), 1u);
    EXPECT_EQ(r.tears[0].segment, "seg-000001.vmj");
    EXPECT_EQ(r.tears[0].offset, first_frame.size());
    EXPECT_EQ(r.tears[0].bytes_dropped, full - 5 - first_frame.size());
    EXPECT_EQ(r.tears[0].records_kept, 1u);
  };
  expect_one_tear(replay.value());

  // A re-opened sink starts a FRESH segment (never appends to the torn
  // tail) and recovers the surviving prefix.
  Journal reopened;
  ASSERT_TRUE(reopened.open_durable(dir_).ok());
  ASSERT_TRUE(reopened.recovered().has_value());
  EXPECT_TRUE(reopened.recovered()->torn_tail());
  EXPECT_EQ(reopened.recovered()->records.size(), 1u);
  reopened.append(JournalEvent::kLeaseAcquire, "g1");
  reopened.close_durable();
  EXPECT_EQ(std::filesystem::file_size(segment), full - 5);  // untouched

  // Replaying AGAIN must not stop at seg-1's old torn tail: seg-2 holds the
  // post-crash history and segment starts are clean resync points.
  auto after = Journal::replay(dir_);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after.value().torn_tail());
  expect_one_tear(after.value());
  ASSERT_EQ(after.value().records.size(), 2u);
  EXPECT_EQ(after.value().records[0].image_id, "g1");
  EXPECT_EQ(after.value().records[1].kind, JournalEvent::kLeaseAcquire);
  EXPECT_GT(after.value().records[1].seq, after.value().records[0].seq);
  EXPECT_EQ(after.value().last_seq, after.value().records[1].seq);

  // A third open sees BOTH segments' history and numbers past seg-2's tail,
  // so post-crash sequence numbers never repeat.
  Journal third;
  ASSERT_TRUE(third.open_durable(dir_).ok());
  ASSERT_TRUE(third.recovered().has_value());
  EXPECT_EQ(third.recovered()->records.size(), 2u);
  third.append(JournalEvent::kLeaseRelease, "g1");
  third.close_durable();
  auto final_replay = Journal::replay(dir_);
  ASSERT_TRUE(final_replay.ok());
  ASSERT_EQ(final_replay.value().records.size(), 3u);
  EXPECT_GT(final_replay.value().records[2].seq,
            final_replay.value().records[1].seq);
}

TEST_F(JournalTest, DeadSinkCountsDroppedAppends) {
  JournalDurableConfig config;
  config.max_segment_bytes = 64;  // roughly one record per segment
  Journal journal;
  ASSERT_TRUE(journal.open_durable(dir_, config).ok());
  journal.append(JournalEvent::kLeaseAcquire, "g1");
  EXPECT_EQ(journal.durable_dropped(), 0u);
  // Kill the journal directory: the next rotation's fopen fails and the
  // durable sink dies.  Every later append must be counted as dropped, and
  // segments_open() must stop claiming a live sink.
  std::filesystem::remove_all(dir_);
  for (int i = 0; i < 3; ++i) {
    journal.append(JournalEvent::kLeaseAcquire, "g2");
  }
  EXPECT_EQ(journal.segments_open(), 0u);
  EXPECT_EQ(journal.durable_dropped(), 3u);
  EXPECT_EQ(journal.ring().size(), 4u);  // the ring still has everything
  journal.close_durable();
}

TEST_F(JournalTest, ConcurrentAppendWhileSnapshotting) {
  // Writers hammer append() while readers race ring() / ring_jsonl() /
  // dump_ring_jsonl() against them.  Run under TSan (the `journal` label is
  // in the tsan-concurrency preset) this is the data-race proof for the
  // flight-recorder snapshot path; everywhere it checks that snapshots are
  // always internally consistent (strictly increasing sequence numbers).
  constexpr int kWriters = 4;
  constexpr int kAppendsPerWriter = 500;
  Journal journal(64);
  ASSERT_TRUE(journal.open_durable(dir_).ok());
  std::atomic<bool> stop{false};
  std::atomic<int> torn_snapshots{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&journal, w] {
      for (int i = 0; i < kAppendsPerWriter; ++i) {
        journal.append(JournalEvent::kLeaseAcquire,
                       "img" + std::to_string(w), w, static_cast<unsigned>(i));
      }
    });
  }
  const auto dump_path = (dir_ / "snapshot.jsonl").string();
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&journal, &stop, &torn_snapshots, dump_path, r] {
      while (!stop.load(std::memory_order_relaxed)) {
        const std::vector<JournalRecord> snap = journal.ring();
        for (std::size_t i = 1; i < snap.size(); ++i) {
          if (snap[i - 1].seq >= snap[i].seq) {
            torn_snapshots.fetch_add(1, std::memory_order_relaxed);
          }
        }
        if (r == 0) {
          (void)journal.ring_jsonl();
        } else {
          (void)journal.dump_ring_jsonl(dump_path);
        }
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) threads[static_cast<std::size_t>(w)].join();
  stop.store(true, std::memory_order_relaxed);
  for (std::size_t i = kWriters; i < threads.size(); ++i) threads[i].join();
  EXPECT_EQ(torn_snapshots.load(), 0);
  EXPECT_EQ(journal.appended(),
            static_cast<std::uint64_t>(kWriters * kAppendsPerWriter));
  EXPECT_EQ(journal.durable_dropped(), 0u);
  journal.close_durable();
  const auto replay = Journal::replay(dir_);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay.value().records.size(),
            static_cast<std::size_t>(kWriters * kAppendsPerWriter));
  EXPECT_FALSE(replay.value().torn_tail());
}

TEST_F(JournalTest, MidRotationCrashLeavesEmptySegment) {
  {
    Journal journal;
    ASSERT_TRUE(journal.open_durable(dir_).ok());
    journal.append(JournalEvent::kPublishCommit, "g1", 500);
    journal.close_durable();
  }
  // Crash between creating the next segment and writing its first record.
  std::ofstream(dir_ / "seg-000002.vmj").close();

  auto replay = Journal::replay(dir_);
  ASSERT_TRUE(replay.ok());
  EXPECT_FALSE(replay.value().torn_tail());
  EXPECT_EQ(replay.value().segments, 2u);
  ASSERT_EQ(replay.value().records.size(), 1u);

  Journal reopened;
  ASSERT_TRUE(reopened.open_durable(dir_).ok());
  reopened.append(JournalEvent::kLeaseAcquire, "g1");
  reopened.close_durable();
  auto again = Journal::replay(dir_);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().records.size(), 2u);
}

TEST_F(JournalTest, CorruptChecksumEndsReplayCleanly) {
  {
    Journal journal;
    ASSERT_TRUE(journal.open_durable(dir_).ok());
    journal.append(JournalEvent::kPublishCommit, "g1", 500);
    journal.append(JournalEvent::kPublishCommit, "g2", 600);
    journal.close_durable();
  }
  const std::filesystem::path segment = dir_ / "seg-000001.vmj";
  // Flip a byte inside the SECOND record's payload.
  std::string bytes;
  {
    std::ifstream in(segment, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  bytes[bytes.size() - 10] = static_cast<char>(bytes[bytes.size() - 10] ^ 0xff);
  {
    std::ofstream out(segment, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  auto replay = Journal::replay(dir_);
  ASSERT_TRUE(replay.ok());
  EXPECT_TRUE(replay.value().torn_tail());
  ASSERT_EQ(replay.value().records.size(), 1u);
  EXPECT_EQ(replay.value().records[0].image_id, "g1");
  // One tear, at the second record: the first one's frame is kept whole.
  std::string first_frame;
  Journal::encode(replay.value().records[0], &first_frame);
  ASSERT_EQ(replay.value().tears.size(), 1u);
  EXPECT_EQ(replay.value().tears[0].segment, "seg-000001.vmj");
  EXPECT_EQ(replay.value().tears[0].offset, first_frame.size());
  EXPECT_EQ(replay.value().tears[0].bytes_dropped,
            bytes.size() - first_frame.size());
  EXPECT_EQ(replay.value().tears[0].records_kept, 1u);
}

TEST_F(JournalTest, SecondOpenDurableFails) {
  Journal journal;
  ASSERT_TRUE(journal.open_durable(dir_).ok());
  auto status = journal.open_durable(dir_);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code(), ErrorCode::kFailedPrecondition);
  journal.close_durable();
  EXPECT_TRUE(journal.open_durable(dir_).ok());  // close re-enables
  journal.close_durable();
}

}  // namespace
}  // namespace vmp::obs

// ---------------------------------------------------------------------------
// Lifecycle integration: journaled transitions and the warm-start fold.
// ---------------------------------------------------------------------------

namespace vmp::lifecycle {
namespace {

using obs::Journal;
using obs::JournalEvent;
using obs::JournalRecord;

storage::MachineSpec spec_mb(std::uint64_t mem_mb, std::uint64_t disk_mb) {
  storage::MachineSpec spec;
  spec.os = "linux-mandrake-8.1";
  spec.memory_bytes = mem_mb << 20;
  spec.suspended = true;
  spec.disk = storage::DiskSpec{"disk0", disk_mb << 20, 2,
                                storage::DiskMode::kNonPersistent};
  return spec;
}

warehouse::GoldenImage golden(const std::string& id, std::uint64_t mem_mb,
                              std::uint64_t disk_mb) {
  warehouse::GoldenImage image;
  image.id = id;
  image.backend = "vmware-gsx";
  image.spec = spec_mb(mem_mb, disk_mb);
  image.guest.os = image.spec.os;
  return image;
}

class JournalLifecycleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::temp_directory_path() /
            ("vmp-journal-lc-" + std::to_string(::getpid()) + "-" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(root_);
    open_store();
  }
  void TearDown() override {
    lifecycle_.reset();
    warehouse_.reset();
    store_.reset();
    journal_.reset();
    std::filesystem::remove_all(root_);
  }

  void open_store() {
    store_ = std::make_unique<storage::ArtifactStore>(root_);
    warehouse_ = std::make_unique<warehouse::Warehouse>(store_.get(),
                                                        "warehouse");
  }

  /// Fresh journal (durable sink under the store root) + fresh manager —
  /// what a process (re)start looks like.
  void make_manager(std::uint64_t budget, const std::string& policy = "gdsf",
                    bool durable = true) {
    journal_ = std::make_unique<Journal>();
    if (durable) {
      obs::JournalDurableConfig config;
      config.flush_each_append = true;  // every append survives the "crash"
      ASSERT_TRUE(journal_->open_durable(journal_dir(), config).ok());
    }
    LifecycleManager::Config config;
    config.disk_budget_bytes = budget;
    config.policy = policy;
    config.journal = journal_.get();
    auto manager = LifecycleManager::create(warehouse_.get(), config);
    ASSERT_TRUE(manager.ok()) << manager.error().to_string();
    lifecycle_ = std::move(manager).value();
  }

  /// "Crash": drop the manager and journal with no clean close, then come
  /// back up the way a restarted plant would — rescan + journal replay.
  void crash_and_restart(std::uint64_t budget,
                         const std::string& policy = "gdsf") {
    lifecycle_.reset();
    journal_.reset();  // fclose only; flush_each_append already persisted
    warehouse_.reset();
    store_.reset();
    open_store();
    make_manager(budget, policy);
    ASSERT_TRUE(lifecycle_->warm_start().ok());
  }

  std::filesystem::path journal_dir() const { return root_ / "journal"; }

  std::vector<JournalRecord> ring() const { return journal_->ring(); }

  std::size_t count(JournalEvent kind) const {
    std::size_t n = 0;
    for (const JournalRecord& r : ring()) {
      if (r.kind == kind) ++n;
    }
    return n;
  }

  std::filesystem::path root_;
  std::unique_ptr<Journal> journal_;
  std::unique_ptr<storage::ArtifactStore> store_;
  std::unique_ptr<warehouse::Warehouse> warehouse_;
  std::unique_ptr<LifecycleManager> lifecycle_;
};

TEST_F(JournalLifecycleTest, TransitionsAppendTypedRecords) {
  make_manager(0);
  ASSERT_TRUE(lifecycle_->publish(golden("g1", 8, 32)).ok());
  ASSERT_TRUE(lifecycle_->acquire("g1").ok());
  lifecycle_->release("g1");
  ASSERT_TRUE(lifecycle_->evict("g1").ok());

  EXPECT_EQ(count(JournalEvent::kPublishReserve), 1u);
  EXPECT_EQ(count(JournalEvent::kPublishCommit), 1u);
  EXPECT_EQ(count(JournalEvent::kLeaseAcquire), 1u);
  EXPECT_EQ(count(JournalEvent::kLeaseRelease), 1u);
  EXPECT_EQ(count(JournalEvent::kEvictBegin), 1u);
  EXPECT_EQ(count(JournalEvent::kEvictCommit), 1u);

  // The commit charged the measured footprint; the evict credited it back.
  std::int64_t committed = 0, evicted = 0;
  for (const JournalRecord& r : ring()) {
    if (r.kind == JournalEvent::kPublishCommit) committed = r.bytes_delta;
    if (r.kind == JournalEvent::kEvictCommit) evicted = r.bytes_delta;
  }
  EXPECT_GT(committed, 0);
  EXPECT_EQ(committed, -evicted);
}

TEST_F(JournalLifecycleTest, RejectAndZombieAndReapAreJournaled) {
  make_manager(0);
  ASSERT_TRUE(lifecycle_->publish(golden("g1", 8, 32)).ok());
  EXPECT_FALSE(lifecycle_->publish(golden("g1", 8, 32)).ok());  // duplicate
  EXPECT_EQ(count(JournalEvent::kPublishReject), 1u);

  ASSERT_TRUE(lifecycle_->acquire("g1").ok());
  ASSERT_TRUE(lifecycle_->evict("g1").ok());  // leased -> zombie
  EXPECT_EQ(count(JournalEvent::kZombify), 1u);
  lifecycle_->release("g1");  // last lease -> reap
  EXPECT_EQ(count(JournalEvent::kReap), 1u);
}

TEST_F(JournalLifecycleTest, HeadroomGaugeTracksLedgerAndReservations) {
  const std::uint64_t budget = 512ull << 20;
  make_manager(budget);
  EXPECT_EQ(lifecycle_->headroom_bytes(), static_cast<std::int64_t>(budget));
  ASSERT_TRUE(lifecycle_->publish(golden("g1", 8, 32)).ok());
  const std::int64_t after = lifecycle_->headroom_bytes();
  EXPECT_EQ(after, static_cast<std::int64_t>(budget) -
                       static_cast<std::int64_t>(lifecycle_->used_bytes()));
  EXPECT_LT(after, static_cast<std::int64_t>(budget));
  EXPECT_EQ(obs::MetricsRegistry::instance().snapshot().gauge(
                "lifecycle.headroom_bytes.gauge"),
            after);
  // Unlimited budget reports 0 (nothing to bid on).
  make_manager(0);
  EXPECT_EQ(lifecycle_->headroom_bytes(), 0);
}

TEST_F(JournalLifecycleTest, WarmStartRestoresHitsAndUseOrder) {
  make_manager(0);
  ASSERT_TRUE(lifecycle_->publish(golden("g1", 8, 32)).ok());
  ASSERT_TRUE(lifecycle_->publish(golden("g2", 8, 32)).ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(lifecycle_->acquire("g1").ok());
    lifecycle_->release("g1");
  }
  ASSERT_TRUE(lifecycle_->acquire("g2").ok());
  lifecycle_->release("g2");
  ASSERT_TRUE(lifecycle_->acquire("g1").ok());
  lifecycle_->release("g1");

  crash_and_restart(0);

  const std::vector<ImageStats> stats = lifecycle_->stats();
  ASSERT_EQ(stats.size(), 2u);  // id order: g1, g2
  EXPECT_EQ(stats[0].hits, 4u);
  EXPECT_EQ(stats[1].hits, 1u);
  // g1 was used last: LRU order survives the crash.
  EXPECT_GT(stats[0].last_use_tick, stats[1].last_use_tick);
}

TEST_F(JournalLifecycleTest, ColdRestartWithoutJournalLosesHistory) {
  make_manager(0);
  ASSERT_TRUE(lifecycle_->publish(golden("g1", 8, 32)).ok());
  ASSERT_TRUE(lifecycle_->acquire("g1").ok());
  lifecycle_->release("g1");
  lifecycle_.reset();
  journal_.reset();
  make_manager(0, "gdsf", /*durable=*/false);
  ASSERT_TRUE(lifecycle_->warm_start().ok());
  const std::vector<ImageStats> stats = lifecycle_->stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].hits, 0u);  // the old behavior, still the fallback
}

TEST_F(JournalLifecycleTest, WarmStartRestoresGdsfClock) {
  make_manager(0);
  ASSERT_TRUE(lifecycle_->publish(golden("g1", 8, 32)).ok());
  ASSERT_TRUE(lifecycle_->publish(golden("g2", 8, 32)).ok());
  ASSERT_TRUE(lifecycle_->acquire("g2").ok());
  lifecycle_->release("g2");
  ASSERT_TRUE(lifecycle_->evict("g1").ok());  // advances the GDSF clock
  const double clock = lifecycle_->policy_clock();
  EXPECT_GT(clock, 0.0);

  crash_and_restart(0);
  EXPECT_DOUBLE_EQ(lifecycle_->policy_clock(), clock);
}

TEST_F(JournalLifecycleTest, ReplayToleratesTornTailFromLifecycleRun) {
  make_manager(0);
  ASSERT_TRUE(lifecycle_->publish(golden("g1", 8, 32)).ok());
  ASSERT_TRUE(lifecycle_->acquire("g1").ok());
  lifecycle_->release("g1");
  lifecycle_.reset();
  journal_.reset();
  // Crash tears the final record (the release).
  std::filesystem::path segment;
  for (const auto& entry :
       std::filesystem::directory_iterator(journal_dir())) {
    if (segment.empty() || entry.path() > segment) segment = entry.path();
  }
  std::filesystem::resize_file(segment,
                               std::filesystem::file_size(segment) - 3);
  warehouse_.reset();
  store_.reset();
  open_store();
  make_manager(0);
  ASSERT_TRUE(journal_->recovered().has_value());
  EXPECT_TRUE(journal_->recovered()->torn_tail());
  ASSERT_TRUE(lifecycle_->warm_start().ok());
  const std::vector<ImageStats> stats = lifecycle_->stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].hits, 1u);  // acquire survived; only the tail was lost
}

// -- Property: crash at EVERY prefix reproduces the live GDSF state ---------

/// GDSF priority exactly as GdsfPolicy computes it.
double gdsf_priority(double clock, const ImageStats& s) {
  const double size =
      static_cast<double>(s.physical_bytes == 0 ? 1 : s.physical_bytes);
  return clock + static_cast<double>(s.hits) * s.rebuild_cost_s / size;
}

TEST_F(JournalLifecycleTest, EveryCrashPrefixReplaysToLiveGdsfPriorities) {
  // A deterministic op script that exercises publish, reuse, eviction
  // (explicit and to-fit), zombies and reaps.  Budget ~3 images.
  using Op = std::function<void(LifecycleManager*)>;
  const std::uint64_t budget = 3 * ((8ull << 20) + (32ull << 20) + (1 << 20));
  std::vector<Op> ops;
  ops.push_back([](LifecycleManager* m) {
    ASSERT_TRUE(m->publish(golden("g1", 8, 32)).ok());
  });
  ops.push_back([](LifecycleManager* m) {
    ASSERT_TRUE(m->publish(golden("g2", 8, 32)).ok());
  });
  ops.push_back([](LifecycleManager* m) {
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(m->acquire("g1").ok());
      m->release("g1");
    }
  });
  ops.push_back([](LifecycleManager* m) {
    ASSERT_TRUE(m->publish(golden("g3", 8, 32)).ok());
  });
  ops.push_back([](LifecycleManager* m) {
    ASSERT_TRUE(m->acquire("g3").ok());
  });
  ops.push_back([](LifecycleManager* m) {
    ASSERT_TRUE(m->evict("g3").ok());  // leased -> zombie
  });
  ops.push_back([](LifecycleManager* m) {
    // Evicts the coldest unleased survivor to make room.
    ASSERT_TRUE(m->publish(golden("g4", 8, 32)).ok());
  });
  ops.push_back([](LifecycleManager* m) {
    m->release("g3");  // last lease: zombie reaped
  });
  ops.push_back([](LifecycleManager* m) {
    ASSERT_TRUE(m->acquire("g4").ok());
    m->release("g4");
  });

  for (std::size_t prefix = 0; prefix <= ops.size(); ++prefix) {
    SCOPED_TRACE("crash after op " + std::to_string(prefix));
    TearDown();
    SetUp();
    make_manager(budget);
    for (std::size_t i = 0; i < prefix; ++i) ops[i](lifecycle_.get());
    if (::testing::Test::HasFatalFailure()) return;

    // Live state at the crash point.
    std::map<std::string, double> live;
    const double live_clock = lifecycle_->policy_clock();
    for (const ImageStats& s : lifecycle_->stats()) {
      if (s.zombie) continue;  // dies with the crash (descriptor-less)
      live[s.id] = gdsf_priority(live_clock, s);
    }

    crash_and_restart(budget);
    if (::testing::Test::HasFatalFailure()) return;

    std::map<std::string, double> replayed;
    const double replayed_clock = lifecycle_->policy_clock();
    for (const ImageStats& s : lifecycle_->stats()) {
      replayed[s.id] = gdsf_priority(replayed_clock, s);
    }
    EXPECT_DOUBLE_EQ(replayed_clock, live_clock);
    ASSERT_EQ(replayed.size(), live.size());
    for (const auto& [id, priority] : live) {
      ASSERT_TRUE(replayed.count(id)) << id;
      EXPECT_DOUBLE_EQ(replayed[id], priority) << id;
    }
  }
}

}  // namespace
}  // namespace vmp::lifecycle
