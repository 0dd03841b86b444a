// Structured event journal for the warehouse lifecycle: an always-armed
// in-memory flight recorder plus an optional crash-durable segment log.
//
// The lifecycle protocols (publish / evict / lease / zombie, DESIGN.md §11)
// were observable only through aggregate counters: no record of WHICH
// transitions happened in WHAT order, and GDSF hit/usage history died with
// the process, so every warm_start() restarted the eviction policy cold.
// Following the memoized-derivation view of the CMS Virtual Data work
// (PAPERS.md) — the provenance log IS the recovery substrate — one typed
// event stream now serves three consumers (DESIGN.md §13):
//
//   * Flight recorder — a fixed-size ring of typed records (kind, image id,
//     journal-clock + wall timestamps, byte delta), always armed, at
//     obs::Tracer-class overhead (one mutex + a slot write; bench/
//     obs_overhead budgets it).  An invariant violation or vmp_explore
//     counterexample dumps the ring alongside trace.xml, so every
//     counterexample ships its own timeline.
//   * Durable sink — append-only, length-prefixed, checksummed segment
//     files under the store root, rotated by size.  Replay is torn-tail
//     tolerant: a record cut mid-write by a crash (or a segment left empty
//     by a mid-rotation crash) is dropped, everything before it and every
//     later segment survives — segment starts are clean resync points.
//   * Warm restart — lifecycle::LifecycleManager::warm_start() folds a
//     replayed journal into the rescanned ledger, restoring per-image
//     hit/usage order and the GDSF aging clock so eviction quality resumes
//     hot after a crash (bench/warehouse_churn's crash-mid-churn scenario
//     holds the replayed hit rate to within 2% of an uninterrupted run).
//
// On-disk record format (all integers little-endian, see DESIGN.md §13):
//
//   [u32 payload_len] [payload] [u32 fnv1a32(payload)]
//   payload := u8 kind | u64 seq | f64 time_s | f64 wall_s |
//              i64 bytes_delta | u64 aux | f64 value | u16 id_len | id
//              [u16 trace_len | trace]
//
// The trailing trace block (DESIGN.md §14) is present only when the record
// was appended from inside a traced request: a record whose payload ends at
// the id decodes with an empty trace_id, so pre-trace journals (and tools)
// stay readable in both directions.
//
// Segments are "seg-NNNNNN.vmj" under the journal directory; names sort in
// write order.  Sequence numbers are journal-global and survive reopen:
// open_durable() replays the existing segments first and continues from the
// last sequence it saw, which also hands the caller the replayed history
// (recovered()).
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.h"

namespace vmp::obs {

/// Typed lifecycle transitions (the closed set the report tool and replay
/// switch on; values are the on-disk encoding — append only, never renumber).
enum class JournalEvent : std::uint8_t {
  kPublishReserve = 1,  // admission reserved the estimate (+bytes_delta)
  kPublishCommit = 2,   // measured footprint charged (+bytes_delta)
  kPublishReject = 3,   // admission or materialization failed (aux = code)
  kEvictBegin = 4,      // evict() / evict-to-fit victim admitted past guards
  kEvictCommit = 5,     // unleased eviction: tree deleted (-bytes_delta)
  kEvictRollback = 6,   // leased eviction aborted, image re-attached
  kLeaseAcquire = 7,    // clone leased the base (aux = hits after)
  kLeaseRelease = 8,    // one lease returned (aux = leases after)
  kZombify = 9,         // leased eviction detached the image (no bytes yet)
  kReap = 10,           // last release deleted a zombie tree (-bytes_delta)
  kOrphanReap = 11,     // orphan sweep removed a dir (-bytes_delta)
  kWarmStart = 12,      // ledger rebuilt from disk (aux = images adopted)
  kAdopt = 13,          // warehouse-published image charged on first touch
  kFaultFired = 14,     // fault injection fired (id = "point@detail")
};

/// Stable lowercase name ("publish_commit", ...); "unknown" for bad bytes.
const char* journal_event_name(JournalEvent kind) noexcept;

/// One journal record.  `time_s` reads the journal's pluggable clock (the
/// DES sim clock when installed, wall seconds since process start
/// otherwise); `wall_s` is always wall seconds, so post-mortem timelines
/// keep a real-time axis even in simulated runs.
struct JournalRecord {
  std::uint64_t seq = 0;
  JournalEvent kind = JournalEvent::kPublishReserve;
  double time_s = 0.0;
  double wall_s = 0.0;
  std::int64_t bytes_delta = 0;  // ledger delta this transition caused
  std::uint64_t aux = 0;         // kind-specific (hits, leases, error code)
  double value = 0.0;            // kind-specific (GDSF clock at eviction)
  std::string image_id;          // image id; "point@detail" for kFaultFired
  /// Trace the appending thread was inside ("" when none): append() stamps
  /// obs::Tracer::current(), so lifecycle transitions and fault firings
  /// caused by a traced create correlate back to its span tree.
  std::string trace_id;

  /// One-line JSON object (the flight-dump format).
  std::string to_json() const;
};

/// Durable-sink tuning.
struct JournalDurableConfig {
  /// Rotate to a fresh segment once the current one reaches this size.
  std::uint64_t max_segment_bytes = 256ull << 10;
  /// fflush after every append (tightest crash window; slower).  Off, the
  /// stream flushes on rotation and close — torn-tail replay covers the
  /// rest.
  bool flush_each_append = false;
};

/// One segment whose replay ended at a torn or corrupt record.  Telling one
/// crash tail from systematic corruption needs all four fields.
struct JournalTear {
  std::string segment;              // file name, e.g. "seg-000001.vmj"
  std::uint64_t offset = 0;         // byte offset of the bad record
  std::uint64_t bytes_dropped = 0;  // segment bytes from `offset` to its end
  std::size_t records_kept = 0;     // records decoded before `offset`
};

/// What replay() recovered from a journal directory.
struct JournalReplay {
  std::vector<JournalRecord> records;  // valid records, write order
  std::size_t segments = 0;            // segment files visited
  std::uint64_t last_seq = 0;          // highest sequence recovered
  /// Segments that ended in a torn or corrupt record (a crash tail), in
  /// segment order.  The bad tail is dropped; everything before it and
  /// every later segment is in `records`.
  std::vector<JournalTear> tears;

  bool torn_tail() const { return !tears.empty(); }
};

class Journal {
 public:
  static constexpr std::size_t kDefaultRingCapacity = 4096;

  explicit Journal(std::size_t ring_capacity = kDefaultRingCapacity);
  ~Journal();
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// The process-wide journal: the flight recorder fault firings and the
  /// schedule explorer dump into, and the default sink for every
  /// LifecycleManager that is not handed its own instance.  First access
  /// arms fault-firing capture (fault::FaultRegistry's fire listener).
  static Journal& instance();

  /// Install a time source for `time_s` (e.g. the DES clock).  nullptr
  /// restores the default wall clock.
  void set_clock(std::function<double()> clock);
  double now() const;

  /// Append one event: always into the ring, and into the durable sink
  /// when one is open.  Cheap enough to stay on every lifecycle transition
  /// (bench/obs_overhead budgets the ring-only and durable paths).
  void append(JournalEvent kind, std::string_view image_id,
              std::int64_t bytes_delta = 0, std::uint64_t aux = 0,
              double value = 0.0);

  // -- Flight recorder --------------------------------------------------------
  /// Ring contents, oldest first (at most ring_capacity records).
  std::vector<JournalRecord> ring() const;
  /// Drop the ring (durable state untouched).  The explorer calls this at
  /// the start of every run so a counterexample dump holds exactly that
  /// run's timeline.
  void clear_ring();
  std::size_t ring_capacity() const { return capacity_; }
  /// Events appended over the journal's lifetime (ring overwrites included).
  std::uint64_t appended() const;
  /// Ring as JSONL, oldest first (one JournalRecord::to_json per line).
  std::string ring_jsonl() const;
  /// Write ring_jsonl() to a file; false when it cannot be opened.
  bool dump_ring_jsonl(const std::string& path) const;

  // -- Durable sink -----------------------------------------------------------
  /// Open (or re-open) a segmented journal under `dir`, creating it if
  /// needed.  Existing segments are replayed first: sequence numbering
  /// continues after the last recovered record and the replayed history is
  /// kept readable via recovered() — warm_start() consumes exactly that.
  /// Fails (kFailedPrecondition) when a durable sink is already open.
  util::Status open_durable(const std::filesystem::path& dir,
                            JournalDurableConfig config = {});
  /// Flush and close the current segment.  Idempotent.
  void close_durable();
  bool durable() const;
  /// Flush the current segment to the OS.  No-op without a durable sink.
  void flush();
  /// Segments this sink has written into (rotation count + 1); 0 when the
  /// sink is closed or has died (rotation could not open the next segment).
  std::size_t segments_open() const;
  /// Records this sink failed to persist since open_durable() — a dead
  /// sink (failed rotation) or a short write.  They stay in the ring only.
  std::uint64_t durable_dropped() const;
  /// The replay open_durable() performed, until close_durable().
  const std::optional<JournalReplay>& recovered() const;

  // -- Replay (static: no Journal instance required) --------------------------
  /// Read every segment under `dir` in name order.  Torn-tail tolerant:
  /// a short, oversized or checksum-failing record ends THAT SEGMENT's
  /// replay cleanly (recorded in `tears`) and resumes at the next segment
  /// boundary instead of erroring — a crash tears at most one segment's
  /// tail, and post-crash reopens write into fresh segments that must
  /// still be read.  A missing or empty directory replays to zero records.
  static util::Result<JournalReplay> replay(const std::filesystem::path& dir);

  // -- Codec (exposed for tests) ----------------------------------------------
  static void encode(const JournalRecord& record, std::string* out);
  /// Decode one record at `data`; returns bytes consumed, 0 on a torn or
  /// corrupt record.
  static std::size_t decode(const char* data, std::size_t size,
                            JournalRecord* record);

 private:
  void append_durable_locked(const JournalRecord& record);
  void rotate_locked();

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::function<double()> clock_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<JournalRecord> ring_;  // circular, size() <= capacity_
  std::size_t ring_next_ = 0;        // slot the next record lands in
  std::uint64_t next_seq_ = 1;
  std::uint64_t appended_ = 0;

  // Durable sink state (all under mutex_).
  std::filesystem::path dir_;
  JournalDurableConfig durable_config_;
  std::FILE* segment_ = nullptr;
  std::size_t segment_index_ = 0;   // 1-based index of the open segment
  std::uint64_t segment_bytes_ = 0;
  std::size_t segments_open_ = 0;
  std::uint64_t durable_dropped_ = 0;
  bool durable_dead_ = false;  // rotation failed; sink lost mid-run
  std::optional<JournalReplay> recovered_;
};

}  // namespace vmp::obs
