// Whole-simulation binary snapshot: save/restore the durable middleware
// state in one versioned frame (DESIGN.md §15).
//
// A snapshot captures what a restarted VMShop would otherwise have to
// reconstruct the slow way — warehouse index (rescan: one descriptor.xml
// parse per image), lifecycle ledger (warm_start: re-measure footprints,
// replay the journal for usage history), and the information system's
// classads — as one binary blob framed by net/codec.h (FrameTag::kSnapshot).
// Restore is pure in-memory: no disk walks, no XML, and MORE state than
// warm_start() can recover (exact hit counts, use order, the GDSF aging
// clock), so a restored instance ranks and evicts identically to the live
// one it was captured from.
//
// Payload layout: a sequence of length-prefixed sections, each
//
//   varint section-id, varint byte-length, <section payload>
//
// Decoders skip sections with unknown ids (forward compatibility: a newer
// encoder's extra sections do not break an older reader), and every section
// is independently decodable from its borrowed sub-view.
//
// What a snapshot does NOT carry: running VM instances (the paper keeps
// those per-plant precisely so the shop can restore without them, §3.1),
// in-flight publish reservations (capture refuses until they drain), and
// the artefact trees themselves — the caller vouches the store holds the
// trees the captured index refers to, exactly like Warehouse::restore_index.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "classad/classad.h"
#include "core/info_system.h"
#include "lifecycle/lifecycle.h"
#include "util/error.h"
#include "warehouse/warehouse.h"

namespace vmp::core {

/// Decoded snapshot contents — the pure data form, independent of any live
/// subsystem.  encode_snapshot/decode_snapshot convert between this and the
/// framed bytes; capture_snapshot/restore_snapshot bridge to live objects.
/// Keeping the pure form public is what makes deterministic golden fixtures
/// (tests/fixtures/wire/) and `vmp_inspect frame` possible.
struct SnapshotData {
  /// Store-relative warehouse root the images were indexed under.
  std::string warehouse_base_dir;
  /// Full golden-image index (descriptor contents, id order).
  std::vector<warehouse::GoldenImage> images;
  /// Lifecycle quota/usage ledger; meaningful only when has_ledger.
  lifecycle::LedgerSnapshot ledger;
  bool has_ledger = false;
  /// Information-system classads, (vm_id, ad) in id order.
  std::vector<std::pair<std::string, classad::ClassAd>> ads;
  bool has_ads = false;
  /// Free-form caller metadata (simulation clock, config echo, ...).
  std::map<std::string, std::string> meta;
};

/// Encode to one sealed kSnapshot frame (pure; no live objects touched).
std::string encode_snapshot(const SnapshotData& data);
/// Decode a sealed kSnapshot frame (pure).  Unknown sections are skipped.
util::Result<SnapshotData> decode_snapshot(std::string_view frame);

/// The live subsystems a snapshot reads from / writes into.  `warehouse`
/// is required; null members are simply not captured / not restored.
struct SnapshotParticipants {
  warehouse::Warehouse* warehouse = nullptr;
  lifecycle::LifecycleManager* lifecycle = nullptr;
  VmInformationSystem* info = nullptr;
};

/// Capture live state into SnapshotData.  Fails (kFailedPrecondition,
/// propagated from ledger_snapshot) while publishes are in flight.
util::Result<SnapshotData> capture_snapshot(
    const SnapshotParticipants& participants,
    std::map<std::string, std::string> meta = {});

/// Reinstate a decoded snapshot into live subsystems, in dependency order
/// (warehouse index first, then the ledger over it, then the classads).
/// Sections the snapshot lacks — or participants the caller left null —
/// are skipped.  Refuses (kInvalidArgument) when the snapshot's warehouse
/// root differs from the target warehouse's.
util::Status restore_snapshot(const SnapshotData& data,
                              const SnapshotParticipants& participants);

/// capture + encode in one step.
util::Result<std::string> save_snapshot(
    const SnapshotParticipants& participants,
    std::map<std::string, std::string> meta = {});
/// decode + restore in one step.
util::Status load_snapshot(std::string_view frame,
                           const SnapshotParticipants& participants);

}  // namespace vmp::core
