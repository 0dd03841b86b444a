// vmp_inspect: JSON views of the on-disk formats, decoded by the library
// code that writes them.  One JSON object per output line; tools/README.md
// describes each shape.
//
//   vmp_inspect frame FILE            a wire/snapshot frame (DESIGN.md §15)
//   vmp_inspect journal DIR           event-journal segments (DESIGN.md §13)
//   vmp_inspect critical-path FILE    a Tracer::write_jsonl dump (§14)
//
// Exit codes: 0 = decoded, 1 = usage error or input that cannot be read or
// decoded (bad frame checksum, not a directory, no readable span).
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "classad/classad.h"
#include "core/snapshot.h"
#include "hypervisor/guest.h"
#include "net/codec.h"
#include "obs/critical_path.h"
#include "obs/journal.h"
#include "obs/trace.h"
#include "util/strings.h"
#include "warehouse/warehouse.h"

namespace {

namespace codec = vmp::net::codec;
using vmp::util::format_double;

std::string quote(std::string_view text) {
  return "\"" + vmp::util::json_escape(text) + "\"";
}

int fail(const std::string& message) {
  std::cerr << "vmp_inspect: " << message << "\n";
  return 1;
}

std::string image_json(const vmp::warehouse::GoldenImage& image) {
  return "{\"id\": " + quote(image.id) + ", \"dir\": " +
         quote(image.layout.dir) + ", \"descriptor\": " +
         quote(vmp::warehouse::render_descriptor(image)) +
         ", \"guest_state\": " +
         quote(vmp::hv::render_guest_state(image.guest)) + "}";
}

std::string ledger_json(const vmp::lifecycle::LedgerSnapshot& ledger) {
  std::string out =
      "{\"policy\": " + quote(ledger.policy) +
      ", \"policy_clock\": " + format_double(ledger.policy_clock) +
      ", \"used_bytes\": " + std::to_string(ledger.used_bytes) +
      ", \"tick\": " + std::to_string(ledger.tick) + ", \"entries\": [";
  for (std::size_t i = 0; i < ledger.entries.size(); ++i) {
    const auto& e = ledger.entries[i];
    out += (i ? ", " : "") + std::string("{\"id\": ") + quote(e.id) +
           ", \"dir\": " + quote(e.dir) +
           ", \"physical_bytes\": " + std::to_string(e.physical_bytes) +
           ", \"files\": " + std::to_string(e.files) +
           ", \"hits\": " + std::to_string(e.hits) +
           ", \"last_use_tick\": " + std::to_string(e.last_use_tick) +
           ", \"leases\": " + std::to_string(e.leases) +
           ", \"rebuild_cost_s\": " + format_double(e.rebuild_cost_s) +
           ", \"pinned\": " + (e.pinned ? "true" : "false") +
           ", \"zombie\": " + (e.zombie ? "true" : "false") + "}";
  }
  return out + "]}";
}

std::string snapshot_json(const vmp::core::SnapshotData& data) {
  std::string out = "{\"meta\": {";
  for (const auto& [key, value] : data.meta) {
    if (out.back() != '{') out += ", ";
    out += quote(key) + ": " + quote(value);
  }
  out += "}, \"warehouse_base_dir\": " + quote(data.warehouse_base_dir) +
         ", \"images\": [";
  for (std::size_t i = 0; i < data.images.size(); ++i) {
    out += (i ? ", " : "") + image_json(data.images[i]);
  }
  out += "], \"ledger\": ";
  out += data.has_ledger ? ledger_json(data.ledger) : "null";
  out += ", \"ads\": ";
  if (!data.has_ads) return out + "null}";
  out += "[";
  for (std::size_t i = 0; i < data.ads.size(); ++i) {
    out += (i ? ", " : "") + std::string("{\"id\": ") +
           quote(data.ads[i].first) +
           ", \"classad\": " + quote(data.ads[i].second.to_string()) + "}";
  }
  return out + "]}";
}

/// `"<tag>": <rendered payload>` for a frame open_frame already accepted.
vmp::util::Result<std::string> payload_json(codec::FrameTag tag,
                                            std::string_view frame) {
  const std::string key = quote(codec::frame_tag_name(tag)) + ": ";
  switch (tag) {
    case codec::FrameTag::kMessage: {
      auto message = codec::decode_message(frame);
      if (!message.ok()) return message.error();
      return key + quote(message.value().serialize());
    }
    case codec::FrameTag::kDescriptor: {
      auto image = codec::decode_descriptor(frame);
      if (!image.ok()) return image.error();
      return key + image_json(image.value());
    }
    case codec::FrameTag::kClassAd: {
      auto ad = codec::decode_classad(frame);
      if (!ad.ok()) return ad.error();
      return key + quote(ad.value().to_string());
    }
    case codec::FrameTag::kSnapshot: {
      auto data = vmp::core::decode_snapshot(frame);
      if (!data.ok()) return data.error();
      return key + snapshot_json(data.value());
    }
  }
  return vmp::util::Error(vmp::util::ErrorCode::kParseError, "unknown tag");
}

int inspect_frame(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return fail("cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string bytes = buffer.str();
  // open_frame checks magic, tag, version, exact length and checksum.
  auto frame = codec::open_frame(bytes);
  if (!frame.ok()) return fail(path + ": " + frame.error().to_string());
  auto payload = payload_json(frame.value().tag, bytes);
  if (!payload.ok()) return fail(path + ": " + payload.error().to_string());
  std::cout << "{\"frame\": " << quote(path) << ", \"tag\": "
            << quote(codec::frame_tag_name(frame.value().tag))
            << ", \"version\": " << int{frame.value().version}
            << ", \"payload_bytes\": " << frame.value().payload.size()
            << ", \"checksum\": \"ok\", " << payload.value() << "}\n";
  return 0;
}

int inspect_journal(const std::string& dir) {
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec)) {
    return fail(dir + " is not a directory");
  }
  auto replay = vmp::obs::Journal::replay(dir);
  if (!replay.ok()) return fail(replay.error().to_string());
  const vmp::obs::JournalReplay& r = replay.value();
  for (const vmp::obs::JournalRecord& record : r.records) {
    std::cout << record.to_json() << "\n";
  }
  std::cout << "{\"journal\": " << quote(dir) << ", \"segments\": "
            << r.segments << ", \"records\": " << r.records.size()
            << ", \"tears\": [";
  for (std::size_t i = 0; i < r.tears.size(); ++i) {
    const vmp::obs::JournalTear& tear = r.tears[i];
    std::cout << (i ? ", " : "") << "{\"segment\": " << quote(tear.segment)
              << ", \"offset\": " << tear.offset
              << ", \"bytes_dropped\": " << tear.bytes_dropped
              << ", \"records_kept\": " << tear.records_kept << "}";
  }
  std::cout << "]}\n";
  return 0;
}

int inspect_critical_path(const std::string& path) {
  std::ifstream in(path);
  if (!in) return fail("cannot read " + path);
  std::vector<std::string> order;  // trace ids, first-appearance order
  std::map<std::string, std::vector<vmp::obs::Span>> traces;
  std::string line;
  for (int lineno = 1; std::getline(in, line); ++lineno) {
    if (vmp::util::trim(line).empty()) continue;
    auto span = vmp::obs::Span::from_json(line);
    if (!span.ok()) {
      // A crash can cut the dump's last line; keep every whole one.
      std::cerr << path << ":" << lineno << ": skipping: "
                << span.error().message() << "\n";
      continue;
    }
    std::vector<vmp::obs::Span>& members = traces[span.value().trace_id];
    if (members.empty()) order.push_back(span.value().trace_id);
    members.push_back(std::move(span).value());
  }
  if (order.empty()) return fail(path + ": no spans");
  for (const std::string& trace_id : order) {
    const vmp::obs::CriticalPath cp = vmp::obs::critical_path(traces[trace_id]);
    std::cout << "{\"trace\": " << quote(trace_id)
              << ", \"total\": " << format_double(cp.total_s)
              << ", \"critical_path\": " << vmp::obs::critical_path_json(cp)
              << "}\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string command = argc == 3 ? argv[1] : "";
  if (command == "frame") return inspect_frame(argv[2]);
  if (command == "journal") return inspect_journal(argv[2]);
  if (command == "critical-path") return inspect_critical_path(argv[2]);
  std::cerr << "usage: vmp_inspect frame FILE\n"
            << "       vmp_inspect journal DIR\n"
            << "       vmp_inspect critical-path FILE.jsonl\n";
  return 1;
}
