// Decision logs and counterexample traces for schedule exploration.
//
// A run of the state-space explorer (explore/explorer.h) is fully described
// by the sequence of decisions it made: which co-enabled event fired at each
// equal-time tie, and whether each eligible fault hook fired or not.  A
// Trace captures that sequence plus the scenario identity and the terminal
// state digest, serialized as trace.xml, so a failing schedule can be
// re-executed deterministically — `vmp_explore --replay trace.xml` — on any
// machine and land in the same terminal state (DESIGN.md §12).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/bytebuffer.h"
#include "util/error.h"

namespace vmp::explore {

/// One decision the explorer made during a run.
struct Decision {
  enum class Kind { kTie, kFault };
  Kind kind = Kind::kTie;

  // kTie: the co-enabled event seqs at `when` (ascending) and the fired one.
  double when = 0.0;
  std::vector<std::uint64_t> ready;
  std::uint64_t chosen = 0;

  // kFault: the hook site and whether it fired.
  std::string point;
  std::string detail;
  bool fire = false;

  static Decision tie(double when, std::vector<std::uint64_t> ready,
                      std::uint64_t chosen);
  static Decision fault(std::string point, std::string detail, bool fire);
};

/// A recorded schedule: scenario identity + decisions + terminal digest.
struct Trace {
  /// Scenario registry name (explore/lifecycle_scenario.h) used by replay
  /// to reconstruct the configuration.
  std::string scenario;
  /// Scenario configuration spec (opaque to the trace layer).
  std::string config;
  /// Terminal-state digest recorded when the trace was captured; replay
  /// must reproduce it exactly.
  std::string digest;
  /// 0-based index of this schedule within the exploration that captured
  /// it (provenance only; replay does not use it).
  std::uint64_t schedule = 0;
  /// Names of invariants that failed at the terminal state ("" clean run —
  /// regression fixtures are clean-by-construction on HEAD).
  std::vector<std::string> violations;
  std::vector<Decision> decisions;

  std::string to_xml() const;
  static util::Result<Trace> from_xml_string(const std::string& text);
};

/// FNV-1a over a byte string; the digest primitive scenarios build their
/// terminal-state digests from (stable across platforms and processes).
using util::fnv1a64;
/// 16-char lowercase hex of fnv1a64.
std::string digest_hex(const std::string& bytes);

}  // namespace vmp::explore
