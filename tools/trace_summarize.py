#!/usr/bin/env python3
"""Summarize a VMPlants trace JSONL file into a per-phase latency table.

The tracer (src/obs/trace.h) drains finished spans as one JSON object per
line via Tracer::write_jsonl.  This tool rolls them up by span name — the
per-phase breakdown of VM creation in the spirit of the paper's Figure 6
(time spent in cloning vs configuration vs the rest of the sequence).

Usage:
    python3 tools/trace_summarize.py trace.jsonl [--by-trace]

With --by-trace, also prints one row per trace (total duration, span
count, errors, retries).  For each trace's critical path (the longest
root-to-leaf chain with per-span self time), run
`build/tools/vmp_inspect critical-path trace.jsonl`.
"""

import argparse
import json
import sys
from collections import defaultdict


def load_spans(path):
    spans = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                spans.append(json.loads(line))
            except json.JSONDecodeError as err:
                print(f"{path}:{lineno}: skipping bad line: {err}",
                      file=sys.stderr)
    return spans


def phase_table(spans):
    rows = defaultdict(lambda: {"count": 0, "total": 0.0,
                                "min": float("inf"), "max": 0.0,
                                "errors": 0})
    for span in spans:
        name = span.get("name", "?")
        duration = duration_of(span)
        row = rows[name]
        row["count"] += 1
        row["total"] += duration
        row["min"] = min(row["min"], duration)
        row["max"] = max(row["max"], duration)
        status = span.get("status", "ok")
        if status not in ("ok", "retry"):
            row["errors"] += 1
    return rows


def print_phase_table(rows):
    header = (f"{'phase':<24} {'count':>6} {'mean ms':>10} {'min ms':>10} "
              f"{'max ms':>10} {'total ms':>10} {'errors':>7}")
    print(header)
    print("-" * len(header))
    for name in sorted(rows, key=lambda n: rows[n]["total"], reverse=True):
        row = rows[name]
        mean = row["total"] / row["count"] if row["count"] else 0.0
        print(f"{name:<24} {row['count']:>6} {mean * 1e3:>10.3f} "
              f"{row['min'] * 1e3:>10.3f} {row['max'] * 1e3:>10.3f} "
              f"{row['total'] * 1e3:>10.3f} {row['errors']:>7}")


def print_trace_table(spans):
    traces = defaultdict(list)
    for span in spans:
        traces[span.get("trace", "?")].append(span)
    header = (f"{'trace':<14} {'root':<16} {'vm':<18} {'spans':>6} "
              f"{'duration ms':>12} {'errors':>7} {'retries':>8}")
    print(header)
    print("-" * len(header))
    for trace_id, members in traces.items():
        roots = [s for s in members if not s.get("parent", 0)]
        root = roots[0] if roots else None
        duration = duration_of(root) if root else 0.0
        vm_ids = [s["vm"] for s in members if s.get("vm")]
        errors = sum(1 for s in members
                     if s.get("status", "ok") not in ("ok", "retry"))
        retries = sum(1 for s in members if s.get("status") == "retry")
        print(f"{trace_id:<14} {(root or {}).get('name', '?'):<16} "
              f"{(vm_ids[-1] if vm_ids else '-'):<18} {len(members):>6} "
              f"{duration * 1e3:>12.3f} {errors:>7} {retries:>8}")


def duration_of(span):
    """Attributed duration, clamped at zero.

    Degrades instead of throwing on damaged dumps: a span missing its end
    timestamp (crashed mid-span, truncated file) attributes zero duration,
    and a clock skew that puts end before start clamps to zero.
    """
    start = float(span.get("start", 0.0))
    end = span.get("end")
    if end is None:
        return 0.0
    return max(0.0, float(end) - start)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("jsonl", help="trace file written by Tracer::write_jsonl")
    parser.add_argument("--by-trace", action="store_true",
                        help="also print one row per trace")
    args = parser.parse_args()

    spans = load_spans(args.jsonl)
    if not spans:
        print("no spans found", file=sys.stderr)
        return 1
    print(f"{len(spans)} spans\n")
    print_phase_table(phase_table(spans))
    if args.by_trace:
        print()
        print_trace_table(spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
