#!/usr/bin/env python3
"""Summarize warehouse lifecycle churn: hit rates, evictions, reclaimed bytes.

Accepts, auto-detected per line and freely mixed in one input:

  * BENCH_JSON lines from bench/warehouse_churn —
        BENCH_JSON {"name": "churn.gdsf", "hit_rate": 0.58, ...}
    rendered as a per-policy hit/miss table;

  * metrics-export JSONL (FleetAggregator::export_jsonl, or any file of
    {"id": ..., "attrs": {...}} ads) — the lifecycle_* attributes
    (lifecycle.* metric names in their classad-folded spelling) are
    rendered as a lease/eviction/reclaim summary per exporting plant;

  * event-journal records in the flight-recorder format
    (obs::JournalRecord::to_json: {"seq": ..., "kind": ..., "t": ...}), as
    printed by `vmp_inspect journal DIR` or dumped by vmp_explore
    (*.flight.jsonl) — folded into the publish/eviction timeline: per-image
    lifespan, acquire count, eviction cause (evicted / zombified / reaped),
    bytes reclaimed.  The summary line `vmp_inspect journal` ends with
    ({"journal": ..., "segments": ..., "tears": [...]}) adds the segment
    count and reports every torn segment tail the C++ replay dropped.

Usage:
    build/bench/warehouse_churn | python3 tools/warehouse_report.py -
    python3 tools/warehouse_report.py fleet.jsonl [--json]
    build/tools/vmp_inspect journal store/journal \
        | python3 tools/warehouse_report.py - [--json]
"""

import argparse
import json
import re
import sys

BENCH_LINE = re.compile(r"^BENCH_JSON\s+(\{.*\})\s*$")


def journal_timeline(records):
    """Fold the event stream into one row per image (latest incarnation
    wins for publish time; counters accumulate across republishes)."""
    images = {}
    totals = {"reclaimed": 0, "fault_firings": 0, "warm_starts": 0}

    def row(image):
        return images.setdefault(image, {
            "published_t": None, "end_t": None, "fate": "resident",
            "publishes": 0, "acquires": 0, "rejects": 0,
            "bytes": 0, "reclaimed": 0, "lifespan_s": None,
        })

    for rec in records:
        event, image = rec["kind"], rec["id"]
        if event == "fault_fired":
            totals["fault_firings"] += 1
            continue
        if event == "warm_start":
            totals["warm_starts"] += 1
            continue
        if event == "orphan_reap":
            totals["reclaimed"] += -rec["bytes"]
            continue
        if not image:
            continue
        entry = row(image)
        if event in ("publish_commit", "adopt"):
            entry["publishes"] += 1
            entry["published_t"] = rec["t"]
            entry["end_t"] = None
            entry["fate"] = "resident"
            entry["bytes"] = rec["bytes"]
        elif event == "publish_reject":
            entry["rejects"] += 1
        elif event == "lease_acquire":
            entry["acquires"] += 1
        elif event == "evict_commit":
            entry["fate"] = "evicted"
            entry["end_t"] = rec["t"]
            entry["reclaimed"] += -rec["bytes"]
            totals["reclaimed"] += -rec["bytes"]
        elif event == "zombify":
            entry["fate"] = "zombified"
            entry["end_t"] = rec["t"]
        elif event == "reap":
            entry["fate"] = "reaped"
            entry["end_t"] = rec["t"]
            entry["reclaimed"] += -rec["bytes"]
            totals["reclaimed"] += -rec["bytes"]

    for entry in images.values():
        if entry["published_t"] is not None and entry["end_t"] is not None:
            entry["lifespan_s"] = entry["end_t"] - entry["published_t"]
    return images, totals


def print_journal(images, totals, records, summary):
    """`summary` is vmp_inspect's closing line, None for a flight dump."""
    tears = summary["tears"] if summary else []
    print(f"journal: {len(records)} records"
          + (f" in {summary['segments']} segment(s)" if summary else "")
          + ("  [torn tail dropped]" if tears else ""))
    for tear in tears:
        print(f"warning: {tear['segment']}: torn record at offset "
              f"{tear['offset']}, dropped {tear['bytes_dropped']} trailing "
              f"byte(s) after {tear['records_kept']} record(s); replay "
              f"resynced at the next segment boundary", file=sys.stderr)
    header = (f"{'image':<24} {'fate':<10} {'publishes':>9} {'acquires':>9} "
              f"{'rejects':>8} {'size MB':>8} {'reclaimed MB':>13} "
              f"{'lifespan s':>11}")
    print(header)
    print("-" * len(header))
    for image in sorted(images):
        entry = images[image]
        lifespan = (f"{entry['lifespan_s']:>11.3f}"
                    if entry["lifespan_s"] is not None else f"{'-':>11}")
        print(f"{image:<24} {entry['fate']:<10} {entry['publishes']:>9} "
              f"{entry['acquires']:>9} {entry['rejects']:>8} "
              f"{entry['bytes'] / 2**20:>8.1f} "
              f"{entry['reclaimed'] / 2**20:>13.1f} {lifespan}")
    print(f"\ntotal reclaimed: {totals['reclaimed'] / 2**20:.1f} MB"
          f"  warm starts: {totals['warm_starts']}"
          f"  fault firings: {totals['fault_firings']}")


def load(stream):
    """Split input lines into churn records, lifecycle ads, journal records
    and the journal summary line."""
    churn = {}
    ads = []
    journal = []
    summary = None
    for line in stream:
        line = line.strip()
        match = BENCH_LINE.match(line)
        if match:
            record = json.loads(match.group(1))
            name = record.get("name", "")
            if name.startswith("churn."):
                churn[name[len("churn."):]] = record
            continue
        if not line.startswith("{"):
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            continue
        if "seq" in obj and "kind" in obj:
            journal.append(obj)
        elif "journal" in obj and "tears" in obj:
            summary = obj
        elif any(key.startswith("lifecycle_") for key in obj.get("attrs", {})):
            ads.append(obj)
    return churn, ads, journal, summary


def churn_summary(churn):
    policies = {}
    for policy, record in sorted(churn.items()):
        hits = int(record.get("hits", 0))
        misses = int(record.get("misses", 0))
        total = hits + misses
        policies[policy] = {
            "hit_rate": float(record.get("hit_rate",
                                         hits / total if total else 0.0)),
            "hits": hits,
            "misses": misses,
            "rejected_publishes": int(record.get("failures", 0)),
        }
    return policies


def print_churn(policies):
    header = f"{'policy':<8} {'hit-rate':>9} {'hits':>8} {'misses':>8} {'rejected':>9}"
    print(header)
    print("-" * len(header))
    for policy, row in policies.items():
        print(f"{policy:<8} {row['hit_rate']:>9.4f} {row['hits']:>8} "
              f"{row['misses']:>8} {row['rejected_publishes']:>9}")
    if "gdsf" in policies and "lru" in policies and policies["lru"]["hit_rate"]:
        ratio = policies["gdsf"]["hit_rate"] / policies["lru"]["hit_rate"]
        print(f"\ngdsf/lru hit-rate ratio: {ratio:.2f}x at equal quota")


def lifecycle_summary(ads):
    """Latest lifecycle_* attrs per ad id (a plant, or obs://metrics)."""
    plants = {}
    for ad in ads:
        attrs = ad.get("attrs", {})
        hit = int(attrs.get("lifecycle_lease_hit_count", 0))
        miss = int(attrs.get("lifecycle_lease_miss_count", 0))
        total = hit + miss
        plants[ad.get("id", "?")] = {
            "lease_hits": hit,
            "lease_misses": miss,
            "lease_hit_rate": hit / total if total else 1.0,
            "evictions": int(attrs.get("lifecycle_evict_count", 0)),
            "zombie_evictions": int(attrs.get("lifecycle_evict_zombie_count", 0)),
            "zombie_reaps": int(attrs.get("lifecycle_reap_count", 0)),
            "orphan_reaps": int(attrs.get("lifecycle_orphan_reap_count", 0)),
            "rejected_publishes": int(
                attrs.get("lifecycle_publish_reject_count", 0)),
            "bytes_reclaimed": int(
                attrs.get("lifecycle_bytes_reclaimed_count", 0)),
            "used_bytes": int(attrs.get("lifecycle_used_bytes_gauge", 0)),
            "zombies_now": int(attrs.get("lifecycle_zombies_gauge", 0)),
        }
    return plants


def print_lifecycle(plants):
    header = (f"{'source':<24} {'lease-hit%':>10} {'evict':>6} {'zombie':>7} "
              f"{'reaped':>7} {'orphans':>8} {'reject':>7} "
              f"{'reclaimed MB':>13} {'used MB':>9} {'zombies':>8}")
    print(header)
    print("-" * len(header))
    for source in sorted(plants):
        row = plants[source]
        print(f"{source:<24} {row['lease_hit_rate'] * 100:>9.1f}% "
              f"{row['evictions']:>6} {row['zombie_evictions']:>7} "
              f"{row['zombie_reaps']:>7} {row['orphan_reaps']:>8} "
              f"{row['rejected_publishes']:>7} "
              f"{row['bytes_reclaimed'] / 2**20:>13.1f} "
              f"{row['used_bytes'] / 2**20:>9.1f} {row['zombies_now']:>8}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("input",
                        help="BENCH_JSON / metrics / journal JSONL file, "
                             "or - for stdin")
    parser.add_argument("--json", action="store_true",
                        help="emit one machine-readable summary object")
    args = parser.parse_args()

    if args.input == "-":
        churn, ads, journal, summary = load(sys.stdin)
    else:
        with open(args.input, "r", encoding="utf-8") as fh:
            churn, ads, journal, summary = load(fh)

    policies = churn_summary(churn)
    plants = lifecycle_summary(ads)
    has_journal = bool(journal) or summary is not None
    if not policies and not plants and not has_journal:
        print("no churn BENCH_JSON lines, lifecycle_* ads or journal records "
              "found", file=sys.stderr)
        return 1
    images, totals = journal_timeline(journal)

    if args.json:
        report = {"churn": policies, "lifecycle": plants}
        if has_journal:
            report["journal"] = {
                "records": len(journal),
                "segments": summary["segments"] if summary else None,
                "tears": summary["tears"] if summary else [],
                "images": images, "totals": totals}
        print(json.dumps(report, indent=2))
        return 0

    if has_journal:
        print_journal(images, totals, journal, summary)
    if policies:
        if has_journal:
            print()
        print_churn(policies)
    if plants:
        if has_journal or policies:
            print()
        print_lifecycle(plants)
    return 0


if __name__ == "__main__":
    sys.exit(main())
