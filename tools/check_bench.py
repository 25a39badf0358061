#!/usr/bin/env python3
"""Checks the records of one bench run against that bench's shape rules.

Every machine-readable result a bench or tools/afa_bench prints is one
`BENCH_RECORD {"kind": ..., ...}` line (bench/bench_util.h). CI saves a run's
output to a file and names the rule set that applies to it:

    tools/check_bench.py tenant_isolation tenant_isolation.out
    tools/check_bench.py three_engine three_engine.out
    tools/check_bench.py nvme_frontend nvme_frontend.out
    tools/check_bench.py hostbuf_endurance hostbuf.out
    tools/check_bench.py full_geometry fullgeo.out
    tools/check_bench.py engine_requests afa_bench_stats.out

Exits 0 when every rule holds, 1 with the first broken rule otherwise, and 2
on a usage error. Stdlib only.
"""

import json
import re
import sys

PREFIX = "BENCH_RECORD "
RSS_BUDGET_MB = 4096


class RuleBroken(Exception):
    pass


def require(cond, message):
    if not cond:
        raise RuleBroken(message)


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        return [json.loads(line[len(PREFIX):])
                for line in f if line.startswith(PREFIX)]


def of_kind(records, kind):
    return [r for r in records if r["kind"] == kind]


def tenant_isolation(records):
    """DRR keeps the latency victim's p99.9 below FIFO's on every platform."""
    rows = of_kind(records, "tenant_isolation")
    require(len(rows) >= 2, "expected one tenant_isolation record per "
            f"platform (at least 2), got {len(rows)}")
    for r in rows:
        require(r["drr_p999_us"] < r["fifo_p999_us"],
                f"{r['platform']}: DRR p99.9 {r['drr_p999_us']} us did not "
                f"beat FIFO {r['fifo_p999_us']} us")
        print(f"{r['platform']}: fifo {r['fifo_ratio']}x "
              f"drr {r['drr_ratio']}x of solo")


def three_engine(records):
    """The figure ran, and every engine's WA stayed physical."""
    metrics = [r for r in of_kind(records, "metric")
               if r["bench"] == "three_engine_compare"]
    require(len(metrics) == 1, "expected one three_engine_compare metric "
            f"record, got {len(metrics)}")
    require(metrics[0]["events"] > 0, "three_engine_compare fired no events")
    rows = of_kind(records, "three_engine")
    engines = sorted(r["engine"] for r in rows)
    require(engines == ["BIZA", "ZapRAID", "mdraid+dmzap"],
            f"expected one record per engine, got {engines}")
    for r in rows:
        require(r["wa_total"] > 1.0,
                f"{r['engine']}: WA total {r['wa_total']} not physical")
        print(f"{r['engine']}: WA {r['wa_total']}")


def nvme_frontend(records):
    """Every series moves data, coalescing batches, and qd=1 backpressures."""
    rows = of_kind(records, "nvme_frontend")
    require(len(rows) == 7, f"expected 7 series, got {len(rows)}")
    by = {r["series"]: r for r in rows}
    for name, r in by.items():
        require(r["mbps"] > 0, f"{name}: no throughput")
    for name in ("q1_qd64_coal", "q4_qd64_coal"):
        r = by[name]
        require(r["cmds_per_doorbell"] > 2 and r["cmds_per_irq"] > 2,
                f"{name}: coalescing did not engage: {r}")
    require(by["q1_qd1"]["mbps"] < by["q1_qd64"]["mbps"] / 4,
            "qd=1 shows no queue-depth backpressure")
    print({name: r["mbps"] for name, r in by.items()})


def hostbuf_endurance(records):
    """A write-back pool absorbs hot updates and cuts device writes."""
    rows = of_kind(records, "hostbuf_endurance")
    require(len(rows) == 8,
            f"expected 2 engines x 4 pool sizes, got {len(rows)} points")
    for eng in ("biza", "zapraid"):
        curve = sorted((r for r in rows if r["engine"] == eng),
                       key=lambda r: r["pool_kb"])
        require(curve, f"{eng}: no points")
        base, largest = curve[0], curve[-1]
        require(base["pool_kb"] == 0 and base["absorbed"] == 0,
                f"{eng}: the unbuffered point absorbed writes: {base}")
        require(largest["absorbed"] > 0, f"{eng}: pool absorbed nothing")
        require(largest["device_blocks"] < base["device_blocks"],
                f"{eng}: buffer did not reduce device writes")
        print(f"{eng}: dev/user {base['device_per_user']:.3f} -> "
              f"{largest['device_per_user']:.3f}")


def full_geometry(records):
    """A full-geometry run stays resident within the RSS budget."""
    runs = [r for r in of_kind(records, "metric") if r["full_geometry"] == 1]
    require(runs, "expected a full-geometry metric record")
    rss = runs[-1]["rss_peak_mb"]
    require(rss < RSS_BUDGET_MB, f"full-geometry peak RSS {rss} MiB exceeds "
            f"the {RSS_BUDGET_MB} MiB budget")
    print(f"full-geometry peak RSS: {rss} MiB")


ENGINE_HISTOGRAM = re.compile(r"^([a-z]+)\.(write|read)_latency_ns$")


def engine_requests(records):
    """Each engine times each host request exactly once.

    Needs an afa_bench --stats run whose driver is the engine's only client
    (no prefill, host buffer or tenants): every `<engine>.write_latency_ns`
    and `<engine>.read_latency_ns` count must equal the driver's completed
    writes and reads in the same histograms record.
    """
    rows = of_kind(records, "histograms")
    require(len(rows) == 1, f"expected one histograms record, got {len(rows)}")
    row = rows[0]
    completed = {"write": row["writes"], "read": row["reads"]}
    engines = {m.group(1) for m in map(ENGINE_HISTOGRAM.match,
                                       row["histograms"]) if m}
    require(engines, "no <engine>.{write,read}_latency_ns histogram")
    for engine in sorted(engines):
        for kind, done in completed.items():
            name = f"{engine}.{kind}_latency_ns"
            samples = row["histograms"].get(name, {}).get("count", 0)
            require(samples == done, f"{name}: {samples} samples for {done} "
                    f"completed {kind}s")
        print(f"{engine}: {completed['write']} writes, "
              f"{completed['read']} reads, each timed once")


CHECKS = {
    "tenant_isolation": tenant_isolation,
    "three_engine": three_engine,
    "nvme_frontend": nvme_frontend,
    "hostbuf_endurance": hostbuf_endurance,
    "full_geometry": full_geometry,
    "engine_requests": engine_requests,
}


def main(argv):
    if len(argv) != 3 or argv[1] not in CHECKS:
        print(__doc__, file=sys.stderr)
        return 2
    check, path = argv[1], argv[2]
    try:
        CHECKS[check](load(path))
    except RuleBroken as e:
        print(f"FAIL {check} ({path}): {e}", file=sys.stderr)
        return 1
    print(f"{check} ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
