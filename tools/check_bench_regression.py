#!/usr/bin/env python3
"""Compare bench runs against their committed baselines.

Accepts one or more --baseline/--candidate pairs (repeat both flags; they are
zipped in order) and dispatches on each JSON's top-level "bench" field:

  applier_scaling:  sweep points matched by applier_threads; a point fails if
      commit_to_applied_ops_per_sec dropped by more than --threshold
      (fraction) relative to the baseline. Faster is never an error.

  commit_path:      rows matched by (engine, fences, clients); a row fails if
      drains_per_txn *rose* by more than --threshold (fewer fences is the
      point of the bench). Baseline rows with fences "legacy" are history
      (that schedule is no longer built) and are skipped. Additionally, both
      files' internal summaries must uphold the acceptance gates against the
      baseline's kamino-simple legacy row at 8 clients: kamino drains/txn at
      8 clients >= 30% below its drains/txn, and update p50 below its p50.

Both benches are latency-injection bound (the injected drains *sleep*), so
the metrics are mostly machine-independent and a quick-mode run (fewer
keys/ops) is comparable against the full baseline; the threshold absorbs the
residual noise.

Usage:
  tools/check_bench_regression.py \
      --baseline BENCH_applier_scaling.json \
      --candidate build/bench/BENCH_applier_scaling.json \
      --baseline BENCH_commit_path.json \
      --candidate build/bench/BENCH_commit_path.json \
      --threshold 0.25

Stdlib only by design: CI runners and the dev container have no pip.
"""

import argparse
import json
import sys

MIN_DRAINS_REDUCTION = 0.30


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def check_applier_scaling(baseline, candidate, threshold):
    """Throughput per applier_threads; lower candidate is a regression."""
    metric = "commit_to_applied_ops_per_sec"

    def points(doc, path):
        out = {int(p["applier_threads"]): float(p[metric]) for p in doc.get("results", [])}
        if not out:
            sys.exit(f"error: {path} has no sweep points under 'results'")
        return out

    base = points(*baseline)
    cand = points(*candidate)
    failures = []
    print(f"{'appliers':>8} {'baseline':>12} {'candidate':>12} {'ratio':>7}")
    for threads in sorted(base):
        if threads not in cand:
            print(f"{threads:>8} {base[threads]:>12.1f} {'missing':>12} {'-':>7}")
            continue
        ratio = cand[threads] / base[threads] if base[threads] > 0 else 1.0
        flag = ""
        if ratio < 1.0 - threshold:
            failures.append(f"{threads} appliers at {ratio:.2f}x baseline")
            flag = "  << REGRESSION"
        print(f"{threads:>8} {base[threads]:>12.1f} {cand[threads]:>12.1f} "
              f"{ratio:>7.2f}{flag}")
    return failures


def check_commit_path(baseline, candidate, threshold):
    """Drains per txn per (engine, fences, clients); higher candidate is a
    regression. Also enforces each file's internal acceptance gates against
    the baseline's kamino-simple legacy row at 8 clients."""

    def rows(doc, path):
        out = {}
        for r in doc.get("results", []):
            if r["fences"] == "legacy":
                continue
            out[(r["engine"], r["fences"], int(r["clients"]))] = float(r["drains_per_txn"])
        if not out:
            sys.exit(f"error: {path} has no rows under 'results'")
        return out

    legacy = next((r for r in baseline[0].get("results", [])
                   if r["engine"] == "kamino-simple" and r["fences"] == "legacy"
                   and int(r["clients"]) == 8), None)
    if legacy is None:
        sys.exit(f"error: {baseline[1]} has no kamino-simple legacy row at 8 clients")
    max_drains = (1.0 - MIN_DRAINS_REDUCTION) * float(legacy["drains_per_txn"])
    max_p50 = float(legacy["update_p50_us"])

    failures = []
    for doc, path in (baseline, candidate):
        s = doc.get("summary", {})
        drains = float(s.get("kamino_drains_per_txn_new_8c", 0.0))
        p50 = float(s.get("kamino_update_p50_new_8c_us", 0.0))
        print(f"{path}: kamino drains/txn 8c {drains:.3f} (gate {max_drains:.3f}), "
              f"update p50 8c {p50:.1f}us (legacy {max_p50:.2f}us)")
        if not drains or not p50:
            failures.append(f"{path}: missing commit_path summary metrics "
                            "(kamino_drains_per_txn_new_8c / kamino_update_p50_new_8c_us)")
            continue
        if drains > max_drains:
            failures.append(f"{path}: kamino drains/txn at 8 clients {drains:.3f} "
                            f"> {max_drains:.3f} (< {MIN_DRAINS_REDUCTION:.0%} "
                            "below legacy)")
        if not p50 < max_p50:
            failures.append(f"{path}: kamino update p50 at 8 clients {p50:.1f}us "
                            f">= {max_p50:.2f}us (legacy schedule)")

    base = rows(*baseline)
    cand = rows(*candidate)
    print(f"{'engine/fences/clients':>32} {'baseline':>9} {'candidate':>10} {'ratio':>7}")
    for key in sorted(base):
        label = f"{key[0]}/{key[1]}/{key[2]}"
        if key not in cand:
            print(f"{label:>32} {base[key]:>9.3f} {'missing':>10} {'-':>7}")
            continue
        ratio = cand[key] / base[key] if base[key] > 0 else 1.0
        flag = ""
        if ratio > 1.0 + threshold:
            failures.append(f"{label} drains/txn at {ratio:.2f}x baseline")
            flag = "  << REGRESSION"
        print(f"{label:>32} {base[key]:>9.3f} {cand[key]:>10.3f} {ratio:>7.2f}{flag}")
    return failures


MAX_EPOCH_DRAINS_PER_TXN = 1.5
MAX_EPOCH_P50_VS_NOLOG = 1.5


def check_epoch(baseline, candidate, threshold):
    """Epoch/persist-behind acceptance gates (DESIGN.md §8) over commit_path
    JSONs; select with --checker epoch. Absolute gates, enforced on both
    files so a stale committed baseline cannot mask a regression: kamino
    drains/txn at 8 clients with epochs on <= 1.5 main-pool drains, and the
    epoch-mode update p50 (measured at DRAM-commit return, acks settled
    against the bounded outstanding window) <= 1.5x the no-logging engine.
    Per-row drift between the files still fails past --threshold."""

    def rows(doc, path):
        out = {}
        for r in doc.get("results", []):
            if r["fences"] != "epoch":
                continue
            out[(r["engine"], int(r["clients"]))] = float(r["drains_per_txn"])
        if not out:
            sys.exit(f"error: {path} has no epoch-fence rows under 'results'")
        return out

    failures = []
    for doc, path in (baseline, candidate):
        s = doc.get("summary", {})
        drains = float(s.get("kamino_drains_per_txn_epoch_8c", 0.0))
        ratio = float(s.get("epoch_p50_vs_nolog", 0.0))
        p50 = float(s.get("kamino_update_p50_epoch_8c_us", 0.0))
        nolog = float(s.get("nolog_update_p50_8c_us", 0.0))
        print(f"{path}: epoch drains/txn 8c {drains:.3f}, "
              f"epoch p50 {p50:.1f}us = {ratio:.2f}x no-logging ({nolog:.1f}us)")
        if not drains or not ratio:
            failures.append(f"{path}: missing epoch summary metrics "
                            "(kamino_drains_per_txn_epoch_8c / epoch_p50_vs_nolog)")
            continue
        if drains > MAX_EPOCH_DRAINS_PER_TXN:
            failures.append(f"{path}: epoch drains/txn at 8 clients {drains:.3f} "
                            f"> {MAX_EPOCH_DRAINS_PER_TXN:.1f}")
        if ratio > MAX_EPOCH_P50_VS_NOLOG:
            failures.append(f"{path}: epoch update p50 {ratio:.2f}x no-logging "
                            f"> {MAX_EPOCH_P50_VS_NOLOG:.1f}x at 8 clients")

    base = rows(*baseline)
    cand = rows(*candidate)
    print(f"{'engine/epoch/clients':>28} {'baseline':>9} {'candidate':>10} {'ratio':>7}")
    for key in sorted(base):
        label = f"{key[0]}/epoch/{key[1]}"
        if key not in cand:
            failures.append(f"{label}: epoch row missing from candidate")
            print(f"{label:>28} {base[key]:>9.3f} {'missing':>10} {'-':>7}")
            continue
        ratio = cand[key] / base[key] if base[key] > 0 else 1.0
        flag = ""
        if ratio > 1.0 + threshold:
            failures.append(f"{label} drains/txn at {ratio:.2f}x baseline")
            flag = "  << REGRESSION"
        print(f"{label:>28} {base[key]:>9.3f} {cand[key]:>10.3f} {ratio:>7.2f}{flag}")
    return failures


MIN_REPLAY_SPEEDUP = 2.0
MAX_ONLINE_FIRST_OP_SPREAD = 3.0
MIN_OFFLINE_FIRST_OP_SPREAD = 1.5


def check_recovery(baseline, candidate, threshold):
    """Restart latency per sweep point; higher candidate is a regression.
    Also enforces each file's internal acceptance gates: parallel replay must
    speed up >= 2x from 1 to 4 workers, online restart-to-first-op must stay
    roughly flat across heap sizes (bounded by the dirty set, not the heap),
    and offline restart-to-first-op must visibly grow with the heap (it pays
    the whole reconcile sweep up front — that contrast is the point)."""

    def rows(doc, path):
        out = {}
        for r in doc.get("results", []):
            key = (r["sweep"], r["engine"], r["mode"], int(r["heap_mb"]),
                   int(r["dirty_txs"]), int(r["workers"]))
            out[key] = float(r["restart_to_full_ms"])
        if not out:
            sys.exit(f"error: {path} has no sweep points under 'results'")
        return out

    failures = []
    for doc, path in (baseline, candidate):
        s = doc.get("summary", {})
        speedup = float(s.get("replay_speedup_1_to_4", 0.0))
        online = float(s.get("online_first_op_spread", 0.0))
        offline = float(s.get("offline_first_op_spread", 0.0))
        print(f"{path}: replay speedup 1->4 {speedup:.2f}x, first-op spread "
              f"online {online:.2f}x / offline {offline:.2f}x")
        if speedup < MIN_REPLAY_SPEEDUP:
            failures.append(f"{path}: replay speedup {speedup:.2f}x "
                            f"< {MIN_REPLAY_SPEEDUP:.1f}x (1 -> 4 workers)")
        if online > MAX_ONLINE_FIRST_OP_SPREAD:
            failures.append(f"{path}: online first-op spread {online:.2f}x "
                            f"> {MAX_ONLINE_FIRST_OP_SPREAD:.1f}x across heap sizes")
        if offline < MIN_OFFLINE_FIRST_OP_SPREAD:
            failures.append(f"{path}: offline first-op spread {offline:.2f}x "
                            f"< {MIN_OFFLINE_FIRST_OP_SPREAD:.1f}x — the offline/online "
                            "contrast vanished")

    base = rows(*baseline)
    cand = rows(*candidate)
    print(f"{'sweep point':>44} {'baseline':>9} {'candidate':>10} {'ratio':>7}")
    for key in sorted(base):
        label = f"{key[0]}/{key[1]}/{key[2]}/{key[3]}MB/d{key[4]}/w{key[5]}"
        if key not in cand:
            print(f"{label:>44} {base[key]:>9.1f} {'missing':>10} {'-':>7}")
            continue
        ratio = cand[key] / base[key] if base[key] > 0 else 1.0
        flag = ""
        if ratio > 1.0 + threshold:
            failures.append(f"{label} restart_to_full at {ratio:.2f}x baseline")
            flag = "  << REGRESSION"
        print(f"{label:>44} {base[key]:>9.1f} {cand[key]:>10.1f} {ratio:>7.2f}{flag}")
    return failures


MIN_SHARD_SPEEDUP = 2.5
MAX_CROSS_SHARD_PENALTY = 3.0


def check_sharding(baseline, candidate, threshold):
    """Throughput per (shards, cross_shard_pct); lower candidate is a
    regression. Also enforces each file's internal acceptance gates: going
    from 1 to 4 shards at 0% cross-shard must speed throughput up >= 2.5x
    (the point of sharding the commit front-end), and a 20% cross-shard mix
    at 4 shards must cost no more than 3x vs the 0% mix (the 2PC tax stays
    bounded)."""

    def points(doc, path):
        out = {}
        for p in doc.get("results", []):
            out[(int(p["shards"]), int(p["cross_shard_pct"]))] = float(p["ops_per_sec"])
        if not out:
            sys.exit(f"error: {path} has no sweep points under 'results'")
        return out

    failures = []
    for doc, path in (baseline, candidate):
        speedup = float(doc.get("speedup_1_to_4_shards", 0.0))
        penalty = float(doc.get("cross_shard_penalty_20pct", 0.0))
        print(f"{path}: 1->4 shard speedup {speedup:.2f}x, "
              f"20% cross-shard penalty {penalty:.2f}x")
        if speedup < MIN_SHARD_SPEEDUP:
            failures.append(f"{path}: shard speedup {speedup:.2f}x "
                            f"< {MIN_SHARD_SPEEDUP:.1f}x (1 -> 4 shards, 0% cross)")
        if penalty > MAX_CROSS_SHARD_PENALTY:
            failures.append(f"{path}: 20% cross-shard penalty {penalty:.2f}x "
                            f"> {MAX_CROSS_SHARD_PENALTY:.1f}x at 4 shards")

    base = points(*baseline)
    cand = points(*candidate)
    print(f"{'shards/cross%':>14} {'baseline':>12} {'candidate':>12} {'ratio':>7}")
    for key in sorted(base):
        label = f"{key[0]}/{key[1]}%"
        if key not in cand:
            print(f"{label:>14} {base[key]:>12.1f} {'missing':>12} {'-':>7}")
            continue
        ratio = cand[key] / base[key] if base[key] > 0 else 1.0
        flag = ""
        if ratio < 1.0 - threshold:
            failures.append(f"{label} ops/sec at {ratio:.2f}x baseline")
            flag = "  << REGRESSION"
        print(f"{label:>14} {base[key]:>12.1f} {cand[key]:>12.1f} {ratio:>7.2f}{flag}")
    return failures


MAX_BACKUP_SCAN_P50_INFLATION = 1.3
MIN_STALE_VS_HEAD = 1.8


def check_backup_reads(baseline, candidate, threshold):
    """Backup-epoch read-path acceptance gates (DESIGN.md §12). Absolute
    gates, enforced on both files so a stale committed baseline cannot mask
    a regression: a concurrent full-keyspace scan through the backup path
    (SnapshotScanChunked) inflates the writers' update p50 by at most 1.3x
    of the no-scan baseline AND by no more than the main-path (lock-taking)
    scan does; at 3 replicas, round-robined stale reads deliver >= 1.8x the
    throughput of the linearizable head-path reads. Per-phase p50 drift
    between the files still fails past --threshold."""

    failures = []
    for doc, path in (baseline, candidate):
        phases = doc.get("interference", {})
        backup = phases.get("backup_scan", {})
        main = phases.get("main_scan", {})
        backup_infl = float(backup.get("p50_inflation", 0.0))
        main_infl = float(main.get("p50_inflation", 0.0))
        stale = float(doc.get("chain", {}).get("replicas_3", {})
                      .get("stale_vs_head", 0.0))
        views = int(backup.get("snapshot_views", 0))
        errors = int(backup.get("scan_errors", 0)) + int(main.get("scan_errors", 0))
        print(f"{path}: backup-scan p50 inflation {backup_infl:.2f}x "
              f"(main-path {main_infl:.2f}x), stale-vs-head at 3 replicas "
              f"{stale:.2f}x, {views} snapshot views")
        if not backup_infl or not main_infl or not stale:
            failures.append(f"{path}: missing backup_reads metrics "
                            "(interference p50_inflation / chain stale_vs_head)")
            continue
        if backup_infl > MAX_BACKUP_SCAN_P50_INFLATION:
            failures.append(f"{path}: backup-scan update p50 inflation "
                            f"{backup_infl:.2f}x > "
                            f"{MAX_BACKUP_SCAN_P50_INFLATION:.1f}x baseline")
        if backup_infl > main_infl:
            failures.append(f"{path}: backup-scan p50 inflation {backup_infl:.2f}x "
                            f"exceeds the main-path scan's {main_infl:.2f}x — "
                            "the contention-free path contends more than 2PL")
        if stale < MIN_STALE_VS_HEAD:
            failures.append(f"{path}: stale reads at 3 replicas {stale:.2f}x "
                            f"head-path < {MIN_STALE_VS_HEAD:.1f}x")
        if views == 0:
            failures.append(f"{path}: backup_scan phase opened no snapshot "
                            "views — the scan never took the backup path")
        if errors:
            failures.append(f"{path}: {errors} scan errors during interference "
                            "phases")

    # Phase-level p50 drift between the two files. The main_scan row is
    # informational only: it measures 2PL lock-wait latency under a scanner,
    # which is wildly run-to-run noisy on small hosts, and its only gating
    # role — an upper bound the backup path must beat — is already enforced
    # absolutely above (backup_infl <= main_infl).
    base_doc, base_path = baseline
    cand_doc, cand_path = candidate
    print(f"{'phase':>14} {'baseline':>10} {'candidate':>10} {'ratio':>7}")
    for phase in ("baseline", "main_scan", "backup_scan"):
        b = float(base_doc.get("interference", {}).get(phase, {})
                  .get("update_p50_us", 0.0))
        c = float(cand_doc.get("interference", {}).get(phase, {})
                  .get("update_p50_us", 0.0))
        if b <= 0 or c <= 0:
            print(f"{phase:>14} {b:>10.1f} {'missing' if c <= 0 else c:>10} {'-':>7}")
            continue
        ratio = c / b
        flag = ""
        if ratio > 1.0 + threshold and phase != "main_scan":
            failures.append(f"{phase} update p50 at {ratio:.2f}x baseline")
            flag = "  << REGRESSION"
        elif ratio > 1.0 + threshold:
            flag = "  (informational)"
        print(f"{phase:>14} {b:>10.1f} {c:>10.1f} {ratio:>7.2f}{flag}")
    return failures


CHECKERS = {
    "applier_scaling": check_applier_scaling,
    "backup_reads": check_backup_reads,
    "commit_path": check_commit_path,
    "epoch": check_epoch,
    "recovery": check_recovery,
    "sharding": check_sharding,
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", required=True, action="append",
                    help="committed baseline JSON (repeatable)")
    ap.add_argument("--candidate", required=True, action="append",
                    help="freshly produced JSON (repeatable, zipped with --baseline)")
    ap.add_argument("--threshold", type=float, default=0.25,
                    help="max allowed fractional change per point (default 0.25)")
    ap.add_argument("--checker", choices=sorted(CHECKERS),
                    help="run this checker for every pair instead of "
                         "dispatching on the JSON 'bench' field (e.g. the "
                         "epoch gates reuse commit_path files)")
    args = ap.parse_args()

    if len(args.baseline) != len(args.candidate):
        sys.exit("error: --baseline and --candidate must be given the same "
                 f"number of times ({len(args.baseline)} vs {len(args.candidate)})")

    failures = []
    for base_path, cand_path in zip(args.baseline, args.candidate):
        base = load(base_path)
        cand = load(cand_path)
        bench = base.get("bench", "")
        if cand.get("bench", "") != bench:
            sys.exit(f"error: bench mismatch: {base_path} is '{bench}', "
                     f"{cand_path} is '{cand.get('bench', '')}'")
        name = args.checker if args.checker else bench
        checker = CHECKERS.get(name)
        if checker is None:
            sys.exit(f"error: {base_path}: unknown bench '{name}' "
                     f"(known: {', '.join(sorted(CHECKERS))})")
        print(f"== {name}: {cand_path} vs {base_path}")
        failures += checker((base, base_path), (cand, cand_path), args.threshold)
        print()

    if failures:
        print(f"FAIL: {len(failures)} check(s) failed:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print(f"OK: no metric regressed more than {args.threshold:.0%}; "
          "all internal gates hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
