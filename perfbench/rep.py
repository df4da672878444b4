"""One benchmark repetition, run in a fresh process by ``perfbench/run.py``.

Two modes, each printing one JSON object as its last stdout line:

* ``setup`` — import ``repro``, expand the workload's campaign and prepare
  its starting state, timed as a whole (``setup_s``).  For ``fleet-warm``
  the starting state is a plan cache filled by a cold fleet run; its merged
  ``results.json``/``results.csv`` digests are the fleet-cold reference the
  warm runs must match byte for byte.
* ``run`` — prepare a fresh directory (a copy of the pristine cache for
  ``fleet-warm``), make the timed call into the program's public API, then
  check the outputs and report wall time, peak RSS and bytes on disk.  With
  ``--traced`` the call runs with the program's own telemetry switched on
  (``profile=True`` for the sweep, ``FleetConfig.trace`` for the fleet) and
  the per-layer breakdown is read back from manifests and the fleet ledger.

A run process has no other child than the ones its timed call starts, so
``RUSAGE_CHILDREN`` covers exactly the pool or fleet workers of that call.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Workload -> (registry campaign, expected point count).
WORKLOADS = {
    "pipeline-cold": ("pipeline-clock-ratio", 56),
    "fleet-cold": ("fleet-scale", 1008),
    "fleet-warm": ("fleet-scale", 1008),
}
#: Worker processes for every workload (the pool size or the fleet width).
WORKERS = 2
#: Per-worker fleet timeout: a hung worker is killed by the fleet's own
#: supervisor well inside the benchmark's time limit.
FLEET_TIMEOUT_S = 60.0


class Spans:
    """The benchmark's own spans: count and total seconds per public call."""

    def __init__(self) -> None:
        self.totals = {}

    def call(self, name, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            count, seconds = self.totals.get(name, (0, 0.0))
            self.totals[name] = (count + 1, seconds + time.perf_counter() - start)

    def seconds(self, name):
        return self.totals.get(name, (0, 0.0))[1]


def sha256_file(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def tree_bytes(directory):
    return sum(path.stat().st_size for path in Path(directory).rglob("*") if path.is_file())


def peak_rss_mb():
    """Largest resident set of this process or any waited-for descendant."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def counters(metrics):
    """The ``counter`` block of a metrics-registry payload (or empty)."""
    return dict((metrics or {}).get("counter") or {})


def kernel_counters(metrics):
    """Every ``kernel.*`` counter by its bare name, known to this file or not."""
    return {
        key[len("kernel.") :]: value for key, value in counters(metrics).items() if key.startswith("kernel.")
    }


def fleet_config(campaign, out, **overrides):
    from repro.fleet import FleetConfig

    return FleetConfig(
        campaign=campaign,
        workers=WORKERS,
        out=Path(out),
        timeout=FLEET_TIMEOUT_S,
        echo=lambda message: None,
        **overrides,
    )


# ------------------------------------------------------------------ setup


def do_setup(workload, directory):
    start = time.perf_counter()
    import repro  # noqa: F401  (the import is part of what set-up costs)
    from repro.sweep import campaign, expand_campaign

    name, expected = WORKLOADS[workload]
    points = expand_campaign(campaign(name))
    directory.mkdir(parents=True)
    report = {"points": len(points)}
    if workload == "fleet-warm":
        from repro.fleet import run_fleet

        fill = run_fleet(fleet_config(name, directory / "fill"))
        if fill.exit_code != 0:
            raise SystemExit(f"setup: cache-filling fleet exited {fill.exit_code}")
        campaign_dir = fill.campaign_dir
        report["cache_dir"] = str(campaign_dir / "plan-cache")
        report["reference"] = {
            "results_json": sha256_file(campaign_dir / "results.json"),
            "results_csv": sha256_file(campaign_dir / "results.csv"),
        }
    report["setup_s"] = time.perf_counter() - start
    if len(points) != expected:
        raise SystemExit(f"setup: {name} expands to {len(points)} points, expected {expected}")
    return report


# -------------------------------------------------------------------- run


def artifact_report(campaign_dir, expected):
    """Digests plus the point indices missing from ``results.json``."""
    results_json = campaign_dir / "results.json"
    if not results_json.exists():
        return {"missing": list(range(expected)), "n_points": 0}
    payload = json.loads(results_json.read_text(encoding="utf-8"))
    indices = {point["index"] for point in payload.get("points", [])}
    return {
        "n_points": len(payload.get("points", [])),
        "missing": sorted(set(range(expected)) - indices),
        "results_json": sha256_file(results_json),
        "results_csv": sha256_file(campaign_dir / "results.csv"),
    }


def run_pipeline(spec, out, traced, spans):
    from repro.sweep import execute_campaign, write_artifacts

    start = time.perf_counter()
    result = spans.call("execute_campaign", execute_campaign, spec, jobs=WORKERS, profile=traced)
    spans.call("write_artifacts", write_artifacts, spec, result, out)
    wall = time.perf_counter() - start
    report = {
        "wall_s": wall,
        "failed_indices": sorted(record["index"] for record in result.failed_points),
        "backend": result.backend,
    }
    if traced:
        telemetry = result.telemetry or {}
        report["profile"] = dict(telemetry.get("profile") or {})
        report["kernel"] = kernel_counters(telemetry.get("metrics"))
    return report


def run_fleet_call(workload, spec, directory, out, traced, spans):
    from repro.fleet import load_ledger, run_fleet

    overrides = {"trace": traced}
    if workload == "fleet-cold":
        overrides["store"] = directory / "store.db"
    else:
        overrides["plan_cache"] = directory / "cache"
    config = fleet_config(spec.name, out, **overrides)
    start = time.perf_counter()
    fleet = spans.call("run_fleet", run_fleet, config, spec)
    wall = time.perf_counter() - start
    ledger = load_ledger(fleet.ledger_path)
    attempts = [attempt for rnd in ledger.get("rounds", []) for attempt in rnd.get("attempts", [])]
    accepted = [Path(attempt["artifact_dir"]) for attempt in attempts if attempt.get("accepted")]
    manifests = [
        json.loads((path / "manifest.json").read_text(encoding="utf-8")) for path in accepted
    ]
    executions = [manifest.get("execution") or {} for manifest in manifests]
    first_round = (ledger.get("rounds") or [{}])[0].get("attempts", [])
    report = {
        "wall_s": wall,
        "exit_code": fleet.exit_code,
        "failed_indices": sorted(
            record["index"] for execution in executions for record in execution.get("failed_points", [])
        ),
        "cut": sorted(attempt.get("span") or [] for attempt in first_round),
        "backend": next((e.get("backend") for e in executions if e.get("backend")), None),
    }
    if traced:
        profile = {}
        for execution in executions:
            for phase, seconds in ((execution.get("telemetry") or {}).get("profile") or {}).items():
                profile[phase] = profile.get(phase, 0.0) + seconds
        ledger_counters = counters(ledger.get("metrics"))
        shard_walls = {str(path): e.get("wall_seconds", 0.0) for path, e in zip(accepted, executions)}
        attempt_walls = [attempt.get("wall_seconds", 0.0) for attempt in attempts]
        overheads = [
            attempt["wall_seconds"] - shard_walls[attempt["artifact_dir"]]
            for attempt in attempts
            if attempt["artifact_dir"] in shard_walls and attempt.get("accepted")
        ]
        report.update(
            profile=profile,
            kernel=kernel_counters(ledger.get("metrics")),
            cache={name: ledger_counters.get(f"cache.{name}", 0) for name in ("hit", "miss", "write", "error")},
            store_points={
                kind: ledger_counters.get(f"fleet.store_points{{kind={kind}}}", 0)
                for kind in ("inserted", "deduplicated")
            },
            attempts=len(attempts),
            rounds=len(ledger.get("rounds", [])),
            attempt_walls=attempt_walls,
            worker_overheads=overheads,
            shard_dirs=[str(path) for path in accepted],
        )
    return report


def layer_probes(workload, spec, directory, out, report, spans):
    """Traced-run extras: merge, store ingest and snapshot restore, timed
    from outside around each layer's public function."""
    from repro.sim.snapshot import restore_prepared
    from repro.store import connect, ingest_directory
    from repro.sweep import merge_shards, write_merged_artifacts

    campaign_dir = out / spec.name
    probes = {"merge_s": 0.0}
    if workload != "pipeline-cold":
        start = time.perf_counter()
        merged = spans.call("merge_shards", merge_shards, [Path(p) for p in report["shard_dirs"]])
        spans.call("write_merged_artifacts", write_merged_artifacts, merged, directory / "merged")
        probes["merge_s"] = time.perf_counter() - start
    conn = connect(directory / "ingest.db")
    try:
        spans.call("ingest_directory", ingest_directory, conn, campaign_dir)
    finally:
        conn.close()
    probes["ingest_s"] = spans.seconds("ingest_directory")
    cache_dir = {"fleet-cold": campaign_dir / "plan-cache", "fleet-warm": directory / "cache"}.get(workload)
    blobs = sorted(cache_dir.rglob("*.snap")) if cache_dir is not None else []
    sizes = []
    for path in blobs:
        blob = path.read_bytes()
        sizes.append(len(blob))
        spans.call("restore_prepared", restore_prepared, blob)
    probes["restore_s"] = spans.seconds("restore_prepared")
    probes["snapshots"] = len(blobs)
    probes["snapshot_bytes"] = sum(sizes)
    return probes


def do_run(workload, directory, pristine_cache, traced):
    import repro  # noqa: F401
    from repro.sweep import campaign, expand_campaign

    spans = Spans()
    name, expected = WORKLOADS[workload]
    spec = campaign(name)
    points = spans.call("expand_campaign", expand_campaign, spec)
    directory.mkdir(parents=True)
    out = directory / "out"
    if workload == "fleet-warm":
        shutil.copytree(pristine_cache, directory / "cache")
    if workload == "pipeline-cold":
        report = run_pipeline(spec, out, traced, spans)
    else:
        report = run_fleet_call(workload, spec, directory, out, traced, spans)
    report["peak_rss_mb"] = peak_rss_mb()
    report["disk_bytes"] = tree_bytes(directory)
    report["points"] = len(points)
    report["horizon_cycles"] = sum(point.horizon_cycles for point in points)
    report.update(artifact_report(out / name, expected))
    if traced:
        report["probes"] = layer_probes(workload, spec, directory, out, report, spans)
        report["spans"] = {key: list(value) for key, value in spans.totals.items()}
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--dir", required=True, type=Path)
    parser.add_argument("--cache", type=Path, help="pristine plan cache (fleet-warm run)")
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    if args.mode == "setup":
        report = do_setup(args.workload, args.dir)
    else:
        report = do_run(args.workload, args.dir, args.cache, args.traced)
    print(json.dumps(report, sort_keys=True))


if __name__ == "__main__":
    main()
