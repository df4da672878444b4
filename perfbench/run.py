"""Whole-campaign benchmark of the PELS reproduction.

Runs one workload (or ``--workload all``) through the program's public
campaign API and prints its metrics by name, with units; the last stdout
line is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` its per-layer metrics, read from one extra traced run::

    python3 perfbench/run.py --workload fleet-cold --seed 0 --seconds 20 --trace 1

Every repetition runs in a fresh process (``perfbench/rep.py``) on a fresh
directory under ``.perfbench_work/``, which is removed at exit.  See
``perfbench/README.md`` for the workloads, the metrics and the rules used to
derive them.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pipeline-cold", "fleet-cold", "fleet-warm")
EXPECTED_POINTS = {"pipeline-cold": 56, "fleet-cold": 1008, "fleet-warm": 1008}
#: Set-ups per run: at least ``SETUPS``, more while ``SETUP_SECONDS`` last
#: (cheap set-ups are noisy); ``setup_s`` is their median.
SETUPS = 3
SETUP_SECONDS = 3.0
MAX_SETUPS = 12
#: Timed repetitions per run, at least (more while ``--seconds`` lasts).
MIN_REPS = 3
#: Wall-clock budget of one workload; no child may outlive it.
DEADLINE_S = 170.0
#: Kernel counters with a per-layer metric of their own; any other key the
#: program reports is printed, never rejected.
KERNEL_KEYS = (
    "dense_ticks",
    "cycles_skipped",
    "spans_skipped",
    "next_event_calls",
    "plan_builds",
    "plan_shared",
)


class ChildFailed(Exception):
    """A setup or run process exited non-zero, timed out or printed no report."""


class Child:
    """Runs ``rep.py`` children inside one work directory, within a deadline."""

    def __init__(self, work: Path, deadline: float) -> None:
        self.deadline = deadline
        self.env = dict(os.environ, TMPDIR=str(work / "tmp"))

    def __call__(self, *args: str) -> dict:
        argv = [sys.executable, str(HERE / "rep.py"), *args]
        lines = self.check_output(argv).splitlines()
        if not lines:
            raise ChildFailed(f"rep.py {args[0]} printed no report")
        return json.loads(lines[-1])

    def check_output(self, argv) -> str:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise ChildFailed("out of time before start")
        process = subprocess.Popen(
            argv,
            cwd=ROOT,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            stdout, stderr = process.communicate(timeout=remaining)
        except BaseException as exc:
            # Timed out, or this process is being stopped: take the child and
            # every descendant down (fleet workers run in sessions of their
            # own, so the child's process group does not cover them).
            stop_tree(process)
            if isinstance(exc, subprocess.TimeoutExpired):
                raise ChildFailed(f"{argv[1:3]} timed out") from None
            raise
        if process.returncode != 0:
            raise ChildFailed(f"{argv[1:3]} exited {process.returncode}: {stderr.strip()[-2000:]}")
        return stdout


def process_table() -> dict:
    """pid -> (parent pid, state) for every process, from ``/proc``."""
    table = {}
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        table[int(stat.parent.name)] = (int(fields[1]), fields[0])
    return table


def stop_tree(process: subprocess.Popen) -> None:
    """SIGKILL ``process`` and all its descendants, then wait until each has ended."""
    table = process_table()
    tree, frontier = [], [process.pid]
    while frontier:
        parent = frontier.pop()
        children = [pid for pid, (ppid, _) in table.items() if ppid == parent]
        tree += children
        frontier += children
    for pid in [process.pid] + tree:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    process.communicate()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        table = process_table()
        if all(pid not in table or table[pid][1] == "Z" for pid in tree):
            return
        time.sleep(0.05)


# ------------------------------------------------------------- provenance


def provenance() -> dict:
    """git sha + dirty flag (when the tree is a git checkout), cores, versions."""
    info = {"git_sha": None, "dirty": None}
    if (ROOT / ".git").exists():
        try:
            info["git_sha"] = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True,
            ).stdout.strip()
            status = subprocess.run(
                ["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no"],
                capture_output=True, text=True, check=True,
            ).stdout
            info["dirty"] = bool(status.strip())
        except (OSError, subprocess.CalledProcessError):
            pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    info.update(nproc=os.cpu_count(), python=platform.python_version(), numpy=numpy_version)
    return info


# --------------------------------------------------------------- checking


def majority(values):
    return collections.Counter(values).most_common(1)[0][0] if values else None


def digest(rep: dict):
    return (rep.get("results_json"), rep.get("results_csv"))


def check_reps(workload: str, reps, reference):
    """Mark each rep with ``failed_points`` and ``problems``.

    Point-level failures: indices in ``failed_points`` or missing from the
    artifacts.  Run-level failures (every point of the rep counts as
    failed): a crashed rep, a fleet exit other than 0, a ``results.json``
    digest or shard cut that differs from the other reps of this run, and
    for ``fleet-warm`` artifacts that differ from the fleet-cold reference.
    """
    expected = EXPECTED_POINTS[workload]
    done = [rep for rep in reps if "error" not in rep]
    common_digest = majority([digest(rep) for rep in done])
    common_cut = majority([json.dumps(rep.get("cut")) for rep in done])
    for rep in reps:
        problems = []
        if "error" in rep:
            problems.append(rep["error"])
        else:
            if rep.get("exit_code", 0) != 0:
                problems.append(f"fleet exited {rep['exit_code']}")
            if rep["n_points"] != expected:
                problems.append(f"results.json holds {rep['n_points']} points, expected {expected}")
            if digest(rep) != common_digest:
                problems.append("results digest differs from the other reps")
            if json.dumps(rep.get("cut")) != common_cut:
                problems.append(f"shard cut {rep.get('cut')} differs from {common_cut}")
            if reference is not None and digest(rep) != reference:
                problems.append("artifacts differ from the fleet-cold reference")
        if problems:
            rep["failed_points"] = expected
        else:
            bad = set(rep["failed_indices"]) | set(rep["missing"])
            rep["failed_points"] = len(bad)
            if bad:
                problems.append(f"{len(bad)} failed or missing point(s)")
        rep["problems"] = problems


# ---------------------------------------------------------------- metrics


def self_times(profile: dict, hit_ratio: float) -> dict:
    """Sweep phase self times from a (worker-summed) phase profile.

    ``cache`` (snapshot publish) and ``finalize`` run inside the stop
    callback of a point.  For a simulated point that callback runs inside
    ``simulate``; the executor already takes ``finalize`` out of
    ``simulate``, but not ``cache``.  For a cache-served point the callback
    runs inside ``prepare`` and neither is taken out.  The hit ratio splits
    the two cases (exact when a run is all-cold or all-warm).
    """
    cache = profile.get("cache", 0.0)
    finalize = profile.get("finalize", 0.0)
    return {
        "expand_s": profile.get("expand", 0.0),
        "prepare_s": max(profile.get("prepare", 0.0) - hit_ratio * (cache + finalize), 0.0),
        "simulate_s": max(profile.get("simulate", 0.0) - (1.0 - hit_ratio) * cache, 0.0),
        "finalize_s": finalize,
        "write_s": profile.get("write", 0.0),
        "cache_s": cache,
    }


def per_layer(traced: dict, untraced_walls) -> dict:
    kernel = traced.get("kernel") or {}
    cache = traced.get("cache") or {}
    hits, misses = cache.get("hit", 0), cache.get("miss", 0)
    hit_ratio = hits / (hits + misses) if hits + misses else 0.0
    phases = self_times(traced.get("profile") or {}, hit_ratio)
    probes = traced["probes"]
    walls = traced.get("attempt_walls") or []
    overheads = traced.get("worker_overheads") or []
    store = traced.get("store_points") or {}
    snapshots = probes["snapshots"]
    dense = kernel.get("dense_ticks", 0)
    metrics = {f"sim.{key}": kernel.get(key, 0) for key in KERNEL_KEYS}
    metrics["sim.us_per_dense_tick"] = phases["simulate_s"] / dense * 1e6 if dense else 0.0
    for name in ("expand_s", "prepare_s", "simulate_s", "finalize_s", "write_s"):
        metrics[f"sweep.{name}"] = phases[name]
    metrics["sweep.merge_s"] = probes["merge_s"]
    metrics["sweep.cycle_share"] = (
        (dense + kernel.get("cycles_skipped", 0)) / traced["horizon_cycles"]
    )
    metrics.update(
        {
            "cache.hits": hits,
            "cache.misses": misses,
            "cache.writes": cache.get("write", 0),
            "cache.errors": cache.get("error", 0),
            "cache.hit_ratio": hit_ratio,
            "cache.publish_s": phases["cache_s"],
            "cache.restore_ms": probes["restore_s"] / snapshots * 1e3 if snapshots else 0.0,
            "cache.snapshot_kb": probes["snapshot_bytes"] / snapshots / 1024 if snapshots else 0.0,
            "store.ingest_s": probes["ingest_s"],
            "store.points_inserted": store.get("inserted", 0),
            "store.points_deduplicated": store.get("deduplicated", 0),
            "fleet.shard_imbalance": max(walls) / statistics.mean(walls) if walls else 0.0,
            "fleet.worker_overhead_s": statistics.mean(overheads) if overheads else 0.0,
            "fleet.orchestration_s": traced["wall_s"] - max(walls) if walls else 0.0,
            "fleet.attempts": traced.get("attempts", 0),
            "fleet.rounds": traced.get("rounds", 0),
            "obs.trace_overhead": traced["wall_s"] / statistics.median(untraced_walls) - 1.0,
        }
    )
    return metrics


def end_to_end(setups, reps) -> dict:
    done = [rep for rep in reps if "error" not in rep]
    return {
        "points_per_s": statistics.median(rep["points"] / rep["wall_s"] for rep in done),
        "setup_s": statistics.median(setup["setup_s"] for setup in setups),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in done),
        "disk_mb": statistics.median(rep["disk_bytes"] / 2**20 for rep in done),
    }


# -------------------------------------------------------------------- run


def run_workload(workload: str, seconds: float, trace: bool, deadline: float) -> dict:
    """Set up, time, check and (with ``trace``) break down one workload."""
    work = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    child = Child(work, deadline)
    try:
        # Compile bytecode once so no set-up pays for it.
        child.check_output(
            [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
             "import repro.fleet, repro.store, repro.sweep, repro.run"]
        )
        setups = []
        start = time.monotonic()
        while len(setups) < SETUPS or (
            len(setups) < MAX_SETUPS and time.monotonic() - start < SETUP_SECONDS
        ):
            directory = work / f"setup-{len(setups)}"
            setups.append(child("setup", "--workload", workload, "--dir", str(directory)))
            if len(setups) > 1 or workload != "fleet-warm":
                shutil.rmtree(directory)  # fleet-warm keeps one pristine cache
        reference = None
        run_args = ["--workload", workload]
        if workload == "fleet-warm":
            reference = majority([digest(setup["reference"]) for setup in setups])
            run_args += ["--cache", setups[0]["cache_dir"]]
        reps = []
        start = time.monotonic()
        while len(reps) < MIN_REPS or time.monotonic() - start < seconds:
            directory = work / f"rep-{len(reps)}"
            try:
                reps.append(child("run", *run_args, "--dir", str(directory)))
            except ChildFailed as exc:
                reps.append({"error": str(exc)})
                if time.monotonic() >= deadline:
                    break
            shutil.rmtree(directory, ignore_errors=True)
        traced = None
        if trace:
            try:
                traced = child("run", *run_args, "--dir", str(work / "traced"), "--traced")
            except ChildFailed as exc:
                traced = {"error": str(exc)}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.exists() and not any(work.parent.iterdir()):
            work.parent.rmdir()
    checked = reps + ([traced] if traced is not None else [])
    check_reps(workload, checked, reference)
    if not any("error" not in rep for rep in reps):
        raise ChildFailed(f"{workload}: every repetition failed: {reps[0]['error']}")
    result = {
        "workload": workload,
        "setups": setups,
        "reps": reps,
        "traced": traced,
        "reference": reference,
        "attempted": EXPECTED_POINTS[workload] * len(checked),
        "failed": sum(rep["failed_points"] for rep in checked),
        "end_to_end": end_to_end(setups, reps),
    }
    if traced is not None and "error" not in traced:
        result["per_layer"] = per_layer(traced, [rep["wall_s"] for rep in reps if "wall_s" in rep])
    return result


# --------------------------------------------------------------- printing


def fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def report(result: dict, spec: dict) -> None:
    """Human-readable summary of one workload (never the last stdout line)."""
    workload, reps = result["workload"], result["reps"]
    done = [rep for rep in reps if "error" not in rep]
    backend = majority([rep.get("backend") for rep in done])
    print(f"== {workload}: {len(reps)} timed rep(s), {len(result['setups'])} set-up(s), backend label {backend}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, value in result["end_to_end"].items():
        print(f"  {name:<28} {fmt(value):>14} {units[name]}")
    ratio = result["failed"] / result["attempted"]
    print(f"  {'failed_ratio':<28} {fmt(ratio):>14} ratio ({result['failed']}/{result['attempted']} points)")
    walls = ", ".join(f"{rep['wall_s']:.3f}" for rep in done)
    print(f"  timed walls (s): {walls}")
    digests = sorted({digest(rep) for rep in done})
    for results_json, results_csv in digests:
        print(f"  results.json sha256 {results_json}  results.csv sha256 {results_csv}")
    cuts = sorted({json.dumps(rep.get("cut")) for rep in done if rep.get("cut")})
    if cuts:
        print(f"  shard cut(s): {'; '.join(cuts)}")
    for index, rep in enumerate(result["reps"] + [result["traced"] or {}]):
        for problem in rep.get("problems", []):
            print(f"  CHECK FAILED (rep {index}): {problem}")
    layer = result.get("per_layer")
    if layer is None:
        return
    traced = result["traced"]
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    print(f"  per-layer (traced run, {traced['wall_s']:.3f} s wall):")
    for name, value in layer.items():
        print(f"    {name:<26} {fmt(value):>14} {units[name]}")
    extra = sorted(set(traced.get("kernel") or {}) - set(KERNEL_KEYS))
    for key in extra:
        print(f"    kernel.{key:<19} {fmt(traced['kernel'][key]):>14} count (not a metric)")
    print("  benchmark spans (traced run):")
    for name, (count, seconds) in sorted(traced.get("spans", {}).items()):
        print(f"    {name:<26} {count:>5} x  {seconds:.4f} s")


def metrics_payload(result: dict, spec: dict, trace: bool) -> dict:
    section = "per_layer" if trace else "end_to_end"
    values = result.get(section)
    if values is None:
        raise ChildFailed(f"{result['workload']}: the traced run failed: {result['traced']['error']}")
    return {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[section]
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0, help="recorded; the campaign grids are fixed")
    parser.add_argument("--seconds", type=float, default=20.0, help="timed repetitions run this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so children are killed and the work
    # directory is removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark ({ROOT / 'src' / 'repro'} is missing)", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for workload in workloads:
            deadline = time.monotonic() + DEADLINE_S
            results.append(run_workload(workload, args.seconds, bool(args.trace), deadline))
            report(results[-1], spec)
        metrics = {}
        for result in results:
            payload = metrics_payload(result, spec, bool(args.trace))
            prefix = "" if len(results) == 1 else f"{result['workload']}."
            metrics.update({prefix + name: value for name, value in payload.items()})
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record = {
        "provenance": provenance(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workloads": results,
    }
    print("perfbench-record " + json.dumps(record, sort_keys=True))
    attempted = sum(result["attempted"] for result in results)
    failed = sum(result["failed"] for result in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
