"""Plan-cache warm starts: the second run must not re-simulate.

Runs the ``pipeline-clock-ratio`` campaign (56 points, 8 shared-prefix
groups x 7 horizons) twice against one plan-cache directory:

* **cold** — empty cache: every group prepares, simulates its full ladder,
  and publishes each point's finished record (a small JSON entry) as its
  horizon stop passes;
* **warm** — same cache: every horizon has a record, so each point is
  served straight from it with **zero simulated cycles** — nothing is
  restored and the power model does not run again.

The warm run's cost is 56 small JSON reads plus validation, so the speedup
is bounded only by per-point overhead, not horizon depth — on this
campaign it measures an order of magnitude or more.  The CI floor asserts a
deliberately conservative 1.3x (shared hosts jitter, and the floor must
also hold for horizon-ladder shapes where a record replaces less
simulation); both the in-test assert and the CI perf-regression job check
it.  Warm artifacts must be byte-identical to cold — pinned here on the
comparable payload and for every registry campaign in
``tests/sweep/test_plan_cache_sweep.py``.

Results land in ``results/plan_cache_warm_speedup.txt`` and the
``plan_cache_warm_speedup`` section of ``results/BENCH_kernel.json``.
"""

import json
import time

from repro.sweep import campaign, execute_campaign, results_payload

CAMPAIGN = "pipeline-clock-ratio"
MIN_WARM_SPEEDUP = 1.3


def _timed(plan_cache):
    start = time.perf_counter()
    result = execute_campaign(campaign(CAMPAIGN), jobs=1, plan_cache=plan_cache)
    return time.perf_counter() - start, result


def test_bench_plan_cache_warm_speedup(tmp_path, save_result, save_kernel_json):
    spec = campaign(CAMPAIGN)
    cache_dir = str(tmp_path / "plan-cache")

    cold_seconds, cold = _timed(cache_dir)
    # Two warm passes, scored by the min: the warm run is fast enough that
    # a single scheduler hiccup on a shared host could dominate it.
    warm_a, warm = _timed(cache_dir)
    warm_b, _ = _timed(cache_dir)
    warm_seconds = min(warm_a, warm_b)

    assert cold.cache["hits"] == 0 and cold.cache["writes"] > 0
    assert warm.cache["hits"] == spec.n_points and warm.cache["misses"] == 0
    reference = json.dumps(results_payload(cold), sort_keys=True)
    assert json.dumps(results_payload(warm), sort_keys=True) == reference

    speedup = cold_seconds / max(warm_seconds, 1e-9)
    lines = [
        f"Plan-cache warm start on {CAMPAIGN} ({spec.n_points} points, "
        f"{cold.cache['writes']} records published):",
        f"  cold (empty cache)     : {cold_seconds * 1e3:8.1f} ms",
        f"  warm (all records)     : {warm_seconds * 1e3:8.1f} ms ({speedup:.2f}x)",
        f"  warm cache counters    : {warm.cache['hits']} hits, "
        f"{warm.cache['misses']} misses, {warm.cache['errors']} errors",
        f"  artifacts              : byte-identical",
        f"  floor                  : {MIN_WARM_SPEEDUP:.1f}x",
    ]
    save_result("plan_cache_warm_speedup", "\n".join(lines))
    save_kernel_json(
        "plan_cache_warm_speedup",
        {
            "campaign": CAMPAIGN,
            "n_points": spec.n_points,
            "records_published": cold.cache["writes"],
            "cold_seconds": cold_seconds,
            "warm_seconds": warm_seconds,
            "warm_hits": warm.cache["hits"],
            "speedup": speedup,
            "floor": MIN_WARM_SPEEDUP,
        },
    )

    assert speedup >= MIN_WARM_SPEEDUP, (
        f"plan-cache warm speedup {speedup:.2f}x is below the "
        f"{MIN_WARM_SPEEDUP:.1f}x floor"
    )
