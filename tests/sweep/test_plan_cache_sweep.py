"""Sweep execution against a plan cache (--plan-cache): warm byte-identity.

The acceptance oracle of the cache-fed executor: for every registry
campaign, a warm run against a populated cache must produce artifacts
byte-identical to a cold run and to a run with no cache at all — while
actually using the cache (hit counters in
``execution.cache``).  Around that: partial caches (missing and corrupt
entries) must degrade to simulation and heal the cache, the manifest must
record warm-run provenance, and the CLI flag must round-trip.
"""

import hashlib
import json
import pickle

import pytest

from repro.cache import group_cache_key
from repro.run import main
from repro.sweep import (
    CampaignSpec,
    campaign,
    campaign_names,
    execute_campaign,
    expand_campaign,
    results_payload,
    write_artifacts,
)
from repro.sweep.execute import batch_groups
from repro.sweep.artifacts import SCHEMA_VERSION, manifest_payload

#: Registry campaigns small enough for per-test execution; fleet-scale's
#: 1008 points are covered by one separate identity pass.
FAST_CAMPAIGNS = sorted(set(campaign_names()) - {"fleet-scale"})

SMALL_SPEC = CampaignSpec(
    name="plan-cache-test",
    description="small batchable campaign for the --plan-cache tests",
    scenario="duty-cycled-logging",
    grid={
        "horizon_cycles": (20_000, 40_000),
        "sample_period_cycles": (1_000, 2_000),
    },
)


def _rewrite(path, **changes):
    """Rewrite a record entry with ``changes``, recomputing its checksum so
    only the changed field itself can be objected to."""
    entry = json.loads(path.read_bytes())
    entry.update(changes)
    payload = {name: entry[name] for name in ("stats", "activity", "power_uw", "area_kge")}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    entry["sha256"] = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    path.write_text(json.dumps(entry) + "\n")


def _bump_a_stat(path):
    entry = json.loads(path.read_bytes())
    name = sorted(entry["stats"])[0]
    entry["stats"][name] += 1
    path.write_text(json.dumps(entry) + "\n")


#: Damage kind -> the note fragment its named error carries.
DAMAGE = {
    "invalid-json": "invalid JSON",
    "truncated": "truncated record",
    "stale-schema": "stale record schema",
    "wrong-key": "filed under",
    "wrong-elapsed": "filed under cycle",
    "checksum": "checksum mismatch",
    "wrong-type": "wrong type",
}

DAMAGE_FUNCTIONS = {
    "invalid-json": lambda path: path.write_bytes(b"{not json}\n"),
    "truncated": lambda path: path.write_bytes(path.read_bytes()[:-30]),
    "stale-schema": lambda path: _rewrite(path, schema=SCHEMA_VERSION + 1),
    "wrong-key": lambda path: _rewrite(path, key="0" * 64),
    "wrong-elapsed": lambda path: _rewrite(path, elapsed=json.loads(path.read_bytes())["elapsed"] + 1),
    "checksum": _bump_a_stat,
    "wrong-type": lambda path: _rewrite(path, activity={"cpu.cycles": "many"}),
}


def _payload_bytes(result):
    return json.dumps(results_payload(result), indent=2, sort_keys=True)


@pytest.fixture(scope="module")
def reference_and_cache(tmp_path_factory):
    """Per-campaign: the no-cache reference payload plus a populated cache
    directory (computed once per campaign)."""
    root = tmp_path_factory.mktemp("plan-caches")
    state = {}

    def get(name):
        if name not in state:
            reference = _payload_bytes(execute_campaign(campaign(name), jobs=1))
            cache_dir = root / name
            cold = execute_campaign(campaign(name), jobs=1, plan_cache=str(cache_dir))
            assert _payload_bytes(cold) == reference
            assert cold.cache["writes"] > 0 and cold.cache["hits"] == 0
            state[name] = (reference, cache_dir)
        return state[name]

    return get


class TestWarmByteIdentity:
    @pytest.mark.parametrize("name", FAST_CAMPAIGNS)
    def test_registry_campaigns_warm_identical(self, name, reference_and_cache):
        """The acceptance criterion: warm == cold == uncached, bit for bit,
        for every registry campaign."""
        reference, cache_dir = reference_and_cache(name)
        warm = execute_campaign(campaign(name), jobs=1, plan_cache=str(cache_dir))
        assert _payload_bytes(warm) == reference
        assert warm.cache["hits"] == warm.n_points
        assert warm.cache["misses"] == 0 and warm.cache["errors"] == 0

    def test_fleet_scale_warm_identical(self, reference_and_cache):
        reference, cache_dir = reference_and_cache("fleet-scale")
        warm = execute_campaign(campaign("fleet-scale"), jobs=2, plan_cache=str(cache_dir))
        assert _payload_bytes(warm) == reference
        assert warm.cache["hits"] == warm.n_points == 1008

    def test_artifact_files_are_byte_identical(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = execute_campaign(SMALL_SPEC, jobs=1, plan_cache=cache_dir)
        warm = execute_campaign(SMALL_SPEC, jobs=1, plan_cache=cache_dir)
        cold_paths = write_artifacts(SMALL_SPEC, cold, tmp_path / "cold")
        warm_paths = write_artifacts(SMALL_SPEC, warm, tmp_path / "warm")
        for key in ("results_json", "results_csv"):
            assert cold_paths[key].read_bytes() == warm_paths[key].read_bytes()


class TestPartialCache:
    def _populate(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cold = execute_campaign(SMALL_SPEC, jobs=1, plan_cache=str(cache_dir))
        return _payload_bytes(cold), cache_dir

    def test_missing_entries_are_simulated_and_healed(self, tmp_path):
        reference, cache_dir = self._populate(tmp_path)
        records = sorted(cache_dir.rglob("*.rec"))
        assert len(records) == 4
        records[0].unlink()
        records[-1].unlink()
        partial = execute_campaign(SMALL_SPEC, jobs=1, plan_cache=str(cache_dir))
        assert _payload_bytes(partial) == reference
        assert partial.cache["hits"] == 2 and partial.cache["misses"] == 2
        assert partial.cache["writes"] == 2  # the gaps were republished
        assert partial.n_computed == 4  # served points count as computed
        assert len(sorted(cache_dir.rglob("*.rec"))) == 4
        healed = execute_campaign(SMALL_SPEC, jobs=1, plan_cache=str(cache_dir))
        assert _payload_bytes(healed) == reference
        assert healed.cache["hits"] == 4 and healed.cache["writes"] == 0

    def test_corrupt_entries_fall_back_with_a_note(self, tmp_path):
        reference, cache_dir = self._populate(tmp_path)
        records = sorted(cache_dir.rglob("*.rec"))
        records[0].write_bytes(b"garbage\n")
        records[1].write_bytes(records[1].read_bytes()[:40])
        warm = execute_campaign(SMALL_SPEC, jobs=1, plan_cache=str(cache_dir))
        assert _payload_bytes(warm) == reference
        assert warm.cache["errors"] == 2
        assert any("invalid JSON" in note for note in warm.cache["notes"])
        assert any("truncated record" in note for note in warm.cache["notes"])

    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_every_damaged_entry_is_recomputed_identically(self, tmp_path, damage):
        """Each kind of damaged entry is a named, counted error and a note;
        the entry is evicted, its points are simulated byte-identically,
        and the simulation publishes a good entry in its place."""
        note = DAMAGE[damage]
        reference, cache_dir = self._populate(tmp_path)
        target = sorted(cache_dir.rglob("*.rec"))[1]
        DAMAGE_FUNCTIONS[damage](target)
        warm = execute_campaign(SMALL_SPEC, jobs=1, plan_cache=str(cache_dir))
        assert _payload_bytes(warm) == reference
        assert warm.cache["errors"] == 1
        assert warm.cache["hits"] == 3 and warm.cache["misses"] == 1
        assert [n for n in warm.cache["notes"] if note in n], warm.cache["notes"]
        assert warm.cache["writes"] == 1  # evicted, then healed by the recompute
        healed = execute_campaign(SMALL_SPEC, jobs=1, plan_cache=str(cache_dir))
        assert healed.cache["hits"] == 4 and healed.cache["errors"] == 0

    def test_non_batchable_campaign_ignores_the_cache(self, tmp_path):
        spec = CampaignSpec(
            name="plan-cache-monitor-test",
            description="always-on-monitor has no batch hook: cache must idle",
            scenario="always-on-monitor",
            grid={"horizon_cycles": (10_000, 20_000)},
        )
        reference = _payload_bytes(execute_campaign(spec, jobs=1))
        cache_dir = str(tmp_path / "cache")
        for _ in range(2):
            result = execute_campaign(spec, jobs=1, plan_cache=cache_dir)
            assert _payload_bytes(result) == reference
            assert result.cache["errors"] == 0 and result.cache["writes"] == 0


class _MarkerPickle:
    """Unpickling this creates ``path``: proof that a pickle was loaded."""

    def __init__(self, path):
        self.path = str(path)

    def __reduce__(self):
        return (open, (self.path, "w"))


class TestNoPickleLoads:
    def test_planted_pickles_are_never_loaded(self, tmp_path):
        """A shared cache directory is untrusted input: pickles planted as
        ``<elapsed>.snap`` and ``<elapsed>.rec`` under every real group key
        must never be unpickled.  The ``.rec`` ones are counted errors and
        the warm run stays byte-identical."""
        marker = tmp_path / "pickle-was-loaded"
        payload = pickle.dumps(_MarkerPickle(marker))
        # The payload is live: unpickling it creates its marker.
        probe = tmp_path / "probe"
        pickle.loads(pickle.dumps(_MarkerPickle(probe))).close()
        assert probe.exists()

        reference = _payload_bytes(execute_campaign(SMALL_SPEC, jobs=1))
        cache_dir = tmp_path / "cache"
        planted = 0
        for group in batch_groups(expand_campaign(SMALL_SPEC)):
            first = group[0]
            horizons = [point.horizon_cycles for point in group]
            key = group_cache_key(first.scenario, first.dense, dict(first.params), horizons)
            entry_dir = cache_dir / key[:2] / key
            entry_dir.mkdir(parents=True)
            for horizon in horizons:
                (entry_dir / f"{horizon}.snap").write_bytes(payload)
                (entry_dir / f"{horizon}.rec").write_bytes(payload)
                planted += 1
        assert planted == SMALL_SPEC.n_points

        warm = execute_campaign(SMALL_SPEC, jobs=1, plan_cache=str(cache_dir))
        assert _payload_bytes(warm) == reference
        assert not marker.exists(), "the cache loaded a pickle"
        assert warm.cache["errors"] == planted and warm.cache["hits"] == 0
        assert all("invalid JSON" in note for note in warm.cache["notes"])


class TestManifestProvenance:
    def test_execution_cache_block(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = execute_campaign(SMALL_SPEC, jobs=1, plan_cache=cache_dir)
        warm = execute_campaign(SMALL_SPEC, jobs=1, plan_cache=cache_dir)
        cold_block = manifest_payload(SMALL_SPEC, cold)["execution"]["cache"]
        warm_block = manifest_payload(SMALL_SPEC, warm)["execution"]["cache"]
        assert cold_block["path"] == warm_block["path"] == cache_dir
        assert cold_block["hits"] == 0 and cold_block["writes"] == 4
        assert warm_block["hits"] == 4 and warm_block["misses"] == 0
        assert warm_block["notes"] == []

    def test_no_cache_no_block(self):
        result = execute_campaign(SMALL_SPEC, jobs=1)
        assert result.cache is None
        assert "cache" not in manifest_payload(SMALL_SPEC, result)["execution"]

    def test_cache_counters_reach_telemetry(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = execute_campaign(SMALL_SPEC, jobs=1, plan_cache=cache_dir, profile=True)
        assert cold.telemetry["metrics"]["counter"]["kernel.dense_ticks"] > 0
        warm = execute_campaign(SMALL_SPEC, jobs=1, plan_cache=cache_dir, profile=True)
        counters = warm.telemetry["metrics"]["counter"]
        assert counters["cache.hit"] == 4
        assert counters["cache.miss"] == 0
        # Every point was served from a record, so nothing was simulated
        # and the run reports no kernel work.
        assert counters.get("kernel.dense_ticks", 0) == 0

    def test_composes_with_jobs_and_chunk(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        reference = _payload_bytes(execute_campaign(SMALL_SPEC, jobs=1))
        cold = execute_campaign(SMALL_SPEC, jobs=2, chunk=2, plan_cache=cache_dir)
        warm = execute_campaign(SMALL_SPEC, jobs=2, chunk=2, plan_cache=cache_dir)
        assert _payload_bytes(cold) == _payload_bytes(warm) == reference
        assert warm.cache["hits"] == 4  # summed across pool chunks


class TestCli:
    def test_plan_cache_flag_round_trip(self, tmp_path, capsys):
        cache_dir = tmp_path / "plan-cache"
        cold_dir, warm_dir = tmp_path / "cold", tmp_path / "warm"
        args = ["sweep", "smoke", "--plan-cache", str(cache_dir)]
        assert main(args + ["--out", str(cold_dir)]) == 0
        assert main(args + ["--out", str(warm_dir)]) == 0
        out = capsys.readouterr().out
        # Cold line counts the probe misses; warm line counts one hit per point.
        assert "cache 0 hits/" in out
        assert "cache 4 hits/0 miss" in out
        for name in ("results.json", "results.csv"):
            cold_bytes = (cold_dir / "smoke" / name).read_bytes()
            assert cold_bytes == (warm_dir / "smoke" / name).read_bytes()
        warm_manifest = json.loads((warm_dir / "smoke" / "manifest.json").read_text())
        assert warm_manifest["execution"]["cache"]["hits"] == 4

    def test_stats_renders_cache_counters(self, tmp_path, capsys):
        cache_dir = tmp_path / "plan-cache"
        out_dir = tmp_path / "out"
        args = ["sweep", "smoke", "--plan-cache", str(cache_dir), "--out", str(out_dir)]
        assert main(args) == 0
        assert main(args + ["--profile"]) == 0
        capsys.readouterr()
        assert main(["stats", str(out_dir / "smoke")]) == 0
        out = capsys.readouterr().out
        assert f"plan cache {cache_dir}" in out
        assert "4 hits" in out
