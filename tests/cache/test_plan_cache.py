"""The on-disk point-record cache: keys, hits, atomicity, silent fallback.

The contract under test: a :class:`~repro.cache.PlanCache` can make a run
faster or leave it untouched, never wrong — every unusable entry (invalid
JSON, truncated, stale schema, filed under the wrong key or cycle, a
checksum mismatch, a field of the wrong type) is counted, noted, evicted,
and answered with ``None`` (the caller simulates), and publishes are
atomic and best-effort.
"""

import hashlib
import json
import os

import pytest

import repro.cache.plan_cache as plan_cache_module
from repro.cache import CacheError, PlanCache, group_cache_key
from repro.sim.snapshot import SNAPSHOT_SCHEMA_VERSION
from repro.sweep.artifacts import SCHEMA_VERSION

HORIZONS = [30_000, 60_000]
KEY = group_cache_key("duty-cycled-logging", False, {}, HORIZONS)

#: A record with every scalar type a real point record carries.
RECORD = {
    "stats": {"samples": 14, "recovered": True, "ratio": 0.125, "mode": "iso", "note": None},
    "activity": {"cpu.active_cycles": 1200, "adc.conversions_started": 14},
    "power_uw": {"Total": 12.5, "PELS": 0.75},
    "area_kge": {"Total": 7.25},
}


@pytest.fixture()
def cache(tmp_path):
    return PlanCache(tmp_path / "plan-cache")


def entry_path(cache, key=KEY, elapsed=HORIZONS[0]):
    return cache.root / key[:2] / key / f"{elapsed}.rec"


def rewrite(path, **changes):
    """Rewrite an entry with ``changes`` applied, keeping its checksum
    valid for the (possibly changed) record fields."""
    entry = json.loads(path.read_bytes())
    entry.update(changes)
    payload = {name: entry[name] for name in ("stats", "activity", "power_uw", "area_kge")}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    entry["sha256"] = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    path.write_text(json.dumps(entry) + "\n")


class TestGroupCacheKey:
    def test_key_is_computable_without_a_prepared_instance(self):
        assert len(KEY) == 64 and set(KEY) <= set("0123456789abcdef")

    def test_key_covers_every_identity_dimension(self):
        base = group_cache_key("s", False, {"a": 1}, [10, 20])
        assert group_cache_key("s", False, {"a": 1}, [10, 20]) == base
        assert group_cache_key("other", False, {"a": 1}, [10, 20]) != base
        assert group_cache_key("s", True, {"a": 1}, [10, 20]) != base
        assert group_cache_key("s", False, {"a": 2}, [10, 20]) != base
        assert group_cache_key("s", False, {"a": 1}, [10, 30]) != base
        assert group_cache_key("s", False, {"a": 1}, [10, 20, 30]) != base

    def test_param_order_does_not_matter(self):
        assert group_cache_key("s", False, {"a": 1, "b": 2}, [10]) == group_cache_key(
            "s", False, {"b": 2, "a": 1}, [10]
        )

    def test_schema_version_is_part_of_the_key(self, monkeypatch):
        before = group_cache_key("s", False, {}, [10])
        monkeypatch.setattr(plan_cache_module, "SCHEMA_VERSION", SCHEMA_VERSION + 1)
        assert group_cache_key("s", False, {}, [10]) != before

    def test_snapshot_era_directories_are_never_addressed(self):
        """The key material of the snapshot cache this format replaced: a
        directory it wrote must not collide with any record directory."""
        material = {
            "schema": SNAPSHOT_SCHEMA_VERSION,
            "scenario": "duty-cycled-logging",
            "dense": False,
            "params": {},
            "horizons": HORIZONS,
        }
        canonical = json.dumps(material, sort_keys=True, separators=(",", ":"), default=str)
        assert hashlib.sha256(canonical.encode("utf-8")).hexdigest() != KEY


class TestPublishAndLookup:
    def test_round_trip(self, cache):
        assert cache.publish(KEY, HORIZONS[0], RECORD) is True
        record = cache.lookup(KEY, HORIZONS[0])
        assert record == RECORD
        assert cache.counters.as_dict() == {"hits": 1, "misses": 0, "writes": 1, "errors": 0}

    def test_round_trip_keeps_exact_types_and_order(self, cache):
        cache.publish(KEY, HORIZONS[0], RECORD)
        record = PlanCache(cache.root).lookup(KEY, HORIZONS[0])
        for name, values in RECORD.items():
            assert list(record[name]) == list(values)
            assert [type(v) for v in record[name].values()] == [type(v) for v in values.values()]

    def test_other_keys_of_the_record_are_not_stored(self, cache):
        cache.publish(KEY, HORIZONS[0], dict(RECORD, index=7, seed=3))
        entry = json.loads(entry_path(cache).read_bytes())
        assert set(entry) == {"schema", "key", "elapsed", "sha256", *RECORD}
        assert entry["schema"] == SCHEMA_VERSION
        assert entry["key"] == KEY and entry["elapsed"] == HORIZONS[0]

    def test_empty_cache_is_a_counted_miss(self, cache):
        assert cache.lookup(KEY, HORIZONS[0]) is None
        assert cache.counters.misses == 1 and cache.counters.errors == 0

    def test_hits_and_misses_count_points(self, cache):
        cache.publish(KEY, HORIZONS[0], RECORD)
        cache.lookup(KEY, HORIZONS[0], points=3)
        cache.lookup(KEY, HORIZONS[1], points=2)
        assert cache.counters.hits == 3 and cache.counters.misses == 2

    def test_lookup_is_exact(self, cache):
        cache.publish(KEY, HORIZONS[0], RECORD)
        assert cache.lookup(KEY, HORIZONS[1]) is None
        assert cache.lookup(KEY, HORIZONS[0] - 1) is None
        assert cache.lookup(KEY, HORIZONS[0]) == RECORD

    def test_publish_skips_existing_entries(self, cache):
        assert cache.publish(KEY, HORIZONS[0], RECORD) is True
        assert cache.publish(KEY, HORIZONS[0], RECORD) is False
        assert cache.counters.writes == 1

    def test_publish_rejects_cycle_zero(self, cache):
        assert cache.publish(KEY, 0, RECORD) is False
        assert cache.counters.writes == 0

    def test_publish_is_atomic(self, cache):
        cache.publish(KEY, HORIZONS[0], RECORD)
        entry_dir = entry_path(cache).parent
        assert sorted(p.name for p in entry_dir.iterdir()) == [f"{HORIZONS[0]}.rec"]
        assert not list(cache.root.rglob("*.tmp"))

    def test_unpicklable_publish_is_noted_not_raised(self, cache):
        """A record holding a value JSON cannot store is noted, not raised."""
        assert cache.publish(KEY, HORIZONS[0], dict(RECORD, stats={"obj": object()})) is False
        assert cache.counters.errors == 1 and cache.counters.writes == 0
        assert any("wrong type" in note for note in cache.notes)
        assert not entry_path(cache).exists()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("stats", {"pair": (1, 2)}),
            ("activity", {"cpu.cycles": 1.5}),
            ("power_uw", {"Total": "12"}),
            ("area_kge", [1.0]),
        ],
    )
    def test_record_of_the_wrong_type_is_not_published(self, cache, field, value):
        """Nothing is stored that a load would reject or hand back changed
        (JSON gives a tuple back as a list)."""
        assert cache.publish(KEY, HORIZONS[0], dict(RECORD, **{field: value})) is False
        assert cache.counters.errors == 1 and cache.counters.writes == 0
        assert any("wrong type" in note for note in cache.notes)
        assert not entry_path(cache).exists()


class TestSilentFallback:
    @pytest.fixture()
    def rec_path(self, cache):
        cache.publish(KEY, HORIZONS[0], RECORD)
        return entry_path(cache)

    def _expect_fallback(self, cache, path, note_fragment, elapsed=HORIZONS[0]):
        fresh = PlanCache(cache.root)  # clean counters, same directory
        assert fresh.lookup(KEY, elapsed) is None
        assert fresh.counters.as_dict() == {"hits": 0, "misses": 1, "writes": 0, "errors": 1}
        assert any(note_fragment in note for note in fresh.notes), fresh.notes
        assert not path.exists(), "an unusable entry must be evicted"
        return fresh

    def test_corrupt_entry(self, cache, rec_path):
        rec_path.write_bytes(b"this is not a record\n")
        self._expect_fallback(cache, rec_path, "invalid JSON")

    def test_json_that_is_not_an_object(self, cache, rec_path):
        rec_path.write_bytes(b"[1, 2, 3]\n")
        self._expect_fallback(cache, rec_path, "invalid JSON")

    def test_truncated_entry(self, cache, rec_path):
        rec_path.write_bytes(rec_path.read_bytes()[:50])
        self._expect_fallback(cache, rec_path, "truncated record")

    def test_stale_schema_entry(self, cache, rec_path):
        rewrite(rec_path, schema=SCHEMA_VERSION + 1)
        self._expect_fallback(cache, rec_path, "stale record schema")

    def test_entry_filed_under_another_key(self, cache, rec_path):
        rewrite(rec_path, key="f" * 64)
        self._expect_fallback(cache, rec_path, "filed under")

    def test_mislabelled_entry_is_rejected(self, cache, rec_path):
        moved = rec_path.with_name("12345.rec")
        os.rename(rec_path, moved)
        self._expect_fallback(cache, moved, "filed under cycle 12345", elapsed=12345)

    def test_elapsed_of_the_wrong_type(self, cache, rec_path):
        rewrite(rec_path, elapsed=float(HORIZONS[0]))
        self._expect_fallback(cache, rec_path, "filed under cycle")

    def test_checksum_mismatch(self, cache, rec_path):
        entry = json.loads(rec_path.read_bytes())
        entry["stats"]["samples"] += 1
        rec_path.write_text(json.dumps(entry) + "\n")
        self._expect_fallback(cache, rec_path, "checksum mismatch")

    @pytest.mark.parametrize(
        "changes",
        [
            {"activity": {"cpu.active_cycles": "1200"}},
            {"activity": {"cpu.active_cycles": True}},
            {"power_uw": None},
            {"stats": {"nested": {"a": 1}}},
        ],
    )
    def test_field_of_the_wrong_type(self, cache, rec_path, changes):
        # The checksum is recomputed, so only the type check can object.
        rewrite(rec_path, **changes)
        self._expect_fallback(cache, rec_path, "wrong type")

    def test_unusable_entries_are_evicted_so_publish_can_heal(self, cache, rec_path):
        rec_path.write_bytes(b"garbage\n")
        self._expect_fallback(cache, rec_path, "invalid JSON")
        assert cache.publish(KEY, HORIZONS[0], RECORD) is True
        fresh = PlanCache(cache.root)
        assert fresh.lookup(KEY, HORIZONS[0]) == RECORD
        assert fresh.counters.errors == 0

    def test_non_snapshot_files_are_ignored(self, cache, rec_path):
        (rec_path.parent / "README").write_text("not a record")
        (rec_path.parent / "noint.rec").write_text("bad stem")
        (rec_path.parent / f"{HORIZONS[0]}.snap").write_bytes(b"\x80\x05 old snapshot")
        (rec_path.parent / f"{HORIZONS[1]}.snap").write_bytes(b"\x80\x05 old snapshot")
        fresh = PlanCache(cache.root)
        assert fresh.lookup(KEY, HORIZONS[0]) == RECORD
        assert fresh.lookup(KEY, HORIZONS[1]) is None
        assert fresh.counters.errors == 0
        assert (rec_path.parent / f"{HORIZONS[1]}.snap").exists()

    def test_notes_deduplicate(self, cache, rec_path):
        fresh = PlanCache(cache.root)
        for _ in range(3):
            rec_path.write_bytes(b"garbage\n")
            assert fresh.lookup(KEY, HORIZONS[0]) is None
        assert fresh.counters.errors == 3
        assert len(fresh.notes) == 1


class TestStats:
    def test_stats_payload_shape(self, cache):
        cache.publish(KEY, HORIZONS[0], RECORD)
        cache.lookup(KEY, HORIZONS[0])
        cache.lookup("0" * 64, HORIZONS[0])
        payload = cache.stats()
        assert payload["path"] == str(cache.root)
        assert payload["hits"] == 1 and payload["misses"] == 1
        assert payload["writes"] == 1 and payload["errors"] == 0
        assert payload["notes"] == []

    def test_cache_error_is_exported(self):
        assert issubclass(CacheError, Exception)
