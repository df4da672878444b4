"""Persistent, content-addressed caches shared across workers and fleets.

The first (and so far only) resident is :class:`PlanCache` — the
point-record cache behind ``sweep --plan-cache DIR`` and the fleet
controller's shared warm-start directory.  Entries are small JSON records.
See :mod:`repro.cache.plan_cache` for the key scheme and
the never-wrong-results contract.
"""

from repro.cache.plan_cache import CacheError, PlanCache, group_cache_key

__all__ = ["CacheError", "PlanCache", "group_cache_key"]
