"""Canonical signatures and the S3-FIFO schedule cache."""

from __future__ import annotations

import pytest

from repro.comms.communication import Communication, CommunicationSet
from repro.core.config import SchedulerConfig
from repro.exceptions import OrientationError, SchedulingError
from repro.obs import MetricsRegistry
from repro.service.cache import ScheduleCache, canonical_signature


def cs(*pairs):
    return CommunicationSet([Communication(s, d) for s, d in pairs])


class TestCanonicalSignature:
    def test_dyck_is_relabelling_invariant(self):
        a = canonical_signature(cs((0, 3), (1, 2)), 8)
        b = canonical_signature(cs((2, 7), (4, 5)), 8)
        assert a.dyck == b.dyck == "(())"
        # ...but the placed profiles (and hence cache keys) differ
        assert a.placed != b.placed
        assert a.cache_key != b.cache_key

    def test_placed_profile_pins_geometry(self):
        a = canonical_signature(cs((0, 3)), 8)
        assert a.placed == "(..)...."
        assert a.n_leaves == 8

    def test_config_is_part_of_the_key(self):
        fast = canonical_signature(cs((0, 1)), 8)
        ref = canonical_signature(
            cs((0, 1)), 8, config=SchedulerConfig(engine="reference")
        )
        assert fast.cache_key != ref.cache_key

    def test_left_oriented_rejected(self):
        with pytest.raises(OrientationError):
            canonical_signature(cs((3, 0)), 8)

    def test_oversized_set_rejected(self):
        with pytest.raises(SchedulingError, match="does not fit"):
            canonical_signature(cs((0, 12)), 8)


class TestScheduleCache:
    def test_eviction_spares_the_reread_key(self):
        cache = ScheduleCache(capacity=2)
        k1 = canonical_signature(cs((0, 1)), 8)
        k2 = canonical_signature(cs((2, 3)), 8)
        k3 = canonical_signature(cs((4, 5)), 8)
        cache.put(k1, {"v": 1})
        cache.put(k2, {"v": 2})
        assert cache.get(k1) == {"v": 1}  # k1 read again: it moves to main
        cache.put(k3, {"v": 3})  # evicts k2, never read
        assert cache.get(k2) is None
        assert cache.get(k1) == {"v": 1}
        assert cache.get(k3) == {"v": 3}
        assert cache.evictions == 1

    def test_metrics_emitted(self):
        registry = MetricsRegistry()
        cache = ScheduleCache(capacity=1, metrics=registry, run="t")
        key = canonical_signature(cs((0, 1)), 8)
        other = canonical_signature(cs((2, 3)), 8)
        cache.get(key)
        cache.put(key, {})
        cache.get(key)
        cache.put(other, {})  # evicts
        counters = registry.snapshot()["counters"]
        assert counters["service.cache.hits{run=t}"] == 1
        assert counters["service.cache.misses{run=t}"] == 1
        assert counters["service.cache.evictions{run=t}"] == 1

    def test_hit_rate(self):
        cache = ScheduleCache(capacity=4)
        key = canonical_signature(cs((0, 1)), 8)
        cache.get(key)
        cache.put(key, {})
        cache.get(key)
        assert cache.hit_rate == 0.5

    def test_capacity_validated(self):
        with pytest.raises(SchedulingError):
            ScheduleCache(capacity=0)


# ---------------------------------------------------------------------------
# refresh semantics and counter consistency
# ---------------------------------------------------------------------------

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


class TestCacheRefresh:
    def test_put_existing_refreshes_recency_without_evicting(self):
        cache = ScheduleCache(capacity=2)
        k1 = canonical_signature(cs((0, 1)), 8)
        k2 = canonical_signature(cs((2, 3)), 8)
        k3 = canonical_signature(cs((4, 5)), 8)
        cache.put(k1, {"v": 1})
        cache.put(k2, {"v": 2})
        cache.put(k1, {"v": "fresh"})  # refresh, not a second insert
        assert len(cache) == 2
        assert cache.evictions == 0
        cache.put(k3, {"v": 3})  # the refresh read k1: k2 goes, not k1
        assert cache.get(k2) is None
        assert cache.get(k1) == {"v": "fresh"}
        assert cache.get(k3) == {"v": 3}

    def test_refresh_keeps_size_gauge_at_one(self):
        registry = MetricsRegistry()
        cache = ScheduleCache(capacity=2, metrics=registry, run="t")
        k1 = canonical_signature(cs((0, 1)), 8)
        cache.put(k1, {"v": 1})
        cache.put(k1, {"v": 2})
        assert len(cache) == 1
        assert registry.snapshot()["gauges"]["service.cache.size{run=t}"] == 1

    def test_clear_empties_entries_but_keeps_history(self):
        cache = ScheduleCache(capacity=2)
        k1 = canonical_signature(cs((0, 1)), 8)
        cache.get(k1)  # miss
        cache.put(k1, {"v": 1})
        cache.get(k1)  # hit
        cache.clear()
        assert len(cache) == 0
        assert cache.get(k1) is None
        # hit/miss history survives a clear — hit_rate is lifetime.
        assert cache.hits == 1
        assert cache.misses == 2
        assert cache.hit_rate == pytest.approx(1 / 3)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["get", "put", "clear"]),
            st.integers(min_value=0, max_value=3),
        ),
        max_size=40,
    )
)
def test_cache_counters_stay_consistent_under_interleavings(ops):
    """hit/miss accounting, bounded size and the size gauge hold under
    any get/put/clear interleaving (the satellite's property test)."""
    registry = MetricsRegistry()
    cache = ScheduleCache(capacity=2, metrics=registry, run="p")
    keys = [canonical_signature(cs((2 * i, 2 * i + 1)), 8) for i in range(4)]
    last_put: dict[int, dict] = {}
    n_gets = 0
    for seq, (op, idx) in enumerate(ops):
        if op == "get":
            n_gets += 1
            got = cache.get(keys[idx])
            # a hit always returns the *latest* payload put for the key
            assert got is None or got == last_put[idx]
        elif op == "put":
            payload = {"v": (idx, seq)}
            cache.put(keys[idx], payload)
            last_put[idx] = payload
            assert cache.get(keys[idx]) == payload
            n_gets += 1
        else:
            cache.clear()
            last_put.clear()
        assert len(cache) <= cache.capacity
        assert cache.hits + cache.misses == n_gets
        expected_rate = cache.hits / n_gets if n_gets else 0.0
        assert cache.hit_rate == pytest.approx(expected_rate)
        gauges = registry.snapshot()["gauges"]
        if "service.cache.size{run=p}" in gauges:
            assert gauges["service.cache.size{run=p}"] == len(cache)


class TestUndersizedWidthRegression:
    """Satellite regression: ``canonical_signature`` used to swallow the
    IndexError from an undersized explicit width and mint the key the set
    would have at its *minimum* width — so a request for ``k`` leaves,
    ``max_pe < k < min_leaves``, silently collided with genuine
    ``min_leaves`` entries in the shared cache."""

    def test_boundary_width_rejected(self):
        cset = cs((0, 4))  # min_leaves == 8
        with pytest.raises(SchedulingError, match="at least 8"):
            canonical_signature(cset, 7)  # k == min_leaves - 1

    def test_every_undersized_width_rejected_no_key_minted(self):
        cset = cs((0, 4))  # max_pe == 4, min_leaves == 8
        for k in (5, 6, 7):
            with pytest.raises(SchedulingError):
                canonical_signature(cset, k)

    def test_legal_boundary_width_still_keys(self):
        cset = cs((0, 4))
        sig = canonical_signature(cset, 8)
        assert sig.n_leaves == 8
        assert canonical_signature(cset, 16).cache_key != sig.cache_key

    def test_default_width_is_the_minimum(self):
        cset = cs((0, 4))
        assert canonical_signature(cset, None).n_leaves == 8


# ---------------------------------------------------------------------------
# the S3-FIFO policy against its reference model
# ---------------------------------------------------------------------------

from tests.util.cache_models import LruModel, S3FifoModel  # noqa: E402

#: distinct placed keys, one pair each
MODEL_KEYS = [canonical_signature(cs((2 * i, 2 * i + 1)), 64) for i in range(26)]


@st.composite
def cache_ops(draw, capacity):
    """Operations over about twice ``capacity`` keys, so keys are dropped
    and come back: ``request`` is the services' pattern (a get, then a put
    on a miss); a ``put`` may read its key back at once, as a follower
    does."""
    keys = st.integers(min_value=0, max_value=min(2 * capacity + 1, len(MODEL_KEYS) - 1))
    op = st.sampled_from(["request"] * 6 + ["get", "put", "put_read", "clear"])
    return draw(st.lists(st.tuples(op, keys), min_size=40, max_size=200))


def apply(cache, model, op, i, seq):
    """Run one operation on the cache and the model; they must agree."""
    key = MODEL_KEYS[i]
    if op == "clear":
        cache.clear()
        model.clear()
        return
    if op in ("get", "request"):
        hit = cache.get(key) is not None
        assert hit == model.get(i)
        if hit or op == "get":
            return
    cache.put(key, {"v": seq})
    model.put(i)
    if op == "put_read":
        # the pipeline's follower path asserts exactly this
        assert cache.get(key) == {"v": seq}
        assert model.get(i)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_cache_follows_the_s3fifo_model(data):
    capacity = data.draw(st.integers(min_value=1, max_value=12))
    cache, model = ScheduleCache(capacity), S3FifoModel(capacity)
    for seq, (op, i) in enumerate(data.draw(cache_ops(capacity))):
        apply(cache, model, op, i, seq)
        assert len(cache) == len(model) <= capacity
        assert cache.evictions == model.evictions


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_clear_forgets_ghost_keys_and_read_counts(data):
    """After ``clear()`` the cache follows a fresh model: no ghost key or
    read count survives it."""
    capacity = data.draw(st.integers(min_value=1, max_value=12))
    cache, history = ScheduleCache(capacity), S3FifoModel(capacity)
    for seq, (op, i) in enumerate(data.draw(cache_ops(capacity))):
        apply(cache, history, op, i, seq)
    cache.clear()
    evicted, model = cache.evictions, S3FifoModel(capacity)
    for seq, (op, i) in enumerate(data.draw(cache_ops(capacity))):
        apply(cache, model, op, i, seq)
        assert cache.evictions - evicted == model.evictions


def test_s3fifo_misses_less_than_lru_on_zipf_traffic():
    """Why the policy is S3-FIFO: on a skewed stream (Zipf(1.1) over 2000
    keys, the shape of ``batch_repeat``'s catalogue) at the default
    capacity it misses less often than the LRU policy it replaced."""
    import numpy as np

    keys = [canonical_signature(cs((2 * i, 2 * i + 1)), 4096) for i in range(2000)]
    weights = 1.0 / np.arange(1, len(keys) + 1) ** 1.1
    stream = np.random.default_rng(2026).choice(
        len(keys), size=20_000, p=weights / weights.sum()
    )
    cache, lru = ScheduleCache(256), LruModel(256)
    lru_misses = 0
    for k in stream.tolist():
        if cache.get(keys[k]) is None:
            cache.put(keys[k], {})
        if not lru.get(k):
            lru_misses += 1
            lru.put(k)
    assert cache.misses < lru_misses
