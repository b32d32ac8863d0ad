"""Counting tests: no service door does work sized by the tree.

The cache key is O(pairs) (:func:`repro.service.cache.canonical_signature`)
and the network O(touched), so a request on a million-leaf tree should
never write the set out over its leaves.  These tests serve one
well-nested set at n = 2^20 through the batch door, the streaming door and
a 2-tree fabric (a miss, then a hit) while both ways of rendering the
n-character parenthesis profile raise: ``parenthesis_profile`` wherever it
is bound and :attr:`CanonicalKey.placed`.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

import repro.comms.wellnested as wellnested
from repro.comms.generators import random_well_nested
from repro.fabric import FabricController
from repro.service import (
    CanonicalKey,
    RequestStatus,
    SchedulerService,
    StreamingSchedulerService,
    StreamRequest,
    StreamStatus,
    TenantQuota,
)
from repro.service.cache import canonical_signature

N = 1 << 20
PAIRS = 24


@pytest.fixture(autouse=True)
def no_profile(monkeypatch):
    """Make every n-character rendering of a set raise."""

    def refuse(*args, **kwargs):
        raise AssertionError("a door rendered the n-leaf parenthesis profile")

    original = wellnested.parenthesis_profile
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro"):
            for name, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(CanonicalKey, "placed", property(refuse))


@pytest.fixture
def cset():
    return random_well_nested(PAIRS, N, np.random.default_rng(26))


def test_batch_door(cset):
    with SchedulerService(workers=1) as svc:
        for from_cache in (False, True):
            ticket = svc.submit(cset, n_leaves=N)
            result = svc.drain().results[ticket.id]
            assert result.status is RequestStatus.DONE, result.error
            assert result.from_cache is from_cache


def test_streaming_door(cset):
    svc = StreamingSchedulerService(default_quota=TenantQuota(rate=100.0, burst=100.0))
    report = svc.run([StreamRequest(cset=cset, n_leaves=N)])
    report = svc.run([StreamRequest(cset=cset, n_leaves=N)])
    assert [r.status for r in report.results.values()] == [StreamStatus.DONE] * 2
    assert [r.from_cache for r in report.results.values()] == [False, True]


def test_two_tree_fabric(cset):
    with FabricController(2, N, parallel=False) as fabric:
        svc = SchedulerService(fabric=fabric)
        for from_cache in (False, True):
            ticket = svc.submit(cset, n_leaves=N)
            result = svc.drain().results[ticket.id]
            assert result.status is RequestStatus.DONE, result.error
            assert result.from_cache is from_cache
        assert sum(fabric.shard_load) == 1


def test_key_is_sized_by_pairs(cset):
    key = canonical_signature(cset, N)
    assert len(key.dyck) == len(key.pairs) == 2 * PAIRS
