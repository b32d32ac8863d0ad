"""Unit and property tests for well-nested decomposition of arbitrary sets."""

import bisect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comms.communication import Communication, CommunicationSet
from repro.comms.decompose import (
    Batch,
    _first_fit_layers,
    crossing_lower_bound,
    decompose,
    max_crossing_degree,
)
from repro.comms.generators import (
    crossing_chain,
    paper_figure2_set,
    random_arbitrary,
)
from repro.comms.wellnested import is_well_nested
from tests.conftest import arbitrary_set_st, communication_st, wellnested_set_st


def cs(*pairs):
    return CommunicationSet([Communication(s, d) for s, d in pairs])


class TestDecomposeBasics:
    def test_empty_set_yields_no_batches(self):
        dec = decompose(CommunicationSet(()))
        assert dec.n_batches == 0
        assert dec.lower_bound == 0
        assert dec.is_trivial  # nothing to schedule: directly servable
        assert dec.union() == CommunicationSet(())

    def test_well_nested_input_is_one_identical_batch(self):
        cset = paper_figure2_set()
        dec = decompose(cset)
        assert dec.n_batches == 1
        assert dec.is_trivial
        assert dec.batches[0].orientation == "right"
        assert dec.batches[0].cset == cset

    def test_crossing_pair_splits_into_two_batches(self):
        dec = decompose(cs((0, 2), (1, 3)))
        assert dec.n_batches == 2
        assert dec.lower_bound == 2
        assert dec.bound_gap == 0

    def test_left_oriented_set_is_one_left_batch(self):
        cset = cs((7, 0), (5, 2))
        dec = decompose(cset)
        assert dec.n_batches == 1
        assert dec.batches[0].orientation == "left"
        assert not dec.is_trivial
        assert is_well_nested(dec.batches[0].well_nested_form(8))

    def test_orientations_never_mix_within_a_batch(self):
        dec = decompose(cs((0, 3), (6, 5), (1, 2), (9, 8)))
        for batch in dec:
            orientations = {
                "right" if c.src < c.dst else "left" for c in batch.cset
            }
            assert len(orientations) == 1

    def test_right_batches_precede_left_batches(self):
        dec = decompose(cs((0, 2), (1, 3), (9, 8), (7, 4)))
        labels = [b.orientation for b in dec]
        assert labels == sorted(labels, key=lambda o: o != "right")

    def test_crossing_ladder_two_colours(self):
        # adjacent rungs cross pairwise but no triple does: the largest
        # clique is 2, and first-fit two-colours the ladder.
        cset = cs((0, 2), (1, 4), (3, 6), (5, 7))
        dec = decompose(cset)
        assert dec.lower_bound == 2
        assert dec.n_batches == 2

    def test_width_chain_is_already_well_nested(self):
        # the width-stress chain nests (it never crosses): one batch.
        dec = decompose(crossing_chain(6))
        assert dec.n_batches == 1
        assert dec.is_trivial

    def test_batch_indices_are_sequential(self):
        dec = decompose(cs((0, 2), (1, 3), (9, 8)))
        assert [b.index for b in dec] == list(range(dec.n_batches))


class TestBounds:
    def test_max_crossing_degree_counts_the_worst_interval(self):
        # (0,4) crosses (1,5), (2,6) and (3,7): degree 3
        comms = cs((0, 4), (1, 5), (2, 6), (3, 7)).comms
        assert max_crossing_degree(comms) == 3

    def test_lower_bound_on_pairwise_crossing_clique(self):
        comms = cs((0, 4), (1, 5), (2, 6), (3, 7)).comms
        assert crossing_lower_bound(comms) == 4

    def test_lower_bound_ignores_nested_pairs(self):
        comms = cs((0, 7), (1, 6), (2, 5)).comms
        assert crossing_lower_bound(comms) == 1

    def test_empty_bounds(self):
        assert max_crossing_degree(()) == 0
        assert crossing_lower_bound(()) == 0


class TestDecomposeProperties:
    @given(cset=arbitrary_set_st(max_pairs=8))
    @settings(max_examples=120, deadline=None)
    def test_every_batch_is_well_nested(self, cset):
        n = cset.min_leaves()
        for batch in decompose(cset):
            assert is_well_nested(batch.well_nested_form(n))

    @given(cset=arbitrary_set_st(max_pairs=8))
    @settings(max_examples=120, deadline=None)
    def test_union_of_batches_equals_input_exactly(self, cset):
        dec = decompose(cset)
        assert sorted(dec.union().comms) == sorted(cset.comms)
        # exact partition: no communication appears in two batches
        assert sum(len(b) for b in dec) == len(cset)

    @given(cset=arbitrary_set_st(max_pairs=8))
    @settings(max_examples=120, deadline=None)
    def test_batch_count_between_certified_bounds(self, cset):
        dec = decompose(cset)
        right = cset.right_oriented_subset()
        left = cset.left_oriented_subset()
        greedy = sum(
            max_crossing_degree(subset.comms) + 1
            for subset in (right, left)
            if len(subset)
        )
        assert dec.lower_bound <= dec.n_batches <= greedy

    @given(cset=wellnested_set_st(max_pairs=8))
    @settings(max_examples=80, deadline=None)
    def test_well_nested_inputs_yield_one_identical_batch(self, cset):
        dec = decompose(cset)
        assert dec.n_batches == 1
        assert dec.is_trivial
        assert dec.batches[0].cset == cset

    @given(cset=arbitrary_set_st(max_pairs=8))
    @settings(max_examples=60, deadline=None)
    def test_decomposition_is_deterministic(self, cset):
        a, b = decompose(cset), decompose(cset)
        assert [x.cset for x in a] == [x.cset for x in b]
        assert [x.orientation for x in a] == [x.orientation for x in b]


class TestRandomArbitraryGenerator:
    def test_deterministic_per_seed(self):
        a = random_arbitrary(12, 64, np.random.default_rng(5))
        b = random_arbitrary(12, 64, np.random.default_rng(5))
        assert a == b

    def test_endpoints_distinct_and_in_range(self):
        cset = random_arbitrary(16, 64, np.random.default_rng(0))
        endpoints = [e for c in cset for e in (c.src, c.dst)]
        assert len(set(endpoints)) == len(endpoints) == 32
        assert all(0 <= e < 64 for e in endpoints)

    def test_too_many_pairs_rejected(self):
        from repro.exceptions import CommunicationError

        with pytest.raises(CommunicationError):
            random_arbitrary(33, 64, np.random.default_rng(0))

    def test_empty_draw(self):
        assert len(random_arbitrary(0, 8, np.random.default_rng(0))) == 0


class TestBatchShape:
    def test_batch_is_frozen(self):
        batch = decompose(cs((0, 1))).batches[0]
        assert isinstance(batch, Batch)
        with pytest.raises(AttributeError):
            batch.orientation = "left"

    def test_left_well_nested_form_mirrors(self):
        batch = decompose(cs((3, 0))).batches[0]
        assert batch.well_nested_form(4) == cs((3, 0)).mirrored(4)


# -- the pairwise oracle ------------------------------------------------------
# The decomposition's first implementation, comparing intervals through the
# Communication properties.  The int-span rewrite must agree with it exactly.


def _oracle_crosses(a, b):
    return (
        a.leftmost < b.leftmost <= a.rightmost < b.rightmost
        or b.leftmost < a.leftmost <= b.rightmost < a.rightmost
    )


def _oracle_first_fit_layers(comms):
    layers = []
    for c in sorted(comms, key=lambda c: (c.leftmost, -c.rightmost)):
        for layer in layers:
            if not any(_oracle_crosses(c, other) for other in layer):
                layer.append(c)
                break
        else:
            layers.append([c])
    return layers


def _oracle_max_crossing_degree(comms):
    items = list(comms)
    best = 0
    for i, a in enumerate(items):
        deg = sum(1 for j, b in enumerate(items) if i != j and _oracle_crosses(a, b))
        best = max(best, deg)
    return best


def _oracle_crossing_lower_bound(comms):
    items = sorted(comms, key=lambda c: c.leftmost)
    if not items:
        return 0
    best = 1
    for f in items:
        eligible = [
            c.rightmost
            for c in items
            if f.leftmost < c.leftmost <= f.rightmost < c.rightmost
        ]
        tails = []
        for r in eligible:
            pos = bisect.bisect_left(tails, r)
            if pos == len(tails):
                tails.append(r)
            else:
                tails[pos] = r
        best = max(best, 1 + len(tails))
    return best


def _oracle_batches(cset):
    out = []
    for orientation, subset in (
        ("right", cset.right_oriented_subset()),
        ("left", cset.left_oriented_subset()),
    ):
        if len(subset):
            out += [
                (orientation, list(CommunicationSet(layer).comms))
                for layer in _oracle_first_fit_layers(subset.comms)
            ]
    return out


class TestIntSpansMatchThePairwiseOracle:
    """The int-span scans give the pairwise code's batches, in its order,
    and both of its bounds."""

    @given(cset=arbitrary_set_st(max_pairs=24, n_leaves=128))
    @settings(max_examples=200, deadline=None)
    def test_decomposition_equals_oracle(self, cset):
        dec = decompose(cset)
        assert [(b.orientation, list(b.cset.comms)) for b in dec] == _oracle_batches(cset)
        assert [b.index for b in dec] == list(range(dec.n_batches))
        lower = sum(
            _oracle_crossing_lower_bound(subset.comms)
            for subset in (cset.right_oriented_subset(), cset.left_oriented_subset())
            if len(subset)
        )
        assert dec.lower_bound == lower

    @given(comms=st.lists(communication_st(n_leaves=24), max_size=16))
    @settings(max_examples=300, deadline=None)
    def test_bounds_equal_oracle_on_any_intervals(self, comms):
        # shared endpoints, repeats and equal left ends included: the bound
        # functions accept any iterable of communications
        assert max_crossing_degree(comms) == _oracle_max_crossing_degree(comms)
        assert crossing_lower_bound(comms) == _oracle_crossing_lower_bound(comms)
        assert _first_fit_layers(comms) == _oracle_first_fit_layers(comms)
