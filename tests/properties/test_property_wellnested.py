"""Property-based tests of the well-nested communication model."""

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comms.communication import Communication, CommunicationSet
from repro.comms.dyck import is_dyck_word
from repro.comms.generators import from_dyck_word
from repro.comms.wellnested import (
    is_well_nested,
    nesting_depths,
    nesting_forest,
    parenthesis_profile,
)
from repro.comms.width import edge_loads, width
from repro.cst.topology import CSTTopology

from tests.conftest import arbitrary_set_st, dyck_word_st, wellnested_set_st

TOPO = CSTTopology.of(64)


@given(wellnested_set_st())
@settings(max_examples=200, deadline=None)
def test_profile_roundtrips_through_from_dyck_word(cset):
    """parenthesis_profile and from_dyck_word are inverse (up to placement)."""
    profile = parenthesis_profile(cset, 64)
    word = profile.replace(".", "")
    positions = [i for i, ch in enumerate(profile) if ch != "."]
    assert is_dyck_word(word)
    assert from_dyck_word(word, positions) == cset


@given(wellnested_set_st())
@settings(max_examples=200, deadline=None)
def test_no_two_communications_cross(cset):
    """The defining geometric property: intervals nest or are disjoint."""
    comms = list(cset)
    for i, a in enumerate(comms):
        for b in comms[i + 1 :]:
            crossing = (
                a.leftmost < b.leftmost <= a.rightmost < b.rightmost
                or b.leftmost < a.leftmost <= b.rightmost < a.rightmost
            )
            assert not crossing


@given(wellnested_set_st())
@settings(max_examples=200, deadline=None)
def test_removing_any_communication_preserves_well_nestedness(cset):
    if len(cset) == 0:
        return
    for skip in range(len(cset)):
        sub = CommunicationSet(c for i, c in enumerate(cset) if i != skip)
        assert is_well_nested(sub)


@given(wellnested_set_st())
@settings(max_examples=200, deadline=None)
def test_forest_depths_consistent(cset):
    forest = nesting_forest(cset)
    depths = nesting_depths(cset)
    for c, parent in forest.items():
        if parent is None:
            assert depths[c] == 0
        else:
            assert depths[c] == depths[parent] + 1


@given(wellnested_set_st())
@settings(max_examples=200, deadline=None)
def test_width_at_most_max_depth_plus_one(cset):
    """Same-edge users form nesting chains, so width <= deepest chain."""
    if len(cset) == 0:
        return
    depths = nesting_depths(cset)
    assert width(cset, TOPO) <= max(depths.values()) + 1


@given(wellnested_set_st())
@settings(max_examples=200, deadline=None)
def test_edge_loads_sum_equals_total_path_edges(cset):
    loads = edge_loads(cset, TOPO)
    total_edges = sum(len(TOPO.path_edges(c.src, c.dst)) for c in cset)
    assert sum(loads.values()) == total_edges


@given(dyck_word_st(max_pairs=12))
@settings(max_examples=200, deadline=None)
def test_mirroring_preserves_nesting_structure(word):
    cset = from_dyck_word(word)
    n = 64
    mirrored = cset.mirrored(n)
    # mirrored set is left-oriented; re-mirroring restores the original
    assert mirrored.is_left_oriented
    assert mirrored.mirrored(n) == cset
    # depths are preserved under reflection
    back = mirrored.mirrored(n)
    assert nesting_depths(back) == nesting_depths(cset)


@given(arbitrary_set_st(max_pairs=8))
@settings(max_examples=300, deadline=None)
def test_is_well_nested_matches_the_definition(cset):
    """The one-sweep recogniser agrees with the definition: every
    communication right-oriented and no two of them crossing."""

    def crossing(a, b):
        return a.src < b.src < a.dst < b.dst or b.src < a.src < b.dst < a.dst

    expected = all(c.src < c.dst for c in cset) and not any(
        crossing(a, b) for a, b in combinations(cset, 2)
    )
    assert is_well_nested(cset) == expected
