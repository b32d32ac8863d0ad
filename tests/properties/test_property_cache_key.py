"""The O(pairs) cache key is exactly as exact as the placed profile.

``canonical_signature`` keys a set on ``(n_leaves, flat endpoints,
config)`` and renders ``placed`` only when read.  Two sets share a key
exactly when their width, config and pairing are equal; for well-nested
sets that is exactly when their placed parenthesis profiles are equal.
The ``dyck`` and ``placed`` strings equal the profile-based forms the key
was once built from.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comms.communication import CommunicationSet
from repro.comms.wellnested import is_well_nested, parenthesis_profile
from repro.core.config import SchedulerConfig
from repro.service.cache import canonical_signature
from tests.conftest import arbitrary_set_st, wellnested_set_st

AUTO = SchedulerConfig(decompose="auto")
CONFIGS = (AUTO, SchedulerConfig(decompose="auto", engine="reference"))
WIDTHS = (32, 64)


@st.composite
def set_pair(draw, sets):
    """Two sets that are often the same pairing, sometimes only the same
    shape (one set shifted along the leaves), otherwise independent."""
    a = draw(sets)
    how = draw(st.sampled_from(["same", "shifted", "other"]))
    if how == "same":
        b = CommunicationSet(list(a))
    elif how == "shifted" and a.max_pe < 31:
        b = CommunicationSet(type(c)(c.src + 1, c.dst + 1) for c in a)
    else:
        b = draw(sets)
    return a, b


def profile_dyck(cset: CommunicationSet, n: int) -> tuple[str, str]:
    """``(dyck, placed)`` the way the key once built them."""
    if is_well_nested(cset):
        placed = parenthesis_profile(cset, n)
        return placed.replace(".", ""), placed
    rank = {c: i for i, c in enumerate(cset)}
    events = sorted(
        [(c.src, "s", rank[c]) for c in cset] + [(c.dst, "d", rank[c]) for c in cset]
    )
    dyck = "G:" + "".join(f"{kind}{r}" for _, kind, r in events)
    return dyck, "G:" + ",".join(f"{c.src}>{c.dst}" for c in cset)


@settings(max_examples=300, deadline=None)
@given(
    set_pair(wellnested_set_st(max_pairs=8, n_leaves=32)),
    st.sampled_from(WIDTHS),
    st.sampled_from(WIDTHS),
    st.sampled_from(CONFIGS),
    st.sampled_from(CONFIGS),
)
def test_well_nested_keys_equal_exactly_when_profiles_do(sets, na, nb, ca, cb):
    a, b = sets
    ka = canonical_signature(a, na, config=ca)
    kb = canonical_signature(b, nb, config=cb)
    same_profile = parenthesis_profile(a, na) == parenthesis_profile(b, nb)
    assert (ka.cache_key == kb.cache_key) == (same_profile and ca == cb)
    assert (ka.cache_key == kb.cache_key) == (na == nb and ca == cb and set(a) == set(b))


@settings(max_examples=300, deadline=None)
@given(
    set_pair(arbitrary_set_st(max_pairs=6, n_leaves=32)),
    st.sampled_from(WIDTHS),
    st.sampled_from(WIDTHS),
    st.sampled_from(CONFIGS),
    st.sampled_from(CONFIGS),
)
def test_keys_equal_exactly_when_pairings_do(sets, na, nb, ca, cb):
    a, b = sets
    ka = canonical_signature(a, na, config=ca)
    kb = canonical_signature(b, nb, config=cb)
    assert (ka.cache_key == kb.cache_key) == (na == nb and ca == cb and set(a) == set(b))


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        wellnested_set_st(max_pairs=10, n_leaves=64),
        arbitrary_set_st(max_pairs=8, n_leaves=64),
    ),
    st.sampled_from((64, 128)),
)
def test_dyck_and_placed_match_the_profile_forms(cset, n):
    key = canonical_signature(cset, n, config=AUTO)
    assert (key.dyck, key.placed) == profile_dyck(cset, n)
    assert key.general is not is_well_nested(cset)
    assert key.pairs == tuple(end for c in cset for end in (c.src, c.dst))
