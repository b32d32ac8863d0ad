"""Columnar-kernel properties: fast-engine parity, batch parity and
shape-key invariance.

The columnar kernel carries three contracts beyond the pairwise engine
equality exercised in ``test_property_differential``:

* at every tree size ``engine="auto"`` serves (2 to 1024 leaves here) and
  under every power policy the kernel equals ``engine="fast"``: every
  serialized field, and a caller-supplied network's final state;
* ``schedule_batch`` over any mix of sets is bit-identical to scheduling
  each set solo — batching is a pure throughput optimisation;
* the service layer's same-shape grouping key ``(n_leaves, dyck,
  config)`` is invariant under relabelling, i.e. it is exactly the
  coarsening of PR-4's canonical cache key that forgets leaf geometry
  but keeps structure.  Two placements of the same Dyck word always land
  in the same batch group.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comms.generators import from_dyck_word
from repro.core.columnar import schedule_batch
from repro.core.config import SchedulerConfig
from repro.core.csa import PADRScheduler
from repro.cst.engine import ColumnarWaveEngine
from repro.cst.network import CSTNetwork
from repro.cst.power import PowerPolicy
from repro.io import result_to_dict
from repro.service.cache import canonical_signature

from tests.conftest import dyck_word_st, wellnested_set_st

N = 64


def _solo(cset, config=None):
    cfg = config or SchedulerConfig(validate_input=False, engine="auto")
    return PADRScheduler(config=cfg).schedule(cset, n_leaves=N)


def _assert_schedules_equal(a, b):
    assert [r.performed for r in a.rounds] == [r.performed for r in b.rounds]
    assert [r.writers for r in a.rounds] == [r.writers for r in b.rounds]
    assert [r.staged for r in a.rounds] == [r.staged for r in b.rounds]
    assert a.power.total_units == b.power.total_units
    assert a.power.per_switch_units == b.power.per_switch_units
    assert a.power.per_switch_changes == b.power.per_switch_changes
    assert a.control_messages == b.control_messages
    assert a.control_words == b.control_words
    assert a.physical_messages == b.physical_messages


@given(csets=st.lists(wellnested_set_st(max_pairs=6), min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_batch_matches_solo_schedules(csets):
    """One kernel invocation over B sets == B independent runs, bit for bit.

    The sets are *not* required to share a shape — grouping only improves
    lockstep, never correctness.
    """
    cfg = SchedulerConfig(validate_input=False, engine="auto")
    batched = schedule_batch(csets, n_leaves=N, config=cfg)
    assert len(batched) == len(csets)
    for cset, got in zip(csets, batched):
        _assert_schedules_equal(got, _solo(cset, cfg))


@given(
    word=dyck_word_st(max_pairs=8),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_shape_key_is_relabelling_invariant(word, data):
    """Two placements of one Dyck word share the batch-group shape key.

    The service groups on ``(n_leaves, dyck, config)`` — the canonical
    signature with the leaf geometry (``placed``) forgotten.  Any
    relabelling that preserves structure must therefore preserve the
    group, and sets that agree on the full cache key trivially agree on
    the shape key (the shape key is a coarsening, never a refinement).
    """
    k = len(word)
    positions_st = st.sets(
        st.integers(min_value=0, max_value=N - 1), min_size=k, max_size=k
    )
    a = from_dyck_word(word, sorted(data.draw(positions_st)))
    b = from_dyck_word(word, sorted(data.draw(positions_st)))
    cfg = SchedulerConfig(engine="auto")
    sig_a = canonical_signature(a, N, config=cfg)
    sig_b = canonical_signature(b, N, config=cfg)
    shape_a = (sig_a.n_leaves, sig_a.dyck, sig_a.config)
    shape_b = (sig_b.n_leaves, sig_b.dyck, sig_b.config)
    assert sig_a.dyck == word == sig_b.dyck
    assert shape_a == shape_b
    # coarsening: identical cache keys imply identical shape keys.
    if sig_a.cache_key == sig_b.cache_key:
        assert shape_a == shape_b


POLICIES = (PowerPolicy.paper(), PowerPolicy.htree(), PowerPolicy(unit_cost=2))
FAST = SchedulerConfig(engine="fast")
KERNEL = SchedulerConfig(engine="auto")


@st.composite
def sized_sets_st(draw, max_sets: int = 4):
    """``(n, sets)``: 1..max_sets well-nested sets on one 2..1024-leaf tree."""
    n = 1 << draw(st.integers(min_value=1, max_value=10))
    csets = draw(
        st.lists(
            wellnested_set_st(max_pairs=min(12, n // 2), n_leaves=n),
            min_size=1,
            max_size=max_sets,
        )
    )
    return n, csets


def _network_state(net):
    switches = {
        v: (sw.configuration, sw.config_changes, sw.rounds_committed)
        for v, sw in net.switches.items()
    }
    meter = net.meter
    return switches, meter.total_units, meter.total_changes, net.rounds_run


@given(
    sized=sized_sets_st(),
    policy=st.sampled_from(POLICIES),
    with_network=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_kernel_matches_fast_engine(sized, policy, with_network):
    """The kernel equals ``engine="fast"`` at every size, under every policy.

    Every ``result_to_dict`` field matches for the first set run solo and
    for every set of a mixed-shape ``schedule_batch``; a solo run on a
    caller-supplied network also leaves it in the fast engine's final
    state (crossbars, per-switch changes and commits, meter totals,
    ``rounds_run``).
    """
    n, csets = sized
    fast = PADRScheduler(config=FAST)
    kernel = PADRScheduler(config=KERNEL)
    want = [fast.schedule(cs, n_leaves=n, policy=policy) for cs in csets]
    batched = schedule_batch(csets, n_leaves=n, config=KERNEL, policy=policy)
    for got, ref in zip(batched, want):
        assert result_to_dict(got) == result_to_dict(ref)

    if with_network:
        net_fast = CSTNetwork.of_size(n, policy=policy)
        net_kernel = CSTNetwork.of_size(n, policy=policy)
        ref = fast.schedule(csets[0], network=net_fast)
        got = kernel.schedule(csets[0], network=net_kernel)
        assert _network_state(net_kernel) == _network_state(net_fast)
    else:
        ref = want[0]
        got = kernel.schedule(csets[0], n_leaves=n, policy=policy)
    assert kernel.last_states is None  # the kernel ran, not the scalar path
    assert result_to_dict(got) == result_to_dict(ref)
    assert [r.staged for r in got.rounds] == [r.staged for r in ref.rounds]


@given(cset=wellnested_set_st(max_pairs=6))
@settings(max_examples=30, deadline=None)
def test_engine_factory_and_config_dispatch_agree(cset):
    """Selecting columnar by factory or by config string is the same run."""
    by_config = _solo(cset)
    by_factory = PADRScheduler(
        validate_input=False, engine_factory=ColumnarWaveEngine
    ).schedule(cset, n_leaves=N)
    _assert_schedules_equal(by_config, by_factory)
