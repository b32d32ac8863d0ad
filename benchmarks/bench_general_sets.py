"""GEN — arbitrary communication sets via well-nested decomposition (§6).

Extends the paper's future-work direction: crossing pairs and mixed
orientations are decomposed into well-nested batches
(:func:`repro.comms.decompose.decompose`) and scheduled by
:func:`repro.core.plan.schedule_general`, which reports both the rounds a
batch-after-batch execution takes (``sequential_rounds``) and the rounds
of the packed plan it actually runs (``rounds_used``).  Expected shape:
packing never uses more rounds, and opposite orientations overlap almost
freely.
"""

import numpy as np

from repro.analysis.verifier import verify_schedule
from repro.comms.communication import Communication, CommunicationSet
from repro.core.plan import schedule_general

from conftest import emit


def _crossing_ladder(k: int, spread: int = 2) -> CommunicationSet:
    """k pairwise-crossing pairs: (0,k), (1,k+1), ... — worst layering case."""
    return CommunicationSet(
        Communication(i, i + k) for i in range(0, k)
    )


def test_gen_crossing_ladder_layering(benchmark):
    """Fully crossing sets need one layer per communication."""
    sizes = [2, 4, 8, 16]

    def sweep():
        rows = []
        for k in sizes:
            cset = _crossing_ladder(k)
            gs = schedule_general(cset)
            verify_schedule(gs.combined, cset).raise_if_failed()
            rows.append(
                {"crossing_pairs": k, "batches": gs.n_batches,
                 "sequential_rounds": gs.sequential_rounds,
                 "packed_rounds": gs.rounds_used}
            )
        return rows

    rows = benchmark(sweep)
    emit("GEN: fully-crossing ladders", rows)
    assert all(r["batches"] == r["crossing_pairs"] for r in rows)
    assert all(r["sequential_rounds"] == r["crossing_pairs"] for r in rows)


def test_gen_interleaving_opposite_orientations(benchmark):
    """A right chain plus its mirror: sequential pays w+w, merged ~w."""
    right = [Communication(i, 15 - i) for i in range(3)]
    left = [Communication(12 - i, 3 + i) for i in range(2)]
    cset = CommunicationSet(right + left)

    def run():
        gs = schedule_general(cset, n_leaves=16)
        verify_schedule(gs.combined, cset).raise_if_failed()
        return gs

    gs = benchmark(run)
    emit(
        "GEN: opposite orientations, sequential vs packed",
        [
            {"variant": "sequential", "rounds": gs.sequential_rounds},
            {"variant": "packed", "rounds": gs.rounds_used},
        ],
    )
    assert gs.sequential_rounds == 5
    assert gs.rounds_used == 3


def test_gen_random_arbitrary_sets(benchmark):
    """Random arbitrary pairings (crossings + both orientations)."""

    def sweep():
        rng = np.random.default_rng(5)
        rows = []
        for k in (4, 8, 16):
            pes = rng.choice(64, size=2 * k, replace=False)
            cset = CommunicationSet(
                Communication(int(pes[2 * i]), int(pes[2 * i + 1]))
                for i in range(k)
            )
            gs = schedule_general(cset, n_leaves=64)
            verify_schedule(gs.combined, cset).raise_if_failed()
            rows.append(
                {
                    "pairs": k,
                    "batches": gs.n_batches,
                    "sequential_rounds": gs.sequential_rounds,
                    "packed_rounds": gs.rounds_used,
                }
            )
        return rows

    rows = benchmark(sweep)
    emit("GEN: random arbitrary sets (64 leaves)", rows)
    assert all(r["packed_rounds"] <= r["sequential_rounds"] for r in rows)
