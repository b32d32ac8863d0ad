"""EXT — the paper's §6 extensions: mixed orientations and the SRGA.

* general sets decompose into two oriented halves (paper §2.1) —
  measured: batch-after-batch rounds = w_right + w_left, correctness
  verified, and the packed plan's rounds next to them;
* the SRGA substrate routes independent row/column sets concurrently —
  measured: makespan = max over trees, per-tree Theorem-8 bound intact.
"""

from repro.analysis.verifier import verify_schedule
from repro.comms.communication import Communication, CommunicationSet
from repro.comms.generators import crossing_chain, disjoint_pairs
from repro.comms.width import width
from repro.core.plan import schedule_general
from repro.cst.topology import CSTTopology
from repro.extensions.srga import SRGA

from conftest import emit


def _mixed_set(n=32):
    """Right-oriented pairs in the left half, left-oriented in the right."""
    right = [Communication(0, 15), Communication(1, 14), Communication(2, 13)]
    left = [Communication(31, 16), Communication(30, 17)]
    return CommunicationSet(right + left)


def test_ext_mixed_orientation_decomposition(benchmark):
    mixed = _mixed_set()

    gs = benchmark(lambda: schedule_general(mixed, n_leaves=32))

    verify_schedule(gs.combined, mixed).raise_if_failed()
    topo = CSTTopology.of(32)
    w_right = width(mixed.right_oriented_subset(), topo)
    w_left = width(mixed.left_oriented_subset().mirrored(32), topo)
    emit(
        "EXT: mixed-orientation set via decomposition",
        [
            {
                "comms": len(mixed),
                "w_right": w_right,
                "w_left": w_left,
                "sequential_rounds": gs.sequential_rounds,
                "packed_rounds": gs.rounds_used,
                "max_switch_changes": gs.combined.power.max_switch_changes,
            }
        ],
    )
    assert gs.sequential_rounds == w_right + w_left
    assert gs.rounds_used <= gs.sequential_rounds


def test_ext_srga_full_grid(benchmark):
    """Route every row and every column of a 16x16 SRGA at once."""
    grid = SRGA(16, 16)
    row_sets = {r: crossing_chain(4, 16) for r in range(16)}
    col_sets = {c: disjoint_pairs(3) for c in range(16)}

    result = benchmark(lambda: grid.route(row_sets=row_sets, col_sets=col_sets))

    emit(
        "EXT: 16x16 SRGA, all rows (width 4) + all columns (width 1)",
        [
            {
                "trees_driven": 32,
                "makespan": result.makespan,
                "total_power": result.total_power,
                "max_switch_changes": result.max_switch_changes,
            }
        ],
    )
    assert result.makespan == 4       # slowest tree dominates, not the sum
    assert result.max_switch_changes <= 2  # Theorem 8 holds per tree
