"""The public API surface: everything advertised in ``repro.__all__`` works."""

import numpy as np
import pytest

import repro


class TestSurface:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_docstring_quickstart_actually_runs(self):
        cs = repro.random_well_nested(8, 32, np.random.default_rng(0))
        schedule = repro.PADRScheduler().schedule(cs)
        assert schedule.n_rounds == repro.width(cs)
        assert repro.verify_schedule(schedule, cs).ok


class TestEndToEndViaPublicNamesOnly:
    """A downstream user's workflow touching only re-exported names."""

    def test_generate_schedule_verify_compare(self):
        cset = repro.crossing_chain(4)
        comparison = repro.compare_schedulers(
            cset,
            [
                repro.PADRScheduler(),
                repro.RoyIDScheduler(),
                repro.GreedyScheduler("innermost"),
                repro.SequentialScheduler(),
            ],
        )
        rows = comparison.rows()
        assert len(rows) == 4
        csa = comparison.by_name("padr-csa")
        assert repro.check_round_optimality(csa, cset, require_optimal=True)

    def test_policy_selection(self):
        cset = repro.crossing_chain(8)
        rebuilt = repro.RoyIDScheduler().schedule(
            cset, policy=repro.PowerPolicy.rebuild()
        )
        lazy = repro.PADRScheduler().schedule(cset)
        assert rebuilt.power.max_switch_units == 8
        assert lazy.power.max_switch_units <= 3

    def test_srga_entry_point(self):
        grid = repro.SRGA(4, 8)
        result = grid.route(row_sets={0: repro.disjoint_pairs(2)})
        assert result.makespan == 1

    def test_mixed_orientation_entry_point(self):
        mixed = repro.CommunicationSet(
            [repro.Communication(0, 1), repro.Communication(3, 2)]
        )
        gs = repro.schedule_general(mixed, n_leaves=8)
        assert repro.verify_schedule(gs.combined, mixed).ok

    def test_topology_and_network_exports(self):
        topo = repro.CSTTopology.of(8)
        net = repro.CSTNetwork(topo)
        assert len(net.switches) == topo.n_switches
