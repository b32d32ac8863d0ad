"""Phase-1 reuse: cached counters must be indistinguishable from a re-run."""

import numpy as np

from repro.comms.generators import crossing_chain, random_well_nested
from repro.core.csa import PADRScheduler
from repro.cst.network import CSTNetwork

N = 32


def _rounds(schedule):
    return [(r.performed, r.writers) for r in schedule.rounds]


class TestPhase1Reuse:
    def test_repeated_set_identical_schedule(self):
        cset = crossing_chain(4, N)
        reuse = PADRScheduler(reuse_phase1=True)
        plain = PADRScheduler(reuse_phase1=False)
        first = reuse.schedule(cset, network=CSTNetwork.of_size(N))
        second = reuse.schedule(cset, network=CSTNetwork.of_size(N))
        reference = plain.schedule(cset, network=CSTNetwork.of_size(N))
        assert _rounds(first) == _rounds(second) == _rounds(reference)
        assert first.power.total_units == second.power.total_units

    def test_cache_hit_skips_exactly_one_wave(self):
        """The second run omits Phase 1's 2N−2-message upward wave."""
        cset = crossing_chain(4, N)
        reuse = PADRScheduler(reuse_phase1=True)
        first = reuse.schedule(cset, network=CSTNetwork.of_size(N))
        second = reuse.schedule(cset, network=CSTNetwork.of_size(N))
        assert first.control_messages - second.control_messages == 2 * N - 2

    def test_role_change_invalidates_cache(self):
        """A different set must trigger a fresh Phase 1, not stale counters."""
        rng = np.random.default_rng(11)
        a = random_well_nested(5, N, rng)
        b = random_well_nested(5, N, rng)
        reuse = PADRScheduler(reuse_phase1=True)
        plain = PADRScheduler(reuse_phase1=False)
        reuse.schedule(a, network=CSTNetwork.of_size(N))
        got = reuse.schedule(b, network=CSTNetwork.of_size(N))
        want = plain.schedule(b, network=CSTNetwork.of_size(N))
        assert _rounds(got) == _rounds(want)
        assert got.control_messages == want.control_messages

    def test_mutated_counters_never_leak_into_cache(self):
        """Phase 2 drains the stored counters; a later cache hit must see
        the pristine Phase-1 values, not the drained ones."""
        cset = crossing_chain(4, N)
        reuse = PADRScheduler(reuse_phase1=True)
        reuse.schedule(cset, network=CSTNetwork.of_size(N))
        # first run drained its counters in place; the cached copy must be
        # intact.
        assert reuse._phase1_cache is not None
        assert any(reuse._phase1_cache[1].m.values())
        # and a third run still schedules everything.
        s = reuse.schedule(cset, network=CSTNetwork.of_size(N))
        delivered = {c for r in s.rounds for c in r.performed}
        assert delivered == set(cset)

    def test_fault_state_change_invalidates_cache(self):
        """A mid-stream inject() changes the network's fault signature, so
        the cached Phase-1 counters must not be served for it; clearing the
        faults restores the original signature and the cache hit returns."""
        from repro.cst.faults import DeadSwitchFault, clear_faults, inject

        cset = crossing_chain(4, N)
        reuse = PADRScheduler(
            reuse_phase1=True, strict=False, check_postconditions=False
        )
        net = CSTNetwork.of_size(N)
        first = reuse.schedule(cset, network=net)
        saving = 2 * N - 2  # the upward wave a cache hit skips

        inject(net, 1, DeadSwitchFault())
        faulted = reuse.schedule(cset, network=net)
        # signature changed: full Phase 1 re-run, no stale-cache saving
        assert faulted.control_messages == first.control_messages

        clear_faults(net)
        healed = reuse.schedule(cset, network=net)
        # signature changed again (fault cleared): another full run, which
        # re-primes the single-entry cache under the healthy signature...
        assert healed.control_messages == first.control_messages
        again = reuse.schedule(cset, network=net)
        # ...so only now does the reuse saving reappear.
        assert again.control_messages == first.control_messages - saving

    def test_stream_scheduler_reuse_matches_fresh(self):
        """End to end: the stream's reuse path and the fresh-network control
        condition perform the same communications each step."""
        from repro.extensions.stream import StreamScheduler

        cset = crossing_chain(4, N)
        persistent = StreamScheduler().run([cset] * 3, N)
        fresh = StreamScheduler(fresh_network_per_step=True).run([cset] * 3, N)
        for p_step, f_step in zip(persistent.steps, fresh.steps):
            assert _rounds(p_step.schedule) == _rounds(f_step.schedule)
