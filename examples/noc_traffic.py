#!/usr/bin/env python3
"""CST as a network-on-chip interconnect under phased traffic.

The paper (§1) cites NoCs as a CST application domain.  This example
models an SoC whose 64 IP blocks hang off one CST and whose traffic comes
in repeating *phases* (DMA bursts, then core-to-accelerator transfers,
then the DMA pattern again...).  Two properties of the reproduction show
up together:

* arbitrary phase patterns — including crossing pairs, which are not
  well-nested — are split into well-nested batches and packed into one
  round plan by :func:`repro.core.plan.schedule_general`;
* across phases, the stream scheduler keeps crossbar configurations in
  place, so a *recurring* phase is almost free in configuration energy:
  the PADR idea applied at the timescale above a single schedule.

Run:  python examples/noc_traffic.py
"""

import sys

from repro import Communication, CommunicationSet
from repro.core.plan import schedule_general
from repro.extensions.stream import StreamScheduler
from repro.analysis.verifier import verify_schedule


def dma_burst() -> CommunicationSet:
    """Memory controller regions streaming to accelerator tiles."""
    return CommunicationSet(
        [
            Communication(0, 40),   # DDR ctrl 0 -> accel cluster
            Communication(2, 33),
            Communication(5, 23),
            Communication(48, 63),  # DDR ctrl 1 -> IO tile
        ]
    )


def core_to_accel() -> CommunicationSet:
    """Cores pushing work descriptors; replies flow leftward (mixed)."""
    return CommunicationSet(
        [
            Communication(8, 20),
            Communication(9, 21),   # crosses nothing: nested neighbours
            Communication(30, 12),  # a reply: left-oriented
            Communication(58, 36),  # another reply
        ]
    )


def main() -> int:
    n = 64
    # one phase with crossings + mixed orientation, scheduled standalone
    phase = core_to_accel()
    g = schedule_general(phase, n_leaves=n)
    verify_schedule(g.combined, phase).raise_if_failed()
    print(
        f"mixed phase: {len(phase)} transfers, "
        f"{g.n_batches} well-nested batches, "
        f"{g.sequential_rounds} rounds batch after batch, "
        f"{g.rounds_used} packed, {g.power_units} units"
    )

    # the recurring traffic program: DMA, compute, DMA, compute, ...
    # (stream scheduling needs right-oriented well-nested phases, so feed
    # it the DMA pattern alternating with a disjoint collection phase)
    collect = CommunicationSet(
        [Communication(16, 19), Communication(24, 27), Communication(52, 55)]
    )
    program = [dma_burst(), collect] * 4

    persistent = StreamScheduler().run(program, n)
    fresh = StreamScheduler(fresh_network_per_step=True).run(program, n)

    print("\nphased traffic, 8 steps (DMA / collect alternating):")
    print(f"  per-step energy, persistent configs : {persistent.power_profile()}")
    print(f"  per-step energy, fresh configs      : {fresh.power_profile()}")
    print(
        f"  totals: {persistent.total_power} vs {fresh.total_power} units "
        f"({100 * (1 - persistent.total_power / fresh.total_power):.0f}% saved "
        "by keeping configurations across phases)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
