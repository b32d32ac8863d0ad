"""Unit tests for left-oriented scheduling by mirroring."""

import numpy as np
import pytest

from repro.exceptions import OrientationError
from repro.comms.communication import Communication, CommunicationSet
from repro.comms.generators import random_well_nested
from repro.extensions.oriented import MirroredScheduler
from repro.analysis.verifier import verify_schedule


def cs(*pairs):
    return CommunicationSet(Communication(s, d) for s, d in pairs)


class TestMirroredScheduler:
    def test_rejects_right_oriented_input(self):
        with pytest.raises(OrientationError):
            MirroredScheduler().schedule(cs((0, 1)), n_leaves=8)

    def test_left_oriented_single_pair(self):
        cset = cs((5, 2))
        s = MirroredScheduler().schedule(cset, n_leaves=8)
        verify_schedule(s, cset).raise_if_failed()
        assert s.n_rounds == 1

    def test_left_oriented_nested(self):
        # mirror of a nested right set: ((...)) read right-to-left
        cset = cs((7, 0), (6, 1), (5, 2))
        s = MirroredScheduler().schedule(cset, n_leaves=8)
        verify_schedule(s, cset).raise_if_failed()
        assert s.n_rounds == 3  # all three pairs cross the root

    def test_mirrored_name(self):
        assert MirroredScheduler().name == "mirrored(padr-csa)"

    def test_random_mirrored_sets(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            right = random_well_nested(8, 32, rng)
            left = right.mirrored(32)
            s = MirroredScheduler().schedule(left, n_leaves=32)
            verify_schedule(s, left).raise_if_failed()
