"""SchedulerConfig: the one config object behind every scheduler knob."""

from __future__ import annotations

import pytest

from repro.comms.communication import Communication, CommunicationSet
from repro.core.config import SchedulerConfig
from repro.core.csa import PADRScheduler
from repro.cst.engine import (
    ColumnarWaveEngine,
    CSTEngine,
    EngineTrace,
    ReferenceWaveEngine,
)
from repro.cst.network import CSTNetwork
from repro.exceptions import SchedulingError


def cs(*pairs):
    return CommunicationSet([Communication(s, d) for s, d in pairs])


class TestDefaults:
    def test_default_matches_constructor_defaults(self):
        cfg = SchedulerConfig()
        sched = PADRScheduler()
        assert sched.validate_input == cfg.validate_input
        assert sched.check_postconditions == cfg.check_postconditions
        assert sched.strict == cfg.strict
        assert sched.reuse_phase1 == cfg.reuse_phase1

    def test_explicit_kwargs_beat_config(self):
        cfg = SchedulerConfig(strict=True, validate_input=True)
        sched = PADRScheduler(strict=False, config=cfg)
        assert sched.strict is False
        assert sched.validate_input is True


class TestEngineSelection:
    def test_fast_path_selects_cst_engine(self):
        factory = SchedulerConfig(engine="fast").engine_factory()
        assert factory is CSTEngine  # no wrapper on the hot path

    def test_reference_engine(self):
        factory = SchedulerConfig(engine="reference").engine_factory()
        assert factory is ReferenceWaveEngine

    def test_explicit_columnar_is_bare_class(self):
        factory = SchedulerConfig(engine="auto").engine_factory()
        assert factory is ColumnarWaveEngine

    def test_auto_factory_resolves_by_size(self):
        """``auto`` takes the columnar kernel at every tree size; a capped
        factory still names its class before any network exists."""
        cfg = SchedulerConfig()
        assert cfg.engine_factory() is ColumnarWaveEngine
        for n in (2, 16, 64, 256, 4096):
            assert cfg.selects_columnar(n)
        factory = SchedulerConfig(trace_wave_cap=2).engine_factory()
        assert factory.engine_cls is ColumnarWaveEngine
        assert isinstance(factory(CSTNetwork.of_size(8)), CSTEngine)

    def test_engine_cls_matches_selects_columnar(self):
        for engine in ("auto", "fast", "reference"):
            cfg = SchedulerConfig(engine=engine)
            for n in (8, 128, 4096):
                assert cfg.selects_columnar(n) == (
                    cfg.engine_cls() is ColumnarWaveEngine
                )

    def test_fast_engine_vetoes_columnar(self):
        cfg = SchedulerConfig(engine="fast")
        assert cfg.selects_columnar(4096) is False

    def test_unknown_engine_rejected(self):
        with pytest.raises(SchedulingError, match="unknown engine"):
            SchedulerConfig(engine="turbo")

    def test_retired_columnar_engine_rejected(self):
        """``"columnar"`` was an alias of ``"auto"``; it now fails loudly,
        naming the value."""
        with pytest.raises(SchedulingError, match="'columnar'"):
            SchedulerConfig(engine="columnar")


    def test_bad_threshold_rejected(self):
        """The retired ``columnar_threshold`` knob is refused loudly."""
        with pytest.raises(SchedulingError, match="columnar_threshold"):
            SchedulerConfig.from_dict({"columnar_threshold": 0})

    def test_trace_cap_applied_per_instance(self):
        cfg = SchedulerConfig(trace_wave_cap=2)
        engine = cfg.engine_factory()(CSTNetwork.of_size(8))
        assert engine.trace.PER_WAVE_CAP == 2
        # the ClassVar itself is untouched
        assert EngineTrace.PER_WAVE_CAP != 2

    def test_engines_produce_identical_schedules(self):
        workload = cs((0, 7), (1, 2), (3, 6))
        fast = SchedulerConfig(engine="fast").build().schedule(workload)
        ref = SchedulerConfig(engine="reference").build().schedule(workload)
        assert fast.rounds == ref.rounds
        assert fast.power.total_units == ref.power.total_units


class TestSerialization:
    def test_round_trip(self):
        cfg = SchedulerConfig(engine="reference", trace_wave_cap=16, strict=False)
        assert SchedulerConfig.from_dict(cfg.to_dict()) == cfg

    def test_round_trip_preserves_engine_selection(self):
        cfg = SchedulerConfig(engine="auto")
        restored = SchedulerConfig.from_dict(cfg.to_dict())
        assert restored == cfg
        assert restored.selects_columnar(512) is True

    def test_cache_signature_distinguishes_engines(self):
        assert (
            SchedulerConfig(engine="auto").cache_signature()
            != SchedulerConfig(engine="fast").cache_signature()
        )

    def test_unknown_keys_rejected(self):
        with pytest.raises(SchedulingError, match="unknown"):
            SchedulerConfig.from_dict({"not_a_field": 1})

    def test_negative_trace_cap_rejected(self):
        with pytest.raises(SchedulingError):
            SchedulerConfig(trace_wave_cap=-1)

    def test_cache_signature_distinguishes_configs(self):
        assert (
            SchedulerConfig().cache_signature()
            != SchedulerConfig(engine="reference").cache_signature()
        )
        assert (
            SchedulerConfig().cache_signature()
            == SchedulerConfig().cache_signature()
        )


class TestBuilders:
    def test_build_stream_forwards_config(self):
        cfg = SchedulerConfig(fresh_network_per_step=True, verify_steps=False)
        stream = cfg.build_stream()
        assert stream.fresh_network_per_step is True
        assert stream.verify is False
        assert stream.config is cfg
