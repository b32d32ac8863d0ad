"""Unit tests for JSON serialization of workloads and schedules."""

import json

import pytest

from repro.comms.communication import Communication, CommunicationSet
from repro.comms.generators import crossing_chain, paper_figure2_set
from repro.core.csa import PADRScheduler
from repro.io import (
    SCHEDULE_SCHEMA,
    SerializationError,
    config_from_dict,
    config_to_dict,
    cset_from_dict,
    cset_to_dict,
    load_workloads,
    save_workloads,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.analysis.verifier import verify_schedule


class TestCsetRoundTrip:
    def test_roundtrip_identity(self, fig2_set):
        assert cset_from_dict(cset_to_dict(fig2_set)) == fig2_set

    def test_empty_set(self):
        empty = CommunicationSet(())
        assert cset_from_dict(cset_to_dict(empty)) == empty

    def test_json_serializable(self, fig2_set):
        text = json.dumps(cset_to_dict(fig2_set))
        assert cset_from_dict(json.loads(text)) == fig2_set

    def test_wrong_format_rejected(self):
        with pytest.raises(SerializationError, match="format"):
            cset_from_dict({"format": "something-else", "version": 1})

    def test_wrong_version_rejected(self):
        data = cset_to_dict(CommunicationSet(()))
        data["version"] = 99
        with pytest.raises(SerializationError, match="version"):
            cset_from_dict(data)

    def test_malformed_comms_rejected(self):
        with pytest.raises(SerializationError):
            cset_from_dict(
                {"format": "cst-padr/communication-set", "version": 1,
                 "comms": [[1]]}
            )


class TestScheduleRoundTrip:
    def test_roundtrip_preserves_everything_the_verifier_needs(self):
        cset = paper_figure2_set()
        original = PADRScheduler().schedule(cset, n_leaves=16)
        restored = schedule_from_dict(schedule_to_dict(original))

        assert restored.scheduler_name == original.scheduler_name
        assert restored.n_leaves == original.n_leaves
        assert restored.n_rounds == original.n_rounds
        assert list(restored.performed()) == list(original.performed())
        assert restored.power.total_units == original.power.total_units
        assert restored.power.max_switch_changes == original.power.max_switch_changes
        assert restored.control_messages == original.control_messages

    def test_restored_schedule_verifies(self):
        cset = crossing_chain(4)
        restored = schedule_from_dict(
            schedule_to_dict(PADRScheduler().schedule(cset))
        )
        verify_schedule(restored, cset).raise_if_failed()

    def test_tampered_schedule_fails_verification(self):
        cset = crossing_chain(2)
        data = schedule_to_dict(PADRScheduler().schedule(cset))
        data["rounds"][0]["performed"] = [[0, 1]]  # corrupt a delivery
        restored = schedule_from_dict(data)
        assert not verify_schedule(restored, cset).ok

    def test_json_serializable(self):
        cset = crossing_chain(2)
        text = json.dumps(schedule_to_dict(PADRScheduler().schedule(cset)))
        restored = schedule_from_dict(json.loads(text))
        assert restored.n_rounds == 2

    def test_wrong_format_rejected(self):
        with pytest.raises(SerializationError):
            schedule_from_dict({"format": "nope", "version": 1})


class TestWorkloadSuites:
    def test_save_and_load(self, tmp_path, fig2_set):
        path = tmp_path / "suite.json"
        suite = {"fig2": fig2_set, "chain": crossing_chain(3)}
        save_workloads(path, suite)
        loaded = load_workloads(path)
        assert loaded == suite

    def test_empty_suite(self, tmp_path):
        path = tmp_path / "empty.json"
        save_workloads(path, {})
        assert load_workloads(path) == {}

    def test_missing_file(self, tmp_path):
        with pytest.raises(SerializationError, match="cannot read"):
            load_workloads(tmp_path / "does-not-exist.json")

    def test_corrupt_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SerializationError):
            load_workloads(path)

    def test_loaded_sets_schedule_correctly(self, tmp_path):
        path = tmp_path / "suite.json"
        save_workloads(path, {"w": crossing_chain(3)})
        cset = load_workloads(path)["w"]
        s = PADRScheduler().schedule(cset)
        verify_schedule(s, cset).raise_if_failed()


class TestConfigRoundTrip:
    """Scheduler configs — including engine selection — survive the wire.

    This is the payload the service ships to multiprocessing workers; a
    lossy round-trip here is exactly the "pooled service silently falls
    back to the scalar engine" bug class.
    """

    def test_wrapped_roundtrip_preserves_engine_selection(self):
        from repro.core.config import SchedulerConfig

        cfg = SchedulerConfig(engine="fast")
        restored = config_from_dict(config_to_dict(cfg))
        assert restored == cfg
        assert restored.engine == "fast"

    def test_bare_field_dict_accepted(self):
        from repro.core.config import SchedulerConfig

        cfg = SchedulerConfig(engine="auto", trace_wave_cap=2048)
        assert config_from_dict(cfg.to_dict()) == cfg

    def test_json_serializable(self):
        from repro.core.config import SchedulerConfig

        cfg = SchedulerConfig(engine="auto")
        text = json.dumps(config_to_dict(cfg))
        assert config_from_dict(json.loads(text)) == cfg

    @pytest.mark.parametrize(
        "field,value", [("fast_path", False), ("trace_compat", True)]
    )
    def test_retired_engine_switches_rejected(self, field, value):
        """A payload carrying an engine switch retired in favour of
        ``engine`` fails loudly, naming the field, as ``columnar_threshold``
        payloads do."""
        from repro.core.config import SchedulerConfig
        from repro.exceptions import SchedulingError

        payload = config_to_dict(SchedulerConfig())
        payload["config"][field] = value
        with pytest.raises(SchedulingError, match=field):
            config_from_dict(payload)

    def test_wrong_format_rejected(self):
        with pytest.raises(SerializationError, match="format"):
            config_from_dict({"format": "cst-padr/schedule", "version": 1})

    def test_missing_payload_rejected(self):
        with pytest.raises(SerializationError, match="config"):
            config_from_dict(
                {"format": "cst-padr/scheduler-config", "version": 1,
                 "schema": SCHEDULE_SCHEMA}
            )

    def test_invalid_engine_rejected(self):
        from repro.core.config import SchedulerConfig
        from repro.exceptions import ReproError

        data = config_to_dict(SchedulerConfig())
        data["config"]["engine"] = "quantum"
        with pytest.raises(ReproError):
            config_from_dict(data)


class TestSchemaVersioning:
    """Explicit ``"schema"`` field: writers stamp it, loaders window it."""

    def test_writers_stamp_current_schema(self, tmp_path, fig2_set):
        assert SCHEDULE_SCHEMA == 4
        assert cset_to_dict(fig2_set)["schema"] == SCHEDULE_SCHEMA
        schedule = PADRScheduler().schedule(fig2_set, n_leaves=16)
        assert schedule_to_dict(schedule)["schema"] == SCHEDULE_SCHEMA
        path = tmp_path / "suite.json"
        save_workloads(path, {"fig2": fig2_set})
        assert json.loads(path.read_text())["schema"] == SCHEDULE_SCHEMA

    def test_previous_schema_still_loads(self, fig2_set):
        # the two-release window: schema 3 (the previous generation)
        # must keep loading under the schema-4 writers.
        data = cset_to_dict(fig2_set)
        data["schema"] = SCHEDULE_SCHEMA - 1
        assert cset_from_dict(data) == fig2_set

    def test_previous_schema_schedule_still_loads(self):
        cset = crossing_chain(3)
        data = schedule_to_dict(PADRScheduler().schedule(cset))
        data["schema"] = SCHEDULE_SCHEMA - 1
        restored = schedule_from_dict(data)
        verify_schedule(restored, cset).raise_if_failed()

    def test_schema_1_payload_without_field_now_rejected(self, fig2_set):
        # schema-1 payloads predate the field; they aged out of the
        # two-release window long ago and must be rewritten by a
        # schema-2 release, not silently misread.
        data = cset_to_dict(fig2_set)
        del data["schema"]
        with pytest.raises(SerializationError, match="schema 1"):
            cset_from_dict(data)

    def test_schema_1_suite_now_rejected(self, tmp_path, fig2_set):
        path = tmp_path / "legacy.json"
        save_workloads(path, {"fig2": fig2_set})
        data = json.loads(path.read_text())
        del data["schema"]
        path.write_text(json.dumps(data))
        with pytest.raises(SerializationError, match="schema 1"):
            load_workloads(path)

    def test_future_schema_rejected_with_window(self, fig2_set):
        data = cset_to_dict(fig2_set)
        data["schema"] = SCHEDULE_SCHEMA + 1
        with pytest.raises(SerializationError, match=r"schemas \[3, 4\]"):
            cset_from_dict(data)

    def test_future_schedule_schema_rejected(self):
        data = schedule_to_dict(PADRScheduler().schedule(crossing_chain(2)))
        data["schema"] = 99
        with pytest.raises(SerializationError, match="schema"):
            schedule_from_dict(data)


class TestIOProperties:
    from hypothesis import given, settings

    from tests.conftest import wellnested_set_st

    @given(cset=wellnested_set_st(max_pairs=10))
    @settings(max_examples=80, deadline=None)
    def test_cset_roundtrip_property(self, cset):
        assert cset_from_dict(cset_to_dict(cset)) == cset

    @given(cset=wellnested_set_st(max_pairs=6))
    @settings(max_examples=30, deadline=None)
    def test_schedule_roundtrip_property(self, cset):
        s = PADRScheduler().schedule(cset, n_leaves=64)
        restored = schedule_from_dict(schedule_to_dict(s))
        assert verify_schedule(restored, cset).ok


class TestFabricRoundTrip:
    def fabric_schedule(self):
        from repro.fabric import FabricController

        fab = FabricController(2, 8, parallel=False)
        return fab.schedule_global(
            CommunicationSet(
                [Communication(0, 15), Communication(1, 2), Communication(8, 11)]
            )
        )

    def test_fabric_schedule_round_trip_preserves_accounting(self):
        from repro.io import fabric_schedule_from_dict, fabric_schedule_to_dict

        fs = self.fabric_schedule()
        data = json.loads(json.dumps(fabric_schedule_to_dict(fs)))
        back = fabric_schedule_from_dict(data)
        assert back.delivered == fs.delivered
        assert back.total_rounds == fs.total_rounds
        assert back.total_power_units == fs.total_power_units
        assert back.cross == fs.cross

    def test_fabric_payloads_carry_current_schema(self):
        from repro.io import SCHEDULE_SCHEMA, fabric_schedule_to_dict

        data = fabric_schedule_to_dict(self.fabric_schedule())
        assert data["schema"] == SCHEDULE_SCHEMA == 4
        assert set(data["local"]) == {"0", "1"}

    def test_malformed_fabric_schedule_rejected(self):
        from repro.io import SerializationError, fabric_schedule_to_dict
        from repro.io import fabric_schedule_from_dict

        data = fabric_schedule_to_dict(self.fabric_schedule())
        del data["cross"][0]["round"]
        with pytest.raises(SerializationError, match="malformed fabric"):
            fabric_schedule_from_dict(data)
