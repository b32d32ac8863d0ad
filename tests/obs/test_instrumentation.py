"""Instrumentation-layer tests: scheduler/engine/meter hooks, the Theorem-8
acceptance trace, stream metrics, and snapshot extraction helpers."""

import json

import pytest

from repro.baselines import RoyIDScheduler
from repro.cli import main
from repro.comms.generators import crossing_chain, random_well_nested
from repro.core.csa import PADRScheduler
from repro.cst.power import PowerPolicy
from repro.extensions.stream import StreamScheduler
from repro.obs import (
    Instrumentation,
    MetricsRegistry,
    TraceExporter,
    observe_schedule,
    per_switch_changes_from,
    per_switch_counters_from,
    read_jsonl,
)


class TestTheorem8Acceptance:
    """`cst-padr trace` on a width-8 well-nested workload must emit a
    JSON-lines trace whose per-switch counters show O(1) configuration
    changes per switch under the CSA and Θ(w) re-establishments under the
    Roy baseline's per-round-rebuild discipline."""

    WIDTH = 8

    @pytest.fixture(scope="class")
    def events(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("trace") / "w8.jsonl"
        assert main(["trace", "--width", str(self.WIDTH), "--jsonl", str(out)]) == 0
        return read_jsonl(out)

    def _run_end(self, events, run):
        return next(
            e for e in events if e["event"] == "run_end" and e["run"] == run
        )

    def test_csa_changes_constant_per_switch(self, events):
        end = self._run_end(events, "csa")
        assert max(end["per_switch_changes"].values()) <= 3  # Theorem 8's O(1)
        assert end["rounds"] == self.WIDTH  # Theorem 5: exactly w rounds

    def test_roy_rebuild_is_theta_w(self, events):
        end = self._run_end(events, "roy-rebuild")
        # per-round rebuild re-establishes the root's crossing connection
        # every round: w units on the widest switch.
        assert max(end["per_switch_units"].values()) == self.WIDTH
        assert end["max_switch_units"] == self.WIDTH

    def test_gap_grows_with_width(self, tmp_path):
        maxima = {}
        for w in (4, 16):
            out = tmp_path / f"w{w}.jsonl"
            main(["trace", "--width", str(w), "--jsonl", str(out)])
            ev = read_jsonl(out)
            csa = self._run_end(ev, "csa")
            roy = self._run_end(ev, "roy-rebuild")
            maxima[w] = (
                max(csa["per_switch_changes"].values()),
                max(roy["per_switch_units"].values()),
            )
        assert maxima[4][0] == maxima[16][0]  # CSA flat
        assert maxima[16][1] == 4 * maxima[4][1]  # Roy scales with w


class TestSchedulerHooks:
    def test_observed_run_matches_unobserved(self):
        """Attaching observability must not change the schedule."""
        import numpy as np

        cset = random_well_nested(8, 64, np.random.default_rng(3))
        plain = PADRScheduler().schedule(cset)
        obs = Instrumentation(MetricsRegistry(), TraceExporter(), run="x")
        observed = PADRScheduler(obs=obs).schedule(cset)
        assert [r.performed for r in plain.rounds] == [
            r.performed for r in observed.rounds
        ]
        assert plain.power.per_switch_changes == observed.power.per_switch_changes
        assert plain.control_messages == observed.control_messages

    def test_live_counters_match_power_report(self):
        cset = crossing_chain(4)
        obs = Instrumentation(MetricsRegistry(), run="csa")
        schedule = PADRScheduler(obs=obs).schedule(cset)
        snap = obs.metrics.snapshot()
        assert per_switch_changes_from(snap, run="csa") == dict(
            schedule.power.per_switch_changes
        )
        assert per_switch_counters_from(snap, "power.units", run="csa") == dict(
            schedule.power.per_switch_units
        )
        assert snap["counters"]["ctrl.messages{run=csa}"] == schedule.control_messages
        assert snap["counters"]["phys.messages{run=csa}"] == schedule.physical_messages

    def test_spans_recorded(self):
        obs = Instrumentation(MetricsRegistry(), run="csa")
        PADRScheduler(obs=obs).schedule(crossing_chain(2))
        spans = obs.metrics.snapshot()["spans"]
        assert spans["csa.schedule{run=csa}"]["count"] == 1
        assert spans["csa.phase1{run=csa}"]["count"] == 1

    def test_meter_hooks_fire(self):
        from repro.cst.power import PowerMeter

        charged, changed = [], []
        meter = PowerMeter()
        meter.on_charge = lambda v, cost: charged.append((v, cost))
        meter.on_change = lambda v: changed.append(v)
        meter.charge(3, 2)
        meter.charge(3, 0)  # zero connections: no event
        meter.note_change(3)
        assert charged == [(3, 2)]
        assert changed == [3]


class TestStreamMetrics:
    def test_per_step_counters_and_phase1_reuse(self):
        cset = crossing_chain(3)
        obs = Instrumentation(MetricsRegistry(), run="stream")
        StreamScheduler(obs=obs).run([cset, cset, cset], cset.min_leaves())
        snap = obs.metrics.snapshot()
        assert snap["counters"]["stream.steps{run=stream}"] == 3
        # identical consecutive sets reuse Phase 1: one wave, two cache hits.
        assert snap["counters"]["csa.phase1.runs{run=stream}"] == 1
        assert snap["counters"]["csa.phase1.cache_hits{run=stream}"] == 2
        assert snap["histograms"]["stream.step_power_units{run=stream}"]["count"] == 3

    @pytest.mark.parametrize(
        "n, messages", [(16, [120, 90, 90]), (4096, [32760, 24570, 24570])]
    )
    def test_phase1_runs_once_across_kernel_and_scalar_steps(self, n, messages):
        """Step 1 runs on the pristine network through the columnar kernel,
        later steps on the used network through the scalar path; both read
        one Phase-1 cache, so only step 1 pays the upward wave."""
        obs = Instrumentation(MetricsRegistry(), run="stream")
        result = StreamScheduler(obs=obs).run([crossing_chain(3)] * 3, n)
        counters = obs.metrics.snapshot()["counters"]
        assert counters["csa.phase1.runs{run=stream}"] == 1
        assert counters["csa.phase1.cache_hits{run=stream}"] == 2
        assert [s.schedule.control_messages for s in result.steps] == messages


class TestObserveSchedule:
    def test_baseline_schedule_ingestion(self):
        cset = crossing_chain(4)
        roy = RoyIDScheduler().schedule(cset, policy=PowerPolicy.rebuild())
        reg = MetricsRegistry()
        observe_schedule(reg, roy, run="roy")
        snap = reg.snapshot()
        assert snap["gauges"]["power.units.total{run=roy}"] == roy.power.total_units
        assert per_switch_counters_from(snap, "power.units", run="roy") == dict(
            roy.power.per_switch_units
        )

    def test_extraction_accepts_counters_section(self):
        reg = MetricsRegistry()
        reg.inc("config.changes", 2, run="a", switch=7)
        snap = reg.snapshot()
        assert per_switch_changes_from(snap["counters"], run="a") == {7: 2}
        assert per_switch_changes_from(snap, run="b") == {}


class TestMetricsCLI:
    def test_metrics_text_output(self, capsys):
        assert main(["metrics", "--width", "4"]) == 0
        out = capsys.readouterr().out
        assert "counters:" in out
        assert "config.changes{run=csa,switch=" in out
        assert "spans" in out

    def test_metrics_json_output(self, capsys):
        assert main(["metrics", "--width", "4", "--json"]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["counters"]["csa.rounds{run=csa}"] == 4

    def test_metrics_random_workload(self, capsys):
        assert main(["metrics", "--pairs", "4", "--leaves", "32", "--json"]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["counters"]["csa.phase1.runs{run=csa}"] == 1

    def test_trace_jsonl_stdout(self, capsys):
        assert main(["trace", "--width", "2", "--jsonl", "-"]) == 0
        captured = capsys.readouterr()
        events = [json.loads(line) for line in captured.out.splitlines()]
        assert events[0]["event"] == "run_start"
        assert "wrote" in captured.err  # report goes to stderr
