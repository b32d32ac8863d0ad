"""Tests for the end-to-end benchmark.  Run: ``python -m pytest benchmarks/e2e -q``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.comms.generators import random_well_nested  # noqa: E402
from repro.core.csa import PADRScheduler  # noqa: E402
from repro.io import result_to_dict  # noqa: E402

import numpy as np  # noqa: E402

#: small enough to keep each in-process run well under a second
TINY = {"direct_unique": 0.1, "batch_repeat": 0.05, "stream_open": 0.3, "general_fabric": 0.05}


def _command(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "e2e" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_smoke_passes_every_output_check():
    proc = _command("--smoke")
    assert proc.returncode == 0, proc.stderr[-2000:] + proc.stdout[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
    assert last["failed"] == 0 and last["attempted"] > 0
    for name in workloads.WORKLOADS:
        assert f"{name}/throughput_rps" in last["metrics"]
    for line in ("latency_p50_ms", "slo_attain", "error_rate", "peak_rss_mb"):
        assert f"direct_unique {line} " in proc.stdout


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    cls = workloads.WORKLOADS[name]
    runs = []
    for seed in (7, 7, 8):
        w = cls(seed, TINY[name])
        w.generate()
        runs.append(w.fingerprint())
    assert runs[0] == runs[1]
    assert runs[0] != runs[2]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_exact_metrics_are_identical_for_the_same_seed_and_any_other(name):
    quality = []
    for seed in (3, 3, 4):
        w = workloads.WORKLOADS[name](seed, TINY[name])
        w.generate()
        w.setup()
        checker = checks.Checker(mean_ratio=w.mean_ratio)
        try:
            w.run_panel(checker)
        finally:
            w.close()
        assert checker.failed == 0
        quality.append({k: checker.quality()[k] for k in metrics.EXACT_METRICS})
    assert quality[0] == quality[1] == quality[2]
    assert quality[0]["rounds_per_width"] >= 1.0


def _tampered(payload: dict) -> dict:
    """A copy with one delivery dropped; round count and power totals unchanged."""
    tampered = json.loads(json.dumps(payload))
    first = next(r for r in tampered["rounds"] if r["performed"])
    first["performed"].pop()
    assert len(tampered["rounds"]) == len(payload["rounds"])
    assert {k: v for k, v in tampered.items() if k != "rounds"} == {
        k: v for k, v in payload.items() if k != "rounds"
    }
    return tampered


def test_tampered_payload_fails_the_check_and_the_run():
    rng = np.random.default_rng(0)
    cset = random_well_nested(12, 64, rng)
    payload = result_to_dict(PADRScheduler().schedule(cset, n_leaves=64))
    checker = checks.Checker()
    assert checker.check(payload, cset, "intact")

    assert not checker.check(_tampered(payload), cset, "tampered")
    assert checker.failed == 1
    assert "tampered" in checker.first_failure and "never performed" in checker.first_failure
    ok = {"correct": True}
    assert run.exit_code([ok]) == 0
    assert run.exit_code([ok, {"correct": checker.failed == 0}]) == 1


def test_a_tampered_repeat_is_verified_again():
    rng = np.random.default_rng(0)
    cset = random_well_nested(12, 64, rng)
    payload = result_to_dict(PADRScheduler().schedule(cset, n_leaves=64))
    checker = checks.Checker()
    assert checker.check(payload, cset, "entry", repeatable=True)
    assert checker.check(json.loads(json.dumps(payload)), cset, "entry", repeatable=True)

    assert not checker.check(_tampered(payload), cset, "entry", repeatable=True)
    # a cached payload changed in place after it was verified
    first = next(r for r in payload["rounds"] if r["performed"])
    first["performed"].pop()
    assert not checker.check(payload, cset, "entry", repeatable=True)
    assert checker.failed == 2


def test_percentile_follows_the_sample_count_rule():
    assert not metrics.percentile_supported(19, 0.5)
    assert metrics.percentile_supported(20, 0.5)
    assert not metrics.percentile_supported(999, 0.99)
    assert metrics.percentile_supported(1000, 0.99)
    assert metrics.tail_percentile(list(range(999)), 0.99) is None
    samples = list(range(1, 1001))[::-1]
    assert metrics.tail_percentile(samples, 0.99) == 990.0  # nearest rank, observed value
    assert metrics.tail_percentile(samples, 0.5) == 500.0
    with pytest.raises(ValueError):
        metrics.percentile_supported(100, 1.0)


def test_host_speed_scales_each_interval_by_the_probes_around_it(monkeypatch):
    probes = iter([1.0, 2.0, 3.0, 4.0, 5.0])
    monkeypatch.setattr(metrics, "host_speed", lambda: next(probes))
    speed = metrics.HostSpeed()  # probe 1.0 before interval 0
    for work_s in (0.03, 0.03, 0.06, 0.06):  # probes 2.0 after interval 1, 3.0 after 2, 4.0 after 3
        speed.after(work_s)
    assert speed.trailing() == 2.5
    # interval 0: 1.0 before, 2.0 and 3.0 after; interval 3: 2.0, 3.0 before, 4.0 after
    assert speed.centred() == [2.0, 2.0, 2.5, 3.0]
    assert speed.probes[-1] == (4, 4.0)


def test_benchmark_json_matches_the_metric_definitions():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert spec["run_seconds"] == run.RUN_SECONDS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for entry, cls in zip(spec["workloads"], workloads.WORKLOADS.values()):
        assert entry["why"] == cls.why and len(entry["why"]) <= 200
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in metrics.PER_LAYER
    ]
    setup = next(m for m in metrics.END_TO_END if m.name == "setup_s")
    assert all(m.bound <= setup.bound <= 0.25 for m in metrics.END_TO_END)


def test_seconds_accepts_only_run_seconds():
    assert run.parse(["--seconds", str(run.RUN_SECONDS)]).seconds == run.RUN_SECONDS
    with pytest.raises(SystemExit):
        run.parse(["--seconds", "1"])


def test_trace_wraps_every_binding_and_restores_them():
    import spans
    import repro.core.columnar as columnar
    import repro.service.cache as cache
    import repro.service.service as service

    originals = (cache.canonical_signature, service.canonical_signature,
                 columnar.schedule_batch, columnar.ColumnarRun.write_back)
    cset = random_well_nested(8, 64, np.random.default_rng(1))
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert service.canonical_signature is cache.canonical_signature
        assert cache.canonical_signature is not originals[0]
        assert columnar.schedule_batch is not originals[2]
        assert columnar.ColumnarRun.write_back is not originals[3]
        tracer.begin(0)
        cache.canonical_signature(cset, 64)
        tracer.end()
    finally:
        tracer.uninstall()
    assert (cache.canonical_signature, service.canonical_signature,
            columnar.schedule_batch, columnar.ColumnarRun.write_back) == originals
    names = [s[spans.NAME] for s in tracer.spans]
    assert names[0] == "service.signature" and "comms.validate" in names
    child = next(s for s in tracer.spans if s[spans.NAME] == "comms.validate")
    assert child[spans.PARENT] == 0 and child[spans.REQUEST] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _command("--workload", "direct_unique", "--seed", "1",
                    "--seconds", str(run.RUN_SECONDS), "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
