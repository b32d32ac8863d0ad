"""The one merging writer of ``results/BENCH_scaling.json``."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def record():
    sys.path.insert(0, str(ROOT / "scripts"))
    try:
        import bench_results
    finally:
        sys.path.pop(0)
    return bench_results.record


def test_record_replaces_only_its_own_blocks(record, tmp_path):
    path = tmp_path / "results" / "BENCH_scaling.json"
    record({"rows": [{"n": 64}, {"n": 128}], "fabric": {"rows": [1]}}, path)
    record({"fabric": {"rows": [2]}, "slo": {"wall_s": 1.5}}, path)
    assert json.loads(path.read_text()) == {
        "fabric": {"rows": [2]},
        "rows": [{"n": 64}, {"n": 128}],
        "slo": {"wall_s": 1.5},
    }


def test_record_writes_one_layout(record, tmp_path):
    path = tmp_path / "BENCH_scaling.json"
    path.write_text(json.dumps({"rows": [{"wall_s": 1, "n": 64}]}, indent=2))
    record({"door_scaling": {"rows": []}}, path)
    text = path.read_text()
    expected = {"door_scaling": {"rows": []}, "rows": [{"n": 64, "wall_s": 1}]}
    assert text == json.dumps(expected, indent=1, sort_keys=True) + "\n"


def test_record_refuses_a_file_it_cannot_read(record, tmp_path):
    path = tmp_path / "BENCH_scaling.json"
    path.write_text("{not json")
    with pytest.raises(json.JSONDecodeError):
        record({"slo": {}}, path)
    assert path.read_text() == "{not json"


@pytest.fixture
def script_module(monkeypatch):
    """Import a script from ``scripts/`` with every ``record`` call captured."""
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import bench_results

    written: list[dict] = []

    def capture(blocks, path=None):
        written.append(blocks)

    monkeypatch.setattr(bench_results, "record", capture)

    def load(name):
        module = __import__(name)
        if hasattr(module, "record"):
            monkeypatch.setattr(module, "record", capture)
        return module

    load.written = written
    return load


@pytest.mark.parametrize("script", ["run_decompose_bench", "run_canary"])
def test_smoke_gates_write_nothing(script_module, script):
    """A CI smoke must not replace the block its full run recorded."""
    assert script_module(script).main(["--smoke"]) == 0
    assert script_module.written == []


def test_recorded_blocks_come_from_full_runs():
    results = json.loads((ROOT / "results" / "BENCH_scaling.json").read_text())
    assert results["decompose"]["mode"] == "full"
    assert results["slo"]["arrivals"] > 120  # the smoke replays 120
    assert set(results["slo"]["candidates"]) == {"fast"}
