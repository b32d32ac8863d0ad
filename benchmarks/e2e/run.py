"""One end-to-end benchmark for every door of the CST-PADR scheduler.

Run from the repository root::

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed S] [--seconds 10]
                                  [--trace [0|1]] [--trace-out FILE]
                                  [--repeat K] [--smoke] [--out FILE]

Each named workload runs in its own fresh child process, one after
another, so set-up time and peak memory are per workload.  The command
prints every end-to-end metric as ``workload metric value unit``, checks
every output, and exits 1 when a check fails (2 when a run could not
complete).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics, or with ``--trace 1`` the per-layer metrics of a separate traced
run.  See README.md for the workloads, the metrics and how to compare two
commits.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import metrics  # noqa: E402  (the benchmark's own module, no program import)

#: ``run_seconds`` in ``BENCHMARK.json``, the only value ``--seconds``
#: accepts: the work per workload is fixed (its timed part takes about this
#: long), so both sides of a comparison always measure the same work.
RUN_SECONDS = 10
#: ``--smoke`` runs this share of every workload (about a second each).
SMOKE_SCALE = 0.1
#: set-ups per measurement: the measured child's own plus set-up-only
#: children; ``setup_s`` is their median.
SETUP_RUNS = 3
CHILD_TIMEOUT_S = 170


class ChildError(RuntimeError):
    """A benchmark child process crashed or timed out."""


# -- child side ---------------------------------------------------------------


def _rusage() -> tuple[float, float, float, float]:
    import resource

    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (me.ru_utime + me.ru_stime, kids.ru_utime + kids.ru_stime,
            me.ru_maxrss / 1024.0, kids.ru_maxrss / 1024.0)


def child(args: argparse.Namespace) -> dict:
    """Set up and (unless ``--mode setup``) measure one workload."""
    start = time.monotonic()
    speed_before = metrics.host_speed(runs=3)
    excluded_s = time.monotonic() - start

    import checks
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, SMOKE_SCALE if args.smoke else 1.0)
    start = time.monotonic()
    workload.generate()
    excluded_s += time.monotonic() - start  # the benchmark's work, not the program's
    workload.setup()
    setup_s = time.monotonic() - args.t0 - excluded_s
    speed = (speed_before + metrics.host_speed(runs=3)) / 2
    setup_s /= speed ** metrics.SETUP_SPEED_EXPONENT
    if args.mode == "setup":
        workload.close()
        return {"setup_s": setup_s}

    tracer = timer = None
    config = getattr(workload, "config", None)
    if args.mode == "trace":
        import spans
        from repro.core.config import SchedulerConfig

        config = config or SchedulerConfig()
        tracer = spans.Tracer()
        timer = spans.WaveTimer(tracer, config)
        workload.attach(timer)
        tracer.install()
    checker = checks.Checker(mean_ratio=workload.mean_ratio)
    panel = checks.Checker(mean_ratio=workload.mean_ratio)
    cpu0 = _rusage()[0]
    try:
        m = workload.run(checker, tracer)
        cpu_self = _rusage()[0] - cpu0
        workload.run_panel(panel)
        replay = tracer.replay(config, timer) if tracer is not None else None
    finally:
        if tracer is not None:
            tracer.uninstall()
        workload.close()
    _, cpu_kids, rss_self, rss_kids = _rusage()

    pct = metrics.tail_percentile
    quality = panel.quality()
    values = {
        "setup_s": setup_s,
        "throughput_rps": m.throughput(),
        "latency_p50_ms": pct(m.samples_ms, 0.50),
        "latency_p99_ms": pct(m.samples_ms, 0.99),
        "slo_attain": m.within_slo / m.attempted,
        "error_rate": (m.attempted - m.done) / m.attempted,
        "rounds_per_width": quality.get("rounds_per_width"),
        "power_units_per_comm": quality.get("power_units_per_comm"),
        "max_switch_changes": quality.get("max_switch_changes"),
        "peak_rss_mb": rss_self + rss_kids,
        "host.cpu_util": (cpu_self + cpu_kids) / m.loop_s / (os.cpu_count() or 1),
        "loadgen.lag_p99_ms": pct(m.lag_ms, 0.99) if m.lag_ms else None,
        "host.speed_factor": statistics.median(m.speed) if m.speed else None,
    }
    if tracer is not None:
        values.update(_layer_values(tracer, timer, replay, m, checker.quality()))
        if args.trace_out:
            tracer.write(args.trace_out)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "correct": checker.failed + panel.failed == 0,
        "first_failure": checker.first_failure or panel.first_failure,
        "first_error": checker.first_error,
        "attempted": m.attempted,
        "failed": m.failed,
        "shed": m.shed,
        "samples": len(m.samples_ms),
        "timed_s": m.timed_s,
        "raw_s": m.raw_s,
        "values": values,
    }


def _layer_values(tracer, timer, replay, m, quality) -> dict:
    """The per-layer metrics of a traced run (see README.md for definitions)."""
    reqs = m.attempted
    out: dict[str, float | None] = {}
    for name, secs in tracer.self_times().items():
        out[f"{name}.self_ms"] = secs * 1e3 / reqs
    for metric in (*metrics.PER_LAYER, *metrics.TRACE_REPORT):
        if metric.name.endswith(".self_ms"):
            out.setdefault(metric.name, 0.0)
    for key in ("comms.decompose.batches_per_request", "comms.decompose.batch_gap",
                "core.rounds_per_request", "core.plan.merged_rounds_share"):
        out[key] = quality.get(key, 0.0)

    counts = m.counts
    cached = counts.get("cached", 0)
    executed = m.done - cached  # cache-miss leaders that ran the scheduler
    out["service.cache.hit_rate"] = cached / m.done if m.done else 0.0
    followers = counts.get("misses", executed) - executed
    out["service.dedup.follower_share"] = followers / reqs
    out["service.shape_batch.share"] = tracer.batched_elements / executed if executed else 0.0
    wait_ticks = counts.get("wait_ticks", [])
    out["service.stream.queue_wait_p99_ticks"] = (
        metrics.tail_percentile(wait_ticks, 0.99) or (max(wait_ticks) if wait_ticks else 0.0)
    )
    out["service.admission.red_ticks"] = float(counts.get("red_ticks", 0))
    out["service.shed"] = float(m.shed)

    out["io.ipc_bytes_per_request"] = replay["bytes"] * replay["scale"] / reqs
    out["io.pickle.self_ms"] = replay["pickle_s"] * replay["scale"] * 1e3 / reqs
    out["ipc.overhead_ms_per_request"] = (
        (replay["wait_s"] - replay["replay_s"]) * 1e3 / replay["requests"]
        if replay["requests"] else 0.0
    )
    layers = tracer.layer_times(m.raw_s)  # spans are on the measured clock
    for layer in ("comms", "service", "io", "core", "cst", "fabric", "untraced"):
        out[f"layer.{layer}.share"] = layers[layer] / m.raw_s
    out["ipc.overhead_share"] = layers["ipc"] / m.raw_s

    runs = sum(timer.runs.values())
    batched = tracer.batched_elements
    out["core.columnar.share"] = (
        (timer.runs["columnar"] + batched) / (runs + batched) if runs + batched else 0.0
    )
    waves = [w for path in timer.waves.values() for w in path]
    logical = sum(w[1] for w in waves)
    out["core.frontier_ratio"] = sum(w[0] for w in waves) / logical if logical else 0.0
    for label, data in (("", waves), *((f"{p}.", w) for p, w in timer.waves.items())):
        slope, intercept, r2 = metrics.linear_fit([w[0] for w in data], [w[2] for w in data])
        out[f"core.wave.{label}ns_per_message"] = slope * 1e9
        out[f"core.wave.{label}fixed_us"] = intercept * 1e6
        out[f"core.wave.{label}fit_r2"] = r2
        out[f"core.wave.{label}samples"] = float(len(data))

    load = counts.get("shard_load")
    out["fabric.shard_imbalance"] = (
        max(load) / (sum(load) / len(load)) if load and sum(load) else 0.0
    )
    return out


# -- parent side --------------------------------------------------------------


def spawn(workload: str, seed: int, smoke: bool, mode: str, trace_out: str | None = None) -> dict:
    """Run one child to completion; kill its whole process group on timeout."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", "--mode", mode,
           "--workload", workload, "--seed", str(seed)]
    if smoke:
        cmd.append("--smoke")
    if trace_out:
        cmd += ["--trace-out", trace_out]
    cmd += ["--t0", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0 or not out.strip():
        tail = "\n".join(err.strip().splitlines()[-15:])
        raise ChildError(f"{workload} ({mode}) exited {proc.returncode}:\n{tail}")
    return json.loads(out.strip().splitlines()[-1])


def measure(workload: str, seed: int, smoke: bool, trace: bool, trace_out: str | None) -> dict:
    """One measurement: set-up-only children + measured child, or untraced + traced child."""
    if trace:
        plain = spawn(workload, seed, smoke, "run")
        traced = spawn(workload, seed, smoke, "trace", trace_out)
        values = dict(traced["values"])
        for key in ("host.cpu_util", "loadgen.lag_p99_ms"):
            values[key] = plain["values"][key]
        t, p = traced["values"], plain["values"]
        values["tracing.overhead_p50_ms"] = t["latency_p50_ms"] - p["latency_p50_ms"]
        # measured time in the timed intervals: the open loop's timed_s is
        # its clock, which the arrival schedule mostly fixes
        values["tracing.overhead_share"] = traced["raw_s"] / plain["raw_s"] - 1.0
        result = dict(traced, values=values, untraced=p)
        result["correct"] = plain["correct"] and traced["correct"]
        result["first_failure"] = plain["first_failure"] or traced["first_failure"]
        return result
    setups = [spawn(workload, seed, smoke, "setup")["setup_s"] for _ in range(SETUP_RUNS - 1)]
    result = spawn(workload, seed, smoke, "run")
    setups.append(result["values"]["setup_s"])
    result["values"]["setup_s"] = statistics.median(setups)
    result["setup_runs_s"] = setups
    return result


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def print_run(result: dict, names: list[str], units: dict[str, str]) -> None:
    w = result["workload"]
    for name in names:
        value = result["values"].get(name)
        print(f"{w} {name} {_fmt(value)} {units.get(name, '')}".rstrip())
    print(f"{w} latency_samples {result['samples']} count")
    print(f"{w} host.speed_factor {_fmt(result['values'].get('host.speed_factor'))} ratio")
    if result.get("first_error"):
        print(f"{w} first_incomplete_request {result['first_error']}")
    if not result["correct"]:
        print(f"{w} CHECK FAILED: {result['first_failure']}")


def print_trace_report(result: dict, names: list[str], units: dict[str, str]) -> None:
    """Per-layer metrics, the untraced remainder and the per-path wave fits."""
    w, v = result["workload"], result["values"]
    print(f"# {w}: per-layer metrics (traced run; shares are of the timed wall)")
    for name in names:
        print(f"{w} {name} {_fmt(v.get(name))} {units[name]}")
    print(f"{w} layer.untraced.share {_fmt(v.get('layer.untraced.share'))} share")
    for path in ("scalar", "columnar"):
        for key, unit in (("ns_per_message", "ns"), ("fixed_us", "us"),
                          ("fit_r2", "ratio"), ("samples", "count")):
            name = f"core.wave.{path}.{key}"
            print(f"{w} {name} {_fmt(v.get(name))} {unit}")


def final_line(results: list[dict], names: list[str], units: dict[str, str]) -> dict:
    """The machine-readable last line; metric keys are prefixed by workload
    only when several workloads ran (medians over repeats)."""
    by_workload: dict[str, list[dict]] = {}
    for r in results:
        by_workload.setdefault(r["workload"], []).append(r)
    single = len(by_workload) == 1
    out_metrics = {}
    for w, runs in by_workload.items():
        for name in names:
            vals = [r["values"].get(name) for r in runs]
            vals = [x for x in vals if x is not None]
            key = name if single else f"{w}/{name}"
            out_metrics[key] = {
                "value": statistics.median(vals) if vals else None,
                "unit": units.get(name, ""),
            }
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": out_metrics,
    }


def print_stability(results: list[dict], metric_defs) -> dict:
    """Median, IQR and spread/bound per workload and metric (``--repeat``)."""
    summary: dict[str, dict] = {}
    print("# stability: workload metric median q1 q3 iqr/median spread/bound")
    for w in dict.fromkeys(r["workload"] for r in results):
        runs = [r for r in results if r["workload"] == w]
        summary[w] = {}
        for metric in metric_defs:
            vals = [r["values"].get(metric.name) for r in runs]
            if any(v is None for v in vals) or not vals:
                continue
            s = metrics.spread(vals)
            ratio = s["iqr_share"] / metric.bound if metric.bound else None
            s["spread_over_bound"] = ratio
            summary[w][metric.name] = s
            print(f"{w} {metric.name} {_fmt(s['median'])} {_fmt(s['q1'])} "
                  f"{_fmt(s['q3'])} {_fmt(s['iqr_share'])} {_fmt(ratio)}")
    return summary


def exit_code(results: list[dict]) -> int:
    """1 when any output check failed, else 0."""
    return 0 if all(r["correct"] for r in results) else 1


def parse(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", nargs="+", action="extend", default=None,
                   help="workload name(s); default: all four")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, choices=(RUN_SECONDS,), default=RUN_SECONDS,
                   help="run_seconds of BENCHMARK.json; the work is fixed, so no other value")
    p.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
                   help="also run traced and report per-layer metrics")
    p.add_argument("--trace-out", help="write the traced run's spans here (JSON lines)")
    p.add_argument("--repeat", type=int, default=1, help="runs per workload (seeds S..S+K-1)")
    p.add_argument("--smoke", action="store_true",
                   help=f"run {SMOKE_SCALE:.0%} of every workload's work (about a second)")
    p.add_argument("--out", help="write every run and the stability summary as JSON")
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--mode", choices=("setup", "run", "trace"), default="run", help=argparse.SUPPRESS)
    p.add_argument("--t0", type=float, default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    if args.child:
        args.workload = args.workload[0]
        args.t0 = time.monotonic() if args.t0 is None else args.t0
        print(json.dumps(child(args)))
        return 0

    import workloads

    known = tuple(workloads.WORKLOADS)
    names = args.workload or list(known)
    unknown = [n for n in names if n not in known]
    if unknown or args.repeat < 1:
        print(f"error: unknown workload(s) {unknown}; choose from {known}", file=sys.stderr)
        return 2
    e2e = [m.name for m in metrics.END_TO_END]
    shown = e2e + [m.name for m in metrics.REPORT_ONLY]
    layer_names = [m.name for m in metrics.PER_LAYER]
    trace_names = [m.name for m in metrics.TRACE_REPORT]
    units = metrics.UNITS

    results = []
    try:
        for rep in range(args.repeat):
            for w in names:
                trace_out = None
                if args.trace_out:
                    base = Path(args.trace_out)
                    trace_out = str(base.with_name(f"{base.stem}.{w}.{args.seed + rep}{base.suffix}"))
                r = measure(w, args.seed + rep, args.smoke, bool(args.trace), trace_out)
                results.append(r)
                print_run(r, [n for n in shown if not (args.trace and n == "setup_s")], units)
                if args.trace:
                    print_trace_report(r, layer_names + trace_names, units)
                sys.stdout.flush()
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    defs = metrics.PER_LAYER if args.trace else (*metrics.END_TO_END, *metrics.REPORT_ONLY)
    summary = print_stability(results, defs) if args.repeat > 1 else {}
    if args.out:
        Path(args.out).write_text(json.dumps({
            "cpu_count": os.cpu_count(),
            "seed": args.seed,
            "smoke": args.smoke,
            "repeat": args.repeat,
            "trace": bool(args.trace),
            "runs": results,
            "summary": summary,
        }, indent=1) + "\n")
    print(json.dumps(final_line(results, layer_names if args.trace else e2e, units)))
    return exit_code(results)


if __name__ == "__main__":
    sys.exit(main())
