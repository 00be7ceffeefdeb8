"""gqsm benchmark: drives ``gqsm.cli.main`` in-process over a workload.

    python3 bench/run.py --workload closure|aggregate|corpus --seed N \
        --seconds S --trace 0|1 [--size K]

With ``--trace 0`` it repeats passes over the workload's programs until
``--seconds`` is spent, times set-up in fresh interpreters between
passes and a reference task between requests, and reports the
end-to-end metrics.  With ``--trace 1`` it alternates untraced and
traced passes and reports per-layer metrics.  ``bench/README.md``
defines every metric and workload.
Either way every request's output is checked; the last stdout line is
one JSON object with ``correct``, ``attempted``, ``failed``, ``metrics``.

Everything runs in this one process, one request at a time; set-up is
measured in fresh interpreters started one after another.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_SPAWNS = 20
SETUP_SCRIPT = (
    "import sys, time\n"
    "sys.path.insert(0, {src!r})\n"
    "t0 = time.perf_counter()\n"
    "import gqsm.cli\n"
    "gqsm.cli.Registry()\n"
    "print(time.perf_counter() - t0)\n"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "sm_operator_s": "s",
    "sm_reduct_s": "s",
    "flp_s": "s",
    "compare_s": "s",
    "inspect_s": "s",
    "request_p50_s": "s",
    "request_p95_s": "s",
    "programs_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict:
    units = {}
    for route in ("sm_operator", "sm_reduct", "flp"):
        for name, unit in (
            ("solver.candidates", "count"),
            ("solver.classical_models", "count"),
            ("solver.model_ratio", "ratio"),
            ("solver.witness_tests", "count"),
            ("solver.witnesses_per_rejection", "tests/rejection"),
            ("ground.witness_s", "s"),
            ("solver.self_s", "s"),
            ("ground.model_check_s", "s"),
            ("quantifiers.resolve_calls", "count"),
            ("quantifiers.truth_calls", "count"),
        ):
            units[f"{name}.{route}"] = unit
    for name, unit in (
        ("reduct.calls", "count"),
        ("reduct.reduct_s", "s"),
        ("reduct.replaced", "count"),
        ("parser.parse_s", "s"),
        ("parser.calls", "count"),
        ("ground.ground_s", "s"),
        ("ground.nodes", "count"),
        ("render.render_s", "s"),
        ("render.calls", "count"),
        ("cli.self_s", "s"),
        ("trace.overhead_frac", "ratio"),
    ):
        units[name] = unit
    return units


PER_LAYER_UNITS = per_layer_units()


@dataclass
class PassResult:
    wall: float = 0.0
    latencies: dict = field(default_factory=dict)  # (kind, program, request key) -> seconds
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)  # program name -> request key -> (rc, stdout)


def call(argv: list, stdin_text):
    """Run one CLI request in-process; returns (exit code, stdout, seconds)."""
    from gqsm.cli import main

    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            try:
                rc = main(argv)
            except Exception as exc:  # a crash is a failed request, not a crashed run
                rc = f"raised {type(exc).__name__}: {exc}"
            dt = perf_counter() - t0
    finally:
        sys.stdin = saved_stdin
    return rc, out.getvalue(), dt


def run_pass(programs: list, rounds: dict, tracer=None, gauge=None) -> PassResult:
    """One pass: each request kind in turn, ``rounds[kind]`` rounds over
    every program (default one), then the output check.  A ``gauge``
    samples the reference task between requests.

    The inspect kind sends ``ground`` and one ``reduct --model M`` per
    stable model M found by this pass's operator requests.  A repeated
    request that prints something else than its first round fails the
    check."""
    import workloads as w

    res = PassResult()
    outputs = res.outputs = {prog.name: {} for prog in programs}

    def send(kind, prog, label, model=""):
        argv = w.argv_for(label, prog.path, model)
        if tracer is None:
            rc, out, dt = call(argv, prog.text)
        else:
            with tracer.request(label, w.SCOPES[label]):
                rc, out, dt = call(argv, prog.text)
        key = f"{label}:{model}" if label == w.INSPECT else label
        got = outputs[prog.name].setdefault(key, (rc, out))
        if got != (rc, out):
            outputs[prog.name][key] = ("differs between rounds", out)
        res.latencies.setdefault((kind, prog.name, key), []).append(dt)
        if gauge is not None:
            gauge.tick()

    t_pass = perf_counter()
    for kind in w.KINDS:
        for _ in range(rounds.get(kind, 1)):
            for prog in programs:
                if kind == w.BOTH and not prog.with_both:
                    continue
                if kind == w.INSPECT_ROUND:
                    send(kind, prog, w.GROUND)
                    for model in w.answers(outputs[prog.name][w.OPERATOR][1]):
                        send(kind, prog, w.INSPECT, w.model_argument(model))
                else:
                    send(kind, prog, kind)
    res.wall = perf_counter() - t_pass
    for prog in programs:
        bad = w.check(prog, outputs[prog.name])
        res.failed += len(bad)
        res.failures.extend(f"{prog.name} {label}" for label in sorted(bad))
    res.attempted = sum(len(v) for v in res.latencies.values())
    return res


def setup_once() -> float:
    """Seconds a fresh interpreter takes to import gqsm.cli and build a
    Registry."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_SCRIPT.format(src=str(SRC))],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(done.stdout.strip())


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def repeat_passes(seconds: float, step) -> list:
    """Call ``step`` until ``seconds`` is spent, not starting a step that
    the last one's duration says would overrun; at least one step."""
    out = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        out.append(step())
        last = perf_counter() - t0
        if perf_counter() - start + last > seconds:
            return out


def timed_run(programs, rounds: dict, seconds: float):
    """End-to-end metrics.

    Each distinct request (one command line on one program) is timed at
    the fastest of its repeats in the run: the work is deterministic and
    the host's speed drifts in bursts that only ever add time, so the
    fastest repeat is the one least disturbed, where the median moves as
    soon as a burst covers half the repeats.  A kind's time sums its
    distinct requests, i.e. one round over the workload's programs; the
    latency percentiles are taken over the distinct requests of one mix.

    A slow spell can cover a whole run, so every time is then scaled to
    the host speed at which the reference task takes its nominal time
    (``bench/reference.py``); the unscaled times are printed as well."""
    import workloads as w
    from reference import Gauge

    setup_once()  # warm-up
    setup: list = []
    gauge = Gauge()
    start = perf_counter()

    def step():
        # spread the set-up spawns over the run, between passes
        res = run_pass(programs, rounds, gauge=gauge)
        due = min(SETUP_SPAWNS, SETUP_SPAWNS * (perf_counter() - start) / seconds)
        while len(setup) < due:
            setup.append(setup_once())
        return res

    passes = repeat_passes(seconds, step)
    while len(setup) < SETUP_SPAWNS:
        setup.append(setup_once())
    repeats: dict = {}
    for p in passes:
        for request, dts in p.latencies.items():
            repeats.setdefault(request, []).extend(dts)
    best: dict = {}  # kind -> summed fastest repeats of its distinct requests
    n: dict = {}  # kind -> fewest repeats of one of its requests
    latencies = []
    for (kind, _, _), dts in repeats.items():
        t = min(dts)
        latencies.append(t)
        best[kind] = best.get(kind, 0.0) + t
        n[kind] = min(n.get(kind, len(dts)), len(dts))
    raw = {
        "setup_s": statistics.median(setup),
        "sm_operator_s": best[w.OPERATOR],
        "sm_reduct_s": best[w.REDUCT],
        "flp_s": best[w.FLP],
        "compare_s": best[w.COMPARE],
        "inspect_s": best[w.INSPECT_ROUND],
        "request_p50_s": percentile(latencies, 0.5),
        "request_p95_s": percentile(latencies, 0.95),
        "programs_per_s": len(programs) / sum(best.values()),
    }
    factor = gauge.factor()
    metrics = {
        name: value / factor if name == "programs_per_s" else value * factor
        for name, value in raw.items()
    }
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    counts = {
        "setup_s": len(setup),
        "sm_operator_s": n[w.OPERATOR],
        "sm_reduct_s": n[w.REDUCT],
        "flp_s": n[w.FLP],
        "compare_s": n[w.COMPARE],
        "inspect_s": n[w.INSPECT_ROUND],
        "request_p50_s": len(latencies),
        "request_p95_s": len(latencies),
        "programs_per_s": min(n.values()),
        "peak_rss_mb": 1,
    }
    print(f"reference: fastest {min(gauge.samples):.6f} s of n={len(gauge.samples)}, "
          f"scale {factor:.4f}; unscaled: "
          + " ".join(f"{k}={v:.6g}" for k, v in raw.items()))
    return passes, metrics, counts


def traced_run(programs, seconds: float):
    """Per-layer metrics from traced passes of one round per kind,
    alternated with untraced passes of the same shape."""
    from tracing import Tracer

    untraced, traced, layers, tracers = [], [], [], []

    def step():
        if len(untraced) <= len(traced):
            untraced.append(run_pass(programs, {}))
            return untraced[-1]
        tracer = Tracer()
        with tracer.installed():
            traced.append(run_pass(programs, {}, tracer))
        layers.append(tracer.metrics("solve"))
        tracers.append(tracer)
        return traced[-1]

    repeat_passes(seconds, step)
    if not traced:
        step()
    counts = [
        {k: v for k, v in layer.items() if isinstance(v, int)} for layer in layers
    ]
    if any(c != counts[0] for c in counts):
        raise RuntimeError("per-layer counts differ between traced passes")
    metrics = {
        k: statistics.median(layer[k] for layer in layers) for k in layers[0]
    }
    metrics.update(counts[0])
    metrics["trace.overhead_frac"] = (
        statistics.median(p.wall for p in traced)
        / statistics.median(p.wall for p in untraced)
        - 1
    )
    samples = {k: len(traced) for k in metrics}
    print_spans(tracers)
    return untraced + traced, metrics, samples


def print_spans(tracers) -> None:
    """Request spans of the traced passes, summed by request label, on
    stderr: count, total seconds, and self seconds inside ``gqsm.cli``."""
    totals = {}
    for tracer in tracers:
        for label, dt, self_s in tracer.requests:
            n, t, s = totals.get(label, (0, 0.0, 0.0))
            totals[label] = (n + 1, t + dt, s + self_s)
    for label, (n, t, s) in totals.items():
        print(f"span {label:16s} n={n:6d} total_s={t:.6f} self_s={s:.6f}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("closure", "aggregate", "corpus"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", type=int, default=None,
                    help="workload size; the default is the gated one")
    args = ap.parse_args(argv)

    if not (SRC / "gqsm" / "cli.py").is_file():
        print(f"error: no gqsm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import workloads as w

    programs = w.build(args.workload, args.seed, args.size)
    if args.trace:
        passes, metrics, samples = traced_run(programs, args.seconds)
        units = PER_LAYER_UNITS
    else:
        passes, metrics, samples = timed_run(programs, w.ROUNDS[args.workload], args.seconds)
        units = END_TO_END_UNITS
    if set(metrics) != set(units):
        raise RuntimeError(f"metric set mismatch: {sorted(set(metrics) ^ set(units))}")

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for line in sorted({f for p in passes for f in p.failures}):
        print(f"FAILED {line}")
    print(
        f"{args.workload} seed={args.seed} size={args.size or w.DEFAULT_SIZE[args.workload]} "
        f"passes={len(passes)} attempted={attempted} failed={failed} "
        f"failed_frac={failed / attempted:.6f}"
    )
    for name in units:
        print(f"  {name:42s} {metrics[name]:14.6g} {units[name]:16s} n={samples[name]}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": units[name]} for name in units
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
