"""Tests of the benchmark itself (not collected by the package's suite).

    python3 -m pytest bench
"""
import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import gqsm.solver  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as w  # noqa: E402

TINY = {"closure": 3, "aggregate": 3, "corpus": 10}


def bench(*args, cwd=ROOT, script=BENCH_DIR / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def declared(kind):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_smoke_pass_reports_every_metric_with_its_unit(workload, trace, kind):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                 "--trace", trace, "--size", str(TINY[workload]))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == declared(kind)


def test_corrupted_expected_output_counts_as_failed():
    expected = w.load_expected()
    corrupt = copy.deepcopy(expected)
    programs = w.build("corpus", w.GATE_SEED, TINY["corpus"], corrupt)
    victim = programs[-1]
    victim.expected[w.GROUND] = "0:" + "0" * 16
    res = run.run_pass(programs, {})
    assert res.failed == 1 and res.attempted > 1
    assert res.failures == [f"{victim.name} {w.GROUND}"]

    corrupt["programs"]["closure-3"][w.GROUND][1] += "extra line\n"
    res = run.run_pass(w.build("closure", 5, 3, corrupt), {})
    assert res.failed / res.attempted > 0


def test_wrong_answer_fails_the_cross_checks():
    (prog,) = w.build("aggregate", 4, 3)
    results = run.run_pass([prog], {}).outputs[prog.name]
    assert w.check(prog, results) == set()
    rc, out = results[w.REDUCT]
    results[w.REDUCT] = (rc, out.splitlines()[0] + "\n")
    assert w.REDUCT in w.check(prog, results)


def test_repeated_rounds_must_agree(monkeypatch):
    (prog,) = w.build("closure", 6, 3)
    calls = []
    real_call = run.call

    def flaky(argv, text):
        rc, out, dt = real_call(argv, text)
        calls.append(argv[0])
        if argv[0] == "ground" and calls.count("ground") == 2:
            out += "x\n"
        return rc, out, dt

    monkeypatch.setattr(run, "call", flaky)
    res = run.run_pass([prog], {w.INSPECT_ROUND: 3})
    assert res.failures == [f"{prog.name} {w.GROUND}"]


def test_traced_counts_repeat_and_match_the_solver():
    programs = w.build("closure", 7, 3)
    layers = []
    for _ in range(2):
        tracer = tracing.Tracer()
        with tracer.installed():
            assert run.run_pass(programs, {}, tracer).failed == 0
        layers.append(tracer.metrics("solve"))
    counts = [{k: v for k, v in m.items() if isinstance(v, int)} for m in layers]
    assert counts[0] == counts[1]
    for route in tracing.ROUTES:
        assert counts[0][f"solver.candidates.{route}"] == 2 ** 6
        assert counts[0][f"solver.witness_tests.{route}"] > 0


def test_missing_wrapped_name_fails_loudly(monkeypatch):
    monkeypatch.delattr(gqsm.solver, "eval_star")
    with pytest.raises(tracing.TraceError, match="eval_star"):
        with tracing.Tracer().installed():
            pass


def test_unreached_boundary_fails_loudly():
    with pytest.raises(tracing.TraceError, match="never reached"):
        with tracing.Tracer().installed():
            pass


def test_corpus_pool_is_pinned(monkeypatch):
    randprog = w._randprog()
    monkeypatch.setattr(randprog, "random_in_class_program", randprog.random_wild_program)
    with pytest.raises(RuntimeError, match="pinned hash"):
        w.build("corpus", w.GATE_SEED, TINY["corpus"])


def test_corpus_slices_cost_about_the_same():
    expected = w.load_expected()
    pool, costs = w.pool_programs(), expected["pool_cost_ms"]
    size = w.DEFAULT_SIZE["corpus"]
    totals = []
    for seed in range(1, 11):
        picks = w.corpus_slice(seed, size, pool, costs)
        assert len(set(picks)) == size
        assert all(w.base_size(pool[i]) <= w.CORPUS_MAX_BASE for i in picks)
        totals.append(sum(costs[i] for i in picks))
    assert max(totals) / min(totals) < 1.1
    assert w.corpus_slice(2, size, pool, costs) != w.corpus_slice(1, size, pool, costs)


def test_reference_scales_to_its_nominal_time():
    gauge = reference.Gauge()
    gauge.samples = [0.004, 0.003, 0.005]
    assert gauge.factor() == pytest.approx(reference.NOMINAL_S / 0.003)
    assert reference.sample() > 0


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "closure", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
