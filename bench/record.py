"""Regenerate ``bench/expected.json`` from the current code.

    python3 bench/record.py

Run it only at a commit whose outputs are known good: the file pins the
corpus pool by hash and holds the outputs every later commit must
reproduce.  ``workloads.check`` cross-checks the recorded outputs
(route agreement, comparison consistency, in-class agreement, README
answers), and this script refuses to write a file that fails them.
"""
import json
import sys

from run import BENCH_DIR, SRC, run_pass

sys.path.insert(0, str(SRC))
import workloads as w  # noqa: E402


COST_PASSES = 5


def record(prog) -> dict:
    """Outputs of one pass of the request mix over ``prog``."""
    return run_pass([prog], {}).outputs[prog.name]


def cost_ms(prog) -> float:
    """Milliseconds of the full request mix over ``prog``, each request
    at the fastest of ``COST_PASSES`` passes."""
    passes = [run_pass([prog], {}) for _ in range(COST_PASSES)]
    fastest = [
        min(dt for dts in repeats for dt in dts)
        for repeats in zip(*(p.latencies.values() for p in passes))
    ]
    return round(1000 * sum(fastest), 2)


def main() -> int:
    pool = w.pool_programs()
    costs = [  # only programs that can enter a corpus slice need a cost
        cost_ms(w.Program(f"pool-{i}", text, "-", True, True, {}))
        if w.base_size(text) <= w.CORPUS_MAX_BASE else None
        for i, text in enumerate(pool)
    ]
    expected = {
        "pool": {"seed": w.POOL_SEED, "size": w.POOL_SIZE, "sha256": w.texts_sha256(pool)},
        "slices": {
            f"{seed}/{size}": w.texts_sha256(pool[i] for i in w.corpus_slice(seed, size, pool, costs))
            for seed in (w.GATE_SEED, w.HELDOUT_SEED)
            for size in w.SIZES["corpus"]
        },
        "programs": {},
        "pool_digests": [],
        "pool_cost_ms": costs,
    }
    canonical = [
        (f"closure-{n}", w.closure_text(n), "-", False) for n in w.SIZES["closure"]
    ] + [
        (f"aggregate-{k}", w.aggregate_text(k), "-", False) for k in w.SIZES["aggregate"]
    ] + [
        (f"programs/{name}", None, str(w.ROOT / "programs" / name), True)
        for name in w.DOC_PROGRAMS
    ]
    for key, text, path, with_both in canonical:
        prog = w.Program(key, text, path, True, with_both, {})
        results = record(prog)
        expected["programs"][key] = {label: list(v) for label, v in results.items()}
        print(f"recorded {key}", file=sys.stderr)
    for i, text in enumerate(pool):
        prog = w.Program(f"pool-{i}", text, "-", True, True, {})
        results = record(prog)
        expected["pool_digests"].append(
            {label: w.digest(rc, out) for label, (rc, out) in results.items()}
        )
    # every recorded output must pass the cross-checks before it is kept
    for workload in ("closure", "aggregate", "corpus"):
        for size in w.SIZES[workload]:
            for seed in (w.GATE_SEED, w.HELDOUT_SEED):
                res = run_pass(w.build(workload, seed, size, expected), {})
                if res.failed:
                    print("check failed: " + "; ".join(res.failures), file=sys.stderr)
                    return 1
    with open(BENCH_DIR / "expected.json", "w", encoding="utf-8") as fh:
        dump(expected, fh)
    return 0


def dump(expected: dict, fh) -> None:
    """JSON with one pool program per line, and its costs on few lines."""
    digests = expected["pool_digests"]
    costs = expected["pool_cost_ms"]
    head = json.dumps({**expected, "pool_digests": [], "pool_cost_ms": []}, indent=1, sort_keys=True)
    rows = ",\n".join(json.dumps(d, sort_keys=True, separators=(",", ":")) for d in digests)
    cost_rows = ",\n".join(
        ",".join(json.dumps(c) for c in costs[i:i + 20]) for i in range(0, len(costs), 20)
    )
    head = head.replace('"pool_cost_ms": []', '"pool_cost_ms": [\n' + cost_rows + "\n ]")
    fh.write(head.replace('"pool_digests": []', '"pool_digests": [\n' + rows + "\n ]") + "\n")


if __name__ == "__main__":
    sys.exit(main())
