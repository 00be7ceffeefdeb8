"""A fixed pure-Python reference task that gauges the host's speed.

The host is shared and its speed drifts: for seconds, and sometimes for
whole runs, everything runs up to twice as slow.  The reference task does
the same kind of work as the solver (recursive evaluation of a formula
tree over subsets, tuple hashing, dict and frozenset look-ups, small
allocations) but none of gqsm's code, so a change to gqsm never moves
it.  ``timed_run`` samples it between requests and reports every time at
the speed the host had when the reference took ``NOMINAL_S``:

    reported = measured * NOMINAL_S / fastest reference sample of the run

A change that makes gqsm slower by a factor makes the reported times
slower by that factor; a host that runs the whole run slower does not.
"""
from __future__ import annotations

import gc
import random
from time import perf_counter

# The fastest reference sample on a calm 2-core host (Python 3.11).
NOMINAL_S = 0.0027

# Sample the reference once this much wall time has passed since the
# last sample, checked after each request.
INTERVAL_S = 0.05

ATOMS = 9


def _formula(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.2:
        return ("atom", rng.randrange(ATOMS))
    op = rng.choice(("and", "or", "impl", "not"))
    if op == "not":
        return (op, _formula(rng, depth - 1))
    return (op, _formula(rng, depth - 1), _formula(rng, depth - 1))


_FORMULA = _formula(random.Random(20130107), 6)
_SUBSETS = [
    frozenset(a for a in range(ATOMS) if mask >> a & 1) for mask in range(1 << ATOMS)
]


def _truth(node, interp: frozenset, memo: dict) -> bool:
    key = (id(node), interp)
    got = memo.get(key)
    if got is not None:
        return got
    op = node[0]
    if op == "atom":
        val = node[1] in interp
    elif op == "not":
        val = not _truth(node[1], interp, memo)
    elif op == "and":
        val = _truth(node[1], interp, memo) and _truth(node[2], interp, memo)
    elif op == "or":
        val = _truth(node[1], interp, memo) or _truth(node[2], interp, memo)
    else:
        val = not _truth(node[1], interp, memo) or _truth(node[2], interp, memo)
    memo[key] = val
    return val


def task() -> int:
    """The reference work: the models of a fixed formula, and for each
    model the subsets below it that are models too."""
    memo: dict = {}
    models = [s for s in _SUBSETS if _truth(_FORMULA, s, memo)]
    return sum(1 for i in models for j in models if j < i)


EXPECTED = task()


def sample() -> float:
    """Seconds one reference task takes, with the collector off so that
    the benchmark's own heap does not count."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        got = task()
        dt = perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    if got != EXPECTED:
        raise RuntimeError("the reference task gave another result")
    return dt


class Gauge:
    """Reference samples taken at most every ``INTERVAL_S`` seconds."""

    def __init__(self) -> None:
        self.samples: list = [sample()]
        self._last = perf_counter()

    def tick(self) -> None:
        if perf_counter() - self._last >= INTERVAL_S:
            self.samples.append(sample())
            self._last = perf_counter()

    def factor(self) -> float:
        """Multiplier from measured to reported seconds."""
        return NOMINAL_S / min(self.samples)
