"""Per-layer tracing from outside the package.

``Tracer.installed()`` replaces, for the duration of one pass, the names
each layer calls into with timing and counting wrappers:

* in ``gqsm.solver``: ``_eval``, ``_gsat``, ``eval_star``,
  ``eval_flp_transform``, ``satisfies_program``, ``reduct``,
  ``ground_program`` and the three route functions;
* in ``gqsm.cli``: ``parse_program``, ``ground_program``, ``reduct``,
  ``render_ground_rule``, ``simplify_rule_sides``, ``compare_semantics``
  and the three route functions;
* ``Registry.resolve``, whose results are swapped for copies whose truth
  function counts its calls.

Each wrapper is a span boundary: it adds its duration to its parent
span's covered time, so a span's self time is its duration minus the
time its direct children cover.  Requests are the outermost spans; the
benchmark opens them around each ``gqsm.cli.main`` call.

Which check a call serves is read from its arguments where one function
serves two: in the reduct route ``_gsat`` is a model check when its
formula is one of the route's ground rules, and a minimality (witness)
check when it is a reduct.  A witness test is one candidate subset J;
it rejects the candidate when it succeeds.

A wrapped name that no longer exists, or a boundary that a pass never
reached, raises ``TraceError`` instead of reporting zero.
"""
from __future__ import annotations

import contextlib
import dataclasses
from collections import Counter, defaultdict
from time import perf_counter

import gqsm.cli
import gqsm.solver
from gqsm.ground import iter_ground_subformulas
from gqsm.quantifiers import Registry

ROUTES = ("sm_operator", "sm_reduct", "flp")

_ROUTE_FUNCTIONS = {
    "stable_models_operator": "sm_operator",
    "stable_models_reduct": "sm_reduct",
    "flp_stable_models": "flp",
}


class TraceError(RuntimeError):
    pass


class RouteStats:
    """Counters and times of one route invocation."""

    __slots__ = (
        "candidates", "classical", "witness_tests", "rejections",
        "rejected_tests", "cand_tests", "witness_s", "model_check_s",
        "self_s", "resolve_calls", "truth_calls", "rule_ids", "rules",
        "n_rules", "model_idx", "model_true", "wit_idx", "wit_true",
    )

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, 0)
        self.rule_ids = frozenset()
        self.rules = ()  # keeps the ground rules alive, so their ids stay unique
        self.model_idx = self.wit_idx = None

    def new_candidate(self):
        self.cand_tests = 0
        self.wit_idx = None

    def witness(self, rejected: bool):
        self.witness_tests += 1
        self.cand_tests += 1
        if rejected:
            self.rejections += 1
            self.rejected_tests += self.cand_tests


_ROUTE_SUMS = ("candidates", "classical", "witness_tests", "rejections",
               "rejected_tests", "witness_s", "model_check_s", "self_s",
               "resolve_calls", "truth_calls")


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.stack = [[0.0]]  # frames hold the time their children cover
        self.route = None  # RouteStats of the innermost running route
        self.scope = None  # set per request by the benchmark
        self.routes = defaultdict(Counter)  # (scope, route) -> summed stats
        self.layer = Counter()
        self.hits = Counter()  # boundary -> calls
        self.ground_results = []
        self.requests = []  # (label, duration, self time)
        self._proxies = {}

    # -- requests -----------------------------------------------------------

    @contextlib.contextmanager
    def request(self, label: str, scope: str):
        self.scope = scope
        frame = [0.0]
        self.stack.append(frame)
        t0 = perf_counter()
        try:
            yield
        finally:
            dt = perf_counter() - t0
            self.stack.pop()
            self.scope = None
            self.layer["cli.self_s"] += dt - frame[0]
            self.requests.append((label, dt, dt - frame[0]))

    # -- wrappers -----------------------------------------------------------

    def _timed(self, boundary, fn, after):
        stack = self.stack
        hits = self.hits

        def wrapped(*args, **kwargs):
            hits[boundary] += 1
            parent = stack[-1]
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                parent[0] += dt
            if after is not None:
                after(args, result, dt)
            return result

        return wrapped

    def _route(self, name, fn):
        tracer = self

        def wrapped(*args, **kwargs):
            tracer.hits["solver." + name] += 1
            parent = tracer.stack[-1]
            frame = [0.0]
            tracer.stack.append(frame)
            outer, rs = tracer.route, RouteStats()
            tracer.route = rs
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                tracer.stack.pop()
                parent[0] += dt
                tracer.route = outer
            rs.self_s = dt - frame[0]
            rs.candidates = result.stats.candidates
            total = tracer.routes[(tracer.scope, name)]
            for key in _ROUTE_SUMS:
                total[key] += getattr(rs, key)
            total["invocations"] += 1
            return result

        return wrapped

    def _model_check(self, args, result, dt):
        rs = self.route
        if rs is None:
            return
        rs.model_check_s += dt
        rs.new_candidate()
        if result:
            rs.classical += 1

    def _witness(self, args, result, dt):
        rs = self.route
        if rs is None:
            return
        rs.witness_s += dt
        rs.witness(bool(result))

    def _gsat(self, args, result, dt):
        rs = self.route
        if rs is None:
            return
        g, idx = args[0], args[1]
        if id(g) in rs.rule_ids:
            rs.model_check_s += dt
            if idx is not rs.model_idx:
                rs.model_idx = idx
                rs.model_true = 0
                rs.new_candidate()
            if result:
                rs.model_true += 1
                if rs.model_true == rs.n_rules:
                    rs.classical += 1
            return
        rs.witness_s += dt
        if idx is not rs.wit_idx:
            rs.wit_idx = idx
            rs.wit_true = 0
            rs.witness(False)
        if result:
            rs.wit_true += 1
            if rs.wit_true == rs.n_rules:
                rs.rejections += 1
                rs.rejected_tests += rs.cand_tests

    def _reduct(self, args, result, dt):
        self.layer["reduct.calls"] += 1
        self.layer["reduct.reduct_s"] += dt
        self.layer["reduct.replaced"] += result.replaced

    def _ground(self, args, result, dt):
        self.layer["ground.ground_s"] += dt
        self.ground_results.append(result)
        rs = self.route
        if rs is not None:
            rs.rules = result
            rs.rule_ids = frozenset(id(g) for g in result)
            rs.n_rules = len(result)

    def _parse(self, args, result, dt):
        self.layer["parser.calls"] += 1
        self.layer["parser.parse_s"] += dt

    def _render(self, args, result, dt):
        self.layer["render.calls"] += 1
        self.layer["render.render_s"] += dt

    def _resolve(self, original):
        tracer = self
        proxies = self._proxies

        def resolve(registry, name):
            tracer.hits["Registry.resolve"] += 1
            qdef = original(registry, name)
            rs = tracer.route
            if rs is not None:
                rs.resolve_calls += 1
            entry = proxies.get(id(qdef))
            if entry is None or entry[0] is not qdef:
                truth = qdef.truth

                def counted(universe, rels):
                    r = tracer.route
                    if r is not None:
                        r.truth_calls += 1
                    return truth(universe, rels)

                entry = (qdef, dataclasses.replace(qdef, truth=counted))
                proxies[id(qdef)] = entry
            return entry[1]

        return resolve

    # -- installation -------------------------------------------------------

    def _plan(self):
        s, c = gqsm.solver, gqsm.cli
        plan = [
            (s, "_eval", self._model_check),
            (s, "satisfies_program", self._model_check),
            (s, "eval_star", self._witness),
            (s, "eval_flp_transform", self._witness),
            (s, "_gsat", self._gsat),
            (s, "reduct", self._reduct),
            (s, "ground_program", self._ground),
            (c, "parse_program", self._parse),
            (c, "ground_program", self._ground),
            (c, "reduct", self._reduct),
            (c, "render_ground_rule", self._render),
            (c, "simplify_rule_sides", self._render),
            (c, "compare_semantics", None),
        ]
        for fn_name in _ROUTE_FUNCTIONS:
            plan.append((s, fn_name, "route"))
            plan.append((c, fn_name, "route"))
        return plan

    @contextlib.contextmanager
    def installed(self):
        saved = []
        routes = {}
        try:
            for module, name, after in self._plan():
                if not hasattr(module, name):
                    raise TraceError(
                        f"{module.__name__}.{name} no longer exists; the traced "
                        "run cannot measure that layer"
                    )
                original = getattr(module, name)
                saved.append((module, name, original))
                if after == "route":
                    route = _ROUTE_FUNCTIONS[name]
                    if route not in routes:
                        routes[route] = self._route(route, original)
                    wrapper = routes[route]
                else:
                    wrapper = self._timed(f"{module.__name__}.{name}", original, after)
                setattr(module, name, wrapper)
            original_resolve = Registry.resolve
            saved.append((Registry, "resolve", original_resolve))
            Registry.resolve = self._resolve(original_resolve)
            yield self
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)
        unreached = sorted(
            f"{module.__name__}.{name}"
            for module, name, after in self._plan()
            if after != "route" and not self.hits[f"{module.__name__}.{name}"]
        )
        unreached += sorted(
            "solver." + r for r in ROUTES if not self.hits["solver." + r]
        )
        if not self.hits["Registry.resolve"]:
            unreached.append("Registry.resolve")
        if unreached:
            raise TraceError(
                "traced boundaries never reached in this pass: " + ", ".join(unreached)
            )

    # -- results ------------------------------------------------------------

    def metrics(self, scope: str) -> dict:
        """Per-layer values of this pass.  Route metrics come from the
        requests opened with ``scope``."""
        out = {}
        for route in ROUTES:
            t = self.routes[(scope, route)]
            if not t["invocations"]:
                raise TraceError(f"no {route} route ran in {scope} requests")
            out[f"solver.candidates.{route}"] = t["candidates"]
            out[f"solver.classical_models.{route}"] = t["classical"]
            out[f"solver.model_ratio.{route}"] = t["classical"] / t["candidates"]
            out[f"solver.witness_tests.{route}"] = t["witness_tests"]
            out[f"solver.witnesses_per_rejection.{route}"] = (
                t["rejected_tests"] / t["rejections"] if t["rejections"] else 0.0
            )
            out[f"ground.witness_s.{route}"] = t["witness_s"]
            out[f"solver.self_s.{route}"] = t["self_s"]
            out[f"ground.model_check_s.{route}"] = t["model_check_s"]
            out[f"quantifiers.resolve_calls.{route}"] = t["resolve_calls"]
            out[f"quantifiers.truth_calls.{route}"] = t["truth_calls"]
        for key in ("reduct.calls", "reduct.reduct_s", "reduct.replaced",
                    "parser.parse_s", "parser.calls", "ground.ground_s",
                    "render.render_s", "render.calls", "cli.self_s"):
            out[key] = self.layer[key]
        out["ground.nodes"] = sum(
            sum(1 for _ in iter_ground_subformulas(g))
            for rules in self.ground_results
            for g in rules
        )
        return out
