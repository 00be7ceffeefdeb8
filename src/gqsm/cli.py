"""Command line front end.

    gqsm solve program.gq [--semantics sm|flp|both] [--route ...]
    gqsm ground program.gq
    gqsm reduct program.gq --model "p(-1), p(1)" [--no-simplify]
    gqsm compare program.gq

Exit codes: 0 on success, 1 for parse or configuration problems, 2 when
an enumeration would exceed the atom cap.  Output is byte for byte
deterministic for a given input; timings never appear in it.
"""
from __future__ import annotations

import argparse
import sys
from typing import Optional

from .syntax import GqError, Program
from .quantifiers import Registry
from .ground import atom_strings, format_atoms, ground_program, ground_to_json
from .parser import ParseError, parse_model, parse_program
from .reduct import EnumerationCapError, reduct
from .render import render_ground_rule, simplify_rule_sides
from .solver import (
    ReductRouteError,
    compare_semantics,
    flp_stable_models,
    stable_and_flp_models,
    stable_models_operator,
    stable_models_reduct,
)


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gqsm",
        description="Stable and FLP models of logic programs with "
        "generalized quantifiers.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("path", help="program file, or '-' for stdin")
        p.add_argument(
            "--format", choices=("text", "json"), default="text", help="output format"
        )

    p_solve = sub.add_parser("solve", help="enumerate models")
    add_common(p_solve)
    p_solve.add_argument(
        "--semantics", choices=("sm", "flp", "both"), default="sm"
    )
    p_solve.add_argument(
        "--route",
        choices=("reduct", "operator", "both"),
        default="operator",
        help="how to decide stability (sm only; flp always uses its operator)",
    )
    p_solve.add_argument("--cap", type=int, default=None, help="atom cap override")

    p_ground = sub.add_parser("ground", help="print the ground rules")
    add_common(p_ground)

    p_reduct = sub.add_parser("reduct", help="reduct relative to a model")
    add_common(p_reduct)
    p_reduct.add_argument(
        "--model",
        required=True,
        help="ground atoms, e.g. \"p(-1), p(1)\"; may be empty",
    )
    p_reduct.add_argument(
        "--no-simplify",
        action="store_true",
        help="print the exact reduct without folding truth constants",
    )

    p_compare = sub.add_parser(
        "compare", help="stable versus flp models, with the agreement check"
    )
    add_common(p_compare)
    p_compare.add_argument("--cap", type=int, default=None, help="atom cap override")
    return ap


def _read_program(args, registry: Registry) -> Program:
    if args.path == "-":
        text = sys.stdin.read()
        origin = "<stdin>"
    else:
        # undecodable bytes reach the parser, which reports where they
        # are, as it does for bytes on stdin
        with open(args.path, encoding="utf-8", errors="surrogateescape") as fh:
            text = fh.read()
        origin = args.path
    return parse_program(text, registry, origin)


def _answer_lines(models) -> list:
    if not models:
        return ["UNSATISFIABLE"]
    lines = []
    for i, m in enumerate(models, start=1):
        shown = format_atoms(m)
        lines.append(f"Answer {i}: {shown}" if shown else f"Answer {i}:")
    return lines


def _emit(lines) -> None:
    for line in lines:
        print(line)


def _emit_json(payload: dict) -> None:
    import json  # here, so that a text-only run never loads it

    print(json.dumps(payload, indent=2, sort_keys=True))


def _run_solve(args, program: Program, registry: Registry) -> int:
    semantics = ("sm", "flp") if args.semantics == "both" else (args.semantics,)
    routes = ("reduct", "operator") if args.route == "both" else (args.route,)
    cells = [(s, r) for s in semantics for r in routes]
    results = []  # (semantics, route, SolveResult or None, note)
    both = None
    for sem, route in cells:
        if sem == "flp" and route == "reduct":
            results.append((sem, route, None, "the flp semantics has no reduct route"))
            continue
        try:
            if route == "reduct":
                res = stable_models_reduct(program, registry, args.cap)
            elif len(semantics) == 2:  # both operator cells: one scan, at the first
                both = both or stable_and_flp_models(program, registry, args.cap)
                res = both[semantics.index(sem)]
            elif sem == "flp":
                res = flp_stable_models(program, registry, args.cap)
            else:
                res = stable_models_operator(program, registry, args.cap)
        except ReductRouteError as e:
            results.append((sem, route, None, str(e)))
            continue
        results.append((sem, route, res, None))

    computed = [(s, r, res) for s, r, res, _ in results if res is not None]
    if not computed:
        first_note = results[0][3]
        print(f"error: {first_note}", file=sys.stderr)
        return 1
    sets = [frozenset(res.models) for _, _, res in computed]
    agree = all(s == sets[0] for s in sets)

    if args.format == "json":
        payload = {"results": [res.to_json() for _, _, res in computed]}
        skipped = [
            {"semantics": s, "route": r, "note": note}
            for s, r, res, note in results
            if res is None
        ]
        if skipped:
            payload["skipped"] = skipped
        if len(computed) > 1:
            payload["agreement"] = {"agree": agree}
        _emit_json(payload)
        return 0

    lines = []
    sectioned = len(results) > 1
    for sem, route, res, note in results:
        if sectioned:
            lines.append(f"== {sem} route={route}")
        if res is None:
            lines.append(f"skipped: {note}")
        else:
            lines.extend(_answer_lines(res.models))
    if len(computed) > 1:
        lines.append("== agreement")
        lines.append(f"all computed model sets agree: {'yes' if agree else 'no'}")
    _emit(lines)
    return 0


def _run_ground(args, program: Program, registry: Registry) -> int:
    rules = ground_program(program, registry)
    if args.format == "json":
        # A rule's JSON nests as deep as the rule, and ground_to_json and
        # the indenting encoder recurse once per level.
        try:
            _emit_json(
                {"results": [{"command": "ground", "rules": [ground_to_json(g) for g in rules]}]}
            )
        except RecursionError:
            raise GqError(
                "the ground rules nest too deeply for JSON output; "
                "the text format prints them"
            ) from None
        return 0
    # every rule is rendered before any is printed, so a rule that
    # cannot be rendered leaves stdout empty
    _emit([render_ground_rule(g) for g in rules])
    return 0


def _run_reduct(args, program: Program, registry: Registry) -> int:
    model = parse_model(args.model, program)
    rules = ground_program(program, registry)
    reduced = [reduct(g, model, program.universe, registry) for g in rules]
    shown = []
    for r in reduced:
        f = r.formula if args.no_simplify else simplify_rule_sides(r.formula)
        shown.append((render_ground_rule(f), r.replaced))
    if args.format == "json":
        _emit_json(
            {
                "results": [
                    {
                        "command": "reduct",
                        "model": atom_strings(model),
                        "rules": [
                            {"text": text, "replaced": n} for text, n in shown
                        ],
                    }
                ]
            }
        )
        return 0
    _emit(text for text, _ in shown)
    return 0


def _run_compare(args, program: Program, registry: Registry) -> int:
    rep = compare_semantics(program, registry, args.cap)
    if args.format == "json":
        _emit_json(rep.to_json())
        return 0
    lines = ["== sm route=operator"]
    lines.extend(_answer_lines(rep.sm.models))
    lines.append("== flp route=operator")
    lines.extend(_answer_lines(rep.flp.models))
    lines.append("== agreement")
    lines.append(f"in class: {'yes' if rep.class_report.in_class else 'no'}")
    for v in rep.class_report.violations:
        lines.append(f"  rule {v.rule_index + 1}: {v.literal}: {v.reason}")
    if rep.difference:
        lines.append(f"difference: {len(rep.difference)} model(s)")
        for m in rep.difference:
            lines.append(f"  {format_atoms(m) or '(empty)'}")
    else:
        lines.append("difference: none")
    lines.append(f"agreement violated: {'yes' if rep.agreement_violated else 'no'}")
    _emit(lines)
    return 0


_COMMANDS = {
    "solve": _run_solve,
    "ground": _run_ground,
    "reduct": _run_reduct,
    "compare": _run_compare,
}


def main(argv: Optional[list] = None) -> int:
    try:
        args = build_arg_parser().parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    registry = Registry()
    try:
        program = _read_program(args, registry)
        return _COMMANDS[args.command](args, program, registry)
    except EnumerationCapError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ParseError as e:
        print(str(e), file=sys.stderr)
        return 1
    except (GqError, OSError, UnicodeDecodeError) as e:
        # a stdin whose error handler is strict cannot decode a non-UTF-8
        # byte; a program file hands it on to the parser
        print(f"error: {e}", file=sys.stderr)
        return 1
    except RecursionError:
        # every command computes its whole output before printing it
        print("error: the program nests too deeply to read", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
