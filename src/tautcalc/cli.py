"""Command-line interface.

Subcommands wrap the library modules one-to-one.  Each returns its report,
and `main` writes it as text (`jsonio.render_text`) or as deterministic
JSON (`jsonio.dumps_report`, byte for byte `json.dumps(report, indent=2)`),
as --format or else the TAUTCALC_FORMAT environment variable chooses.
`main` reads the variable on every call; a value other than text or json
is bad input.
Exit codes: 0 when every check in the report passes, 1 when some check
fails, 2 for bad input.  Bad input is reported in one line; for an input
file it names the field path.

The argument parser is built once per process, on the first `main` call,
and reused by every later call; it holds no per-call state.  `main` reads
a well-formed argv -- the route to one leaf parser, then pairs of an exact
option string and its value -- off that leaf's own actions, and builds the
Namespace argparse would.  Every other argv, including -h and every usage
error, goes to argparse, which stays the one definition of the command
line and the only producer of help, usage and error text.  The routes,
each leaf parser with the subcommand words that reach it, are kept on the
cached parser as `routes`.  `leaf` gives each leaf parser the common
options and a `func` that heads its report with the leaf's command words,
read off the parser's own `prog`.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import holonomy, homology, jsonio, penner, polytope, sutured

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2


FORMATS = ("text", "json")


def _env_format() -> str:
    """The report format TAUTCALC_FORMAT names; text when it is unset or empty."""
    fmt = os.environ.get("TAUTCALC_FORMAT") or "text"
    if fmt not in FORMATS:
        raise ValueError(f"TAUTCALC_FORMAT must be text or json, got {fmt!r}")
    return fmt


def _load(path, root: str, parse):
    """parse(doc, root) of the JSON file at path; a file that cannot be read
    or decoded raises ValueError prefixed with root."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ValueError(f"{root}: {exc}") from None
    return parse(doc, root)


def _emit(report: dict, args) -> int:
    checks = report.get("checks", [])
    ok = all(c["pass"] for c in checks)
    report["status"] = "PASS" if ok else "FAIL"
    if args.format == "json":
        text = jsonio.dumps_report(report)
    else:
        text = jsonio.render_text(report)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            # two writes, since text + "\n" would copy the whole report
            fh.write(text)
            fh.write("\n")
    else:
        print(text)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _report(command: str, build, args) -> dict:
    """The report build(args) makes, under the subcommand words command."""
    return {"command": command, **build(args)}


# -- subcommands ----------------------------------------------------------------


def _twist_action(system, word) -> tuple:
    """(M, M - Id, det(M - Id), b2) for the action M of the word on H_1."""
    try:
        m = homology.word_action(word, system.generator_map())
    except ValueError as exc:  # the action-size cap; only an input word can reach it
        raise ValueError(f"input.word: {exc}") from None
    return (m, *homology.mapping_torus(m))


def cmd_vmatrix(args) -> dict:
    m, diff, det, _ = _twist_action(*penner.chain_system(args.genus))
    target = args.genus + 1
    return {
        "genus": args.genus,
        "matrix": m,
        "matrix_minus_identity": diff,
        "det_abs": str(abs(det)),
        "target": str(target),
        "checks": [
            {"name": "abs-det-minus-identity-equals-genus-plus-one", "pass": abs(det) == target}
        ],
    }


def cmd_candidates(args) -> dict:
    if args.spec:
        spec = _load(args.spec, "spec", jsonio.norm_spec_from_json)
    else:
        spec = polytope.NormSpec.surgery_family(args.genus)
    ball, dual, classified = polytope.candidate_points(spec, args.genus)
    # from the ball's vertices, which the edge walk that lists the points never reads
    norms = polytope.dual_norm_value(ball, [p.coords for p in classified])
    checks = []
    if spec.is_surgery_family(args.genus):
        tip = 2 * args.genus - 2
        flagged = any(p.counterexample and p.coords == (0, -tip) for p in classified)
        checks.append({"name": f"point (0, {-tip}) flagged as the non-realizable candidate", "pass": flagged})
    checks.append({"name": "every listed point has dual norm one", "pass": all(x == 1 for x in norms)})
    return {
        "genus": args.genus,
        "norm_spec": jsonio.norm_spec_to_json(spec),
        "ball": jsonio.polytope_to_json(ball),
        "dual_ball": jsonio.polytope_to_json(dual),
        "candidates": jsonio.candidates_to_json(classified),
        "checks": checks,
    }


def cmd_penner(args) -> dict:
    if args.input is not None:
        system, word = _load(args.input, "input", jsonio.penner_input_from_json)
    else:
        system, word = penner.chain_system(3)
    report_obj = penner.validate_word(word, system)
    action, _, _, b2 = _twist_action(system, word)
    trivial = b2 == 1
    return {
        "genus": system.genus,
        "report": jsonio.penner_report_to_json(report_obj),
        "action_matrix": action,
        "mapping_torus_b2": b2,
        "fixed_homology_trivial": trivial,
        "checks": [
            {"name": "word is a valid opposite-twist word", "pass": report_obj.word_valid},
            {"name": "no nonzero fixed homology class", "pass": trivial},
        ],
    }


def cmd_sutured_chi(args) -> dict:
    s = sutured.CorneredSurface(args.base_chi, args.convex, args.concave)
    return {
        "base_chi": args.base_chi,
        "convex": args.convex,
        "concave": args.concave,
        "chi": jsonio.fmt_frac(sutured.sutured_chi(s)),
        "checks": [],
    }


def cmd_sutured_core_disk(args) -> dict:
    disk = sutured.core_disk(sutured.SuturedSolidTorus(args.wraps, args.sutures))
    return {
        "longitude_wraps": args.wraps,
        "suture_count": args.sutures,
        "convex_corners": disk.convex,
        "chi": jsonio.fmt_frac(sutured.sutured_chi(disk)),
        "checks": [],
    }


def cmd_sutured_pairing(args) -> dict:
    tangencies = _load(args.input, "input", jsonio.tangencies_from_json)
    pairing = sutured.euler_pairing(tangencies)
    chi = sutured.poincare_hopf_chi(tangencies)
    report = {
        "tangencies": jsonio.tangencies_to_json(tangencies),
        "euler_pairing": pairing,
        "poincare_hopf_chi": chi,
        "checks": [],
    }
    if all(t.kind is sutured.TangencyKind.SADDLE for t in tangencies):
        report["fully_marked"] = sutured.is_fully_marked(tangencies)
    return report


def cmd_sutured_witness(args) -> dict:
    w = sutured.novikov_witness(args.k, args.m)
    return {
        "witness": jsonio.witness_to_json(w),
        "checks": [],
    }


def cmd_holonomy(args) -> dict:
    if args.u is not None or args.v is not None:
        if args.u is None or args.v is None:
            raise ValueError("provide both --u and --v, or neither")
        u = _load(args.u, "u", jsonio.pl_from_json)
        v = _load(args.v, "v", jsonio.pl_from_json)
    else:
        u, v = holonomy.bundled_shifts()
    _, witness = holonomy.solve_conjugacy(u, v, args.case, args.tiles, args.samples)
    return {
        "case": witness.case,
        "expression": witness.expression,
        "u": jsonio.pl_to_json(u),
        "v": jsonio.pl_to_json(v),
        "tiles_per_side": witness.tiles_per_side,
        "samples": jsonio.conjugacy_samples_to_json(witness),
        "checks": [{"name": "conjugacy identity exact at all samples", "pass": witness.all_passed}],
    }


# -- parser ----------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call; --format defaults to
    None so that `main` resolves TAUTCALC_FORMAT when it parses."""
    parser = argparse.ArgumentParser(
        prog="tautcalc",
        description="Exact twist-action, norm-polytope, sutured and holonomy calculators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=FORMATS, help="report format (default: TAUTCALC_FORMAT, else text)")
    common.add_argument("--output", help="write the report to this path instead of stdout")

    def leaf(sub, name, build, **kwargs):
        p = sub.add_parser(name, parents=[common], **kwargs)
        p.set_defaults(func=functools.partial(_report, p.prog.split(" ", 1)[1], build))
        return p

    p = leaf(sub, "vmatrix", cmd_vmatrix, help="action of the genus-g chain word and its determinant law")
    p.add_argument("--genus", type=int, required=True)

    p = leaf(sub, "candidates", cmd_candidates, help="dual-ball integral points and realizability")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--spec", help="JSON file with norm values and chi (default: the genus-g family)")

    p = leaf(sub, "penner", cmd_penner, help="validate a twist word over a curve system")
    p.add_argument("--input", help="JSON file with the curve system and word (default: the genus-3 chain system)")

    p = sub.add_parser("sutured", parents=[], help="sutured Euler characteristic and witnesses")
    ssub = p.add_subparsers(dest="sutured_command", required=True)
    q = leaf(ssub, "chi", cmd_sutured_chi)
    q.add_argument("--base-chi", type=int, required=True, dest="base_chi")
    q.add_argument("--convex", type=int, default=sutured.CorneredSurface.convex)
    q.add_argument("--concave", type=int, default=sutured.CorneredSurface.concave)
    q = leaf(ssub, "core-disk", cmd_sutured_core_disk)
    q.add_argument("--wraps", type=int, required=True, help="longitudinal wraps of each suture")
    q.add_argument("--sutures", type=int, default=sutured.SuturedSolidTorus.suture_count)
    q = leaf(ssub, "pairing", cmd_sutured_pairing)
    q.add_argument("--input", required=True, help="JSON file with a tangency list")
    q = leaf(ssub, "witness", cmd_sutured_witness)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--m", type=int, required=True)

    p = sub.add_parser("holonomy", parents=[], help="interval holonomy constructions")
    hsub = p.add_subparsers(dest="holonomy_command", required=True)
    q = leaf(hsub, "tau", cmd_holonomy)
    q.add_argument("--case", choices=tuple(holonomy.EXPRESSIONS), required=True)
    q.add_argument("--samples", type=int, default=holonomy.DEFAULT_SAMPLES, help="minimum number of sample points")
    q.add_argument("--tiles", type=int, default=holonomy.DEFAULT_TILES, help="tiles per side to sample across")
    q.add_argument("--u", help="JSON file for the first map (default: bundled shift)")
    q.add_argument("--v", help="JSON file for the second map (default: bundled shift)")

    parser.routes = dict(_routes(parser))
    return parser


# `_routes` and `_read` read argparse's private names `_actions`,
# `_option_string_actions`, `_StoreAction`, `_negative_number_matcher` and
# `_has_negative_number_optionals`; the tests that compare `_read` with
# `parse_args` on every supported Python fail if one of them changes.


def _routes(parser, tokens=(), dests=()):
    """(route tokens, (leaf parser, the dests the route sets)) for each leaf
    below parser, read off its subparser actions."""
    for action in parser._actions:
        if action.nargs == argparse.PARSER:
            for name, child in action.choices.items():
                yield from _routes(child, (*tokens, name), (*dests, (action.dest, name)))
            return
    yield tokens, (parser, dict(dests))


def _read(argv):
    """The Namespace `build_parser().parse_args(argv)` returns when argv is a
    route followed by (exact option string, value) pairs; None otherwise."""
    if not all(type(token) is str for token in argv):
        return None
    routes = build_parser().routes
    for n in range(1, len(argv) + 1):
        if (route := routes.get(tuple(argv[:n]))) is not None:
            break
    else:
        return None
    leaf, dests = route
    pairs = argv[n:]
    if len(pairs) % 2:
        return None
    values, seen = {}, set()
    for option, value in zip(pairs[::2], pairs[1::2]):
        action = leaf._option_string_actions.get(option)
        if type(action) is not argparse._StoreAction or action.nargs is not None:
            return None
        # a value starting with "-" is one only if argparse reads it as a negative number
        if value.startswith("-") and (leaf._has_negative_number_optionals
                                      or not leaf._negative_number_matcher.match(value)):
            return None
        if action.type is not None:
            try:
                value = action.type(value)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
        seen.add(action)
    args = dict(dests, func=leaf.get_default("func"))
    for action in leaf._actions:
        if action.required and action not in seen:
            return None
        if action.dest is not argparse.SUPPRESS and action.default is not argparse.SUPPRESS:
            if isinstance(action.default, str):
                return None  # argparse would convert it with action.type
            args.setdefault(action.dest, action.default)
    args.update(values)
    return argparse.Namespace(**args)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read(argv)
    if args is None:  # help, or a usage error
        args = build_parser().parse_args(argv)
    try:
        if args.format is None:
            args.format = _env_format()
        return _emit(args.func(args), args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
