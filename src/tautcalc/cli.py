"""Command-line interface.

Subcommands wrap the library modules one-to-one.  Each returns its report,
every integer in it a decimal string and every check the `exact.Check`
that the library function deciding it returns.  `main` writes it as text
(`jsonio.text_pieces`) or as JSON (`jsonio.json_pieces`, byte for byte
`json.dumps(report, indent=2)`), BLOCK_PIECES pieces per write.  A report
depends only on the argv and the input files.  Exit codes: 0 when every
check passes, 1 when one fails, 2 for bad input, in one line that names
the field path in an input file.

The command line is declared once, as data: COMMANDS holds each leaf
subcommand's route words, `cmd_*` builder, help and options as argparse
keywords, beside the common options and the two groups' help.  LEAVES
keys each leaf's builder and options by its route words, and `_leaf`
derives from them, on a route's first read, its `func` (its report under
its route words), option dests and required options.  `main`
reads a well-formed argv -- a route, then pairs of an exact option string
and its value -- against that Leaf into the Namespace argparse would
build.  Every other argv, including -h and every usage error, goes to the
argparse parser `build_parser` builds from the table, the only producer
of help, usage and error text.

Importing `cli` loads only `jsonio`, which writes every report, and the two
modules it needs, `matrices` and `exact`.  Each builder imports the
library modules it calls, so they load when its route is first
dispatched, and a report process loads only its own route's modules.  No
option declares a default: a builder passes the library only the options
argv gave (`_given`), so the library's own signatures set the rest.  The
--case choices, the one library value argparse prints, stand in the table
as a `Lib`, read from `holonomy` when `_leaf` first derives its route or
`build_parser` builds the parser.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import NamedTuple

from . import jsonio

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2


def _load(path, root: str, parse):
    """parse(doc, root) of the JSON file at path; a file that cannot be read
    or decoded raises ValueError prefixed with root."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ValueError(f"{root}: {exc}") from None
    return parse(doc, root)


# Pieces joined per write.  A matrix report, one piece per row, is held
# once, plus one block's join and that join's UTF-8 copy: 64 JSON rows are
# 0.37 MB at genus 240, beside a 5 MB report; 256 would push the peak past
# the 1.3 times the report's bytes that test_cli.py pins.  Most small
# reports have fewer pieces and go out in one join and one write, as one
# string would; a further block costs about 0.5 us, so a smaller block's
# lower peak comes almost free.
BLOCK_PIECES = 64


def _emit(report: dict, args) -> int:
    ok = all(c.passed for c in report["checks"])
    report["status"] = "PASS" if ok else "FAIL"
    # every piece is built before --output is opened, so a report that fails leaves no file
    pieces = (jsonio.json_pieces if args.format == "json" else jsonio.text_pieces)(report)
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as fh:
            _write_blocks(fh, pieces)
    else:
        _write_blocks(sys.stdout, pieces)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _write_blocks(fh, pieces: list) -> None:
    """Write the join of each BLOCK_PIECES consecutive pieces, then the final
    newline, emptying the list: a block's pieces are dropped before its
    write, so none is held beside the block's join and its UTF-8 copy."""
    pieces.reverse()  # so each block comes off the end of the list
    while pieces:
        block = "".join(pieces[:-BLOCK_PIECES - 1:-1])  # the last BLOCK_PIECES, back in order
        del pieces[-BLOCK_PIECES:]
        fh.write(block)
    fh.write("\n")


def _report(command: str, build, args) -> dict:
    """The report build(args) makes, under the subcommand words command."""
    return {"command": command, **build(args)}


def _given(**options) -> dict:
    """The options argv gave, by keyword: each one that is not None."""
    return {name: value for name, value in options.items() if value is not None}


# -- subcommands ----------------------------------------------------------------


def _twist_action(system, word) -> tuple:
    """(M, M - Id, det(M - Id), b2) for the action M of the word on H_1."""
    from . import homology

    try:
        m = homology.word_action(word, system.generator_map())
    except ValueError as exc:  # the action-size cap; only an input word can reach it
        raise ValueError(f"input.word: {exc}") from None
    return (m, *homology.mapping_torus(m))


def cmd_vmatrix(args) -> dict:
    from . import penner

    m, diff, det, _ = _twist_action(*penner.chain_system(args.genus))
    target, det_law = penner.chain_det_law(args.genus, det)
    return {
        "genus": str(args.genus),
        "matrix": m,
        "matrix_minus_identity": diff,
        "det_abs": str(abs(det)),
        "target": str(target),
        "checks": [det_law],
    }


def cmd_candidates(args) -> dict:
    from . import polytope

    if args.spec is not None:
        spec = _load(args.spec, "spec", jsonio.norm_spec_from_json)
    else:
        spec = polytope.NormSpec.surgery_family(args.genus)
    ball, dual, classified = polytope.candidate_points(spec, args.genus)
    return {
        "genus": str(args.genus),
        "norm_spec": jsonio.norm_spec_to_json(spec),
        "ball": jsonio.polytope_to_json(ball),
        "dual_ball": jsonio.polytope_to_json(dual),
        "candidates": jsonio.candidates_to_json(classified),
        "checks": polytope.candidate_checks(spec, args.genus, ball, classified),
    }


def cmd_penner(args) -> dict:
    from . import homology, penner

    system, word = (penner.chain_system(3) if args.input is None
                    else _load(args.input, "input", jsonio.penner_input_from_json))
    report_obj = penner.validate_word(word, system)
    action, _, _, b2 = _twist_action(system, word)
    fixed = homology.fixed_class_check(b2)
    return {
        "genus": str(system.genus),
        "report": jsonio.penner_report_to_json(report_obj),
        "action_matrix": action,
        "mapping_torus_b2": str(b2),
        "fixed_homology_trivial": fixed.passed,
        "checks": [report_obj.check, fixed],
    }


def cmd_sutured_chi(args) -> dict:
    from . import sutured

    s = sutured.CorneredSurface(args.base_chi, **_given(convex=args.convex, concave=args.concave))
    return {
        **{name: str(value) for name, value in vars(s).items()},
        "chi": jsonio.fmt_frac(sutured.sutured_chi(s)),
        "checks": [],
    }


def cmd_sutured_core_disk(args) -> dict:
    from . import sutured

    torus = sutured.SuturedSolidTorus(args.wraps, **_given(suture_count=args.sutures))
    disk = sutured.core_disk(torus)
    return {
        **{name: str(value) for name, value in vars(torus).items()},
        "convex_corners": str(disk.convex),
        "chi": jsonio.fmt_frac(sutured.sutured_chi(disk)),
        "checks": [],
    }


def cmd_sutured_pairing(args) -> dict:
    from . import sutured

    tangencies = _load(args.input, "input", jsonio.tangencies_from_json)
    report = {
        "tangencies": jsonio.tangencies_to_json(tangencies),
        "euler_pairing": str(sutured.euler_pairing(tangencies)),
        "poincare_hopf_chi": str(sutured.poincare_hopf_chi(tangencies)),
        "checks": [],
    }
    if all(t.kind is sutured.TangencyKind.SADDLE for t in tangencies):
        report["fully_marked"] = sutured.is_fully_marked(tangencies)
    return report


def cmd_sutured_witness(args) -> dict:
    from . import sutured

    w = sutured.novikov_witness(args.k, args.m)
    return {
        "witness": jsonio.witness_to_json(w),
        "checks": [],
    }


def cmd_holonomy(args) -> dict:
    from . import holonomy

    if args.u is not None or args.v is not None:
        if args.u is None or args.v is None:
            raise ValueError("provide both --u and --v, or neither")
        u = _load(args.u, "u", jsonio.pl_from_json)
        v = _load(args.v, "v", jsonio.pl_from_json)
    else:
        u, v = holonomy.bundled_shifts()
    _, witness = holonomy.solve_conjugacy(u, v, args.case, **_given(tiles_per_side=args.tiles, samples=args.samples))
    return {
        "case": witness.case,
        "expression": witness.expression,
        "u": jsonio.pl_to_json(u),
        "v": jsonio.pl_to_json(v),
        "tiles_per_side": str(witness.tiles_per_side),
        "samples": jsonio.conjugacy_samples_to_json(witness),
        "checks": [witness.check],
    }


# -- command line ----------------------------------------------------------------


class Lib(NamedTuple):
    """A keyword value that a library module owns, written in the table as
    where to find it, so that no route's module is imported to build the
    table: attribute `name` of tautcalc module `module`."""

    module: str
    name: str

    def read(self):
        """The value; the package's `__getattr__` imports the module on first use."""
        return getattr(getattr(sys.modules[__package__], self.module), self.name)


# The command line, declared once.  An option is its long option string and
# its argparse keywords, among type, required, choices and help; a
# library-owned value is a Lib.  No option declares a default, so an absent
# option reads None: `_emit` writes a None --format as text, and a builder
# leaves a None option to the library's own default.
COMMON_OPTIONS = {
    "--format": dict(choices=("text", "json"), help="report format (default: text)"),
    "--output": dict(help="write the report to this path instead of stdout"),
}
GROUP_HELP = {"sutured": "sutured Euler characteristic and witnesses", "holonomy": "interval holonomy constructions"}
# (route words, builder, help, options) of each leaf; no leaf of a group has help
COMMANDS = (
    (("vmatrix",), cmd_vmatrix, "action of the genus-g chain word and its determinant law",
     {"--genus": dict(type=int, required=True)}),
    (("candidates",), cmd_candidates, "dual-ball integral points and realizability",
     {"--genus": dict(type=int, required=True),
      "--spec": dict(help="JSON file with norm values and chi (default: the genus-g family)")}),
    (("penner",), cmd_penner, "validate a twist word over a curve system",
     {"--input": dict(help="JSON file with the curve system and word (default: the genus-3 chain system)")}),
    (("sutured", "chi"), cmd_sutured_chi, None,
     {"--base-chi": dict(type=int, required=True), "--convex": dict(type=int), "--concave": dict(type=int)}),
    (("sutured", "core-disk"), cmd_sutured_core_disk, None,
     {"--wraps": dict(type=int, required=True, help="longitudinal wraps of each suture"), "--sutures": dict(type=int)}),
    (("sutured", "pairing"), cmd_sutured_pairing, None,
     {"--input": dict(required=True, help="JSON file with a tangency list")}),
    (("sutured", "witness"), cmd_sutured_witness, None,
     {"--k": dict(type=int, required=True), "--m": dict(type=int, required=True)}),
    (("holonomy", "tau"), cmd_holonomy, None,
     {"--case": dict(choices=Lib("holonomy", "EXPRESSIONS"), required=True),
      "--samples": dict(type=int, help="minimum number of sample points"),
      "--tiles": dict(type=int, help="tiles per side to sample across"),
      "--u": dict(help="JSON file for the first map (default: bundled shift)"),
      "--v": dict(help="JSON file for the second map (default: bundled shift)")}),
)
# each leaf's route words -> (builder, options); `_leaf` derives the rest
LEAVES = {route: (build, options) for route, build, _, options in COMMANDS}


def _subcommand_dest(words) -> str:
    """The Namespace field that names the subcommand chosen after words."""
    return "_".join((*words, "command"))


def _keywords(options: dict) -> dict:
    """The argparse keywords of the common options and options, each Lib read."""
    return {option: {key: value.read() if isinstance(value, Lib) else value for key, value in keywords.items()}
            for option, keywords in {**COMMON_OPTIONS, **options}.items()}


class Leaf(NamedTuple):
    """What `_read` needs of one leaf of COMMANDS, derived once."""

    fields: dict  # option string -> (dest, type, choices)
    defaults: dict  # the Namespace before any option is read: every option None, `func` included
    required: frozenset  # the option strings argv must give


@functools.cache
def _leaf(route) -> Leaf:
    """The Leaf of a route of LEAVES, derived on its first read, which reads its Lib values."""
    build, options = LEAVES[route]
    options = _keywords(options)
    # argparse's dest for a long option: --base-chi is read into base_chi
    fields = {option: (option[2:].replace("-", "_"), kw.get("type"), kw.get("choices"))
              for option, kw in options.items()}
    defaults = {_subcommand_dest(route[:i]): word for i, word in enumerate(route)}
    defaults.update(dict.fromkeys(dest for dest, *_ in fields.values()),
                    func=functools.partial(_report, " ".join(route), build))
    return Leaf(fields, defaults, frozenset(option for option, kw in options.items() if kw.get("required")))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """argparse's parser for the command line, built on the first call; `main`
    calls it only for help and usage errors."""
    parser = argparse.ArgumentParser(
        prog="tautcalc", description="Exact twist-action, norm-polytope, sutured and holonomy calculators")
    subparsers = {(): parser.add_subparsers(dest=_subcommand_dest(()), required=True)}
    for route, _, leaf_help, options in COMMANDS:
        group = route[:-1]
        if group not in subparsers:
            p = subparsers[()].add_parser(group[0], help=GROUP_HELP[group[0]])
            subparsers[group] = p.add_subparsers(dest=_subcommand_dest(group), required=True)
        # argparse lists a subcommand in its parent's help only when it has a help
        p = subparsers[group].add_parser(route[-1], **({} if leaf_help is None else {"help": leaf_help}))
        for option, keywords in _keywords(options).items():
            p.add_argument(option, **keywords)
        p.set_defaults(func=_leaf(route).defaults["func"])
    return parser


def _read(argv):
    """The Namespace `build_parser().parse_args(argv)` returns when argv is the
    route of a leaf followed by (exact option string, value) pairs; None
    otherwise."""
    if not all(type(token) is str for token in argv):
        return None
    n = 1 if tuple(argv[:1]) in LEAVES else 2
    route, pairs = tuple(argv[:n]), argv[n:]
    if route not in LEAVES or len(pairs) % 2:
        return None
    leaf = _leaf(route)
    args, given = dict(leaf.defaults), set()
    for option, value in zip(pairs[::2], pairs[1::2]):
        field = leaf.fields.get(option)
        # every argparse reads "-" and ASCII digits as a value, a negative
        # number, since no option string looks like one
        if field is None or (value.startswith("-") and not (value[1:].isdigit() and value.isascii())):
            return None
        dest, convert, choices = field
        if convert is not None:
            try:
                value = convert(value)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
        if choices is not None and value not in choices:
            return None
        args[dest] = value
        given.add(option)
    if not leaf.required <= given:
        return None
    return argparse.Namespace(**args)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read(argv)
    if args is None:  # help, or a usage error
        args = build_parser().parse_args(argv)
    try:
        return _emit(args.func(args), args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
