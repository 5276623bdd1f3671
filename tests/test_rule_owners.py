"""Each input rule is checked in one place: a map's domain at its public
`eval`, the report genus cap in one `penner` function, the labels of a
word in one `homology` function, each CLI default in the library
signature or type it belongs to, and the command line in `cli`'s table.
Each error message is raised from one function, and the library states no
`assert`, which would end the CLI in a traceback."""

import argparse
import ast
import re
from pathlib import Path

import tautcalc
from tautcalc import cli


SOURCES = sorted(Path(tautcalc.__file__).parent.glob("*.py"))


def _names(node):
    """The names and attribute names read anywhere under node."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr


def test_each_input_rule_has_one_owner():
    functions = [
        (path.name, node)
        for path in sorted(Path(tautcalc.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef)
    ]
    kernels = [(module, f) for module, f in functions if f.name == "_eval_pair"]
    parsers = [f for _, f in functions if f.name == "build_parser"]
    options = [option for *_, options in cli.COMMANDS for option in options]
    # the kernels take points that `eval` has checked or that
    # `solve_conjugacy` laid out inside each domain, so none refuses one
    raising = [f"{module}:{f.lineno}" for module, f in kernels if any(isinstance(n, ast.Raise) for n in ast.walk(f))]
    capping = [
        f"{module}:{f.name}"
        for module, f in functions
        if any(isinstance(n, ast.Compare) and "MAX_CHAIN_GENUS" in _names(n) for n in ast.walk(f))
    ]
    # a default is read from the library, never written again as a number,
    # whether as a keyword or as a dict key
    cli_nodes = list(ast.walk(ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))))
    defaults = [node.value for node in cli_nodes if isinstance(node, ast.keyword) and node.arg == "default"] + [
        value
        for node in cli_nodes
        if isinstance(node, ast.Dict)
        for key, value in zip(node.keys, node.values)
        if isinstance(key, ast.Constant) and key.value == "default"
    ]
    literal = [ast.unparse(value) for value in defaults if isinstance(value, ast.Constant) and type(value.value) is int]
    assert len(kernels) == 4 and len(parsers) == 1 and len(options) >= 15
    assert raising == [], raising
    assert len(capping) == 1, capping
    assert literal == [], literal


def test_command_line_written_only_in_build_parser():
    # `cli._read` reads well-formed argv off the table and `build_parser`
    # builds argparse from it, so an option string written outside the table,
    # or an argument or default added outside `build_parser`, would be a
    # second definition of the command line
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in Path(tautcalc.__file__).parent.glob("*.py")]
    table = [node for tree in trees for node in tree.body if isinstance(node, ast.Assign)
             and [ast.unparse(target) for target in node.targets] in (["COMMON_OPTIONS"], ["COMMANDS"])]
    parsers = [node for tree in trees for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name == "build_parser"]
    in_table = {id(n) for assign in table for n in ast.walk(assign)}
    in_parser = {id(n) for f in parsers for n in ast.walk(f)}
    nodes = [n for tree in trees for n in ast.walk(tree)]
    options = [n.value for n in nodes if id(n) not in in_table
               and isinstance(n, ast.Constant) and isinstance(n.value, str) and re.fullmatch(r"--?[a-z][a-z-]*", n.value)]
    calls = [ast.unparse(n) for n in nodes if id(n) not in in_parser and isinstance(n, ast.Call)
             and isinstance(n.func, ast.Attribute) and n.func.attr in ("add_argument", "set_defaults")]
    # the reader fills in `func` alone from the table, so no other key is set,
    # and one call sets it for every leaf parser
    keys = [kw.arg for f in parsers for n in ast.walk(f) if isinstance(n, ast.Call)
            and isinstance(n.func, ast.Attribute) and n.func.attr == "set_defaults" for kw in n.keywords]
    assert len(table) == 2 and len(parsers) == 1
    assert options == [], options
    assert calls == [], calls
    assert keys == ["func"], keys


def _parsers(parser, route=()):
    """(route tokens, parser) for parser and each parser below it."""
    yield route, parser
    for action in parser._actions:
        if action.nargs == argparse.PARSER:
            for name, child in action.choices.items():
                yield from _parsers(child, route + (name,))


def test_each_leaf_parser_has_its_own_func():
    # a group's default would reach argparse's Namespace but not the reader's
    parsers = {" ".join(route): p for route, p in _parsers(cli.build_parser())}
    leaves = {route for route, p in parsers.items() if all(a.nargs != argparse.PARSER for a in p._actions)}
    with_func = {route for route, p in parsers.items() if callable(p.get_default("func"))}
    assert with_func == leaves and len(leaves) == 8


def _owned(function):
    """The nodes of function that no function nested in it holds."""
    stack = list(ast.iter_child_nodes(function))
    while stack:
        node = stack.pop()
        if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
            yield node
            stack.extend(ast.iter_child_nodes(node))


def _raised_messages():
    """(message template as written, "module.function") for each raise of an
    exception built from a string or an f-string."""
    for path in SOURCES:
        for f in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(f, ast.FunctionDef):
                for node in _owned(f):
                    if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args
                            and isinstance(node.exc.args[0], (ast.Constant, ast.JoinedStr))):
                        message = node.exc.args[0]
                        text = message.value if isinstance(message, ast.Constant) else ast.unparse(message)
                        yield text, f"{path.stem}.{f.name}"


# messages that two functions raise on purpose, each for its own rule
SHARED_MESSAGES = {
    # a chain word and a surgery family each need two handles, for their own reasons
    "genus must be an integer >= 2": {"penner.chain_system", "polytope._family_values"},
    # a curve and a region each carry a label
    "label must be a string": {"homology.__post_init__", "penner.__post_init__"},
}


def test_each_message_is_raised_from_one_function():
    raisers = {}
    for text, function in _raised_messages():
        raisers.setdefault(text, set()).add(function)
    shared = {text: functions for text, functions in raisers.items() if len(functions) > 1}
    assert len(raisers) > 50
    assert shared == SHARED_MESSAGES, shared


def test_unknown_label_rule_has_one_owner():
    owners = {function for text, function in _raised_messages() if "unknown" in text and "label" in text}
    assert owners == {"homology.check_labels"}, owners


def test_cli_names_only_the_input_field_it_finds():
    # the document's own fields are named where it is read; `cli` names only
    # the word, whose action cap only `word_action` can find
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    fields = {n.value for n in ast.walk(tree)
              if isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.startswith("input.")}
    assert {re.match(r"input\.(\w*)", field).group(1) for field in fields} == {"word"}, fields


def _raises_assertion_error(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_library_states_no_assert():
    # `python -O` drops an assert, and a failing one, like a raised
    # AssertionError, ends the CLI in a traceback
    asserts = [f"{path.name}:{node.lineno}" for path in SOURCES
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Assert) or (isinstance(node, ast.Raise) and _raises_assertion_error(node))]
    assert asserts == [], asserts
