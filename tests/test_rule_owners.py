"""Each input rule is checked in one place: a map's domain at its public
`eval`, the report genus cap in one `penner` function, and each CLI default
in the library signature or type it belongs to."""

import ast
from pathlib import Path

import tautcalc


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
    # the kernels take points that `eval` has checked or that
    # `solve_conjugacy` laid out inside each domain, so none refuses one
    raising = [f"{module}:{f.lineno}" for module, f in kernels if any(isinstance(n, ast.Raise) for n in ast.walk(f))]
    capping = [
        f"{module}:{f.name}"
        for module, f in functions
        if any(isinstance(n, ast.Compare) and "MAX_CHAIN_GENUS" in _names(n) for n in ast.walk(f))
    ]
    arguments = [
        call
        for f in parsers
        for call in ast.walk(f)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute) and call.func.attr == "add_argument"
    ]
    # a default is read from the library, never written again as a number
    literal = [
        ast.unparse(call)
        for call in arguments
        for kw in call.keywords
        if kw.arg == "default" and isinstance(kw.value, ast.Constant) and type(kw.value.value) is int
    ]
    assert len(kernels) == 4 and len(parsers) == 1 and len(arguments) >= 15
    assert raising == [], raising
    assert len(capping) == 1, capping
    assert literal == [], literal
