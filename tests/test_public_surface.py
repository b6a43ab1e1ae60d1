"""Every public function, class and parameter of the package has a caller outside the tests.

A module-level function or class of ``src/cardioct`` must be named in
the code of ``src/``, ``scripts/`` or ``perfbench/`` somewhere other
than its own definition: in another file, or elsewhere in its own
module.  Docstrings, comments and other strings do not count, nor do
imports or test files.  An entry point that only tests reach belongs in
``tests/``.

Every parameter of a public function or method must likewise be passed,
by keyword or by position, by some call in that code to a function of
its name.  A required parameter is passed by every call, so this bites
on the optional ones; a ``**kwargs`` forward does not count as passing
them.  A knob that only tests turn belongs in the tests too.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cardioct"

# Public names kept without a caller, each with its reason.
ALLOWED = {
    "dual_norm": "perfbench/tracing.py looks it up by name as a span",
    "reduced_rhs_S": "perfbench/tracing.py looks it up by name as a span",
    "apriori_check": "an energy-estimate check of the theory, run by tier-1 tests",
    "regularity_monitor": "an energy-estimate check of the theory, run by tier-1 tests",
}

# Public parameters kept without a caller that passes them, each with its reason.
ALLOWED_PARAMETERS = {
    ("main", "argv"): "the test seam of the entry point; the console script passes none",
}


def _code_files():
    dirs = (ROOT / "src", ROOT / "scripts", ROOT / "perfbench")
    return sorted(p for d in dirs for p in d.rglob("*.py") if not p.name.startswith("test_"))


def _names_used(tree, skip=None):
    """Every name the code of ``tree`` reads, outside the node ``skip``."""
    used = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return used


def _uncalled():
    """The public module-level functions and classes of the package that nothing names."""
    trees = {path: ast.parse(path.read_text()) for path in _code_files()}
    elsewhere = {path: _names_used(tree) for path, tree in trees.items()}
    uncalled = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = trees[path]
        others = set().union(*(used for p, used in elsewhere.items() if p != path))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if node.name not in others and node.name not in _names_used(tree, skip=node):
                uncalled[node.name] = path.name
    return uncalled


def test_every_public_name_has_a_caller_outside_the_tests():
    uncalled = _uncalled()
    assert {name: uncalled[name] for name in set(uncalled) - set(ALLOWED)} == {}
    # an entry whose name went or gained a caller is stale
    assert sorted(set(ALLOWED) - set(uncalled)) == []


def _public_functions(tree):
    """(name, positional parameters, optional parameters) of each public function and method.

    A method's positional parameters leave out ``self`` or ``cls``.
    """
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            functions = [(node, False)]
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            functions = [
                (f, not any(getattr(d, "id", None) == "staticmethod" for d in f.decorator_list))
                for f in node.body
                if isinstance(f, ast.FunctionDef)
            ]
        else:
            continue
        for f, method in functions:
            if f.name.startswith("_"):
                continue
            a = f.args
            positional = [p.arg for p in a.posonlyargs + a.args][1 if method else 0 :]
            defaulted = positional[len(positional) - len(a.defaults) :]
            keyword = [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            yield f.name, positional, defaulted + keyword


def _passed(trees):
    """Callee name -> the parameter names its calls pass, and the most positions one passes."""
    keywords, most = {}, {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            # a **kwargs forward has arg None; a *args one ends the known positions
            keywords.setdefault(name, set()).update(k.arg for k in node.keywords if k.arg)
            n = next((i for i, a in enumerate(node.args) if isinstance(a, ast.Starred)), None)
            most[name] = max(most.get(name, 0), len(node.args) if n is None else n)
    return keywords, most


def _unpassed():
    """(function, parameter) of each optional public parameter that no call passes.

    The functions of ``ALLOWED`` have no caller, and keep their
    signatures for the reasons given there.
    """
    trees = [ast.parse(path.read_text()) for path in _code_files()]
    keywords, most = _passed(trees)
    unpassed = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for name, positional, optional in _public_functions(ast.parse(path.read_text())):
            if name in ALLOWED:
                continue
            for param in optional:
                by_position = param in positional and positional.index(param) < most.get(name, 0)
                if not by_position and param not in keywords.get(name, ()):
                    unpassed.add((name, param))
    return unpassed


def test_every_public_parameter_is_passed_outside_the_tests():
    unpassed = _unpassed()
    assert sorted(unpassed - set(ALLOWED_PARAMETERS)) == []
    # an entry whose parameter went or gained a caller is stale
    assert sorted(set(ALLOWED_PARAMETERS) - unpassed) == []
