"""Every name a module lists in ``__all__`` is used by the package itself.

The package ships only what its pipeline and its command line run, so each
exported name must be referenced somewhere in ``src/mmdseg`` outside its
own definition. A re-export in ``__init__.py`` is not a use, and neither is
an import that nothing reads. The kernel's closed form is written once,
inside its elementwise chain, and the chain has two callers, the block
former and the scales, so no second copy of the kernel, and no second
way into it, can grow beside the chain. One ``np.loadtxt`` call reads
every feature file. No internal invariant fails as a bare assertion.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mmdseg"


def _trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def _defines(stmt, name):
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return stmt.name == name
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return any(getattr(t, "id", None) == name for t in targets)


def _used(trees, module, name):
    for other, tree in trees.items():
        if other == "__init__":
            continue
        for stmt in tree.body:
            if other == module and _defines(stmt, name):
                continue
            for node in ast.walk(stmt):
                if (isinstance(node, ast.Name) and node.id == name
                        or isinstance(node, ast.Attribute) and node.attr == name):
                    return True
    return False


def _callers_of(func):
    """(module, top-level definition) of every call to ``func``, by name or attribute."""
    return [(module, getattr(stmt, "name", None)) for module, tree in _trees().items() for stmt in tree.body
            for node in ast.walk(stmt)
            if isinstance(node, ast.Call)
            and func in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]


def test_every_exported_name_is_used_in_the_package():
    trees = _trees()
    exports = [(module, name) for module, tree in trees.items() for name in _exported(tree)]
    assert len(exports) >= 20, "no __all__ lists found"
    unused = [f"{module}.{name}" for module, name in exports if not _used(trees, module, name)]
    assert unused == []


def test_the_closed_form_is_written_once():
    # The NTK's arc-cosine closed form lives in the one elementwise chain,
    # ``kernels._kernel_core``, and nowhere else.
    assert _callers_of("arccos") == [("kernels", "_kernel_core")]


def test_feature_files_have_one_reader():
    # One ``np.loadtxt`` call reads every feature file; no second reader
    # that must give the same frames can grow beside it.
    assert _callers_of("loadtxt") == [("preprocess", "load_features")]


def test_the_kernel_chain_has_two_callers():
    # The block former and the scales: no second way into
    # ``kernels._kernel_core``. Every other function that reaches the chain
    # does so through ``kernels._stacked_pass``.
    calls = {(module, stmt.name): {getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                                   for node in ast.walk(stmt) if isinstance(node, ast.Call)}
             for module, tree in _trees().items() for stmt in tree.body if isinstance(stmt, ast.FunctionDef)}
    callers = sorted(key for key, called in calls.items() if "_kernel_core" in called)
    assert callers == [("kernels", "_stacked_pass"), ("kernels", "resolve_spec")]
    reaches = {"_kernel_core"}
    while grown := {name for (_, name), called in calls.items() if called & reaches} - reaches:
        reaches |= grown
    for key in (("kernels", "kernel_matrix"), ("mmd", "mmd2_terms"), ("mmd", "mmd2_grad_y")):
        assert calls[key] & reaches == {"_stacked_pass"}, key


def test_no_invariant_fails_as_a_bare_assertion():
    # An internal check that fails must raise a named package error, which
    # the command line maps to an exit code; an ``AssertionError`` escapes
    # its handlers, and ``python -O`` strips ``assert`` statements.
    hits = [(module, node.lineno) for module, tree in _trees().items() for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
            or isinstance(node, ast.Raise) and "AssertionError" in {
                getattr(node.exc, "id", None), getattr(getattr(node.exc, "func", None), "id", None)}]
    assert hits == []
