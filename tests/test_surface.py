"""Every function, class and method of the package has a caller in the
package. Reference code that only the tests use lives in tests/oracles.py;
the only exceptions are the functions that state a paper claim of their
own or replay CLI output."""
import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "hyperfield"

# box_disc_bound, c_n_positive and root_bound_box state bounds of the paper,
# check_point_map its algebraic-point identity; apply_transform replays the
# transform that `witness` reports.
PAPER_CLAIMS = {"box_disc_bound", "c_n_positive", "root_bound_box", "check_point_map", "apply_transform"}


def _names(tree) -> Counter:
    """Each name the tree refers to: loaded or stored names, attributes and
    imported names."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name] += 1
    return out


def _overrides(method: ast.FunctionDef) -> bool:
    """Whether the method calls super().<its own name>: its base class calls it."""
    return any(
        isinstance(node, ast.Attribute) and node.attr == method.name
        and isinstance(node.value, ast.Call) and getattr(node.value.func, "id", None) == "super"
        for node in ast.walk(method)
    )


def _definitions(module: ast.Module):
    """(label, name, node) for each module-level function and class, and each
    method whose name does not start with `__` and that overrides nothing."""
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__") and not _overrides(item):
                    yield f"{node.name}.{item.name}", item.name, item


def test_every_definition_has_a_caller_in_the_package():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.rglob("*.py"))}
    used = sum((_names(tree) for tree in trees.values()), Counter())
    unused = [
        f"{path.relative_to(SRC)}: {label}"
        for path, tree in trees.items()
        for label, name, node in _definitions(tree)
        if name not in PAPER_CLAIMS and used[name] <= _names(node)[name]
    ]
    assert not unused, "no caller in src/ (move test-only code to tests/oracles.py): " + ", ".join(unused)
