"""Rules about the package source itself."""

import ast
import pathlib

import wildrep

PACKAGE_DIR = pathlib.Path(wildrep.__file__).parent


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so no certification step may
    # rely on one: checks that must hold raise explicitly
    paths = sorted(PACKAGE_DIR.glob("*.py"))
    assert "exactfield.py" in [path.name for path in paths]
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_package_imports_only_at_module_level():
    # an import inside a function body hides an import cycle until that
    # function first runs; the module-level TYPE_CHECKING block is allowed
    paths = sorted(PACKAGE_DIR.glob("*.py"))
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for func in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert found == []


def _definitions(tree):
    """Top-level functions and classes, and the non-dunder methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield item


def _references(node):
    return [
        ref.id if isinstance(ref, ast.Name) else ref.attr
        for ref in ast.walk(node)
        if isinstance(ref, (ast.Name, ast.Attribute))
    ]


def test_every_definition_has_a_caller_in_the_package():
    # code with no caller in the pipeline goes: each definition must be
    # used by name somewhere in the package other than its own body, and
    # being exported by __init__ does not count
    trees = {
        path.name: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert "cli.py" in trees
    counts = {}
    for tree in trees.values():
        for name in _references(tree):
            counts[name] = counts.get(name, 0) + 1
    unused = [
        f"{file}:{node.lineno} {node.name}"
        for file, tree in trees.items()
        for node in _definitions(tree)
        if counts.get(node.name, 0) == _references(node).count(node.name)
    ]
    assert unused == []



def _dataclass_flags(decorator):
    """The constant keywords of a @dataclass(...) decorator, else None."""
    if isinstance(decorator, ast.Call) and getattr(decorator.func, "id", None) == "dataclass":
        return {kw.arg: getattr(kw.value, "value", None) for kw in decorator.keywords}
    return None


def test_frozen_dataclasses_holding_arrays_compare_by_identity():
    # the generated __eq__ compares the fields as tuples, so an array field
    # makes == raise on the truth value of an array, and hash raise too;
    # such a dataclass must be declared eq=False
    paths = sorted(PACKAGE_DIR.glob("*.py"))
    assert "presentation.py" in [path.name for path in paths]
    found = [
        f"{path.name}:{cls.lineno} {cls.name}"
        for path in paths
        for cls in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(cls, ast.ClassDef)
        for flags in map(_dataclass_flags, cls.decorator_list)
        if flags and flags.get("frozen") is True and flags.get("eq") is not False
        and any(
            isinstance(item, ast.AnnAssign) and "ndarray" in _references(item.annotation)
            for item in cls.body
        )
    ]
    assert found == []


_PRODUCT_CALLS = {"matmul", "dot", "einsum", "tensordot"}


def _products(node):
    """Line numbers of the matrix products under node: @, @= and calls of
    matmul, dot, einsum or tensordot, as numpy functions or methods."""
    for sub in ast.walk(node):
        if isinstance(sub, (ast.BinOp, ast.AugAssign)) and isinstance(sub.op, ast.MatMult):
            yield sub.lineno
        elif isinstance(sub, ast.Call):
            if getattr(sub.func, "attr", getattr(sub.func, "id", None)) in _PRODUCT_CALLS:
                yield sub.lineno


def test_every_matrix_product_sits_in_the_exact_product_routines():
    # float64 holds integers exactly only up to 2^53: _sub_mul_mod keeps
    # every float64 product within that bound, and _leaf's int64 matvec
    # keeps its sums below 2^63, so no other code may multiply matrices
    owners = set()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            for line in _products(node):
                owners.add(f"{path.name}:{getattr(node, 'name', line)}")
    assert owners == {"exactfield.py:_sub_mul_mod", "exactfield.py:_leaf"}
