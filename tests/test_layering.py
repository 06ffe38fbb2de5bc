"""The package's import graph: every module imports the package at its top,
the entropic solver is the lower layer under the exact class LP and the
transportation simplex, the class LP takes only the simplex from exact
transport, and only `data` calls `np.asarray(..., dtype=np.int64)` or locks
an array."""

import ast
import pathlib

import otselect

PACKAGE = pathlib.Path(otselect.__file__).parent


def imported_modules(tree):
    """Each module named by an import under ``tree``; relative ones keep their dots."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            yield "." * node.level + (node.module or "")
        elif isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_no_function_imports_from_the_package():
    # a deferred import inside a function hides a cycle in the import graph
    lazy = [(path.name, node.name, module)
            for path in sorted(PACKAGE.glob("*.py")) for node in ast.walk(parse(path))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for module in imported_modules(node) if module.startswith(".")]
    assert lazy == []


def test_sinkhorn_imports_only_data_and_errors():
    # classlp imports sinkhorn, so sinkhorn must import neither classlp nor
    # anything above data and errors
    modules = set(imported_modules(parse(PACKAGE / "sinkhorn.py")))
    assert {m for m in modules if m.startswith((".", "otselect"))} == {".data", ".errors"}


def test_ot_takes_only_the_c_transform_from_sinkhorn():
    # the simplex certifies its gap with the lower layer's c-transform, and
    # seeds its large cold starts with the lower layer's one log-domain loop
    # and that loop's config; that sinkhorn imports nothing back is checked
    # above
    names = {alias.name for node in ast.walk(parse(PACKAGE / "ot.py"))
             if isinstance(node, ast.ImportFrom) and node.level == 1
             and node.module == "sinkhorn" for alias in node.names}
    assert names == {"_c_transform", "_sinkhorn_potentials", "SinkhornConfig"}


def test_integer_arrays_are_read_only_in_data():
    # data._check_labels refuses the 0.5 that np.asarray(..., dtype=np.int64)
    # truncates to 0, so no other module reads an id or count array itself
    def is_int64(node):
        return (isinstance(node, ast.Attribute) and node.attr == "int64"
                and isinstance(node.value, ast.Name) and node.value.id == "np")

    casts = [(path.name, node.lineno)
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "data.py"
             for node in ast.walk(parse(path))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "asarray"
             and any(map(is_int64, node.args[1:] + [k.value for k in node.keywords]))]
    assert casts == []


def test_classlp_takes_only_the_simplex_from_ot():
    # the grid oracle ranks by the objective each simplex solve certifies,
    # so classlp needs nothing else from ot
    names = {alias.name for node in ast.walk(parse(PACKAGE / "classlp.py"))
             if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "ot"
             for alias in node.names}
    assert names == {"_solve"}


def test_only_data_locks_arrays():
    # data._freeze copies an array before it locks it; a lock anywhere else
    # would freeze whatever array it is handed, the caller's own included
    locks = [(path.name, node.lineno)
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "data.py"
             for node in ast.walk(parse(path))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "setflags"]
    assert locks == []
