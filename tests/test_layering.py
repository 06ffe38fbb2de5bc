"""The package's import graph: every module imports the package at its top,
the entropic solver is the lower layer under the exact class LP and the
transportation simplex, the class LP takes only the simplex from exact
transport, and only `data` calls `np.asarray(..., dtype=np.int64)` or locks
an array. Every keyword option has a caller outside the tests."""

import ast
import pathlib
from collections import defaultdict

import otselect

PACKAGE = pathlib.Path(otselect.__file__).parent
BENCHMARK = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


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
    # the simplex certifies its gap with the lower layer's c-transform, lifts
    # the zero-mass rows of a block solve in that transform's row blocks, and
    # seeds its large cold starts with the lower layer's one log-domain loop
    # and that loop's config; that sinkhorn imports nothing back is checked
    # above
    names = {alias.name for node in ast.walk(parse(PACKAGE / "ot.py"))
             if isinstance(node, ast.ImportFrom) and node.level == 1
             and node.module == "sinkhorn" for alias in node.names}
    assert names == {"_c_transform", "_row_blocks", "_sinkhorn_potentials", "SinkhornConfig"}


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


# Options no call in the package or the benchmark sets, each with the reason it stays.
OPTIONS_WITHOUT_CALLER = {
    "pipeline.baseline_weights.mn_top": "the MN baseline's class count, a public knob of the "
                                        "baseline itself",
    "bounds.compute_bound_report.label_cost": "a metric definition: the label term's scale",
    "bounds.conditional_wasserstein_term.weighting": "a metric definition: which side's "
                                                     "feature marginal weighs the term",
    "bounds.conditional_wasserstein_term.label_cost": "a metric definition: the label "
                                                      "term's scale",
    "bounds.end_to_end_bound_report.skip_finetune": "the acceptance gate that collapses the "
                                                    "weight-shift term sets it",
    "ot.solve_exact_ot.max_iters": "the pivot cap, the one bound on a simplex solve's work",
    "cli.main.argv": "the console script passes none, so that argparse reads sys.argv",
}


class _Function:
    """A function's parameters as its callers see them."""

    def __init__(self, key, node, bound):
        a = node.args
        names = [p.arg for p in a.posonlyargs + a.args]
        self.key = key
        self.positional = names[1:] if bound else names  # a method call omits self or cls
        self.params = set(names) | {p.arg for p in a.kwonlyargs}
        self.defaulted = set(names[len(names) - len(a.defaults):]) | {
            p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None}
        self.kwargs = a.kwarg.arg if a.kwarg else None
        self.rebound = {n.id for n in ast.walk(node)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}


def functions_and_calls(path, key):
    """Each function under ``path`` as (the names a call reaches it by, _Function), and
    each call as (call, its enclosing package function, or None in a lambda or perfbench)."""
    functions, calls = [], []

    def visit(node, key, in_class, enclosing):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{key}.{child.name}", True, enclosing)
            elif isinstance(child, ast.FunctionDef):
                f = _Function(f"{key}.{child.name}", child, in_class)
                names = {child.name}
                if in_class and child.name == "__init__":  # a class call reaches its __init__
                    names.add(key.rsplit(".", 1)[-1])
                functions.append((names, f))
                visit(child, f.key, False, f if path.parent == PACKAGE else None)
            else:
                if isinstance(child, ast.Call):
                    calls.append((child, enclosing))
                visit(child, key, in_class, None if isinstance(child, ast.Lambda) else enclosing)

    visit(parse(path), key, False, None)
    return functions, calls


def test_every_option_has_a_caller():
    """Every defaulted parameter in the package is set by some call in the
    package or in perfbench, or is listed in OPTIONS_WITHOUT_CALLER with its
    reason; a listed option that is gone or has gained a caller fails too.
    Tests are not callers: an option only a test sets has one value in use.

    A call sets what it passes by position or keyword, and a ``*args`` or
    ``**mapping`` splat sets every parameter it can reach. A call reaches
    every function of its last name. An argument that hands on a parameter of
    the calling function unchanged, or a ``**kwargs`` splat that hands on the
    caller's own, sets the option only where that parameter is required, set
    or listed. ``solve_class_weights.sinkhorn_threshold`` has a caller only
    because perfbench's ``lp-scale`` passes ``None`` to it.
    """
    functions, calls = {}, []
    by_name = defaultdict(list)
    for path, prefix in ([(p, p.stem) for p in sorted(PACKAGE.glob("*.py"))]
                         + [(p, f"perfbench.{p.stem}") for p in sorted(BENCHMARK.glob("*.py"))]):
        defs, found = functions_and_calls(path, prefix)
        calls += found
        for names, f in defs:
            functions[f.key] = f
            for name in names:
                by_name[name].append(f)

    setters = defaultdict(list)  # (key, param) -> None for a value, or the (key, param) handed on
    for call, caller in calls:
        params, kwargs = (caller.params, {caller.kwargs}) if caller else (set(), set())

        def handed_on(value, names):
            if isinstance(value, ast.Name) and value.id in names and value.id not in caller.rebound:
                return caller.key, value.id
            return None

        name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
        for f in by_name.get(name, ()):
            for i, arg in enumerate(call.args):
                if isinstance(arg, ast.Starred):
                    for p in f.positional[i:]:
                        setters[f.key, p].append(None)
                    break
                if i < len(f.positional):
                    setters[f.key, f.positional[i]].append(handed_on(arg, params))
            for kw in call.keywords:
                if kw.arg is None:
                    splat = handed_on(kw.value, kwargs)
                    for p in f.params:
                        setters[f.key, p].append(splat and (splat[0], "**" + p))
                elif kw.arg in f.params:
                    setters[f.key, kw.arg].append(handed_on(kw.value, params))
                elif f.kwargs:
                    setters[f.key, "**" + kw.arg].append(handed_on(kw.value, params))

    def is_set(key, param, seen=frozenset()):
        if seen and f"{key}.{param}" in OPTIONS_WITHOUT_CALLER:
            return True
        f = functions[key]
        if param in f.params and param not in f.defaulted:
            return True
        return any(s is None or (s not in seen and is_set(*s, seen | {(key, param)}))
                   for s in setters[key, param])

    uncalled = {f"{f.key}.{p}" for f in functions.values()
                if not f.key.startswith("perfbench.") for p in f.defaulted
                if not is_set(f.key, p)}
    unlisted = sorted(uncalled - set(OPTIONS_WITHOUT_CALLER))
    stale = sorted(set(OPTIONS_WITHOUT_CALLER) - uncalled)
    assert (unlisted, stale) == ([], [])
