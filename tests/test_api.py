"""Every defaulted parameter of the package has a caller.

The source of `gfflab`, the tests and the benchmark are parsed with `ast`.
A defaulted parameter of a non-dunder function or method of `gfflab`
counts as used when at least one call, in any of those trees, passes it
by keyword or by position. A parameter no call passes is a constant in
disguise: it is deleted and its default inlined.

Calls are matched by the called name alone, so every function sharing
that name counts a call; a call through `*args` or `**kwargs` counts as
passing every parameter it could reach.

The same parse checks that `environment.py` is the only module of the
package that reads an attribute named `weights`, so the stored layout of
the conductances stays behind `Conductances`' lookups, and that
`percolation.py`, home of the draw pipeline, is the only one that imports
`threading` or `concurrent.futures`, that `CG_TOL` is read only by
`DirichletOperator._pcg`, so the package has one conjugate-gradient loop,
that in `homogenization.py` only `disconnection_rate_experiment` draws
fields through `_draw_blocks` (the module-level import aside), so one
tilted sample serves disconnection and repulsion, and that no module
looks up the neighbors of a site set in itself by
`X.locate(X.coords + s)` or `X.contains_mask(X.coords + s)`, nor calls a
per-step `.shifted(`: those go through the one table
`SiteSet.neighbors()`, which needs no packing of coordinates.
`potential.killed_laplacian` calls neither `coo_matrix` nor `tocsr`, so
L_U is written straight into CSR from that table. The walk loop
`potential._walk` calls no site-set lookup, no neighbor table and no
`as_coords`, so walkers move on flat window indices alone, with no
coordinate path beside them. Only `percolation._seed_clusters` and
`percolation._big_components` call `label`, and `is_connected` and
`classify_boxes` call `_seed_clusters`, so one kernel answers every
connectivity question.

Every public top-level function and class of the package is referenced
where it can run: in the package outside its own body, in the benchmark,
or in the acceptance suite. A reference is a bare name, an attribute or
an import alias. A string is none, so a name the benchmark traces keeps
nothing alive. `UNREFERENCED_OK` lists the names kept without a
reference, each with its reason.

A subprocess checks that importing the command line leaves `scipy.stats`
and `scipy.spatial` unimported, since every run pays for its imports.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gfflab"
TREES = (PACKAGE, ROOT / "tests", ROOT / "perfbench")


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _defaulted(fn: ast.FunctionDef, method: bool) -> list[tuple[str, int | None]]:
    """(name, call position or None if keyword-only) of each defaulted
    parameter; for a method the position counts from after self/cls."""
    args = fn.args
    positional = args.posonlyargs + args.args
    if method and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                          for d in fn.decorator_list):
        positional = positional[1:]
    out = [(a.arg, i) for i, a in enumerate(positional)
           if i >= len(positional) - len(args.defaults)]
    out += [(a.arg, None) for a, dflt in zip(args.kwonlyargs, args.kw_defaults)
            if dflt is not None]
    return out


def _functions():
    """(qualified name, name, defaulted parameters) for every function and
    method of the package with at least one defaulted parameter."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        parents = {child: node for node in ast.walk(tree)
                   for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            owner = parents.get(node)
            method = isinstance(owner, ast.ClassDef)
            params = _defaulted(node, method)
            if params:
                qual = f"{path.stem}.{owner.name + '.' if method else ''}{node.name}"
                yield qual, node.name, params


def _calls():
    """Called name -> one (positional count, index of the first *args or
    None, keyword names with None for **kwargs) per call in the trees."""
    out: dict[str, list] = {}
    for root in TREES:
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(_parse(path)):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = (func.id if isinstance(func, ast.Name)
                        else func.attr if isinstance(func, ast.Attribute) else None)
                if name is None:
                    continue
                star = [i for i, a in enumerate(node.args) if isinstance(a, ast.Starred)]
                out.setdefault(name, []).append(
                    (len(node.args), star[0] if star else None,
                     {k.arg for k in node.keywords}))
    return out


def _passed(name: str, pos: int | None, calls: list) -> bool:
    return any(name in kws or None in kws
               or (pos is not None and (pos < npos or (star is not None and pos >= star)))
               for npos, star, kws in calls)


def unpassed_parameters() -> list[str]:
    calls = _calls()
    return [f"{qual}({name})" for qual, fname, params in _functions()
            for name, pos in params if not _passed(name, pos, calls.get(fname, []))]


def test_every_defaulted_parameter_is_passed_by_some_call():
    assert unpassed_parameters() == []


def test_the_scan_sees_functions_and_calls():
    quals = {qual for qual, _, _ in _functions()}
    assert "potential.green_killed" in quals
    assert "green_killed" in _calls()
    # no method of the package has a defaulted parameter; a method's
    # positions count from after self
    cls = ast.parse("class C:\n    def m(self, a, b=1, *, c=2): pass\n").body[0]
    assert _defaulted(cls.body[0], method=True) == [("b", 1), ("c", None)]


def _weights_readers() -> set[str]:
    """Modules of the package with an attribute access `<expr>.weights`."""
    return {path.stem for path in PACKAGE.glob("*.py")
            for node in ast.walk(_parse(path))
            if isinstance(node, ast.Attribute) and node.attr == "weights"}


def test_only_the_environment_module_reads_the_stored_weights():
    # the stacked (d,) + window layout stays behind Conductances' lookups
    assert _weights_readers() == {"environment"}


def _thread_importers() -> set[str]:
    """Modules of the package that import threading or concurrent.futures."""
    roots = {"threading", "concurrent"}
    return {path.stem for path in PACKAGE.glob("*.py")
            for node in ast.walk(_parse(path))
            if (isinstance(node, ast.Import)
                and any(a.name.split(".")[0] in roots for a in node.names))
            or (isinstance(node, ast.ImportFrom) and node.level == 0
                and node.module.split(".")[0] in roots)}


def test_only_the_draw_pipeline_imports_threads():
    # one concurrency site; a thread count is not a knob of any other layer
    assert _thread_importers() == {"percolation"}


def _readers(name: str) -> set[str]:
    """Qualified names of the functions of the package that read `name`,
    as a bare name or an attribute; a module-level read or an import of
    it counts as the module's own."""
    out = set()
    for path in PACKAGE.glob("*.py"):
        tree = _parse(path)
        parents = {child: node for node in ast.walk(tree)
                   for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if not ((isinstance(node, ast.Name) and node.id == name
                     and isinstance(node.ctx, ast.Load))
                    or (isinstance(node, ast.Attribute) and node.attr == name)
                    or (isinstance(node, ast.ImportFrom)
                        and any(a.name == name for a in node.names))):
                continue
            scope = []
            while node in parents:
                node = parents[node]
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    scope.append(node.name)
            out.add(".".join([path.stem, *reversed(scope)]))
    return out


def test_one_conjugate_gradient_loop():
    # a second solver loop would need the tolerance that ends the first
    assert _readers("CG_TOL") == {"potential.DirichletOperator._pcg"}


def test_one_disconnection_sampling_loop():
    # a second loop in homogenization would draw the tilted law again
    # instead of reading the sample the disconnection estimate drew
    readers = {q for q in _readers("_draw_blocks") if q.startswith("homogenization")}
    assert readers == {"homogenization", "homogenization.disconnection_rate_experiment"}


def _coords_of(expr: ast.expr) -> ast.expr | None:
    """The set expression X of `X.coords`, also under a subscript."""
    while isinstance(expr, ast.Subscript):
        expr = expr.value
    if isinstance(expr, ast.Attribute) and expr.attr == "coords":
        return expr.value
    return None


def _self_neighbor_queries(tree: ast.Module) -> list[int]:
    """Lines of the calls `X.locate(X.coords +- ...)` and
    `X.contains_mask(X.coords +- ...)`, X the same expression twice."""
    out = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and node.args
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("locate", "contains_mask")):
            continue
        arg = node.args[0]
        if not (isinstance(arg, ast.BinOp) and isinstance(arg.op, (ast.Add, ast.Sub))):
            continue
        receiver = ast.dump(node.func.value)
        if any(base is not None and ast.dump(base) == receiver
               for base in (_coords_of(arg.left), _coords_of(arg.right))):
            out.append(node.lineno)
    return out


def test_self_neighbor_queries_go_through_neighbors():
    found = {path.stem: lines for path in PACKAGE.glob("*.py")
             if (lines := _self_neighbor_queries(_parse(path)))}
    assert found == {}
    assert not any(isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                   and node.func.attr == "shifted"
                   for path in PACKAGE.glob("*.py") for node in ast.walk(_parse(path)))
    assert {"lattice.boundary", "potential.killed_laplacian",
            "potential._get_incidence", "potential.boundary_flux_rhs"} <= \
        _callers("neighbors")


def test_the_laplacian_is_written_straight_into_csr():
    called = _called_names(_parse(PACKAGE / "potential.py"), "killed_laplacian")
    assert "neighbors" in called
    assert not called & {"coo_matrix", "tocsr"}


def test_the_neighbor_query_scan_sees_both_forms():
    tree = ast.parse("U.locate(U.coords + s)\n"
                     "K.contains_mask(K.coords[:, None, :] - steps)\n"
                     "A.locate(B.coords + s)\n"
                     "U.locate(U.coords[ext] + s)\n")
    assert _self_neighbor_queries(tree) == [1, 2, 4]


def _called_names(tree: ast.Module, function: str) -> set[str]:
    """Names called, bare or as attributes, in the body of `function`."""
    return {node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == function
            for node in ast.walk(fn)
            if isinstance(node, ast.Call)
            and isinstance(node.func, (ast.Name, ast.Attribute))}


def _callers(name: str) -> set[str]:
    """Module-qualified names of the functions of the package whose body
    calls `name`, bare or as an attribute."""
    out = set()
    for path in PACKAGE.glob("*.py"):
        tree = _parse(path)
        out |= {f"{path.stem}.{fn.name}" for fn in ast.walk(tree)
                if isinstance(fn, ast.FunctionDef)
                and name in _called_names(tree, fn.name)}
    return out


def test_one_connectivity_kernel():
    # connectivity questions go through _seed_clusters; _big_components
    # labels a box's level set only for the diameters of its clusters
    assert _callers("label") == {"percolation._seed_clusters",
                                 "percolation._big_components"}
    assert {"percolation.is_connected", "percolation.classify_boxes",
            "percolation.crossing_probability",
            "percolation.connectivity_function"} <= _callers("_seed_clusters")


def test_the_walk_loop_steps_on_flat_indices_alone():
    called = _called_names(_parse(PACKAGE / "potential.py"), "_walk")
    assert {"codes", "neighbor_weights_at", "_jump"} <= called
    assert not called & {"locate", "contains_mask", "neighbors", "as_coords"}


# Public names kept with no reference, each with its reason.
UNREFERENCED_OK = {
    # the R^d bracket of a killed capacity, for comparing the
    # disconnection rate with cap^hom of the whole space (ROADMAP item 3)
    "potential.capacity_unkilled_approx",
    # single-field forms the tests use as oracles: the walk that records
    # its path, checked against a reference stepper, and the one-replica
    # connectivity question on a site set, which
    # test_one_connectivity_kernel pins to `_seed_clusters`
    "potential.walk_simulate", "percolation.is_connected", "percolation.level_set",
}


def _references(node: ast.AST) -> set[str]:
    """Names a node refers to: bare names, attributes and import aliases."""
    return {n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute)
            else n.name for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute, ast.alias))}


def unreferenced_public_names() -> list[str]:
    """Public top-level functions and classes of the package that nothing
    refers to in the package outside their own body, in the benchmark or
    in the acceptance suite."""
    outside = set()
    for path in [*sorted((ROOT / "perfbench").rglob("*.py")),
                 ROOT / "tests" / "test_acceptance.py"]:
        outside |= _references(_parse(path))
    stmts = [(path.stem, stmt, _references(stmt))
             for path in sorted(PACKAGE.glob("*.py")) for stmt in _parse(path).body]
    return sorted(f"{module}.{stmt.name}" for module, stmt, _ in stmts
                  if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                  and not stmt.name.startswith("_") and stmt.name not in outside
                  and not any(stmt.name in refs for _, other, refs in stmts
                              if other is not stmt))


def test_every_public_name_is_referenced():
    assert unreferenced_public_names() == sorted(UNREFERENCED_OK)


def test_the_command_line_does_not_import_scipy_stats_or_spatial():
    code = ("import sys, gfflab.cli; "
            "print(sorted(m for m in ('scipy.stats', 'scipy.spatial') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert out.stdout.strip() == "[]"
