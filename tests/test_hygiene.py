"""Source hygiene: no unused imports, no dead private helpers, no unset
settings, no module state outside the memo slot, no test importing a name
the package lacks, no surface point canonicalized past the entry points, no
reader of a star choosing by its shape, no chain search, mesh oracle,
face strip or ray walk in the package, one development of a face across an
edge, one cut-locus pass with one memo of its plans, no inverse
trigonometric call in the package but one ring sort, no import cycle among
the package modules, no import into minimax.py but geometry and planar, and
every function the benchmark's tracer wraps present where it looks for it.

A stdlib ast check over the package modules (``__init__.py`` re-exports by
design and is left out) and, for unused imports, the test modules too.  A
module-level ``_private`` function, class or constant counts as live when
any package module, ``__init__.py`` included, names it.  A ToleranceConfig
field counts as a setting only when some package call sets it by keyword.
"""

import ast
import dataclasses
import importlib
import pathlib

from tetrametric import ToleranceConfig

TESTS = pathlib.Path(__file__).resolve().parent
PKG = TESTS.parent / "src" / "tetrametric"
MODULES = sorted(p for p in PKG.glob("*.py") if p.name != "__init__.py")


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _used_names(tree):
    """Every name a module reads, as a bare name or an attribute."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def _unused_imports(tree):
    used = _used_names(tree)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used:
                    out.append(name)
    return out


def _private_definitions(tree):
    """Module-level _private functions, classes and constants, no dunders."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            out.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in out if n.startswith("_") and not n.startswith("__")]


def test_no_unused_imports():
    found = ["%s: %s" % (path.name, name)
             for path in MODULES + sorted(TESTS.glob("*.py"))
             for name in _unused_imports(_tree(path))]
    assert found == []


def test_no_unreferenced_private_helpers():
    used = set()
    for path in PKG.glob("*.py"):
        used |= _used_names(_tree(path))
    found = ["%s: %s" % (path.name, name) for path in MODULES
             for name in _private_definitions(_tree(path)) if name not in used]
    assert found == []


def test_every_setting_has_a_setter():
    # a field that no caller sets has one value in use: it is a constant
    set_by = set()
    for path in PKG.glob("*.py"):
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name == "ToleranceConfig":
                    set_by |= {kw.arg for kw in node.keywords}
    fields = {f.name for f in dataclasses.fields(ToleranceConfig)}
    assert set_by == fields


def test_module_state_lives_in_the_memo_slot():
    # a global statement rebinds module state; the one allowed is _memo's
    # slot, which keeps the exact reads of the most recent tetrahedron
    found = ["%s: %s" % (path.name, name)
             for path in sorted(PKG.glob("*.py"))
             for node in ast.walk(_tree(path)) if isinstance(node, ast.Global)
             for name in node.names]
    assert found == ["geometry.py: _MEMO"]


def test_every_name_a_test_imports_exists():
    # the suite runs with --continue-on-collection-errors, so a test module
    # importing a name the package no longer has drops out of collection
    # whole instead of failing
    found = []
    for path in sorted(TESTS.glob("*.py")):
        for node in ast.walk(_tree(path)):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "tetrametric"):
                mod = importlib.import_module(node.module)
                found += ["%s: %s.%s" % (path.name, node.module, alias.name)
                          for alias in node.names
                          if not hasattr(mod, alias.name)]
    assert found == []


def test_no_module_uses_cached_property():
    # on CPython 3.11 functools.cached_property takes a lock on every first
    # read; the package's first-read attributes use geometry._first_read
    found = ["%s: %s" % (path.name, node.lineno)
             for path in sorted(PKG.glob("*.py"))
             for node in ast.walk(_tree(path))
             if (isinstance(node, ast.ImportFrom) and node.module == "functools"
                 and any(a.name == "cached_property" for a in node.names))
             or (isinstance(node, ast.Attribute)
                 and node.attr == "cached_property")]
    assert found == []


# the imports the package makes inside functions, by module: each defers a
# dependency to the one path that needs it (the campaign's process pool,
# refine_min_ratio's optimizer, the CLI's JSON reader)
_DEFERRED_IMPORTS = {
    ("cli.py", "json"),
    ("report.py", "concurrent.futures"),
    ("report.py", "scipy.optimize"),
}


def test_the_package_imports_at_module_level():
    # an import inside a function runs on every call; a module the package
    # imports anyway belongs at the top
    found = set()
    for path in sorted(PKG.glob("*.py")):
        tree = _tree(path)
        top = {id(node) for node in tree.body}
        for node in ast.walk(tree):
            if id(node) in top:
                continue
            if isinstance(node, ast.ImportFrom):
                found.add((path.name, "." * node.level + (node.module or "")))
            elif isinstance(node, ast.Import):
                found |= {(path.name, alias.name) for alias in node.names}
    assert found == _DEFERRED_IMPORTS


# the entry points where a surface point comes in from outside, by module:
# each canonicalizes it once, and every point built inside the package is
# canonical as built, so no helper canonicalizes again
_CANONICAL_CALLERS = {
    ("geodesics.py", "geodesic_distance"),
    ("geodesics.py", "all_geodesic_segments"),
    ("geometry.py", "face_point"),
    ("geometry.py", "edge_point"),
    ("geometry.py", "surface_point_from_json"),
    ("geometry.py", "SurfacePoint.canonical"),
    ("intrinsic.py", "star_unfold"),
    ("intrinsic.py", "cut_locus"),
    ("svg.py", "export_unfolding"),
}


def _enclosed(tree, pick):
    """(qualified name of the enclosing definition, node) of every node of a
    module that pick accepts; the name is None at module level."""
    out = []

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            inner = name
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = child.name if name is None else name + "." + child.name
            elif pick(child):
                out.append((name, child))
            visit(child, inner)

    visit(tree, None)
    return out


def _is_canonical_call(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "canonical")


def test_points_are_canonicalized_only_at_the_entry_points():
    calls = [(path.name, name, node.lineno)
             for path in sorted(PKG.glob("*.py"))
             for name, node in _enclosed(_tree(path), _is_canonical_call)]
    found = ["%s:%d in %s" % (mod, line, name) for mod, name, line in calls
             if (mod, name) not in _CANONICAL_CALLERS]
    assert found == []


def _is_shape_helper(name):
    """The star layout on a cell (planar._layout), and the junction
    enumeration a star keeps (StarUnfolding.junctions), written out for
    four images (_circumcenters4)."""
    return name in ("_layout", "_circumcenters", "_circumcenters4")


def _names_shape_helper(node):
    if isinstance(node, ast.ImportFrom):
        return any(_is_shape_helper(alias.name) for alias in node.names)
    return (isinstance(node, ast.Name) and _is_shape_helper(node.id)
            or isinstance(node, ast.Attribute) and _is_shape_helper(node.attr))


def test_only_the_star_builder_chooses_by_shape():
    # a star is laid out, a 6-gon or an 8-gon, where intrinsic._unfold
    # builds it; every other reader of a star works on either alike, and
    # reads the junction candidates off the star instead of enumerating them
    found = []
    for path in MODULES:
        if path.name == "planar.py":
            continue
        for name, node in _enclosed(_tree(path), _names_shape_helper):
            where = "import" if isinstance(node, ast.ImportFrom) else name
            if (path.name, where) not in {("intrinsic.py", "import"),
                                          ("intrinsic.py", "_unfold")}:
                found.append("%s:%d in %s" % (path.name, node.lineno, name))
    assert found == []


# the face-chain search, which tests/chain_reference.py keeps as the
# reference for the paths read off the star
_CHAIN_WALK = ("_cone_clip", "_chain_state", "_STATE", "_chain_crossings",
               "_walk_chains")


def _definitions(tree):
    """Every name a module defines at its top level."""
    out = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.Assign):
            out |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    return out


def test_no_module_searches_below_the_query_layer():
    # every distance is read off a star unfolding: no star, cut locus or
    # report runs a geodesic search.  geodesics.py is the query layer on
    # top, which no package module but __init__ imports, and no module
    # defines the chain walk, which lives in the tests as the reference
    assert set(_CHAIN_WALK) <= _definitions(_tree(TESTS / "chain_reference.py"))
    found = []
    for path in MODULES:
        tree = _tree(path)
        found += ["%s imports geodesics" % path.name for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom)
                  and ("geodesics" in (node.module or "").split(".")
                       or any(a.name == "geodesics" for a in node.names))]
        found += ["%s defines %s" % (path.name, name)
                  for name in sorted(_definitions(tree) & set(_CHAIN_WALK))]
    assert found == []


# the reference engines the tests keep, by file: the edge-lattice oracle,
# the face strip with its step across an edge, and the geodesic ray walk,
# which no path of the package calls
_REFERENCE_ENGINES = {
    "mesh_oracle.py": ("mesh_oracle_distance", "_oracle_base",
                       "_refine_chain"),
    "face_strip.py": ("unfold_faces", "UnfoldedStrip", "shared_edge",
                      "apex_offset", "_place_apex"),
    "ray_reference.py": ("trace_ray", "_ray", "_walk_ray", "chart_direction",
                         "chart_angle", "to_chart", "chart_sectors",
                         "_sector_angle", "_edge_chart", "_vertex_chart"),
}


def test_the_reference_engines_live_in_the_tests():
    # the mesh oracle and the face strip bound and enumerate distances
    # independently of the star, and the ray walk, on its angle chart, maps
    # star points back to the surface without its pieces or its turns; like
    # the chain walk, they are tests' references, and no package module
    # defines them
    moved = set()
    for name, defs in _REFERENCE_ENGINES.items():
        assert set(defs) <= _definitions(_tree(TESTS / name))
        moved |= set(defs)
    found = ["%s defines %s" % (path.name, name) for path in MODULES
             for name in sorted(_definitions(_tree(path)) & moved)]
    assert found == []


# the apex table and the step that the rim rows developed faces by before
# they, like the star cells, went through geometry._develop
_RETIRED_DEVELOPMENTS = ("apex_table", "_ApexTable", "_place_apex")


def _reads_apex_edges(node):
    return (isinstance(node, ast.Name) and node.id == "_APEX_EDGES"
            and isinstance(node.ctx, ast.Load))


def _calls_develop(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "_develop")


def test_one_development_across_an_edge():
    # _develop alone places a face's vertex across an edge: it alone reads
    # the edge lengths a development takes, the rim rows and the star
    # cells both call it, and no module defines the apex table or the old
    # step, at any depth
    found = []
    for path in MODULES:
        tree = _tree(path)
        found += ["%s defines %s" % (path.name, node.name)
                  for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and node.name in _RETIRED_DEVELOPMENTS]
        found += ["%s:%d reads _APEX_EDGES in %s" % (path.name, node.lineno,
                                                     name)
                  for name, node in _enclosed(tree, _reads_apex_edges)
                  if (path.name, name) != ("geometry.py", "_develop")]
    callers = {(path.name, name) for path in MODULES
               for name, _ in _enclosed(_tree(path), _calls_develop)}
    assert found == []
    assert callers == {("geometry.py", "_RimTable.__missing__"),
                       ("geometry.py", "_StarCells._build")}


def _calls(name):
    """A pick for _enclosed: the calls of the bare name."""
    return lambda node: (isinstance(node, ast.Call)
                         and isinstance(node.func, ast.Name)
                         and node.func.id == name)


def test_one_locus_pass():
    # a cut locus is built in one pass over its grouped junction
    # candidates, with its arcs from one memo: only the memo makes a plan,
    # only the locus and the node models group junctions, and the locus
    # builds its nodes at two sites, the corners and the junctions
    def callers(name):
        return sorted((path.name, where) for path in MODULES
                      for where, _ in _enclosed(_tree(path), _calls(name)))

    assert callers("_locus_plan") == [("locus.py", "_LocusPlans.__missing__")]
    assert callers("_group_junctions") == [("intrinsic.py", "_voronoi_locus"),
                                           ("minimax.py", "_node_models")]
    assert callers("_cut_node") == [("intrinsic.py", "_voronoi_locus")] * 2


# the inverse trigonometric calls, by their math and numpy names
_ANGLE_CALLS = {"atan2", "acos", "asin", "arctan2", "arccos", "arcsin"}

# the angle machinery a star carried before its charts went by orientation
# signs, and the shape helpers that only the tests call
_RETIRED_ANGLES = ("corner_angles", "cone_angles", "face_angle_sum",
                   "total_angle_defect", "is_isosceles", "_CORNERS",
                   "_TWO_PI")


def _angle_call(node):
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(
        func, "id", None)
    return name in _ANGLE_CALLS


def test_charts_take_no_angle():
    # the four measures are distances on the star, and its charts are
    # chosen by the signs of cross products (intrinsic._star_cuts,
    # intrinsic._descend, and locus._ring_pairs's ring order around a
    # cut-locus node): no package module takes an inverse trigonometric
    # function, and none defines the angle tables or helpers; a cut
    # carries no angle and a star no total angle
    import tetrametric
    from tetrametric import Tetrahedron
    from tetrametric.intrinsic import CutPath, StarUnfolding

    calls = sorted({(path.name, name) for path in MODULES
                    for name, _ in _enclosed(_tree(path), _angle_call)})
    assert calls == []
    modules = [tetrametric, Tetrahedron] + [
        importlib.import_module("tetrametric." + path.stem)
        for path in MODULES]
    found = ["%s.%s" % (mod.__name__, name) for mod in modules
             for name in _RETIRED_ANGLES if hasattr(mod, name)]
    assert found == []
    assert CutPath._fields == ("vertex", "length", "crossings")
    assert "omega" not in StarUnfolding._fields


def _package_imports(tree):
    """The package modules a module imports, at module level or inside a
    function, by their names without the package prefix."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                out |= ({node.module.split(".")[0]} if node.module
                        else {alias.name for alias in node.names})
            elif (node.module or "").split(".")[0] == "tetrametric":
                out |= ({node.module.split(".")[1]} if "." in node.module
                        else {alias.name for alias in node.names})
        elif isinstance(node, ast.Import):
            out |= {alias.name.split(".")[1] for alias in node.names
                    if alias.name.startswith("tetrametric.")}
    return out


def test_package_imports_form_no_cycle():
    # a cycle would make a module's import order matter; __init__.py, which
    # imports every module and which none imports, is left out
    graph = {path.stem: _package_imports(_tree(path)) for path in MODULES}
    state = {}
    cycles = []

    def visit(mod, trail):
        state[mod] = "open"
        for dep in sorted(graph.get(mod, ())):
            if state.get(dep) == "open":
                cycles.append(" -> ".join(trail[trail.index(dep):] + [dep]))
            elif dep not in state:
                visit(dep, trail + [dep])
        state[mod] = "done"

    for mod in sorted(graph):
        if mod not in state:
            visit(mod, [mod])
    assert cycles == []


def test_minimax_imports_only_geometry_and_planar():
    # the radius search's model and step (minimax.py) take a star's images
    # and nodes and return a step: they read the planar geometry and
    # nothing of the search, the star builder, the queries or the outputs
    assert _package_imports(_tree(PKG / "minimax.py")) == {"geometry",
                                                           "planar"}


def test_every_traced_function_resolves():
    # the benchmark's tracer wraps each (module, name) of LAYER_FUNCTIONS
    # as getattr(tetrametric.<module>, name); a function moved out of its
    # module breaks every traced run.  The file is read, not imported
    path = TESTS.parent / "perfbench" / "tracing.py"
    (layers,) = [ast.literal_eval(node.value) for node in _tree(path).body
                 if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets]
                 == ["LAYER_FUNCTIONS"]]
    assert layers
    found = ["%s.%s" % key for key in layers
             if not callable(getattr(importlib.import_module(
                 "tetrametric." + key[0]), key[1], None))]
    assert found == []
