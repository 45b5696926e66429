"""Star unfoldings, cut loci, and intrinsic diameter/radius extraction."""

import dataclasses
import itertools
import json
import math
import pathlib
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tetrametric import (CutArc, CutNode, DEFAULT_CFG, EDGES, FACES,
                         GeneratorSpec, RadiusProbes,
                         SurfacePoint, TetraError, Tetrahedron,
                         ToleranceConfig, Triangle2,
                         all_geodesic_segments, chart_sectors,
                         compute_report, cut_locus,
                         edge_point, face_point, generate, geodesic_distance,
                         instance_stream, intrinsic_diameter,
                         intrinsic_radius, intrinsic_radius_at,
                         make_eps_thick, make_isosceles,
                         make_normal_eps_thick, make_regular, normalize,
                         random_tetrahedron, star_unfold,
                         triangle_is_acute, validate_tetrahedron,
                         vertex_point)
from tetrametric import intrinsic as intrinsic_mod
from tetrametric import minimax as minimax_mod
from tetrametric.errors import AmbiguousCut, SearchExhausted
from tetrametric.geometry import DEDUP_TOL, GEOM_TOL, _circumcenter2, _orient
from tetrametric.intrinsic import (_EXPLORE_PROBES, _POLISH_PROBES,
                                   _opposite_cut, _star_cuts,
                                   _radius_seeds,
                                   _read_farthest,
                                   _seed_bound)
from tetrametric.minimax import (_breakline_walk, _kkt_point, _max_below,
                                 _node_models, _quad_value, _step)
from tetrametric.planar import _group_junctions

from chain_reference import reference_segments
from curved_reference import replay
from fuzzing import ENGINE_FUZZ
from mesh_oracle import mesh_oracle_distance
from polygon_loops import (_point_in_polygon, _polygon_simple, _seg_gap,
                           _segments_within, reduced_polygon)
from ray_reference import chart_angle
from test_geodesics import _fuzz_shape, _fuzz_source

DATA = pathlib.Path(__file__).resolve().parent / "data"
REG = normalize(make_regular(1.0))
DIAM_REG = 2.0 / math.sqrt(3.0)

# closed-form oracle for the (5,6,7) opposite-pairs shape: every vertex has
# angle sum pi, so the star unfolding from a vertex is the doubled triangle
# with sides (10, 12, 14) and the farthest distance from the vertex is that
# triangle's circumradius abc/(4K)
_A, _B, _C = 10.0, 12.0, 14.0
_S = (_A + _B + _C) / 2.0
_K = math.sqrt(_S * (_S - _A) * (_S - _B) * (_S - _C))
ISO_FAR = _A * _B * _C / (4.0 * _K)


def _radius_value(T, x):
    """Farthest-point distance from x, read off its star unfolding."""
    return _read_farthest(star_unfold(T, x), 0.0)[0]


def _tree_ok(locus, expect_leaves):
    """The locus must be a connected tree whose leaves are expect_leaves."""
    n = len(locus.nodes)
    assert len(locus.arcs) == n - 1
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for arc in locus.arcs:
        a, b = (find(x) for x in arc.nodes)
        assert a != b  # an equal root here would mean a cycle
        parent[a] = b
    assert len({find(i) for i in range(n)}) == 1
    leaves = sorted(locus.nodes[i].vertex for i in locus.leaves())
    assert leaves == sorted(expect_leaves)


# ---------------------------------------------------------------------------
# star unfoldings

def test_star_regular_vertex_is_doubled_triangle():
    star = star_unfold(REG, vertex_point(0))
    poly = reduced_polygon(star.poly, tol=1e-7)
    assert len(poly) == 3
    sides = sorted(math.dist(poly[i], poly[(i + 1) % 3]) for i in range(3))
    for s in sides:
        assert s == pytest.approx(2.0, abs=1e-9)
    assert star.area() == pytest.approx(math.sqrt(3.0), abs=1e-9)


def test_star_isosceles_vertices_acute_triangles():
    T = make_isosceles(5.0, 6.0, 7.0)
    for v in range(4):
        star = star_unfold(T, vertex_point(v))
        poly = reduced_polygon(star.poly, tol=1e-7)
        assert len(poly) == 3
        sides = sorted(math.dist(poly[i], poly[(i + 1) % 3]) for i in range(3))
        assert sides[0] == pytest.approx(10.0, abs=1e-9)
        assert sides[1] == pytest.approx(12.0, abs=1e-9)
        assert sides[2] == pytest.approx(14.0, abs=1e-9)
        assert triangle_is_acute(Triangle2(poly[0], poly[1], poly[2]))
        assert star.area() == pytest.approx(4.0 * _K / 4.0, rel=1e-9)


def test_star_gluing_lengths():
    T = normalize(random_tetrahedron(2))
    x = face_point(1, (0.3, 0.45, 0.25))
    star = star_unfold(T, x)
    m = len(star.images)
    assert m == 4  # one cut per vertex from an interior source
    for k in range(m):
        left = math.dist(star.images[k], star.corners[k])
        right = math.dist(star.images[(k + 1) % m], star.corners[k])
        assert left == pytest.approx(star.cuts[k].length, abs=1e-9)
        assert right == pytest.approx(star.cuts[k].length, abs=1e-9)


def test_star_area_is_surface_area():
    for seed in (0, 1, 2):
        T = normalize(random_tetrahedron(seed))
        surf = sum(T.face_areas)
        star = star_unfold(T, face_point(0, (0.4, 0.35, 0.25)))
        assert star.area() == pytest.approx(surf, rel=1e-9)


def test_opposite_cut_matches_search():
    # the closed-form cut to the vertex opposite an interior source's face
    # must reproduce the reference search's first path, tied or not: its
    # length bit for bit, and the crossed edge
    rng = random.Random(11)
    cases = [(REG, face_point(f, (1 / 3, 1 / 3, 1 / 3))) for f in range(4)]
    for k in range(110):
        if k % 2:
            T = normalize(random_tetrahedron(100 + k))
        else:
            T = make_eps_thick(rng.uniform(0.003, 0.03), seed=k)
        for _ in range(20):
            w = [rng.uniform(0.01, 1.0) for _ in range(3)]
            cases.append((T, face_point(rng.randrange(4),
                                        tuple(c / sum(w) for c in w))))
    ties = 0
    for T, x in cases:
        v = x.face
        sec = chart_sectors(T, x)
        segs = reference_segments(T, x, vertex_point(v))
        rho, _, crossings = _opposite_cut(T, x, v, sec)
        assert rho == segs[0].length
        assert crossings[0][0] == segs[0].crossings[0][0]
        ties += len(segs) > 1
    assert len(cases) >= 2000
    assert ties >= 4  # the regular shape's face centroids tie three ways


_LAYOUT_CHECKS = ("cut directions collide at the source",
                  "vertex image closer to a foreign source image")


def _face_cuts_by_reference(T, src):
    """The sorted cuts from a face-interior src, by the reference helpers.

    The chart is chart_sectors', each straight cut's angle chart_angle's
    and the opposite cut _opposite_cut's on that chart.
    """
    f = src.face
    sec = chart_sectors(T, src)
    p2 = T.frame2(f, src.bary)
    cuts = []
    for v in range(4):
        if v == f:
            rho, theta, crossings = _opposite_cut(T, src, v, sec)
        else:
            q2 = T.face_frames[f][FACES[f].index(v)]
            d2 = (q2[0] - p2[0], q2[1] - p2[1])
            rho, theta = math.hypot(*d2), chart_angle(T, src, f, d2, sec)
            crossings = ()
        cuts.append((theta, v, rho, crossings))
    return sorted(cuts)


def _probe_points(T):
    """The points intrinsic_radius(T) probes, each as the probe passed it."""
    points = []
    unfold = intrinsic_mod.star_unfold

    def record(T, x):
        if sys._getframe(1).f_code.co_name == "probe":
            points.append(x)
        return unfold(T, x)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(intrinsic_mod, "star_unfold", record)
        intrinsic_radius(T)
    return points


def test_face_frame_layout_matches_the_reference_helpers():
    # a face-interior source is laid out in its face's frame: its chart,
    # every cut's angle and the opposite cut must be those of the general
    # helpers to the bit, and so must every raised exception that the cuts
    # decide; the helpers and the layout all start from the source's
    # canonical form, which canonical() returns as is
    rng = random.Random(31)
    cases = [(REG, face_point(f, (1 / 3, 1 / 3, 1 / 3))) for f in range(4)]
    probed = 0
    for i in range(30):
        T = _instance(i)
        points = _probe_points(T)
        # every probed point, seed or step end, is built canonical
        assert all(x.canonical() is x for x in points)
        points = [x for x in points if len(x.support()) == 3]
        probed += len(points)
        cases += [(T, x) for x in points]
        # the search probes about 17 face points per shape; random face
        # points of the same shape bring the count past 1000
        for _ in range(30):
            w = [rng.uniform(0.01, 1.0) for _ in range(3)]
            cases.append((T, SurfacePoint(rng.randrange(4),
                                          tuple(c / sum(w) for c in w))))
    instance_points = len(cases) - 4
    for k in range(20):
        T = make_eps_thick(rng.uniform(0.003, 0.03), seed=k)
        for _ in range(20):
            w = [rng.uniform(0.01, 1.0) for _ in range(3)]
            cases.append((T, SurfacePoint(rng.randrange(4),
                                          tuple(c / sum(w) for c in w))))
    moved = 0
    for T, x in cases:
        src = x.canonical()
        assert src.canonical() is src
        moved += src != x
        try:
            want = _face_cuts_by_reference(T, src)
        except SearchExhausted as exc:
            with pytest.raises(SearchExhausted) as got:
                star_unfold(T, x)
            assert str(got.value) == str(exc)
            continue
        try:
            star = star_unfold(T, x)
        except AmbiguousCut as exc:
            assert str(exc) in _LAYOUT_CHECKS
            continue
        assert star.source == src
        assert star_unfold(T, src) is star
        assert _star_cuts(T, src)[1] == chart_sectors(T, src)
        assert star.omega == chart_sectors(T, src)[0]
        assert [tuple(cut) for cut in star.cuts] == want
    assert probed >= 500 and instance_points >= 1000
    # the probes' points are canonical as built, the random ones often not
    assert moved >= 10


def _near_isosceles(sides, shift):
    """The isosceles shape of these sides with its vertices moved by shift."""
    T = make_isosceles(*sides)
    moved = [tuple(c + s for c, s in zip(v, shift[3 * k:3 * k + 3]))
             for k, v in enumerate(T.vertices)]
    return normalize(validate_tetrahedron(moved))


_THIN_CFG = ToleranceConfig(quality_floor=1e-9)


@given(kind=st.sampled_from(["random", "thin", "near-isosceles"]),
       seed=st.integers(0, 10_000),
       eps=st.floats(1e-3, 0.03),
       sides=st.tuples(*[st.floats(0.8, 1.0)] * 3),
       shift=st.lists(st.floats(-1e-6, 1e-6), min_size=12, max_size=12),
       face=st.integers(0, 3),
       weights=st.tuples(*[st.floats(1e-3, 1.0)] * 3))
@settings(ENGINE_FUZZ, max_examples=80, deadline=2000)
def test_unguarded_face_layout_fuzz(kind, seed, eps, sides, shift, face,
                                    weights):
    # a layout from a face-interior source either raises a TetraError or
    # has every cut as long as the shortest path to its vertex and the
    # surface's area
    if kind == "random":
        T = normalize(random_tetrahedron(seed))
    elif kind == "thin":
        T = make_eps_thick(eps, seed=seed, cfg=_THIN_CFG)
    else:
        T = _near_isosceles(sides, shift)
    x = face_point(face, tuple(w / sum(weights) for w in weights))
    try:
        star = star_unfold(T, x)
    except TetraError:
        return
    for cut in star.cuts:
        d = geodesic_distance(T, x, vertex_point(cut.vertex))[0]
        assert abs(cut.length - d) <= 1e-12 * T.diam
    assert abs(star.area() - T.area) <= 1e-6 * T.area


def _farthest_by_definition(star, window):
    """F and its candidates read off a public star by their definition.

    F is the largest nearest-image distance over the vertex images and the
    circumcenters of three source images that no fourth image dominates
    and that lie in the polygon (with its DEDUP_TOL band); the candidates
    are the vertex images, then those circumcenters in falling order, each
    within window of F.  A vertex image's distance to the two images that
    flank it is its cut's length.
    """
    images, scale = star.images, star.tetra.diam
    snap = DEDUP_TOL * scale
    m = len(images)

    def nearest(pt):
        return min([math.hypot(pt[0] - a[0], pt[1] - a[1]) for a in images])

    corners = [(min([cut.length] + [math.dist(w, images[j]) for j in range(m)
                                    if j != k and j != (k + 1) % m]),
                w, k, None)
               for k, (w, cut) in enumerate(zip(star.corners, star.cuts))]
    juncs = []
    for i, j, k in itertools.combinations(range(len(images)), 3):
        c = _circumcenter2(images[i], images[j], images[k],
                           1e-14 * scale * scale)
        if c is None:
            continue
        val = nearest(c)
        if (val >= math.dist(c, images[i]) - snap
                and _point_in_polygon(c, star.poly, snap)):
            juncs.append((val, c, None, (i, j, k)))
    juncs.sort(key=lambda node: -node[0])
    best = max(node[0] for node in corners + juncs)
    return best, [node for node in corners + juncs
                  if node[0] >= best - window]


def test_unguarded_star_farthest_matches_definition():
    # a radius probe reads star_unfold: its F and candidates must be
    # those of their definition, also from the face points 1e-9 (in
    # weight) from a vertex, where the turtle walk raised on 17 of these
    # 24 (closure 9, simplicity 8)
    rng = random.Random(17)
    shapes = [normalize(random_tetrahedron(700 + k)) for k in range(3)]
    shapes += [make_eps_thick(rng.uniform(0.003, 0.03), seed=k)
               for k in range(3)]
    for T in shapes:
        points = [vertex_point(v) for v in range(4)]
        points += [edge_point(a, b, t) for a, b in EDGES for t in (0.3, 0.61)]
        for _ in range(12):
            w = [rng.uniform(0.01, 1.0) for _ in range(3)]
            points.append(face_point(rng.randrange(4),
                                     tuple(c / sum(w) for c in w)))
        points += [face_point(f, tuple(1.0 - 2e-9 if w == f ^ 1 else 1e-9
                                       for w in FACES[f])) for f in range(4)]
        for x in points:
            star = star_unfold(T, x)
            for window in (0.0, 1e-3 * T.diam):
                assert (_read_farthest(star, window)
                        == _farthest_by_definition(star, window))


@pytest.mark.parametrize("p, q, r, s, near", [
    # gap tol/2
    ((0.0, 0.0), (1.0, 0.0), (0.5, 0.5e-9), (0.5, 1.0), True),
    # gap 2 tol: the bounding boxes alone rule it out
    ((0.0, 0.0), (1.0, 0.0), (0.5, 2e-9), (0.5, 1.0), False),
    # overlapping bounding boxes, segments 0.3/sqrt(2) apart
    ((0.0, 0.0), (1.0, 1.0), (1.0, 0.0), (0.6, 0.3), False),
    # crossing
    ((0.0, 0.0), (1.0, 0.0), (0.5, -1.0), (0.5, 1.0), True),
])
def test_segments_within_prefilter(p, q, r, s, near):
    tol = 1e-9
    assert _segments_within(p, q, r, s, tol) is near
    assert (_seg_gap(p, q, r, s) <= tol) is near


def test_segments_within_agrees_with_gap():
    rng = random.Random(5)
    tol = 0.05
    for _ in range(2000):
        p, q, r, s = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(4)]
        assert _segments_within(p, q, r, s, tol) == (_seg_gap(p, q, r, s) <= tol)


def _simple_by_pairs(poly, tol):
    """_polygon_simple's answer from _segments_within on every
    non-adjacent side pair, with no box found once per side."""
    n = len(poly)
    sides = [(poly[i], poly[(i + 1) % n]) for i in range(n)]
    return not any(_segments_within(*sides[i], *sides[j], tol)
                   for i in range(n)
                   for j in range(i + 2, n - 1 if i == 0 else n))


def _near_touching_polygons(gap):
    """A square with a slit of width gap cut in from one side, a pentagon
    whose reflex corner comes within gap of the opposite side, and a
    crossing bow-tie; each also turned by 0.3 rad and moved off the
    origin, so the sides' bounding boxes overlap."""
    slit = ((0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0), (0.0, 1.0 + gap),
            (1.5, 1.0 + gap), (1.5, 1.0), (0.0, 1.0))
    notch = ((0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (1.0, gap), (0.0, 1.0))
    bowtie = ((0.0, 0.0), (1.0, 1.0), (1.0, 0.0), (0.0, 1.0))
    c, s = math.cos(0.3), math.sin(0.3)
    out = []
    for poly in (slit, notch, bowtie):
        out.append(poly)
        out.append(tuple((5.0 + c * x - s * y, -3.0 + s * x + c * y)
                         for x, y in poly))
    return out


def test_polygon_simple_near_touching_sides():
    # sides 0.5 to 3 tol apart: the loop over sides with their boxes found
    # once gives every answer the pairs give
    tol = 2e-9
    for k in (0.5, 1.0, 1.5, 2.0, 3.0):
        for n, poly in enumerate(_near_touching_polygons(k * tol)):
            got = _polygon_simple(poly, tol)
            assert got == _simple_by_pairs(poly, tol)
            if n >= 4:
                assert got is False  # the bow-tie crosses itself
            elif k != 1.0:
                assert got is (k > 1.0)


def test_polygon_simple_matches_the_pairs_on_stars():
    # star polygons of random, thin and isosceles shapes from face, edge
    # and vertex sources, each checked at tolerances around its own
    # closest non-adjacent side pair (at tol equal to the gap, rounding
    # decides, the same way in both)
    rng = random.Random(23)
    shapes = [normalize(random_tetrahedron(700 + k)) for k in range(8)]
    shapes += [make_eps_thick(0.003 + 0.004 * k, seed=k) for k in range(6)]
    shapes += [make_isosceles(5.0, 6.0, 7.0)]
    checked = 0
    for T in shapes:
        points = [vertex_point(v) for v in range(4)]
        points += [edge_point(a, b, rng.uniform(0.05, 0.95))
                   for a, b in rng.sample(EDGES, 2)]
        for f in range(4):
            w = [rng.uniform(0.05, 1.0) for _ in range(3)]
            points.append(face_point(f, tuple(c / sum(w) for c in w)))
        for x in points:
            try:
                poly = star_unfold(T, x).poly
            except TetraError:
                continue
            n = len(poly)
            gap = min(_seg_gap(poly[i], poly[(i + 1) % n], poly[j],
                               poly[(j + 1) % n])
                      for i in range(n)
                      for j in range(i + 2, n - 1 if i == 0 else n))
            for tol in (1e-9 * T.diam, 0.4 * gap, 0.5 * gap, gap, 2.0 * gap):
                assert _polygon_simple(poly, tol) == _simple_by_pairs(poly, tol)
                checked += 1
    assert checked >= 500


def test_cut_nodes_and_arcs_are_plain_frozen_dataclasses():
    # the locus builds its nodes and arcs past the frozen __init__; they
    # equal and print as __init__'s, stay frozen, and replace still works
    for T, x in ((REG, face_point(2, (0.5, 0.3, 0.2))),
                 (normalize(random_tetrahedron(3)), edge_point(0, 2, 0.4)),
                 (make_eps_thick(0.01, seed=2), vertex_point(1))):
        locus = cut_locus(T, x)
        for node in locus.nodes:
            built = CutNode(point=node.point, distance=node.distance,
                            images=node.images, vertex=node.vertex,
                            spread=node.spread, star=node.star)
            assert node == built and repr(node) == repr(built)
            assert "surface" not in vars(node)
            with pytest.raises(dataclasses.FrozenInstanceError):
                node.spread = 0.0
            moved = dataclasses.replace(node, spread=1.0)
            assert moved.spread == 1.0 and moved.star is node.star
            assert moved == dataclasses.replace(built, spread=1.0)
        for arc in locus.arcs:
            built = CutArc(images=arc.images, nodes=arc.nodes, p0=arc.p0,
                           p1=arc.p1)
            assert arc == built and repr(arc) == repr(built)
            with pytest.raises(dataclasses.FrozenInstanceError):
                arc.p0 = (0.0, 0.0)


# ---------------------------------------------------------------------------
# cut loci

def test_cut_locus_regular_vertex_is_symmetric_y():
    locus = cut_locus(REG, vertex_point(0))
    _tree_ok(locus, [1, 2, 3])
    juncs = locus.junctions()
    assert len(juncs) == 1
    node = locus.nodes[juncs[0]]
    assert node.distance == pytest.approx(DIAM_REG, abs=1e-9)
    # the junction develops at the centroid of the opposite face
    want = REG.xyz(face_point(0, (1 / 3, 1 / 3, 1 / 3)))
    got = REG.xyz(node.surface)
    assert math.dist(got, want) <= 1e-6


def test_cut_locus_random_sources_are_trees():
    for seed in range(5):
        T = normalize(random_tetrahedron(seed))
        for v in range(4):
            locus = cut_locus(T, vertex_point(v))
            _tree_ok(locus, [w for w in range(4) if w != v])
    # interior sources see all four vertices as leaves
    T = normalize(random_tetrahedron(6))
    locus = cut_locus(T, face_point(0, (0.5, 0.3, 0.2)))
    _tree_ok(locus, [0, 1, 2, 3])


def test_cut_locus_bisector_residuals():
    T = normalize(random_tetrahedron(0))
    locus = cut_locus(T, vertex_point(1))
    scale = T.diam
    for arc in locus.arcs:
        si = locus.star.images[arc.images[0]]
        sj = locus.star.images[arc.images[1]]
        for s in range(1, 5):
            p = arc.point_at(s / 5.0)
            di = math.dist(p, si)
            dj = math.dist(p, sj)
            assert abs(di - dj) <= 1e-6 * scale


def test_cut_locus_junction_spread():
    for seed in (0, 3):
        T = normalize(random_tetrahedron(seed))
        locus = cut_locus(T, vertex_point(0))
        for i in locus.junctions():
            assert locus.nodes[i].spread <= 1e-6 * T.diam


def test_cut_locus_symmetric_interior_source():
    # a maximally symmetric source must still produce a well-formed tree
    locus = cut_locus(REG, face_point(0, (1 / 3, 1 / 3, 1 / 3)))
    _tree_ok(locus, [0, 1, 2, 3])
    assert locus.radius() == pytest.approx(DIAM_REG, abs=1e-6)


def _signature(locus):
    """A locus's structure by vertex: its vertex nodes' images, its
    junctions' images and its arcs' image pairs, each image named by the
    vertex its cut reaches."""
    vmap = tuple(c.vertex for c in locus.star.cuts)

    def im(t):
        return tuple(sorted(vmap[k] for k in t))

    leafs = tuple(sorted((n.vertex, im(n.images))
                         for n in locus.nodes if n.is_leaf))
    juncs = tuple(sorted(im(n.images)
                         for n in locus.nodes if not n.is_leaf))
    arcs = tuple(sorted(im(a.images) for a in locus.arcs))
    return (leafs, juncs, arcs)


@pytest.mark.parametrize("seed, x, sig", [
    (1109, SurfacePoint(0, (0.6942698828833997, 0.30573011711660025, 0.0)),
     (((0, (0, 2)), (1, (0, 1)), (2, (2, 3)), (3, (1, 3))),
      ((0, 1, 2, 3), (0, 1, 3)),
      ((0, 1), (0, 2), (0, 3), (1, 3), (2, 3)))),
    (1219, SurfacePoint(2, (0.8205036581095311, 0.17949634189046898, 0.0)),
     (((0, (0, 2)), (1, (1, 3)), (2, (1, 2)), (3, (0, 3))),
      ((0, 1, 2), (0, 1, 2, 3)),
      ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3)))),
    (1235, SurfacePoint(0, (0.0, 0.7051248564181108, 0.29487514358188915)),
     (((0, (0, 3)), (1, (1, 2)), (2, (0, 2)), (3, (1, 3))),
      ((0, 1, 2), (0, 1, 2, 3)),
      ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3)))),
])
def test_cut_locus_thin_near_degenerate_nodes(seed, x, sig):
    # on these thin shapes a fourth source image lies within dedup_tol of a
    # degree-three junction without an arc to it, and circumcenters that a
    # fourth image dominates by barely more than rounding sit off the true
    # nodes; neither may change the tree
    rng = np.random.default_rng(seed)
    T = make_eps_thick(float(rng.uniform(0.003, 0.03)), rng)
    assert _signature(cut_locus(T, x)) == sig


@pytest.mark.parametrize("T, x", [
    (make_normal_eps_thick(0.005), edge_point(2, 3, 0.5)),
    (make_eps_thick(0.003, seed=0), edge_point(2, 3, 0.3)),
], ids=["normal-eps-thick", "eps-thick"])
def test_cut_locus_back_maps_junctions_of_thin_edge_sources(T, x):
    # a ray from an edge source that leaves within a few milliradians of
    # its own edge meets that edge again at s ~ 1e-11; it must exit through
    # another edge, or the junction's back-map loses the surface
    locus = cut_locus(T, x)
    for node in locus.nodes:
        d, _ = geodesic_distance(T, x, node.surface)
        assert abs(d - node.distance) <= 1e-12 * T.diam
    intrinsic_radius_at(T, x)


def _exact_locus_ok(T, x, junction_tol=0.0):
    """cut_locus(T, x) builds at x itself as a well-formed tree.

    The tree has every vertex other than a vertex source as a vertex node,
    each of degree one less than its images (a leaf unless the vertex has
    tied shortest paths), and junctions of degree three or more; every
    node lies at its geodesic distance from x, and the locus's radius is
    the probe's F at x, both within 1e-12 * diam.  junction_tol widens
    the tolerance of the junctions and of the radius: a junction is the
    mean of circumcenters grouped within snap, so on a shape with
    near-tied paths it is resolved to snap only.
    """
    locus = cut_locus(T, x)
    supp = x.canonical().support()
    _tree_ok(locus, [v for v in range(4) if supp != (v,)])
    degree = [0] * len(locus.nodes)
    for arc in locus.arcs:
        for i in arc.nodes:
            degree[i] += 1
    for node, deg in zip(locus.nodes, degree):
        assert deg == len(node.images) - 1 if node.is_leaf else deg >= 3
        d, _ = geodesic_distance(T, x, node.surface)
        tol = 0.0 if node.is_leaf else junction_tol
        assert abs(d - node.distance) <= tol + 1e-12 * T.diam
    assert (abs(locus.radius() - _radius_value(T, x))
            <= junction_tol + 1e-12 * T.diam)
    return locus


def _query_shape(seed, i):
    """Shape i of the surface-query pool of seed: random, eps-thick and
    isosceles in turn (only the first two are pinned below)."""
    rng = instance_stream(seed, i)
    if i % 3 == 0:
        return normalize(generate(GeneratorSpec(kind="random"), seed=rng))
    assert i % 3 == 1
    return make_eps_thick(float(rng.uniform(0.003, 0.03)), rng)


def _hex_point(face, bary):
    return SurfacePoint(face, tuple(float.fromhex(c) for c in bary))


# surface-query sources (seed, shape, face, bary) whose vertex ties made
# star_unfold raise AmbiguousCut and cut_locus fail at every nudge; their
# junctions lie 4e-5 to 5e-4 * diam from a vertex image
_TIED_QUERY_SOURCES = [
    (1, 7, 0, ("0x1.27b52ae127a8fp-1", "0x1.11443aa415440p-7",
               "0x1.a80b886890040p-2")),
    (4, 1339, 0, ("0x1.31742b24f8522p-2", "0x1.1a785324ab4ccp-3",
                  "0x1.20a7d5a45903cp-1")),
    (4, 1486, 0, ("0x1.8734b23df5017p-1", "0x1.3156400bac098p-3",
                  "0x1.63adedf8ffe18p-4")),
    (4, 1195, 1, ("0x1.f4b15c1650d50p-2", "0x1.614a48bbd92e0p-6",
                  "0x1.f539ff5df1982p-2")),
    (5, 1128, 0, ("0x1.b3de5d7c97f40p-4", "0x1.ae3112e1204a5p-1",
                  "0x1.b53216f4cb730p-5")),
    (5, 400, 1, ("0x1.c6aee961b5950p-2", "0x1.e8b4a9afc5540p-5",
                 "0x1.fc3a816851c08p-2")),
    (5, 1150, 1, ("0x1.f0b9524848d84p-3", "0x1.4767dde322e92p-2",
                  "0x1.c03b78f8b8aacp-2")),
    (5, 1414, 1, ("0x1.da9731dbe93f1p-1", "0x1.b7120d6ff24c0p-5",
                  "0x1.3ef5a9a2f3860p-6")),
    (5, 610, 3, ("0x1.b43e1357d5206p-1", "0x1.0d328c0b15a7cp-3",
                 "0x1.0ea934acaeb60p-6")),
    (5, 1072, 1, ("0x1.87c12c0e6cf2cp-2", "0x1.badba20302ec0p-6",
                  "0x1.2e488ce8b16f4p-1")),
]


def _formerly_nudged():
    """(id, shape, source) of the loci that were built at a nudged source.

    The vertex loci behind Diam and the Rad certificate at the longest
    edge's midpoint of three near-flat random instances (the last one of
    a campaign's), whose junctions fell 1e-8 to 1e-7 * diam from a vertex
    image; the four face centroids of the
    regular shape, where three shortest paths reach the opposite vertex;
    and the Diam witness of instance 4 of seed 42, a junction from which
    three shortest paths reach vertex 1.
    """
    out = []
    for stream, i, sources in ((15, 3, ("v0", "v1")),
                               (66, 36, ("v0", "v1", "mid")),
                               ((1 << 16) + 4, 11, ("v0", "v1", "v2", "v3"))):
        T = normalize(generate(GeneratorSpec(kind="random"),
                               seed=instance_stream(stream, i)))
        for name in sources:
            x = (_midpoint(T) if name == "mid"
                 else vertex_point(int(name[1])))
            out.append(("%d/%d/%s" % (stream, i, name), T, x))
    out += [("regular/centroid%d" % f, REG,
             face_point(f, (1 / 3, 1 / 3, 1 / 3))) for f in range(4)]
    out.append(("42/4/witness", _instance(4), _hex_point(1, (
        "0x1.f4793515880bap-2", "0x1.485ad482b0568p-2",
        "0x1.8657eccf8f3bdp-3"))))
    return out


def test_formerly_nudged_loci_build_at_the_source():
    for _, T, x in _formerly_nudged():
        locus = _exact_locus_ok(T, x)
        assert locus.star.source == x.canonical().canonical()
    # a tie is a vertex node of more than two images: from a face centroid
    # of the regular shape, the opposite vertex, the one farthest point
    locus = cut_locus(REG, face_point(0, (1 / 3, 1 / 3, 1 / 3)))
    ties = [n for n in locus.nodes if len(n.images) > 2]
    assert [(n.vertex, n.images) for n in ties] == [(0, (0, 1, 2, 3))]
    assert ties[0].distance == locus.radius()


@pytest.mark.parametrize("seed, shape, face, bary", _TIED_QUERY_SOURCES,
                         ids=["%d/%d" % row[:2] for row in _TIED_QUERY_SOURCES])
def test_tied_query_sources_build_at_the_source(seed, shape, face, bary):
    _exact_locus_ok(_query_shape(seed, shape), _hex_point(face, bary))


@given(kind=st.sampled_from(["regular", "isosceles"]),
       sides=st.tuples(*[st.floats(0.8, 1.0)] * 3),
       shift=st.one_of(st.just(None),
                       st.lists(st.floats(-1e-9, 1e-9), min_size=12,
                                max_size=12)),
       source=st.sampled_from(["vertex", "edge", "centroid", "axis"]),
       k=st.integers(0, 5),
       t=st.floats(0.0, 0.5))
@settings(ENGINE_FUZZ, max_examples=150)
def test_tied_source_fuzz(kind, sides, shift, source, k, t):
    # sources on the symmetry elements of regular and isosceles shapes,
    # whose shortest paths to the vertices tie, also with the vertices
    # moved by up to 1e-9: each cut locus is a well-formed tree at its
    # source, or raises a TetraError; a move splits a junction of four
    # images into two about 1e-10 apart, which the locus groups into one
    # node, so junctions are held to snap
    T = make_regular(1.0) if kind == "regular" else make_isosceles(*sides)
    if shift is not None:
        T = validate_tetrahedron([
            tuple(c + s for c, s in zip(v, shift[3 * j:3 * j + 3]))
            for j, v in enumerate(T.vertices)])
    T = normalize(T)
    if source == "vertex":
        x = vertex_point(k % 4)
    elif source == "edge":
        x = edge_point(*EDGES[k], 0.5)
    elif source == "centroid":
        x = face_point(k % 4, (1 / 3, 1 / 3, 1 / 3))
    else:
        # a median of the face: the mirror line of the regular shape's face
        x = face_point(k % 4, tuple(1.0 - 2.0 * t if j == k % 3 else t
                                    for j in range(3)))
    try:
        _exact_locus_ok(T, x, DEDUP_TOL * T.diam)
    except TetraError:
        pass


def test_cut_locus_junctions_are_probe_candidates():
    # the cut locus and the radius probe read one circumcenter enumeration,
    # the star's junctions: every junction is a grouped _read_farthest
    # candidate at its distance
    rng = random.Random(8)
    checked = 0
    for seed in range(10):
        T = normalize(random_tetrahedron(400 + seed))
        snap = DEDUP_TOL * T.diam
        points = [vertex_point(v) for v in range(4)]
        for _ in range(4):
            w = [rng.uniform(0.05, 1.0) for _ in range(3)]
            points.append(face_point(rng.randrange(4),
                                     tuple(c / sum(w) for c in w)))
        for x in points:
            locus = cut_locus(T, x)
            probe = star_unfold(T, locus.star.source)
            cands = [node for node in _read_farthest(probe, math.inf)[1]
                     if node[3] is not None]
            groups = _group_junctions(cands, snap)
            for i in locus.junctions():
                node = locus.nodes[i]
                near = [members[0] for pt, members in groups
                        if math.dist(pt, node.point) <= snap]
                assert len(near) == 1
                assert abs(near[0][0] - node.distance) <= snap
                checked += 1
    assert checked >= 100


def test_cut_locus_surfaces_are_traced_on_first_read():
    # a node's surface point is traced when first read, and equals the
    # eager back-map of the same node: its vertex, or the junction traced
    # through its first source image
    rng = random.Random(17)
    shapes = [normalize(random_tetrahedron(600 + k)) for k in range(10)]
    shapes += [make_eps_thick(0.003 + 0.003 * k, seed=k) for k in range(10)]
    sources = junctions = 0
    for T in shapes:
        points = [vertex_point(v) for v in range(4)]
        for a, b in rng.sample(EDGES, 3):
            points.append(edge_point(a, b, rng.uniform(0.05, 0.95)))
        for f in rng.sample(range(4), 3):
            w = [rng.uniform(0.05, 1.0) for _ in range(3)]
            points.append(face_point(f, tuple(c / sum(w) for c in w)))
        for x in points:
            sources += 1
            locus = cut_locus(T, x)
            for node in locus.nodes:
                if node.is_leaf:
                    eager = vertex_point(node.vertex)
                else:
                    eager = locus.star.to_surface(node.images[0], node.point)
                    junctions += 1
                assert node.surface == eager
                assert node.surface is node.surface
    assert sources == 200 and junctions >= 200


def test_cut_locus_untraceable_node_raises_when_read(monkeypatch):
    # a junction that does not map back to the surface raises
    # SearchExhausted when it is read, not when the locus is built, and at
    # every read
    calls = []

    def lost(*args):
        calls.append(args)
        raise SearchExhausted("the point lies outside the star")

    monkeypatch.setattr(intrinsic_mod.StarUnfolding, "to_surface", lost)
    for T, x in ((REG, face_point(2, (0.5, 0.3, 0.2))),
                 (normalize(random_tetrahedron(3)), edge_point(0, 2, 0.4)),
                 (make_eps_thick(0.01, seed=2), vertex_point(1))):
        locus = cut_locus(T, x)
        assert calls == []
        for node in locus.nodes:
            if node.is_leaf:
                assert node.surface == vertex_point(node.vertex)
                continue
            for _ in range(2):
                with pytest.raises(SearchExhausted, match="outside the star"):
                    node.surface
            assert len(calls) == 2
            calls.clear()


# ---------------------------------------------------------------------------
# farthest-point distances

def test_radius_at_regular_vertex():
    aset = intrinsic_radius_at(REG, vertex_point(0))
    assert aset.value == pytest.approx(DIAM_REG, abs=1e-9)
    want = REG.xyz(face_point(0, (1 / 3, 1 / 3, 1 / 3)))
    assert min(math.dist(REG.xyz(p), want) for p in aset.points) <= 1e-6


def test_radius_at_regular_edge_midpoint():
    aset = intrinsic_radius_at(REG, edge_point(0, 1, 0.5))
    assert aset.value == pytest.approx(1.0, abs=1e-9)
    want = REG.xyz(edge_point(2, 3, 0.5))
    assert min(math.dist(REG.xyz(p), want) for p in aset.points) <= 1e-6


def test_radius_at_isosceles_vertices_circumradius():
    T = make_isosceles(5.0, 6.0, 7.0)
    for v in range(4):
        aset = intrinsic_radius_at(T, vertex_point(v))
        assert aset.value == pytest.approx(ISO_FAR, abs=1e-9)


def test_radius_at_thin_long_edge_midpoint():
    T = make_normal_eps_thick(0.01)
    m = edge_point(0, 1, 0.5)
    aset = intrinsic_radius_at(T, m)
    # the farthest points are the long edge's endpoints, half an edge away
    assert aset.value == pytest.approx(0.5, abs=2e-3)
    ends = [T.xyz(vertex_point(0)), T.xyz(vertex_point(1))]
    for p in aset.points:
        assert min(math.dist(T.xyz(p), e) for e in ends) <= 2e-2


def test_radius_probe_matches_cut_locus():
    # the search probe reads the farthest distance off the star unfolding;
    # the cut locus at the same source has it as its largest node distance
    compared = 0
    for seed in range(5):
        T = normalize(random_tetrahedron(seed))
        rng = random.Random(seed)
        points = [vertex_point(v) for v in range(4)]
        points += [edge_point(a, b, rng.uniform(0.05, 0.95)) for a, b in EDGES]
        for f in range(4):
            w = [rng.uniform(0.1, 1.0) for _ in range(3)]
            points.append(face_point(f, tuple(c / sum(w) for c in w)))
        for x in points:
            want = cut_locus(T, x).radius()
            assert abs(_radius_value(T, x) - want) <= 1e-12 * T.diam
            compared += 1
    assert compared == 70


@given(shape=st.sampled_from(["regular", "isosceles", "eps-thick", "random"]),
       sides=st.tuples(*[st.floats(0.8, 1.0)] * 3),
       eps=st.floats(3e-3, 0.03), seed=st.integers(0, 10_000),
       source=st.sampled_from(["vertex", "midpoint", "centroid", "face"]),
       a=st.integers(0, 11), w=st.tuples(*[st.floats(1e-3, 1.0)] * 3),
       others=st.lists(st.tuples(st.integers(0, 3),
                                 st.tuples(*[st.floats(1e-3, 1.0)] * 3)),
                       min_size=4, max_size=4))
@settings(ENGINE_FUZZ, max_examples=200)
def test_radius_at_contract_fuzz(shape, sides, eps, seed, source, a, w,
                                 others):
    # the farthest distance from a source is the surface distance to each
    # antipode it reports, no random surface point lies farther, and the
    # lattice oracle, an upper bound on surface distance that shares
    # nothing with the star, puts the first antipode no nearer; or the
    # call raises a TetraError
    T = _fuzz_shape(shape, sides, eps, seed)
    x = _fuzz_source(source, a, 0.0, w)
    tol = DEFAULT_CFG.opt_tol * T.diam
    try:
        aset = intrinsic_radius_at(T, x)
        near = [geodesic_distance(T, x, y)[0] for y in aset.points]
        far = [geodesic_distance(T, x, face_point(f, tuple(c / sum(b)
                                                          for c in b)))[0]
               for f, b in others]
    except TetraError:
        return
    assert all(abs(d - aset.value) <= tol for d in near)
    assert mesh_oracle_distance(T, x, aset.points[0], n=4) >= aset.value - tol
    assert max(far) <= aset.value + tol


# ---------------------------------------------------------------------------
# diameter

def test_diameter_regular():
    res = intrinsic_diameter(REG)
    assert res.value == pytest.approx(DIAM_REG, abs=1e-6)
    assert res.multiplicity == 3
    p, q = res.pair
    d, _ = geodesic_distance(REG, p, q)
    assert d == pytest.approx(res.value, abs=1e-9)
    # the witness is a vertex against the centroid of its opposite face
    supports = sorted(len(s.support()) for s in (p, q))
    assert supports == [1, 3]


def test_diameter_isosceles_closed_form():
    T = make_isosceles(5.0, 6.0, 7.0)
    res = intrinsic_diameter(T)
    assert res.value == pytest.approx(ISO_FAR, rel=1e-9)


def test_diameter_dominates_sampled_pairs():
    for seed in (0, 5):
        T = normalize(random_tetrahedron(seed))
        res = intrinsic_diameter(T)
        for k in range(12):
            p = face_point(k % 4, (0.2 + 0.05 * (k % 5), 0.3, 0.5 - 0.05 * (k % 5)))
            q = face_point((k + 1) % 4, (0.25, 0.35 + 0.04 * (k % 7), 0.4 - 0.04 * (k % 7)))
            d, _ = geodesic_distance(T, p, q)
            assert d <= res.value + 1e-9


def test_diameter_witness_is_the_unnudged_junction():
    # Diam is the largest farthest distance from a vertex: on instance 4
    # the witness is vertex 1 and its farthest point, a junction of its
    # cut locus where three shortest paths meet
    T = _instance(4)
    asets = [intrinsic_radius_at(T, vertex_point(v)) for v in range(4)]
    res = intrinsic_diameter(T)
    assert res.value == max(a.value for a in asets) == asets[1].value
    assert res.pair == (vertex_point(1), asets[1].points[0])
    assert len(res.pair[1].support()) == 3
    assert res.multiplicity == 3
    assert not res.continuum
    # from the junction, three shortest paths reach vertex 1: its own cut
    # locus, built at the junction itself, has vertex 1 as a node of all
    # four source images, and vertex 1 is its farthest point
    aset = intrinsic_radius_at(T, res.pair[1])
    assert aset.source == res.pair[1].canonical()
    (node,) = [n for n in aset.locus.nodes if n.vertex == 1]
    assert node.images == (0, 1, 2, 3)
    assert aset.value == res.value


def test_diameter_thin_approaches_long_edge():
    T = make_normal_eps_thick(0.01)
    res = intrinsic_diameter(T)
    assert 1.0 - 1e-9 <= res.value <= 1.01


def _thin_shape(seed, i):
    """Instance i of a thin pool: eps-thick and normal-eps-thick alternating."""
    rng = instance_stream(seed, i)
    if i % 2 == 0:
        return make_eps_thick(float(rng.uniform(0.003, 0.03)), rng)
    return make_normal_eps_thick(float(rng.uniform(0.01, 0.03)))


def _diameter_reference(T):
    """Diam read off all four vertex loci: value bits, pair, count, continuum.

    Diam is the largest vertex value, and the witness the lowest vertex
    within GEOM_TOL * diam of it.  The loci are built on a fresh T, so none
    is shared with the code under test.
    """
    T = Tetrahedron(T.vertices)
    asets = [intrinsic_radius_at(T, vertex_point(v)) for v in range(4)]
    value = max(a.value for a in asets)
    best = [a for a in asets if a.value >= value - GEOM_TOL * T.diam][0]
    p, q = best.source, best.points[0]
    return (value.hex(), (p, q), len(all_geodesic_segments(T, p, q)),
            any(a.continuum for a in asets))


def _diameter_reading(res):
    return (res.value.hex(), res.pair, res.multiplicity, res.continuum)


def test_diameter_matches_the_four_locus_reference():
    # intrinsic_diameter builds only the vertex loci that can change its
    # result; it must return what the four loci give, bit for bit
    shapes = [_instance(i) for i in range(60)]
    shapes += [_thin_shape(1, i) for i in range(128)]
    shapes += [REG, make_isosceles(5.0, 6.0, 7.0)]
    shapes += [make_normal_eps_thick(e) for e in (0.005, 0.01, 0.02, 0.03)]
    for T in shapes:
        assert _diameter_reading(intrinsic_diameter(T)) == \
            _diameter_reference(T)


def _isosceles_shapes(n):
    """Normalized make_isosceles shapes, the sides drawn from
    default_rng(0) in [0.5, 1) until n of them are acute."""
    rng = np.random.default_rng(0)
    shapes = []
    while len(shapes) < n:
        p, q, r = (float(x) for x in rng.uniform(0.5, 1.0, 3))
        if p * p + q * q > r * r and p * p + r * r > q * q \
                and q * q + r * r > p * p:
            shapes.append(normalize(make_isosceles(p, q, r)))
    return shapes


def test_diameter_witness_is_the_lowest_tied_vertex():
    # on an isosceles shape every vertex has the same farthest distance up
    # to rounding, so the witness vertex is vertex 0, whichever vertex
    # rounds highest; Diam stays the largest vertex value, bit for bit.
    # Before the index rule the witness was another vertex on 52 of these
    # 171 shapes
    moved = 0
    for T in _isosceles_shapes(171):
        values = [intrinsic_radius_at(T, vertex_point(v)).value
                  for v in range(4)]
        assert max(values) - min(values) <= GEOM_TOL * T.diam
        moved += max(values) != values[0]
        res = intrinsic_diameter(Tetrahedron(T.vertices))
        assert res.value.hex() == max(values).hex()
        assert res.pair[0] == vertex_point(0)
    assert moved >= 50


@pytest.mark.parametrize("v", range(4))
def test_diameter_vertex_star_failure_takes_the_nudge_path(monkeypatch, v):
    # a vertex whose star unfolding raises has no probe value, and its cut
    # locus, built from the same star, would raise too: the AmbiguousCut
    # propagates out of intrinsic_diameter, as out of the four-locus
    # reference (no source is moved to get around it)
    unfold = intrinsic_mod.star_unfold

    def failing(T_, x):
        if x.canonical() == vertex_point(v):
            raise AmbiguousCut("star polygon failed to close")
        return unfold(T_, x)

    monkeypatch.setattr(intrinsic_mod, "star_unfold", failing)
    with pytest.raises(AmbiguousCut, match="failed to close"):
        intrinsic_diameter(_instance(4))
    with pytest.raises(AmbiguousCut, match="failed to close"):
        _diameter_reference(_instance(4))


def _continuum_shape():
    """A shape whose vertices 0 and 3 have a continuum below the maximum.

    From a vertex of make_isosceles(1, 1, r), the star unfolding is the
    face doubled, and the cut locus joins the circumcenter of the three
    source images to the midpoints of the sides.  With cos C = 1.2e-3 at
    the face corner opposite r, the arc to the midpoint of the long side is
    1.2e-3 * diam long and its two ends differ by about 7e-7 * diam, below
    opt_tol * diam.  Moving vertex 1 out by 1% and vertex 2 in by 1% keeps
    that arc at vertices 0 and 3 and raises F at vertex 1 by 1.2e-5 * diam.
    """
    V = make_isosceles(1.0, 1.0, math.sqrt(2.0 - 2.0 * 1.2e-3)).vertices
    scale = (1.0, 1.01, 0.99, 1.0)
    return Tetrahedron([tuple(c * s for c in p) for p, s in zip(V, scale)])


def test_diameter_reports_a_continuum_below_the_maximum(monkeypatch):
    # vertices 0 and 3 lie below the maximum by far more than the skip
    # slack, so only their continuum windows get their loci built
    T = _continuum_shape()
    asets = [intrinsic_radius_at(T, vertex_point(v)) for v in range(4)]
    assert [a.continuum for a in asets] == [True, False, False, True]
    for v in (0, 3):
        assert asets[1].value - asets[v].value > 1e-5 * T.diam
        arcs = [arc for arc in asets[v].locus.arcs
                if arc.length > 1e-3 * T.diam
                and min(asets[v].locus.nodes[n].distance for n in arc.nodes)
                >= asets[v].value - 1e-6 * T.diam]
        assert len(arcs) == 1
    built = []
    voronoi = intrinsic_mod._voronoi_locus

    def counted(T_, x, *args):
        built.append(x.support()[0])
        return voronoi(T_, x, *args)

    monkeypatch.setattr(intrinsic_mod, "_voronoi_locus", counted)
    # a fresh T, as the loci read above are kept for this one
    res = intrinsic_diameter(Tetrahedron(T.vertices))
    assert sorted(built) == [0, 1, 3]
    assert res.continuum
    assert res.pair[0] == vertex_point(1)
    assert _diameter_reading(res) == _diameter_reference(T)


def test_exact_read_work_stays_down(monkeypatch):
    # cut-locus builds (_voronoi_locus) and back-maps of locus points
    # (StarUnfolding.to_surface, called for a node or a continuum sample;
    # the radius search's steps map back too, and are not counted) per
    # report, on instances 0-9 of seed 42 and ten thin shapes; they count
    # work, not time.  When Diam built all four vertex loci and every
    # junction was traced as it was built, they were 51 and 62 on the
    # random shapes and 50 and 55 on the thin ones
    counts = {"loci": 0, "traces": 0}
    voronoi = intrinsic_mod._voronoi_locus
    trace = intrinsic_mod.StarUnfolding.to_surface

    def counted_locus(*args):
        counts["loci"] += 1
        return voronoi(*args)

    def counted_trace(*args):
        if sys._getframe(1).f_code.co_name != "_descend":
            counts["traces"] += 1
        return trace(*args)

    monkeypatch.setattr(intrinsic_mod, "_voronoi_locus", counted_locus)
    monkeypatch.setattr(intrinsic_mod.StarUnfolding, "to_surface",
                        counted_trace)
    for shapes, loci, traces in (([_instance(i) for i in range(10)], 27, 15),
                                 ([_thin_shape(1, i) for i in range(10)],
                                  30, 0)):
        counts.update(loci=0, traces=0)
        for T in shapes:
            compute_report(T)
        assert counts["loci"] <= loci
        assert counts["traces"] <= traces
    # a face source's locus traces nothing until a surface is read
    counts.update(traces=0)
    locus = cut_locus(_instance(0), face_point(1, (0.3, 0.3, 0.4)))
    assert counts["traces"] == 0
    for node in locus.nodes:
        node.surface
    assert counts["traces"] == len(locus.junctions()) > 0


# ---------------------------------------------------------------------------
# radius

def test_radius_regular():
    res = intrinsic_radius(REG)
    # the longest-edge midpoint is no certificate here (1 > diam/2), and the
    # descent must not trade the exact optimum for probe rounding; at the
    # edge-midpoint seeds the model predicts no decrease, so those descents
    # stop at once, the face seeds spend the exploration budget, and the
    # polish starts at an optimum and makes no probe; the lazy scan probes
    # 26 seeds, as the others' vertex distances exceed every F descended from
    assert res.evaluations == 1 + 26 + _EXPLORE_PROBES == 47
    assert abs(res.value - 1.0) <= 1e-12
    c = REG.xyz(res.center)
    mids = [REG.xyz(edge_point(a, b, 0.5)) for a, b in
            ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))]
    assert min(math.dist(c, m) for m in mids) <= 1e-3


def test_radius_search_spends_a_bounded_budget():
    # the exploring descents share a fixed budget, whatever they converge
    # to, and only the winner is polished, within a budget of its own
    for i in (0, 1, 4, 79):
        T = normalize(generate(GeneratorSpec(kind="random"),
                               seed=instance_stream(42, i)))
        n = intrinsic_radius(T).evaluations
        # the certificate probe, at least the best seed, and the budget
        assert (1 + 1 + _EXPLORE_PROBES <= n
                <= 1 + 42 + _EXPLORE_PROBES + _POLISH_PROBES)


def _full_scan_order(T):
    """All 42 seeds as (F, face, bary), in the order a full scan sorts them."""
    out = []
    for x in _radius_seeds():
        try:
            val = _radius_value(T, x)
        except AmbiguousCut:
            val = math.inf
        out.append((val, x.face, x.bary))
    return sorted(out)


def test_seed_bound_is_a_lower_bound():
    # the lazy seed scan is exact only if no seed's F lies below its bound
    rng = random.Random(11)
    shapes = [_instance(i) for i in range(30)]
    shapes += [make_eps_thick(rng.uniform(0.003, 0.03), seed=s)
               for s in range(30)]
    checked = 0
    for T in shapes:
        for val, f, bary in _full_scan_order(T):
            assert _seed_bound(T, f, bary) <= val
            checked += math.isfinite(val)
    assert checked >= 0.9 * 42 * len(shapes)


@pytest.mark.parametrize("stream,i", [(42, 0), (42, 1), (42, 4), (42, 79),
                                      (15, 87)])
def test_radius_descents_start_in_full_scan_order(monkeypatch, stream, i):
    # the lazy scan must start each descent where a full scan would
    T = normalize(generate(GeneratorSpec(kind="random"),
                           seed=instance_stream(stream, i)))
    starts = []
    descend = intrinsic_mod._descend

    def record(T, x, value, *args):
        if not args[-1]:  # first-order steps: not the polish
            starts.append((value, x.face, x.bary))
        return descend(T, x, value, *args)

    monkeypatch.setattr(intrinsic_mod, "_descend", record)
    intrinsic_radius(T)
    assert starts
    assert starts == _full_scan_order(T)[:len(starts)]


def test_radius_raises_when_no_seed_is_usable(monkeypatch):
    def refuse(T, x, *args, **kwargs):
        raise AmbiguousCut("refused")

    # the certificate's cut locus and every probe build through star_unfold
    monkeypatch.setattr(intrinsic_mod, "star_unfold", refuse)
    with pytest.raises(AmbiguousCut, match="no probe point"):
        intrinsic_radius(_instance(0))


def test_radius_probes_are_unguarded_star_unfoldings(monkeypatch):
    # every probe is a star_unfold, and so is the star of the cut locus of
    # the final re-read, which is the probe's own at the center: the search
    # lays out one star per point it probes and no other
    calls = {"star_unfold": [], "_voronoi_locus": 0, "_unfold": 0}
    star_unfold_fn = intrinsic_mod.star_unfold
    locus_fn = intrinsic_mod._voronoi_locus
    unfold_fn = intrinsic_mod._unfold

    def counted_star_unfold(T, x):
        calls["star_unfold"].append((sys._getframe(1).f_code.co_name,
                                     x.canonical()))
        return star_unfold_fn(T, x)

    def counted_locus(*args):
        calls["_voronoi_locus"] += 1
        return locus_fn(*args)

    def counted_unfold(*args):
        calls["_unfold"] += 1
        return unfold_fn(*args)

    monkeypatch.setattr(intrinsic_mod, "star_unfold", counted_star_unfold)
    monkeypatch.setattr(intrinsic_mod, "_voronoi_locus", counted_locus)
    monkeypatch.setattr(intrinsic_mod, "_unfold", counted_unfold)
    res = intrinsic_radius(_instance(1))
    assert res.probes.explore > 0  # the certificate fails; the search runs
    probes = [x for caller, x in calls["star_unfold"] if caller == "probe"]
    assert len(probes) == res.evaluations - 1
    # the midpoint's vertex distances already fail the certificate, so its
    # cut locus is never built: the one build is the final re-read
    assert calls["_voronoi_locus"] == 1
    rest = [call for call in calls["star_unfold"] if call[0] != "probe"]
    assert [caller for caller, _ in rest] == ["_voronoi_locus"]
    assert rest[0][1] in probes
    assert calls["_unfold"] == len(set(probes))


def _midpoint(T):
    return edge_point(*EDGES[T.longest_edge], 0.5)


def test_radius_certificate_skip_is_safe():
    # the certificate's cut locus is skipped when _seed_bound at the
    # midpoint exceeds diam/2 + GEOM_TOL * diam; F there must exceed it too
    rng = random.Random(12)
    shapes = [_instance(i) for i in range(40)]
    shapes += [make_eps_thick(rng.uniform(0.003, 0.03), seed=s)
               for s in range(40)]
    skipped = 0
    for T in shapes:
        mid = _midpoint(T)
        bar = 0.5 * T.diam + GEOM_TOL * T.diam
        bound = _seed_bound(T, mid.face, mid.bary)
        if bound > bar:
            assert intrinsic_radius_at(T, mid).value >= bound > bar
            skipped += 1
    assert skipped >= 20


def test_radius_bits_are_pinned():
    # Rad, its center and the probe count, to the bit, on four searched
    # instances and one certified one of seed 42: a change that claims to
    # keep the search's numbers must keep these
    pins = {
        0: ("0x1.061e4f37b12fcp-1", 3, ["0x1.abbe091ac850ap-2",
                                        "0x1.cf62d43decf9dp-3",
                                        "0x1.6c908cc641327p-2"], 27),
        1: ("0x1.0cfab096b37c4p-1", 2, ["0x1.1542277e4ffa2p-2",
                                        "0x1.cc08b8569b1d8p-2",
                                        "0x1.1eb5202b14e87p-2"], 26),
        2: ("0x1.0000000000000p-1", 2, ["0x1.0000000000000p-1",
                                        "0x1.0000000000000p-1",
                                        "0x0.0p+0"], 1),
        4: ("0x1.329321f7fffd1p-1", 3, ["0x1.e9ba2b234e23cp-2",
                                        "0x1.86a8e01d3bf13p-3",
                                        "0x1.52f164ce13e3bp-2"], 28),
        79: ("0x1.1ea859768ef1dp-1", 3, ["0x1.ba75c278b23f2p-2",
                                         "0x1.67a6b68e15cb2p-6",
                                         "0x1.1787e90f36322p-1"], 30),
    }
    # the same instances' Rad under the first-order polish: the curved
    # polish may only lower them, or raise them by rounding
    first_order = {0: "0x1.061e4f37b12fcp-1", 1: "0x1.0cfab096b3d47p-1",
                   2: "0x1.0000000000000p-1", 4: "0x1.329321f7fffd0p-1",
                   79: "0x1.1ea859768ef1ep-1"}
    for i, (rad, face, bary, evaluations) in pins.items():
        T = _instance(i)
        res = intrinsic_radius(T)
        assert res.value.hex() == rad
        assert res.center.face == face
        assert [c.hex() for c in res.center.bary] == bary
        assert res.evaluations == evaluations
        assert res.value <= float.fromhex(first_order[i]) + 1e-9 * T.diam


def _nudged_loci(locus, tol):
    """The locus with every node within tol of its radius set to that
    radius, then with each of those in turn one ulp above it."""
    R = locus.radius()
    tied = [k for k, n in enumerate(locus.nodes) if n.distance >= R - tol]

    def moved(dists):
        nodes = tuple([dataclasses.replace(n, distance=dists.get(k, n.distance))
                       for k, n in enumerate(locus.nodes)])
        return dataclasses.replace(locus, nodes=nodes)

    flat = dict.fromkeys(tied, R)
    return [moved(flat)] + [moved({**flat, k: math.nextafter(R, math.inf)})
                            for k in tied]


def test_tied_antipodes_keep_the_locus_order(monkeypatch):
    # the antipodes of a Rad optimum are tied, so their distances differ
    # in the last bits only: one ulp between them must not reorder them
    checked = 0
    for i in (6, 8, 26):
        T = _instance(i)
        center = intrinsic_radius(T).center
        orders = []
        for locus in _nudged_loci(cut_locus(T, center), 1e-6 * T.diam):
            monkeypatch.setattr(intrinsic_mod, "cut_locus",
                                lambda T, x, locus=locus: locus)
            orders.append(intrinsic_radius_at(T, center).points)
        monkeypatch.undo()
        assert len(orders[0]) >= 2
        assert all(order == orders[0] for order in orders)
        checked += len(orders)
    assert checked >= 9


def test_the_final_rad_read_builds_no_star(monkeypatch):
    # the search's center is a point it probed, built canonical, so the
    # final intrinsic_radius_at reads the probe's star: on these two
    # instances a center that canonical() moved off its probe point once
    # made that read build a new star
    unfolds = []
    unfold = intrinsic_mod._unfold
    monkeypatch.setattr(intrinsic_mod, "_unfold",
                        lambda T, x: unfolds.append(x) or unfold(T, x))
    reads = []
    radius_at = intrinsic_mod.intrinsic_radius_at

    def read(*args):
        before = len(unfolds)
        out = radius_at(*args)
        reads.append(len(unfolds) - before)
        return out

    monkeypatch.setattr(intrinsic_mod, "intrinsic_radius_at", read)
    for seed, i in ((42, 70), (15, 5)):
        T = normalize(generate(GeneratorSpec(kind="random"),
                               seed=instance_stream(seed, i)))
        res = intrinsic_radius(T)
        assert res.probes.explore > 0  # a search, not the certificate
        assert reads[-1] == 0


def test_polish_crosses_a_valley_in_few_probes():
    # instance 1's winner lies in a valley of F, two nodes active: the
    # first-order polish spent all 30 probes crawling along it and reached
    # 0x1.0cfab096b3d47p-1; the curved model steps to the valley's floor
    T = _instance(1)
    res = intrinsic_radius(T)
    assert res.probes.polish <= 4
    assert res.value <= float.fromhex("0x1.0cfab096b3d47p-1") + 1e-9 * T.diam


def _polish_end(T):
    """The star unfolding where the polish of intrinsic_radius(T) ends."""
    ends = []
    descend = intrinsic_mod._descend

    def record(*args):
        out = descend(*args)
        if args[-1]:  # curved: the polish
            ends.append(out[2])
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(intrinsic_mod, "_descend", record)
        intrinsic_radius(T)
    return ends[0] if ends else None


def test_polish_ends_first_order_stationary():
    # at the polish's end point the first-order step, over the chart box
    # of 1e-6 * diam, predicts no decrease beyond 1e-12 * diam: no
    # direction on the surface lowers F faster than 1e-6
    checked = 0
    for i in range(20):
        T = _instance(i)
        star = _polish_end(T)
        if star is None:
            continue  # certified
        delta = 1e-6 * T.diam
        assert min(cut.length for cut in star.cuts) > 2.0 * delta
        F, nodes = _read_farthest(star, 6.0 * delta)
        models = [pcs for _, pcs in _node_models(star, nodes)]
        poly = [(-delta, -delta), (delta, -delta), (delta, delta),
                (-delta, delta)]
        assert F - _step(models, poly, False)[0] <= 1e-12 * T.diam
        checked += 1
    assert checked >= 10


def test_radius_probes_by_stage():
    # evaluations is the sum of the stages; each stage keeps its bound
    for i in (0, 1, 2, 4, 79):
        res = intrinsic_radius(_instance(i))
        st = res.probes
        assert res.evaluations == (st.certificate + st.seeds + st.explore
                                   + st.polish)
        if res.evaluations == 1:
            assert st == RadiusProbes(1)  # certified: no search
        else:
            assert st.certificate == 1
            assert 1 <= st.seeds <= 42
            assert 1 <= st.explore <= _EXPLORE_PROBES
            assert 0 <= st.polish <= _POLISH_PROBES
    # the regular shape: 26 seeds probed, the explore budget, and a polish
    # that starts at the optimum and makes no probe
    assert intrinsic_radius(REG).probes == RadiusProbes(1, 26,
                                                        _EXPLORE_PROBES, 0)


def test_radius_step_work_stays_down(monkeypatch):
    # model pieces built (_node_models) per searched report, on instances
    # 0-59 of seed 42 (44 searched); they count work, not time, so they do
    # not depend on the machine.  Before models were built only for nodes
    # that can become active, there were 187.5 per searched report on
    # instances 0-9; when descents stayed in their start face, 5987 here,
    # and 4435 when a descent rebuilt its models on turning curved
    counts = {"pieces": 0}
    node_models = intrinsic_mod._node_models

    def counted_models(*args):
        models = node_models(*args)
        counts["pieces"] += sum(len(pcs) for _, pcs in models)
        return models

    monkeypatch.setattr(intrinsic_mod, "_node_models", counted_models)
    searched = sum(intrinsic_radius(_instance(i)).evaluations > 1
                   for i in range(60))
    assert searched == 44
    assert 0 < counts["pieces"] <= 4018


def test_turning_curved_rebuilds_no_models(monkeypatch):
    # a descent that turns curved keeps the models of its point, whose
    # pieces are curved already: on instances 0-59 of seeds 42 and 3 the
    # searches build 1905 models, against 2113 when a descent rebuilt its
    # point's models with Hessians on turning curved
    node_models = intrinsic_mod._node_models
    calls = []

    def counted(*args):
        calls.append(1)
        return node_models(*args)

    monkeypatch.setattr(intrinsic_mod, "_node_models", counted)
    for stream in (42, 3):
        for i in range(60):
            intrinsic_radius(normalize(generate(
                GeneratorSpec(kind="random"),
                seed=instance_stream(stream, i))))
    assert 0 < len(calls) <= 1905


# instance 33 of stream 307: a point of face 3 whose F lies 6.12e-3 * diam
# below the Rad that the search returns (0x1.288925198c1c4p-1), found by
# descents that are curved from their first step
_WITNESS_307_33 = (3, ("0x1.a19709105d24cp-2", "0x1.6abb92654d9b7p-2",
                       "0x1.e75ac914aa7f8p-3"))


def test_radius_witness_below_the_search_on_307_33():
    T = normalize(generate(GeneratorSpec(kind="random"),
                           seed=instance_stream(307, 33)))
    face, bary = _WITNESS_307_33
    x = face_point(face, tuple(float.fromhex(w) for w in bary))
    assert intrinsic_radius_at(T, x).value.hex() == "0x1.256700fd99131p-1"


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the 20-probe search "
                                       "misses the witness's basin")
def test_radius_reaches_the_witness_on_307_33():
    T = normalize(generate(GeneratorSpec(kind="random"),
                           seed=instance_stream(307, 33)))
    witness = float.fromhex("0x1.256700fd99131p-1")
    assert intrinsic_radius(T).value <= witness + 1e-9 * T.diam


def test_radius_never_rises_above_the_guard():
    # tests/data/radius_guard_42.json holds Rad and diam of instances 0-59
    # of seed 42, and radius_guard_hard.json those of instances 0-99 of
    # streams 15 and 66 and three campaign instances, as earlier searches
    # returned them; a later search may lower any of them, but raise none
    # by more than 1e-9 * diam; each row is (stream, i, Rad hex, diam)
    guard = json.loads((DATA / "radius_guard_42.json").read_text())
    rows = [(guard["stream"], i, rad, diam)
            for i, (rad, diam) in enumerate(guard["rows"])]
    rows += json.loads((DATA / "radius_guard_hard.json").read_text())["rows"]
    assert len(rows) == 60 + 203
    risen = []
    for stream, i, rad, diam in rows:
        T = normalize(generate(GeneratorSpec(kind="random"),
                               seed=instance_stream(stream, i)))
        assert T.diam == diam
        rise = (intrinsic_radius(T).value - float.fromhex(rad)) / diam
        if rise > 1e-9:
            risen.append((stream, i, rise))
    assert risen == []


def test_radius_leaves_the_corner_local_minimum():
    # instance 9 of stream (7 << 16) + 4: the first-order descents ranked
    # ends that differ by less than they are resolved, and the polish
    # started at a corner local minimum (vertex 2 tied with two junctions),
    # 0x1.193815404be7dp-1 in radius_guard_hard.json; finished on the
    # curved model, the first descent reaches its basin's floor, 1.41e-7 *
    # diam lower, and wins
    T = normalize(generate(GeneratorSpec(kind="random"),
                           seed=instance_stream((7 << 16) + 4, 9)))
    value = intrinsic_radius(T).value
    assert value.hex() == "0x1.1938108408222p-1"
    assert float.fromhex("0x1.193815404be7dp-1") - value >= 1.4e-7 * T.diam


@pytest.mark.parametrize("i", [1, 6, 7, 9])
def test_exploring_descents_turn_curved_at_the_first_poor_gain(monkeypatch,
                                                               i):
    # an exploring descent solves the first-order model until a step gains
    # less than 1/4 of the decrease its model predicted, and the curved one
    # from the next step to its end; the polish is curved throughout.  Each
    # step is recorded with its model's lowest value and its probe's value,
    # from which the descent's gains are worked out as _descend does
    T = _instance(i)
    runs = []
    descend = intrinsic_mod._descend

    def record_descent(T, x, value, star, probe, *args):
        events = []
        runs.append((args[-1], value, events))

        def record_probe(y, window):
            out = probe(y, window)
            events.append(("probe", out[0]))
            return out

        return descend(T, x, value, star, record_probe, *args)

    step = intrinsic_mod._step

    def record_step(models, poly, curved):
        res = step(models, poly, curved)
        runs[-1][2].append(("curved" if curved else "linear", res[0]))
        return res

    monkeypatch.setattr(intrinsic_mod, "_descend", record_descent)
    monkeypatch.setattr(intrinsic_mod, "_step", record_step)
    intrinsic_radius(T)
    switched = 0
    for polish, value, events in runs:
        steps = []  # [kind, gain], gain None where no probe was made
        for kind, val in events:
            if kind != "probe":
                steps.append([kind, None])
                low = val
                continue
            steps[-1][1] = (value - val) / (value - low)
            value = min(value, val)
        kinds = [kind for kind, _ in steps]
        if polish:
            assert set(kinds) <= {"curved"}
            continue
        poor = [k for k, (_, gain) in enumerate(steps)
                if gain is not None and gain < 0.25]
        n = poor[0] + 1 if poor else len(steps)
        assert kinds == ["linear"] * n + ["curved"] * (len(steps) - n)
        switched += n < len(steps)
    # on these instances most descents reach the switch
    assert switched >= 3


def test_curved_step_reaches_the_box_edge_on_a_lone_vertex_piece():
    # a vertex piece's Hessian (I - e e^T) / r is zero along its descent
    # direction e, so its model is lowest on the box's boundary; the step
    # must end there, no higher than any point of a dense sample of the
    # four sides.  Steps that stopped short of the side never doubled the
    # trust region, and the descent crawled
    r, h = 0.5, 0.1
    poly = [(-h, -h), (h, -h), (h, h), (-h, h)]
    ts = [-h + 2.0 * h * k / 2000 for k in range(2001)]
    for angle in (0.0, 0.05, 0.3, 1.0, 2.5, -0.7, -2.0):
        ex, ey = math.cos(angle), math.sin(angle)
        pc = (0.6, -ex, -ey, (1.0 - ex * ex) / r, -ex * ey / r,
              (1.0 - ey * ey) / r)
        value, (dx, dy) = _step([[pc]], poly, True)
        assert max(abs(dx), abs(dy)) == h
        assert value == _quad_value(pc, dx, dy)
        edge = min(_quad_value(pc, x, y) for t in ts
                   for x, y in ((t, -h), (t, h), (-h, t), (h, t)))
        assert value <= edge + 1e-15


def test_first_descent_on_a_slope_takes_few_probes(monkeypatch):
    # instance 14 of stream (5 << 16) + 4: the first exploring descent
    # made 24 probes when its curved steps ended inside their boxes (about
    # a dozen of 4-10e-3 * diam in a box of 1.25e-2 * diam), as the trust
    # region never doubled
    T = normalize(generate(GeneratorSpec(kind="random"),
                           seed=instance_stream((5 << 16) + 4, 14)))
    probes = []
    descend = intrinsic_mod._descend

    def record_descent(T, x, value, star, probe, *args):
        probes.append(0)

        def counted(y, window):
            probes[-1] += 1
            return probe(y, window)

        return descend(T, x, value, star, counted, *args)

    monkeypatch.setattr(intrinsic_mod, "_descend", record_descent)
    intrinsic_radius(T)
    assert 1 <= probes[0] <= 12


def test_curved_step_matches_the_full_enumeration():
    # the curved steps of instances 0-59 of seeds 42 and 3, solved on their
    # active sets, have the model value of the step that solves every set
    # of one to three pieces (tests/curved_reference.py), never a lower one
    steps, equal, lower, differing = replay((42, 3), 60)
    assert steps >= 600
    assert lower == 0
    assert equal == steps, differing


@pytest.mark.parametrize("label", ["normal_thick", "instance_42_2"])
def test_radius_certificate_at_longest_edge_midpoint(monkeypatch, label):
    if label == "normal_thick":
        T = make_normal_eps_thick(0.01)
    else:
        T = normalize(generate(GeneratorSpec(kind="random"),
                               seed=instance_stream(42, 2)))
    # below the skip bound the certificate is read off the midpoint's cut
    # locus, built once, and counts as the one evaluation
    mid = _midpoint(T)
    assert _seed_bound(T, mid.face, mid.bary) <= 0.5 * T.diam + GEOM_TOL * T.diam
    sources = []
    locus_fn = intrinsic_mod.cut_locus

    def counted(T, x, *args):
        sources.append(x)
        return locus_fn(T, x, *args)

    monkeypatch.setattr(intrinsic_mod, "cut_locus", counted)
    res = intrinsic_radius(T)
    assert res.evaluations == 1
    assert sources == [mid]
    assert math.dist(T.xyz(res.center), T.xyz(mid)) <= 1e-12 * T.diam
    assert abs(res.value - T.diam / 2.0) <= GEOM_TOL * T.diam
    # Diam <= 2 Rad = diam <= Diam: the ratio bound Diam/Rad <= 2 is attained
    Diam = intrinsic_diameter(T).value
    assert Diam / res.value == pytest.approx(2.0, abs=4.0 * GEOM_TOL)


def _instance(i):
    return normalize(generate(GeneratorSpec(kind="random"),
                              seed=instance_stream(42, i)))


def test_radius_degree_four_node():
    # the farthest point of the optimum is a junction of four source images;
    # its model must be the min over the triples that can be maxima, or the
    # descent stalls 4e-3 * diam above the minimum
    T = _instance(470)
    res = intrinsic_radius(T)
    assert res.value <= 0.5359738028189274 + GEOM_TOL * T.diam


def test_radius_reaches_dense_scan_minimum():
    # a dense scan of the probe along the edge near the center finds
    # 0.5606068857
    T = _instance(79)
    assert intrinsic_radius(T).value <= 0.5606068857


def _frame_value(T, face, p2):
    b = T.bary_from_frame2(face, p2)
    return _radius_value(T, face_point(face, b))


def _top_gradient(T, x):
    """Chart gradient of the top candidate when it stands 1e-4 above the rest."""
    star = star_unfold(T, x)
    nodes = _read_farthest(star, 1e-4 * T.diam)[1]
    if len(nodes) != 1:
        return None
    ((_, pieces),) = _node_models(star, nodes)
    if len(pieces) != 1:
        return None
    return pieces[0][1:3]


def test_node_gradients_match_differences():
    # each candidate's gradient piece is minus the weighted unit start
    # directions of its shortest paths; where the top candidate is unique
    # it is the gradient of the probe value itself; a face-interior
    # source's chart is its face's frame
    rng = random.Random(3)
    h = 1e-6
    checked = 0
    for seed in range(40):
        T = normalize(random_tetrahedron(200 + seed))
        for _ in range(8):
            w = [rng.uniform(0.05, 1.0) for _ in range(3)]
            x = face_point(rng.randrange(4), tuple(c / sum(w) for c in w))
            g = _top_gradient(T, x)
            if g is None:
                continue
            p = T.frame2(x.face, x.bary)
            for k in range(2):
                e = (h if k == 0 else 0.0, h if k == 1 else 0.0)
                fd = (_frame_value(T, x.face, (p[0] + e[0], p[1] + e[1]))
                      - _frame_value(T, x.face, (p[0] - e[0], p[1] - e[1])))
                assert abs(fd / (2.0 * h) - g[k]) <= 1e-5
            checked += 1
    assert checked >= 200


def test_node_gradients_at_edge_points():
    # an edge source's chart is continued flat across the edge: in either
    # face, a one-sided difference into that face matches the piece along
    # the chart direction of the step
    rng = random.Random(4)
    h = 1e-7
    checked = 0
    for seed in range(10):
        T = normalize(random_tetrahedron(300 + seed))
        for a, b in EDGES:
            x = edge_point(a, b, rng.uniform(0.2, 0.8))
            g = _top_gradient(T, x)
            if g is None:
                continue
            for face in (f for f in range(4) if f not in (a, b)):
                p = T.frame2(face, T.bary_on_face(x, face))
                apex = T.frame2(face, tuple(0.0 if v in (a, b) else 1.0
                                            for v in FACES[face]))
                u = (apex[0] - p[0], apex[1] - p[1])
                n = math.hypot(*u)
                u = (u[0] / n, u[1] / n)
                fd = (_frame_value(T, face, (p[0] + h * u[0], p[1] + h * u[1]))
                      - _radius_value(T, x)) / h
                th = chart_angle(T, x, face, u)
                assert abs(fd - (g[0] * math.cos(th) + g[1] * math.sin(th))
                           ) <= 1e-5
                checked += 1
    assert checked >= 60


def test_curved_pieces_match_differences():
    # where one node with one piece is the top candidate, 1e-3 * diam above
    # the rest, its curved piece is F's value, gradient and Hessian: central
    # differences of the probe value at h = 1e-4 * diam, which the stencil
    # cannot cross into another node's reach
    rng = random.Random(3)
    checked = {"vertex": 0, "junction": 0}
    for seed in range(40):
        T = normalize(random_tetrahedron(200 + seed))
        h = 1e-4 * T.diam
        for _ in range(8):
            w = [rng.uniform(0.05, 1.0) for _ in range(3)]
            x = face_point(rng.randrange(4), tuple(c / sum(w) for c in w))
            star = star_unfold(T, x)
            nodes = _read_farthest(star, 1e-3 * T.diam)[1]
            if len(nodes) != 1:
                continue
            ((_, pieces),) = _node_models(star, nodes)
            if len(pieces) != 1:
                continue
            v, gx, gy, hxx, hxy, hyy = pieces[0]
            p = T.frame2(x.face, x.bary)

            def f(a, b, face=x.face, p=p, T=T):
                return _frame_value(T, face, (p[0] + a, p[1] + b))

            f0 = f(0.0, 0.0)
            assert v == pytest.approx(f0, abs=1e-15)
            g = ((f(1e-6, 0.0) - f(-1e-6, 0.0)) / 2e-6,
                 (f(0.0, 1e-6) - f(0.0, -1e-6)) / 2e-6)
            assert max(abs(g[0] - gx), abs(g[1] - gy)) <= 1e-6
            H = ((f(h, 0.0) - 2.0 * f0 + f(-h, 0.0)) / (h * h),
                 (f(h, h) - f(h, -h) - f(-h, h) + f(-h, -h)) / (4.0 * h * h),
                 (f(0.0, h) - 2.0 * f0 + f(0.0, -h)) / (h * h))
            size = max(1.0, abs(hxx), abs(hxy), abs(hyy))
            assert max(abs(H[0] - hxx), abs(H[1] - hxy),
                       abs(H[2] - hyy)) <= 1e-6 * size
            checked["vertex" if nodes[0][3] is None else "junction"] += 1
    assert checked["vertex"] >= 150 and checked["junction"] >= 30


def test_curved_models_extend_the_first_order_ones():
    # every piece is curved, (v, gx, gy, hxx, hxy, hyy), and the
    # first-order step reads its first three entries alone: with every
    # Hessian replaced by NaN, the first-order step of each seed's models
    # is the same to the bit
    T = _instance(1)
    h = 1e-3 * T.diam
    poly = [(-h, -h), (h, -h), (h, h), (-h, h)]
    for x in _radius_seeds():
        star = star_unfold(T, x)
        nodes = _read_farthest(star, 0.05 * T.diam)[1]
        models = [pcs for _, pcs in _node_models(star, nodes)]
        assert all(len(pc) == 6 for pcs in models for pc in pcs)
        blind = [[pc[:3] + (math.nan,) * 3 for pc in pcs] for pcs in models]
        assert _bits(_step(blind, poly, False)) == _bits(
            _step(models, poly, False))


def test_node_models_floor_filters_the_unfloored_models():
    # a floor leaves out exactly the models whose top piece is below it,
    # and keeps the others, tops and pieces, in order
    floors_checked = 0
    for i in range(20):
        T = _instance(i)
        for x in _radius_seeds():
            star = star_unfold(T, x)
            F, nodes = _read_farthest(star, 0.3 * T.diam)
            full = _node_models(star, nodes)
            assert all(top == max(pc[0] for pc in pcs) for top, pcs in full)
            floors = [F - 3.0 * s * T.diam for s in (0.1, 0.05, 1e-3)]
            floors += [top for top, _ in full]
            for floor in floors:
                assert (_node_models(star, nodes, floor)
                        == [m for m in full if m[0] >= floor])
                floors_checked += 1
    assert floors_checked >= 3000


def _descents(T):
    """(value, point, source, junctions) at the end of each descent of a
    search."""
    ends = []
    descend = intrinsic_mod._descend

    def record(*args):
        value, x, star = descend(*args)
        ends.append((value, x, star.source, star.junctions))
        return value, x, star

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(intrinsic_mod, "_descend", record)
        res = intrinsic_radius(T)
    return ends, (res.value, res.center, res.probes)


def test_descents_are_the_same_without_the_model_floor(monkeypatch):
    # the floor leaves out only models that cannot become active before
    # the next rebuild, so every descent ends at the same point with the
    # same star, and every search returns the same result
    floored = [_descents(_instance(i)) for i in range(10)]
    node_models = intrinsic_mod._node_models

    def unfloored(star, nodes, floor=-math.inf, curved=True):
        return node_models(star, nodes, -math.inf, curved)

    monkeypatch.setattr(intrinsic_mod, "_node_models", unfloored)
    assert [_descents(_instance(i)) for i in range(10)] == floored
    assert sum(len(ends) for ends, _ in floored) >= 30


def test_descent_near_an_earlier_end_builds_no_models(monkeypatch):
    # the ends check comes before the start point's models: a descent
    # that starts within 1e-3 * diam of an earlier end stops at once
    T = _instance(0)
    x = _radius_seeds()[0]
    star = star_unfold(T, x)
    value = _read_farthest(star, 0.0)[0]
    built = []
    monkeypatch.setattr(intrinsic_mod, "_node_models",
                        lambda *args: built.append(args))

    def probe(*args):
        raise AssertionError("no probe expected")

    ends = [T.xyz(x)]
    out = intrinsic_mod._descend(T, x, value, star, probe, 10, ends,
                                 0.05 * T.diam, False)
    assert out == (value, x, star)
    assert built == []


def test_kkt_point_solves_the_active_set():
    # two or three curved pieces a step's length apart: at the returned
    # point they are equal and their gradients, weighted by lam (summing to
    # 1), cancel
    rng = random.Random(9)
    solved = 0
    for trial in range(300):
        pieces = []
        for _ in range(2 + trial % 2):
            a, b = rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0)
            c = rng.uniform(-1.0, 1.0) * math.sqrt(a * b)
            pieces.append((0.5 + rng.uniform(-1e-3, 1e-3),
                           rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
                           a, c, b))
        res = _kkt_point(pieces)
        if res is None:
            continue
        (x, y), lam = res
        q = [_quad_value(pc, x, y) for pc in pieces]
        assert max(q) - min(q) <= 1e-14
        assert sum(lam) == pytest.approx(1.0, abs=1e-14)
        gx = sum(w * (pc[1] + pc[3] * x + pc[4] * y)
                 for w, pc in zip(lam, pieces))
        gy = sum(w * (pc[2] + pc[4] * x + pc[5] * y)
                 for w, pc in zip(lam, pieces))
        assert max(abs(gx), abs(gy)) <= 1e-12 * max(1.0, *map(abs, lam))
        solved += 1
    assert solved >= 250


def _minimax_lp(pieces, poly):
    """The first-order step solve on all pieces, unpruned: the first lowest
    corner of max(v + g.d) over the convex polygon poly, then the breakline
    walk from it (_breakline_walk).  _step prunes each choice's pieces
    before the same walk.  Returns (value, d)."""
    best = None
    top = math.inf
    for d in poly:
        val = _max_below(pieces, d[0], d[1], top)
        if val is not None:
            best, top = (val, d), val
    return _breakline_walk(pieces, poly, best)


def _minimax_lp_by_enumeration(pieces, poly):
    """The step solve by definition: list every vertex of the arrangement
    (corners, breakline-edge points, breakline-breakline points inside the
    polygon), then keep the first with the lowest max over the pieces."""
    best = None
    for d in _arrangement_vertices(pieces, poly):
        val = max(v + gx * d[0] + gy * d[1] for v, gx, gy in pieces)
        if best is None or val < best[0]:
            best = (val, d)
    return best


def _arrangement_vertices(pieces, poly):
    """The candidates of the step solve, in _minimax_lp's order."""
    n, E = len(pieces), len(poly)
    cands = list(poly)
    for a in range(n):
        va, gax, gay = pieces[a]
        for b in range(a + 1, n):
            vb, gbx, gby = pieces[b]
            dv, dx, dy = va - vb, gax - gbx, gay - gby
            for e in range(E):
                P, Q = poly[e], poly[(e + 1) % E]
                fp = dv + dx * P[0] + dy * P[1]
                fq = dv + dx * Q[0] + dy * Q[1]
                if (fp < 0.0 < fq) or (fq < 0.0 < fp):
                    t = fp / (fp - fq)
                    cands.append((P[0] + t * (Q[0] - P[0]),
                                  P[1] + t * (Q[1] - P[1])))
            for c in range(b + 1, n):
                vc, gcx, gcy = pieces[c]
                ex, ey = gax - gcx, gay - gcy
                det = dx * ey - dy * ex
                if det == 0.0:
                    continue
                r1, r2 = -dv, vc - va
                d = ((r1 * ey - dy * r2) / det, (dx * r2 - ex * r1) / det)
                if all(_orient(poly[e], poly[(e + 1) % E], d) >= 0.0
                       for e in range(E)):
                    cands.append(d)
    return cands


def _bits(res):
    val, (x, y) = res
    return val.hex(), x.hex(), y.hex()


def _clip(poly, a, b):
    """The part of the polygon on or left of the directed line a->b."""
    nx, ny = b[1] - a[1], a[0] - b[0]
    c = nx * a[0] + ny * a[1]
    out = []
    for P, Q in zip(poly, poly[1:] + poly[:1]):
        hp = P[0] * nx + P[1] * ny - c
        hq = Q[0] * nx + Q[1] * ny - c
        if hp <= 0.0:
            out.append(P)
        if (hp < 0.0 < hq) or (hq < 0.0 < hp):
            t = hp / (hp - hq)
            out.append((P[0] + t * (Q[0] - P[0]), P[1] + t * (Q[1] - P[1])))
    return out


def _step_polygon(rng, grid):
    """A box clipped by one to three half-planes through points near it:
    _minimax_lp takes any convex polygon; on grid, everything is small
    integers, so values and side tests tie exactly."""
    def draw(lo, hi):
        return float(rng.randint(lo, hi)) if grid else rng.uniform(lo, hi)

    h = draw(1, 3)
    poly = [(-h, -h), (h, -h), (h, h), (-h, h)]
    for _ in range(rng.randint(0, 3)):
        a = (draw(-4, 4), draw(-4, 4))
        b = (draw(-4, 4), draw(-4, 4))
        if a == b:
            continue
        clipped = _clip(poly, a, b)
        if len(clipped) >= 3 and _orient(*clipped[:3]) != 0.0:
            poly = clipped
    return poly


def test_minimax_lp_matches_enumeration():
    # the pruned step solve walks the same candidates in the same order and
    # keeps the first lowest, so (value, d) is bitwise the enumeration's
    rng = random.Random(5)
    ties = dets = 0
    for trial in range(3000):
        grid = trial % 2 == 1
        poly = _step_polygon(rng, grid)
        n = rng.randint(1, 6)
        if grid:
            pieces = [(float(rng.randint(-2, 2)), float(rng.randint(-2, 2)),
                       float(rng.randint(-2, 2))) for _ in range(n)]
        else:
            pieces = [(rng.uniform(-1, 1), rng.uniform(-1, 1),
                       rng.uniform(-1, 1)) for _ in range(n)]
        if n >= 3 and trial % 3 == 0:
            # a third gradient on the line of the first two: det == 0
            t = float(rng.randint(-2, 2))
            (_, ax, ay), (_, bx, by) = pieces[0], pieces[1]
            pieces[2] = (pieces[2][0], ax + t * (bx - ax), ay + t * (by - ay))
        want = _minimax_lp_by_enumeration(pieces, poly)
        got = _minimax_lp(pieces, poly)
        assert _bits(got) == _bits(want)
        vals = [max(v + gx * d[0] + gy * d[1] for v, gx, gy in pieces)
                for d in poly]
        ties += vals.count(min(vals)) > 1
        if n >= 3:
            (_, ax, ay), (_, bx, by), (_, cx, cy) = pieces[:3]
            dets += (ax - bx) * (ay - cy) - (ay - by) * (ax - cx) == 0.0
    assert ties >= 300 and dets >= 300


def test_trust_step_prune_keeps_the_value(monkeypatch):
    # the first-order step (_step, curved unset) drops each piece that
    # another piece exceeds strictly at all four box corners, then walks
    # the breaklines of the rest.  On 3000 random box models, uniform and
    # on an integer grid (where pieces repeat and values tie exactly), its
    # value is the unpruned _minimax_lp's to the bit, and so is its step
    # wherever one vertex of the arrangement alone attains the minimum.
    # Pruning on >= would drop both of two equal pieces, and the grid
    # models' repeats catch it
    walked = []
    walk = minimax_mod._breakline_walk

    def counted(pieces, poly, best):
        walked.append(len(pieces))
        return walk(pieces, poly, best)

    monkeypatch.setattr(minimax_mod, "_breakline_walk", counted)
    rng = random.Random(7)
    pruned = unique = repeats = 0
    for trial in range(3000):
        grid = trial % 2 == 1
        if grid:
            h = float(rng.randint(1, 3))
            pieces = [(float(rng.randint(-2, 2)), float(rng.randint(-2, 2)),
                       float(rng.randint(-2, 2)))
                      for _ in range(rng.randint(1, 5))]
            if trial % 4 == 1:
                pieces.insert(rng.randrange(len(pieces) + 1),
                              rng.choice(pieces))  # a piece twice
        else:
            h = rng.uniform(0.05, 1.0)
            pieces = [(rng.uniform(-1, 1), rng.uniform(-1, 1),
                       rng.uniform(-1, 1)) for _ in range(rng.randint(1, 6))]
        poly = [(-h, -h), (h, -h), (h, h), (-h, h)]
        walked.clear()
        got = _step([[pc + (0.0, 0.0, 0.0)] for pc in pieces], poly, False)
        want = _minimax_lp(pieces, poly)
        assert got[0].hex() == want[0].hex()
        vals = [max(v + gx * d[0] + gy * d[1] for v, gx, gy in pieces)
                for d in _arrangement_vertices(pieces, poly)]
        if vals.count(min(vals)) == 1:
            unique += 1
            assert _bits(got) == _bits(want)
        pruned += walked[0] < len(pieces)
        repeats += len(set(pieces)) < len(pieces)
    # the prune drops a piece in over 40% of the models
    assert pruned >= 1200 and unique >= 2000 and repeats >= 700


def test_radius_thin():
    T = make_normal_eps_thick(0.01)
    res = intrinsic_radius(T)
    assert res.value == pytest.approx(0.5, abs=2e-3)
    # the center sits near the middle cross-section of the long edge
    assert abs(T.xyz(res.center)[0]) <= 2e-2


def test_radius_scaling():
    big = intrinsic_radius(make_regular(3.0))
    assert big.value == pytest.approx(3.0, abs=3e-6)
    bigd = intrinsic_diameter(make_regular(3.0))
    assert bigd.value == pytest.approx(3.0 * DIAM_REG, abs=3e-6)


def test_radius_mends_the_edge_crawl_misses():
    # descents held in their start face crawled along its edges and missed
    # these minima by 5.0e-4, 3.5e-6 and 1.1e-3 * diam; stepping in the
    # source's chart, a descent crosses the edge instead of ending on it
    for stream, i, rad in ((15, 87, 0.8838731346), (66, 42, 0.6918823331),
                           ((5 << 16) + 4, 14, 0.7094964654)):
        T = normalize(generate(GeneratorSpec(kind="random"),
                               seed=instance_stream(stream, i)))
        ends, (value, _, _) = _descents(T)
        assert value <= rad + 1e-9 * T.diam
        if stream == 15:
            explore = ends[:-1]  # the last descent is the polish
            assert explore
            assert all(len(x.support()) == 3 for _, x, _, _ in explore)
