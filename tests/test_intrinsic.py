"""Star unfoldings, cut loci, and intrinsic diameter/radius extraction."""

import itertools
import math
import random
import sys

import numpy as np
import pytest

from tetrametric import (EDGES, FACES, GeneratorSpec,
                         SurfacePoint, Triangle2,
                         all_geodesic_segments, chart_sectors,
                         check_inequalities, compute_report, cut_locus,
                         edge_point, face_point, generate, geodesic_distance,
                         instance_stream, intrinsic_diameter,
                         intrinsic_radius, intrinsic_radius_at,
                         make_eps_thick, make_isosceles,
                         make_normal_eps_thick, make_regular, normalize,
                         random_tetrahedron, star_unfold,
                         triangle_is_acute, vertex_point)
from tetrametric import intrinsic as intrinsic_mod
from tetrametric.errors import AmbiguousCut
from tetrametric.geometry import DEDUP_TOL, GEOM_TOL, _circumcenter2
from tetrametric.geodesics import _orient
from tetrametric.intrinsic import (_EXPLORE_PROBES, _EXPLORE_STOP,
                                   _POLISH_PROBES, _clip_left,
                                   _group_junctions, _minimax_lp,
                                   _node_models,
                                   _nudge_directions, _nudged,
                                   _opposite_cut, _point_in_polygon,
                                   _radius_seeds, _radius_value,
                                   _seed_bound, _seg_gap, _segments_within,
                                   _star_farthest, _star_layout)

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
    poly = star.reduced_polygon(tol=1e-7)
    assert len(poly) == 3
    sides = sorted(math.dist(poly[i], poly[(i + 1) % 3]) for i in range(3))
    for s in sides:
        assert s == pytest.approx(2.0, abs=1e-9)
    assert star.area() == pytest.approx(math.sqrt(3.0), abs=1e-9)


def test_star_isosceles_vertices_acute_triangles():
    T = make_isosceles(5.0, 6.0, 7.0)
    for v in range(4):
        star = star_unfold(T, vertex_point(v))
        poly = star.reduced_polygon(tol=1e-7)
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
    # must reproduce the search: tie verdict, first length bit for bit, and
    # the crossed edge
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
        segs = all_geodesic_segments(T, x, vertex_point(v))
        rho, _, crossings = _opposite_cut(T, x, v, sec, False)
        assert rho == segs[0].length
        assert crossings[0][0] == segs[0].crossings[0][0]
        if len(segs) > 1:
            ties += 1
            with pytest.raises(AmbiguousCut):
                _opposite_cut(T, x, v, sec, True)
        else:
            assert _opposite_cut(T, x, v, sec, True)[0] == rho
    assert len(cases) >= 2000
    assert ties >= 4  # the regular shape's face centroids tie three ways


def test_star_tie_guard_at_symmetric_source():
    x = face_point(0, (1 / 3, 1 / 3, 1 / 3))
    with pytest.raises(AmbiguousCut):
        star_unfold(REG, x)
    star = star_unfold(REG, x, tie_guard=False)
    assert star.area() == pytest.approx(REG.area, rel=1e-9)


def _farthest_by_definition(star, window):
    """F and its candidates read off a public star by their definition.

    F is the largest nearest-image distance over the vertex images and the
    circumcenters of three source images that no fourth image dominates
    and that lie in the polygon (with its DEDUP_TOL band); the candidates
    are the vertex images, then those circumcenters in falling order, each
    within window of F.
    """
    images, scale = star.images, star.tetra.diam
    snap = DEDUP_TOL * scale

    def nearest(pt):
        return min([math.hypot(pt[0] - a[0], pt[1] - a[1]) for a in images])

    corners = [(nearest(w), w, k, None) for k, w in enumerate(star.corners)]
    juncs = []
    for i, j, k in itertools.combinations(range(len(images)), 3):
        c = _circumcenter2(images[i], images[j], images[k],
                           1e-14 * scale * scale)
        if c is None:
            continue
        val = nearest(c)
        if (val >= math.dist(c, images[i]) - snap
                and _point_in_polygon(c, star.polygon(), snap)):
            juncs.append((val, c, None, (i, j, k)))
    juncs.sort(key=lambda node: -node[0])
    best = max(node[0] for node in corners + juncs)
    return best, [node for node in corners + juncs
                  if node[0] >= best - window]


def test_probe_kernel_matches_star_unfold():
    # the radius probe reads the layout kernel, not the public star: the
    # kernel must raise exactly where star_unfold(tie_guard=False) raises,
    # lay out the same images, corners and rotations, and give the F of the
    # public star bit for bit
    rng = random.Random(17)
    shapes = [normalize(random_tetrahedron(700 + k)) for k in range(3)]
    shapes += [make_eps_thick(rng.uniform(0.003, 0.03), seed=k)
               for k in range(3)]
    raised = 0
    for T in shapes:
        points = [vertex_point(v) for v in range(4)]
        points += [edge_point(a, b, t) for a, b in EDGES for t in (0.3, 0.61)]
        for _ in range(12):
            w = [rng.uniform(0.01, 1.0) for _ in range(3)]
            points.append(face_point(rng.randrange(4),
                                     tuple(c / sum(w) for c in w)))
        # next to a vertex the polygon degenerates and the checks fire
        points += [face_point(f, tuple(1.0 - 2e-9 if w == f ^ 1 else 1e-9
                                       for w in FACES[f])) for f in range(4)]
        for x in points:
            try:
                star = star_unfold(T, x, tie_guard=False)
            except AmbiguousCut as exc:
                with pytest.raises(AmbiguousCut) as info:
                    _star_layout(T, x)
                assert str(info.value) == str(exc)
                raised += 1
                continue
            lay = _star_layout(T, x)
            assert lay.images == star.images
            assert lay.corners == star.corners
            assert lay.rotations == star.rotations
            assert lay.mirrored == star.mirrored
            for window in (0.0, 1e-3 * T.diam):
                assert (_star_farthest(lay, window)
                        == _farthest_by_definition(star, window))
    assert raised >= 4


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


def test_cut_locus_vertex_source_nudges_into_every_face():
    # from a vertex both perpendicular nudges leave the canonical face at
    # its corner, so the centroid of each other incident face is tried too;
    # at vertex 0 of this instance the canonical face's centroid nudge
    # gives no stable tree and the report failed with AmbiguousCut
    T = normalize(generate(GeneratorSpec(kind="random"),
                           seed=instance_stream(66, 36)))
    x = vertex_point(0)
    dirs = _nudge_directions(T, x)
    assert [f for f, _ in dirs] == [1, 1, 1, 2, 3]
    for f, u in (dirs[0],) + dirs[3:]:
        assert _nudged(T, x, f, 1e-6 * T.diam, u) is not None
    locus = cut_locus(T, x)
    assert locus.perturbation is not None
    _tree_ok(locus, [0, 1, 2, 3])  # built at the nudged, interior source
    assert check_inequalities(compute_report(T)) == []


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
    locus = cut_locus(T, x)
    assert locus.perturbation is None
    assert locus.signature() == sig


@pytest.mark.parametrize("T, x", [
    (make_normal_eps_thick(0.005), edge_point(2, 3, 0.5)),
    (make_eps_thick(0.003, seed=0), edge_point(2, 3, 0.3)),
], ids=["normal-eps-thick", "eps-thick"])
def test_cut_locus_back_maps_junctions_of_thin_edge_sources(T, x):
    # a ray from an edge source that leaves within a few milliradians of
    # its own edge meets that edge again at s ~ 1e-11; it must exit through
    # another edge, or the junction's back-map loses the surface
    locus = cut_locus(T, x)
    assert locus.perturbation is None
    for node in locus.nodes:
        d, _ = geodesic_distance(T, x, node.surface)
        assert abs(d - node.distance) <= 1e-12 * T.diam
    intrinsic_radius_at(T, x)


def test_cut_locus_junctions_are_probe_candidates():
    # the cut locus and the radius probe read one circumcenter enumeration:
    # every junction is a grouped _star_farthest candidate at its distance
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
            probe = _star_layout(T, locus.star.source)
            cands = [node for node in _star_farthest(probe, math.inf)[1]
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
    # wherever the exact-source cut locus builds, its largest node distance
    # is the same number
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
            try:
                locus = cut_locus(T, x)
            except AmbiguousCut:
                continue
            if locus.perturbation is not None:
                continue
            want = locus.radius()
            assert abs(_radius_value(T, x) - want) <= 1e-12 * T.diam
            compared += 1
    assert compared >= 50


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
    # the Diam source of instance 4 is a farthest point of a vertex, where
    # three shortest paths meet; its cut locus only builds at a nudged
    # source, but the antipode set and the witness belong to the junction
    T = _instance(4)
    nudged = []
    for v in range(4):
        for x in intrinsic_radius_at(T, vertex_point(v)).points:
            if len(x.support()) == 1:
                continue
            aset = intrinsic_radius_at(T, x)
            if aset.locus.perturbation is not None:
                assert aset.source == x.canonical()
                nudged.append(aset.source)
    res = intrinsic_diameter(T)
    assert res.pair[0] in nudged
    assert res.multiplicity == 3


def test_diameter_thin_approaches_long_edge():
    T = make_normal_eps_thick(0.01)
    res = intrinsic_diameter(T)
    assert 1.0 - 1e-9 <= res.value <= 1.01


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
    assert res.evaluations == 1 + 26 + _EXPLORE_PROBES == 71
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
    for f, bary in _radius_seeds():
        try:
            val = _radius_value(T, SurfacePoint(f, bary))
        except AmbiguousCut:
            val = math.inf
        out.append((val, f, bary))
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

    def record(T, face, bary, value, *args):
        if args[-1] == _EXPLORE_STOP:  # not the polish
            starts.append((value, face, bary))
        return descend(T, face, bary, value, *args)

    monkeypatch.setattr(intrinsic_mod, "_descend", record)
    intrinsic_radius(T)
    assert starts
    assert starts == _full_scan_order(T)[:len(starts)]


def test_radius_raises_when_no_seed_is_usable(monkeypatch):
    def refuse(T, x, *args, **kwargs):
        raise AmbiguousCut("refused")

    # the certificate's cut locus builds through star_unfold, every probe
    # through the layout kernel
    monkeypatch.setattr(intrinsic_mod, "star_unfold", refuse)
    monkeypatch.setattr(intrinsic_mod, "_star_layout", refuse)
    with pytest.raises(AmbiguousCut, match="no probe point"):
        intrinsic_radius(_instance(0))


def test_radius_probes_bypass_star_unfold(monkeypatch):
    # a probe reads the layout kernel alone; public star_unfold runs only
    # for the cut-locus builds (the certificate and the final re-read)
    calls = {"star_unfold": [], "_voronoi_locus": 0, "probes": 0}
    star_unfold_fn = intrinsic_mod.star_unfold
    locus_fn = intrinsic_mod._voronoi_locus
    layout_fn = intrinsic_mod._star_layout

    def counted_star_unfold(*args, **kwargs):
        calls["star_unfold"].append(sys._getframe(1).f_code.co_name)
        return star_unfold_fn(*args, **kwargs)

    def counted_locus(*args, **kwargs):
        calls["_voronoi_locus"] += 1
        return locus_fn(*args, **kwargs)

    def counted_layout(*args, **kwargs):
        calls["probes"] += sys._getframe(1).f_code.co_name == "probe"
        return layout_fn(*args, **kwargs)

    monkeypatch.setattr(intrinsic_mod, "star_unfold", counted_star_unfold)
    monkeypatch.setattr(intrinsic_mod, "_voronoi_locus", counted_locus)
    monkeypatch.setattr(intrinsic_mod, "_star_layout", counted_layout)
    res = intrinsic_radius(_instance(1))
    assert res.evaluations > 40  # the certificate fails; the search runs
    assert calls["probes"] == res.evaluations - 1
    assert set(calls["star_unfold"]) == {"_voronoi_locus"}
    # the midpoint's vertex distances already fail the certificate, so its
    # cut locus is never built: the one build is the final re-read
    assert len(calls["star_unfold"]) == calls["_voronoi_locus"] == 1


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
        0: ("0x1.061e4f37b12fcp-1", 3, ["0x1.abbe091ac850bp-2",
                                        "0x1.cf62d43decf93p-3",
                                        "0x1.6c908cc64132bp-2"], 58),
        1: ("0x1.0cfab096b3d47p-1", 2, ["0x1.15423865051f9p-2",
                                        "0x1.cc08b8693eb93p-2",
                                        "0x1.1eb50f31bc273p-2"], 80),
        2: ("0x1.0000000000000p-1", 2, ["0x1.0000000000000p-1",
                                        "0x1.0000000000000p-1",
                                        "0x0.0p+0"], 1),
        4: ("0x1.329321f7fffd0p-1", 3, ["0x1.e9ba2b234e226p-2",
                                        "0x1.86a8e01d3bf77p-3",
                                        "0x1.52f164ce13e1ep-2"], 54),
        79: ("0x1.1ea859768ef1ep-1", 3, ["0x1.ba75c278b2420p-2",
                                         "0x1.67a6b68e155f5p-6",
                                         "0x1.1787e90f36340p-1"], 59),
    }
    for i, (rad, face, bary, evaluations) in pins.items():
        res = intrinsic_radius(_instance(i))
        assert res.value.hex() == rad
        assert res.center.face == face
        assert [c.hex() for c in res.center.bary] == bary
        assert res.evaluations == evaluations


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


def _top_gradient(T, x, face):
    """Gradient pieces of the top candidate when it stands 1e-4 above the rest."""
    star = _star_layout(T, x)
    nodes = _star_farthest(star, 1e-4 * T.diam)[1]
    if len(nodes) != 1:
        return None
    (pieces,) = _node_models(star, nodes, face)
    if len(pieces) != 1:
        return None
    return pieces[0][1:]


def test_node_gradients_match_differences():
    # each candidate's gradient piece is minus the weighted unit start
    # directions of its shortest paths; where the top candidate is unique
    # it is the gradient of the probe value itself
    rng = random.Random(3)
    h = 1e-6
    checked = 0
    for seed in range(40):
        T = normalize(random_tetrahedron(200 + seed))
        for _ in range(8):
            w = [rng.uniform(0.05, 1.0) for _ in range(3)]
            x = face_point(rng.randrange(4), tuple(c / sum(w) for c in w))
            g = _top_gradient(T, x, x.face)
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
    # face, a one-sided difference into that face matches the piece
    rng = random.Random(4)
    h = 1e-7
    checked = 0
    for seed in range(10):
        T = normalize(random_tetrahedron(300 + seed))
        for a, b in EDGES:
            x = edge_point(a, b, rng.uniform(0.2, 0.8))
            for face in (f for f in range(4) if f not in (a, b)):
                g = _top_gradient(T, x, face)
                if g is None:
                    continue
                p = T.frame2(face, T.bary_on_face(x, face))
                apex = T.frame2(face, tuple(0.0 if v in (a, b) else 1.0
                                            for v in FACES[face]))
                u = (apex[0] - p[0], apex[1] - p[1])
                n = math.hypot(*u)
                u = (u[0] / n, u[1] / n)
                fd = (_frame_value(T, face, (p[0] + h * u[0], p[1] + h * u[1]))
                      - _radius_value(T, x)) / h
                assert abs(fd - (g[0] * u[0] + g[1] * u[1])) <= 1e-5
                checked += 1
    assert checked >= 60


def _minimax_lp_by_enumeration(pieces, poly):
    """The step solve by definition: list every vertex of the arrangement
    (corners, breakline-edge points, breakline-breakline points inside the
    polygon), then keep the first with the lowest max over the pieces."""
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
    best = None
    for d in cands:
        val = max(v + gx * d[0] + gy * d[1] for v, gx, gy in pieces)
        if best is None or val < best[0]:
            best = (val, d)
    return best


def _bits(res):
    val, (x, y) = res
    return val.hex(), x.hex(), y.hex()


def _step_polygon(rng, grid):
    """A trust box clipped by one to three half-planes through points near
    it, as _descend clips it by the face; on grid, everything is small
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
        clipped = _clip_left(poly, a, b)
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
