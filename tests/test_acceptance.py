"""Acceptance gate: one test per released guarantee.

Each test is a single pass/fail line for one externally promised behavior:
exact constants on the regular shape, the closed ratio bounds over a
500-instance campaign, cut-locus structure, oracle sandwiches, the inscribed
triangle fact, search evidence for the extremal-shape conjecture, and the
curvature budget.  Tolerances here are the published ones, not internal.
"""

import math
import time

import numpy as np
import pytest

from tetrametric import (GeneratorSpec, Triangle2, cut_locus, edge_point,
                         extrinsic_radius, face_point,
                         generate, geodesic_distance, instance_stream,
                         longest_side, make_eps_thick, make_isosceles,
                         normalize, compute_report, random_tetrahedron,
                         refine_min_ratio, star_unfold, triangle_is_acute,
                         vertex_point)

from mesh_oracle import mesh_oracle_distance
from polygon_loops import reduced_polygon
from shape_reference import cone_angles

DIAM_REG = 2.0 / math.sqrt(3.0)
SQ23 = math.sqrt(2.0 / 3.0)

_EDGE_COLS = ("e01", "e02", "e03", "e12", "e13", "e23")


@pytest.fixture(scope="module")
def regular_report(regular):
    t0 = time.time()
    rep = compute_report(regular)
    return rep, time.time() - t0


def _surface_point(rng_index, salt=0):
    h = (rng_index * 2654435761 + salt * 40503) % (2 ** 32)
    face = h % 4
    b = []
    for _ in range(3):
        h = (h * 1103515245 + 12345) % (2 ** 31)
        b.append(1e-3 + (h / 2 ** 31))
    s = sum(b)
    return face_point(face, tuple(x / s for x in b))


def test_criterion_01_regular_constants_and_witnesses(regular, regular_report):
    rep, elapsed = regular_report
    assert abs(rep.diam - 1.0) <= 1e-12
    assert abs(rep.rad - SQ23) <= 1e-6
    assert abs(rep.Diam - DIAM_REG) <= 1e-6
    assert abs(rep.Rad - 1.0) <= 1e-6
    # the geodesic diameter is realized by a vertex against the centroid of
    # its opposite face, within 1e-4 of surface distance on each side
    ends = rep.Diam_pair
    best = math.inf
    for v in range(4):
        for a, b in ((0, 1), (1, 0)):
            dv, _ = geodesic_distance(regular, ends[a], vertex_point(v))
            dc, _ = geodesic_distance(regular, ends[b],
                                      face_point(v, (1 / 3, 1 / 3, 1 / 3)))
            best = min(best, max(dv, dc))
    assert best <= 1e-4
    # the geodesic radius is centered at an edge midpoint, within 1e-3
    mids = [edge_point(a, b, 0.5) for a, b in
            ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))]
    dmin = min(geodesic_distance(regular, rep.Rad_center, m)[0] for m in mids)
    assert dmin <= 1e-3
    assert elapsed < 10.0


@pytest.mark.slow
def test_criterion_02_diameter_ratio_range(regular_report, campaign_500):
    rep, _ = regular_report
    assert abs(rep.Diam / rep.diam - DIAM_REG) <= 1e-6
    thin = generate(GeneratorSpec(kind="eps-thick", eps=0.01, seed=0))
    trep = compute_report(thin)
    assert trep.Diam / trep.diam <= 1.01
    result, elapsed = campaign_500
    assert len(result.rows) == 500
    for row in result.rows:
        assert 1.0 - 1e-6 <= row["Diam_over_diam"] <= DIAM_REG + 1e-6
    assert result.violations == ()
    assert elapsed < 300.0


@pytest.mark.slow
def test_criterion_03_geodesic_radius_vs_chord_diameter(regular_report,
                                                        campaign_500):
    result, _ = campaign_500
    for row in result.rows:
        assert row["Rad"] <= row["diam"] + 1e-6
        edges = [row[c] for c in _EDGE_COLS]
        spread = (max(edges) - min(edges)) / max(edges)
        if spread > 0.01:
            assert row["Rad"] < row["diam"] - 1e-4 * row["diam"]
    rep, _ = regular_report
    assert abs(rep.Rad - rep.diam) <= 1e-6


@pytest.mark.slow
def test_criterion_04_diameter_to_radius_ratios(normal_thick, campaign_500):
    rep = compute_report(normal_thick)
    assert rep.Diam / rep.Rad >= 1.98
    assert rep.diam / rep.rad >= 1.98
    assert rep.Rad / rep.rad <= 1.02
    result, _ = campaign_500
    for row in result.rows:
        assert 1.0 - 1e-6 <= row["Diam_over_Rad"] <= 2.0 + 1e-6
        assert 1.0 - 1e-6 <= row["diam_over_rad"] <= 2.0 + 1e-6
        assert 1.0 - 1e-6 <= row["Rad_over_rad"] <= 2.0 + 1e-6


@pytest.mark.slow
def test_criterion_05_chord_radius_vs_geodesic_diameter(regular_report,
                                                        campaign_500):
    result, _ = campaign_500
    for row in result.rows:
        assert math.sqrt(3.0) / 4.0 < row["rad_over_Diam"] < 1.0
    rep, _ = regular_report
    assert abs(rep.rad / rep.Diam - 0.707107) <= 1e-6


def test_criterion_06_cut_locus_structure():
    for seed in range(100):
        T = normalize(random_tetrahedron(seed))
        scale = T.diam
        rad_chord = extrinsic_radius(T).value
        for v in range(4):
            locus = cut_locus(T, vertex_point(v))
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
                assert a != b
                parent[a] = b
            assert len({find(i) for i in range(n)}) == 1
            leaves = sorted(locus.nodes[i].vertex for i in locus.leaves())
            assert leaves == [w for w in range(4) if w != v]
            for arc in locus.arcs:
                si = locus.star.images[arc.images[0]]
                sj = locus.star.images[arc.images[1]]
                for s in range(10):
                    p = arc.point_at((s + 0.5) / 10.0)
                    resid = abs(math.hypot(p[0] - si[0], p[1] - si[1])
                                - math.hypot(p[0] - sj[0], p[1] - sj[1]))
                    assert resid <= 1e-6 * rad_chord
            for i in locus.junctions():
                assert locus.nodes[i].spread <= 1e-6 * scale


def test_criterion_07_isosceles_flatness(iso567):
    for cone in cone_angles(iso567):
        assert abs(cone - math.pi) <= 1e-9
    for f in range(4):
        tri = Triangle2(*iso567.face_frames[f])
        assert triangle_is_acute(tri)
    for v in range(4):
        star = star_unfold(iso567, vertex_point(v))
        poly = reduced_polygon(star.poly, tol=1e-7)
        assert len(poly) == 3
        tri = Triangle2(poly[0], poly[1], poly[2])
        assert triangle_is_acute(tri)
        # simplicity of a triangle = nonzero area
        (ax, ay), (bx, by), (cx, cy) = poly
        assert abs((bx - ax) * (cy - ay) - (cx - ax) * (by - ay)) > 1e-9


def test_criterion_08_oracle_sandwich_and_metric_axioms():
    t0 = time.time()
    for k in range(10):
        T = normalize(random_tetrahedron(100 + k))
        pts = [_surface_point(i, salt=k) for i in range(15)]
        pairs = [(pts[i % 15], pts[(i * 7 + 3) % 15]) for i in range(50)]
        for p, q in pairs:
            d, _ = geodesic_distance(T, p, q)
            drev, _ = geodesic_distance(T, q, p)
            assert abs(d - drev) <= 1e-9
            o = mesh_oracle_distance(T, p, q, n=6)
            assert d <= o + 1e-9
            assert o <= 1.01 * d + 1e-12
        for i in range(12):
            p, q, r = pts[i], pts[(i + 5) % 15], pts[(i + 9) % 15]
            dpq, _ = geodesic_distance(T, p, q)
            dqr, _ = geodesic_distance(T, q, r)
            dpr, _ = geodesic_distance(T, p, r)
            assert dpr <= dpq + dqr + 1e-9
    assert time.time() - t0 < 600.0


def test_criterion_09_inscribed_acute_triangles():
    rng = np.random.Generator(np.random.Philox(key=90))
    accepted = 0
    near_eq_checked = 0
    while accepted < 10_000:
        thetas = np.sort(rng.uniform(0.0, 2.0 * math.pi, size=(20_000, 3)),
                         axis=1)
        gaps = np.stack([thetas[:, 1] - thetas[:, 0],
                         thetas[:, 2] - thetas[:, 1],
                         2.0 * math.pi - (thetas[:, 2] - thetas[:, 0])],
                        axis=1)
        good = thetas[(gaps < math.pi - 1e-9).all(axis=1)]
        for row in good:
            if accepted >= 10_000:
                break
            pts = [(math.cos(a), math.sin(a)) for a in row]
            tri = Triangle2(pts[0], pts[1], pts[2])
            assert triangle_is_acute(tri, tol=1e-9)
            assert longest_side(tri) >= math.sqrt(3.0) - 1e-9
            accepted += 1
    # near-equilateral samples achieve nearly the minimum
    for k in range(100):
        base = np.array([0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0])
        jit = rng.uniform(-1e-4, 1e-4, size=3)
        pts = [(math.cos(a), math.sin(a)) for a in base + jit]
        tri = Triangle2(pts[0], pts[1], pts[2])
        assert abs(longest_side(tri) - math.sqrt(3.0)) <= 1e-3
        near_eq_checked += 1
    assert near_eq_checked == 100


@pytest.mark.slow
def test_criterion_10_extremal_ratio_evidence(campaign_500):
    result, _ = campaign_500
    bound = DIAM_REG - 1e-3
    camp_min = min(row["Diam_over_Rad"] for row in result.rows)
    assert camp_min >= bound
    best = result.extremal["Diam_over_Rad"]["min"]
    T0 = normalize(generate(GeneratorSpec(kind="random"),
                            seed=instance_stream(result.base_seed,
                                                 best["seed"])))
    refined = refine_min_ratio(T0, iterations=50)
    assert refined.label == "evidence"
    assert refined.value >= bound
    assert refined.value <= camp_min + 1e-9
    assert refined.distance_to_regular <= 1e-2


def test_criterion_11_curvature_budget(regular, iso567, normal_thick):
    shapes = [regular, iso567, normal_thick,
              make_eps_thick(0.01, seed=0), make_isosceles(5.0, 6.0, 7.0)]
    for i in range(500):
        shapes.append(normalize(generate(GeneratorSpec(kind="random"),
                                         seed=instance_stream(42, i))))
    for T in shapes:
        cones = cone_angles(T)
        assert abs(sum([2.0 * math.pi - c for c in cones])
                   - 4.0 * math.pi) <= 1e-9
        for cone in cones:
            assert cone < 2.0 * math.pi
