"""Chord (straight-line) diameter and radius of the surface."""

import math

import numpy as np
import pytest

from tetrametric import (FACES, GeneratorSpec, Tetrahedron,
                         extrinsic_diameter, extrinsic_radius,
                         extrinsic_radius_at, face_point, generate,
                         instance_stream, make_eps_thick, make_isosceles,
                         make_normal_eps_thick, make_regular, normalize,
                         random_tetrahedron, vertex_point)
from tetrametric import extrinsic as extrinsic_mod

REG = normalize(make_regular(1.0))


def _grid_min_eccentricity(T, n=100):
    """Brute-force oracle: min over a barycentric grid of the max distance
    to the four vertices.  Vectorized, accurate to about diam/n."""
    verts = np.asarray(T.vertices)
    best = math.inf
    us, vs = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    mask = us + vs <= n
    u = us[mask] / n
    v = vs[mask] / n
    w = 1.0 - u - v
    for f in range(4):
        a, b, c = (verts[i] for i in FACES[f])
        pts = u[:, None] * a + v[:, None] * b + w[:, None] * c
        d = np.linalg.norm(pts[:, None, :] - verts[None, :, :], axis=2)
        best = min(best, float(d.max(axis=1).min()))
    return best


# ---------------------------------------------------------------------------
# diameter: always the longest edge

def test_diameter_regular():
    d = extrinsic_diameter(REG)
    assert d.value == pytest.approx(1.0, abs=1e-12)
    assert d.pair == (0, 1)  # six-way tie resolves to the lowest edge id


def test_diameter_isosceles():
    d = extrinsic_diameter(make_isosceles(5.0, 6.0, 7.0))
    assert d.value == pytest.approx(7.0, rel=1e-12)
    assert d.pair == (0, 3)  # the (0,3)/(1,2) pair carries length 7


def test_diameter_thin():
    d = extrinsic_diameter(make_normal_eps_thick(0.01))
    assert d.value == pytest.approx(1.0, abs=1e-15)
    assert d.pair == (0, 1)


# ---------------------------------------------------------------------------
# eccentricity of a fixed point

def test_radius_at_vertex_is_longest_incident_edge():
    fs = extrinsic_radius_at(REG, vertex_point(0))
    assert fs.distance == pytest.approx(1.0, abs=1e-12)
    assert set(fs.vertices) == {1, 2, 3}
    T = make_isosceles(5.0, 6.0, 7.0)
    fs = extrinsic_radius_at(T, vertex_point(0))
    assert fs.distance == pytest.approx(7.0, rel=1e-12)
    # vertex 3 sits across the unique length-7 edge at vertex 0
    assert set(fs.vertices) == {3}


def test_radius_at_face_centroid_regular():
    fs = extrinsic_radius_at(REG, face_point(0, (1 / 3, 1 / 3, 1 / 3)))
    # the centroid of face 0 is the foot of vertex 0: height sqrt(2/3)
    assert fs.distance == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-12)
    assert set(fs.vertices) == {0}


# ---------------------------------------------------------------------------
# global radius

def test_radius_regular_closed_form():
    r = extrinsic_radius(REG)
    assert r.value == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-9)
    # the four face centroids tie; the reported center is one of them
    cents = [REG.xyz(face_point(f, (1 / 3, 1 / 3, 1 / 3))) for f in range(4)]
    c = REG.xyz(r.center)
    assert min(math.dist(c, m) for m in cents) <= 1e-6


def test_radius_thin_exact_half_edge():
    T = make_normal_eps_thick(0.01)
    r = extrinsic_radius(T)
    # half the longest edge lower-bounds the radius; the long edge midpoint
    # attains it, so the value is exactly 1/2
    assert r.value == pytest.approx(0.5, abs=1e-12)
    assert math.dist(T.xyz(r.center), (0.0, 0.0, 0.0)) <= 1e-9
    assert {0, 1} <= set(r.farthest.vertices)


def test_radius_lower_bound_half_diameter():
    for seed in range(8):
        T = normalize(random_tetrahedron(seed))
        r = extrinsic_radius(T)
        assert r.value >= 0.5 * extrinsic_diameter(T).value - 1e-12


def test_radius_matches_grid_oracle():
    for seed in (0, 1, 2):
        T = normalize(random_tetrahedron(seed))
        r = extrinsic_radius(T)
        grid = _grid_min_eccentricity(T, n=100)
        assert r.value <= grid + 1e-9          # the engine is a true minimum
        assert grid - r.value <= 3.0 * T.diam / 100.0


def test_radius_scaling():
    r = extrinsic_radius(make_regular(3.0))
    assert r.value == pytest.approx(3.0 * math.sqrt(2.0 / 3.0), abs=1e-9)


def test_radius_center_consistency():
    # the reported value must equal the eccentricity of the reported center
    for seed in (4, 9):
        T = normalize(random_tetrahedron(seed))
        r = extrinsic_radius(T)
        fs = extrinsic_radius_at(T, r.center)
        assert fs.distance == pytest.approx(r.value, abs=1e-12)


def _face_minimum_unpruned(T, f):
    """_face_minimum's candidate scan with every site distance computed."""
    tri = T.face_frames[f]
    sites = extrinsic_mod._face_sites(T, f)
    plane, rows = extrinsic_mod._plane_candidates(sites, T.diam)
    pool = [extrinsic_mod._closest_in_triangle(p, tri) for p in plane]
    pool += extrinsic_mod._edge_candidates(tri, sites, rows, T.diam)
    best, best_p = math.inf, None
    for p in pool:
        top = 0.0
        for qx, qy, h2 in sites:
            dx, dy = p[0] - qx, p[1] - qy
            top = max(top, dx * dx + dy * dy + h2)
        if math.sqrt(top) < best:
            best, best_p = math.sqrt(top), p
    return best, best_p


def test_face_minimum_prune_keeps_every_bit():
    # the scan stops a candidate once one squared distance reaches the
    # incumbent's square; value and minimizer must stay those of the full
    # scan, on random shapes and on both thin families
    shapes = [normalize(generate(GeneratorSpec(kind="random"),
                                 seed=instance_stream(42, i)))
              for i in range(100)]
    for i in range(64):
        rng = instance_stream(1, i)
        shapes.append(make_eps_thick(float(rng.uniform(0.003, 0.03)), rng))
        shapes.append(make_normal_eps_thick(float(rng.uniform(0.01, 0.03))))
    # and shapes ten times larger, whose squared distances exceed the
    # distances themselves
    shapes += [Tetrahedron(tuple(tuple(10.0 * c for c in v)
                                 for v in random_tetrahedron(900 + k).vertices))
               for k in range(20)]
    shapes.append(make_isosceles(5.0, 6.0, 7.0))
    for T in shapes:
        for f in range(4):
            got = extrinsic_mod._face_minimum(T, f)
            want = _face_minimum_unpruned(T, f)
            assert got[0].hex() == want[0].hex()
            assert [c.hex() for c in got[1]] == [c.hex() for c in want[1]]
