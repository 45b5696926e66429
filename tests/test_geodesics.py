"""Exact surface shortest paths against closed forms and a lattice oracle."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from tetrametric import (DEFAULT_CFG, all_geodesic_segments, chart_sectors,
                         edge_point, face_angle_sum, face_point,
                         geodesic_distance, intrinsic_radius_at,
                         make_eps_thick, make_isosceles, make_regular,
                         mesh_oracle_distance, normalize, random_tetrahedron,
                         trace_ray, vertex_point)

REG = normalize(make_regular(1.0))
DIAM_REG = 2.0 / math.sqrt(3.0)


def _surface_point(rng_index, salt=0):
    """Deterministic pseudo-random surface point from a small integer."""
    h = (rng_index * 2654435761 + salt * 40503) % (2 ** 32)
    face = h % 4
    b = []
    for k in range(3):
        h = (h * 1103515245 + 12345) % (2 ** 31)
        b.append(1e-3 + (h / 2 ** 31))
    s = sum(b)
    return face_point(face, tuple(x / s for x in b))


# ---------------------------------------------------------------------------
# the oracle comes first: a refined edge-lattice chord graph

def test_oracle_vertex_to_opposite_centroid_regular():
    # closed form: unroll two unit equilateral faces; the straight segment
    # from a vertex to the far face's centroid has length 2/sqrt(3)
    p = vertex_point(0)
    q = face_point(0, (1 / 3, 1 / 3, 1 / 3))
    got = mesh_oracle_distance(REG, p, q, n=6)
    assert got >= DIAM_REG - 1e-12          # it is an upper bound
    assert got <= DIAM_REG * 1.01           # and a tight one at n=6


def test_oracle_monotone_in_resolution():
    p = _surface_point(1)
    q = _surface_point(2)
    vals = [mesh_oracle_distance(REG, p, q, n=n) for n in (4, 5, 6)]
    for a, b in zip(vals, vals[1:]):
        assert b <= a + 1e-12  # finer lattices only add chords


def test_oracle_identity():
    p = face_point(2, (0.2, 0.3, 0.5))
    assert mesh_oracle_distance(REG, p, p) == pytest.approx(0.0, abs=1e-12)


def test_oracle_never_below_engine():
    for seed in range(5):
        T = normalize(random_tetrahedron(seed))
        for k in range(4):
            p = _surface_point(k, salt=seed)
            q = _surface_point(k + 17, salt=seed)
            d, _ = geodesic_distance(T, p, q)
            o = mesh_oracle_distance(T, p, q)
            assert o >= d - 1e-9
            assert o <= 1.01 * d + 1e-12


# ---------------------------------------------------------------------------
# closed forms on the unit regular tetrahedron

def test_adjacent_vertices_edge_length():
    d, path = geodesic_distance(REG, vertex_point(0), vertex_point(1))
    assert d == pytest.approx(1.0, abs=1e-12)
    assert path.crossings == ()


def test_vertex_to_opposite_centroid():
    d, path = geodesic_distance(REG, vertex_point(0),
                                face_point(0, (1 / 3, 1 / 3, 1 / 3)))
    assert d == pytest.approx(DIAM_REG, abs=1e-12)
    assert len(path.crossings) == 1


def test_opposite_edge_midpoints():
    d, _ = geodesic_distance(REG, edge_point(0, 1, 0.5), edge_point(2, 3, 0.5))
    assert d == pytest.approx(1.0, abs=1e-12)


def test_coincident_points():
    p = face_point(1, (0.25, 0.35, 0.4))
    d, path = geodesic_distance(REG, p, p)
    assert d == 0.0
    assert path.crossings == ()


def test_multiplicity_of_minimizers():
    # the vertex-to-opposite-centroid geodesic comes in three symmetric copies
    segs = all_geodesic_segments(REG, vertex_point(0),
                                 face_point(0, (1 / 3, 1 / 3, 1 / 3)),
                                 slack=1e-6)
    assert len(segs) == 3
    for s in segs:
        assert s.length == pytest.approx(DIAM_REG, abs=1e-9)
    # opposite edge midpoints are joined by at least two equal routes
    segs = all_geodesic_segments(REG, edge_point(0, 1, 0.5),
                                 edge_point(2, 3, 0.5), slack=1e-6)
    assert len(segs) >= 2
    # a generic interior pair has a unique shortest path
    segs = all_geodesic_segments(REG, face_point(0, (0.61, 0.18, 0.21)),
                                 face_point(1, (0.13, 0.55, 0.32)), slack=1e-6)
    assert len(segs) == 1


def test_isosceles_flat_vertex_distance():
    # flat vertices (angle sum pi) of the (5,6,7) shape: the distance from a
    # vertex across its star is realized by straight development; check the
    # engine agrees with the oracle there too
    T = make_isosceles(5.0, 6.0, 7.0)
    p = vertex_point(0)
    q = face_point(0, (1 / 3, 1 / 3, 1 / 3))
    d, _ = geodesic_distance(T, p, q)
    o = mesh_oracle_distance(T, p, q)
    assert d <= o + 1e-9 and o <= 1.01 * d


def test_face_simple_chains_settle_thin_pairs():
    # a shortest path meets each face once, so the search develops only
    # face-simple chains; chains that revisit faces wind around the thin
    # cone points here until the face budget cuts a branch that still
    # matters
    T = make_eps_thick(0.01, seed=1)
    p = face_point(0, (0.2, 0.3, 0.5))
    q = face_point(1, (0.5, 0.3, 0.2))
    d, path = geodesic_distance(T, p, q)
    tol = DEFAULT_CFG.opt_tol * T.diam
    assert math.dist(T.xyz(p), T.xyz(q)) <= d
    assert d <= mesh_oracle_distance(T, p, q, 6) + tol
    assert d <= intrinsic_radius_at(T, p).value
    assert len(path.crossings) <= 3


# ---------------------------------------------------------------------------
# metric axioms, engine-wide

@given(st.integers(0, 500), st.integers(0, 500))
@settings(max_examples=30, deadline=None)
def test_symmetry(i, j):
    p = _surface_point(i)
    q = _surface_point(j)
    d1, _ = geodesic_distance(REG, p, q)
    d2, _ = geodesic_distance(REG, q, p)
    assert abs(d1 - d2) <= 1e-9


@given(st.integers(0, 300), st.integers(0, 300), st.integers(0, 300))
@settings(max_examples=20, deadline=None)
def test_triangle_inequality(i, j, k):
    T = normalize(random_tetrahedron(77))
    p, q, r = (_surface_point(i, 3), _surface_point(j, 3), _surface_point(k, 3))
    dpq, _ = geodesic_distance(T, p, q)
    dqr, _ = geodesic_distance(T, q, r)
    dpr, _ = geodesic_distance(T, p, r)
    assert dpr <= dpq + dqr + 1e-9


# ---------------------------------------------------------------------------
# ray tracing is the inverse of distance finding

def test_chart_total_angle():
    omega, _ = chart_sectors(REG, vertex_point(0))
    assert omega == pytest.approx(face_angle_sum(REG, 0), abs=1e-12)
    omega, _ = chart_sectors(REG, face_point(0, (0.3, 0.3, 0.4)))
    assert omega == pytest.approx(2.0 * math.pi, abs=1e-12)
    omega, _ = chart_sectors(REG, edge_point(1, 2, 0.3))
    assert omega == pytest.approx(2.0 * math.pi, abs=1e-12)


def test_trace_ray_roundtrip():
    # shoot rays from a point, then check the walked distance matches the
    # engine's distance to wherever we landed
    x = face_point(2, (0.5, 0.25, 0.25))
    omega, sectors = chart_sectors(REG, x)
    for k in range(8):
        theta = omega * (k + 0.37) / 8.0
        y = trace_ray(REG, x, theta, 0.25, (omega, sectors))
        d, _ = geodesic_distance(REG, x, y)
        # 0.25 stays below the injectivity radius at x (nearest vertex is
        # 0.433 away and the shortest loop is longer), so the ray minimizes
        assert d == pytest.approx(0.25, abs=1e-7)
    # past the nearest vertex rays stop minimizing: distance only drops
    y = trace_ray(REG, x, omega * 0.42125, 0.6, (omega, sectors))
    d, _ = geodesic_distance(REG, x, y)
    assert d <= 0.6 + 1e-9


def test_trace_ray_zero_length():
    x = face_point(1, (0.2, 0.3, 0.5))
    y = trace_ray(REG, x, 1.0, 0.0)
    assert y.face == x.face
    assert all(a == pytest.approx(b, abs=1e-12) for a, b in zip(y.bary, x.bary))
