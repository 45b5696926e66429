"""Chord (straight-line) diameter and radius of the surface."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from tetrametric import (EDGES, FACES, GeneratorSpec, Tetrahedron,
                         ToleranceConfig, edge_point, extrinsic_diameter,
                         extrinsic_radius, extrinsic_radius_at, face_point,
                         generate, instance_stream, make_eps_thick,
                         make_isosceles, make_normal_eps_thick, make_regular,
                         normalize, random_tetrahedron, vertex_point)
from tetrametric import extrinsic as extrinsic_mod
from tetrametric.errors import TetraError
from tetrametric.geometry import GEOM_TOL
from fuzzing import ENGINE_FUZZ
from test_report import _fuzz_shape

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
    # half the longest edge lower-bounds the radius; the smallest ball
    # holding the vertices rests on that edge, so its midpoint is the
    # center and the value is that point's eccentricity, to the bit
    assert r.center == edge_point(0, 1, 0.5)
    assert r.value.hex() == extrinsic_radius_at(T, r.center).distance.hex()
    assert r.value == pytest.approx(0.5, abs=1e-12)
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
    sites = extrinsic_mod._face_sites(T, f)
    best, best_p = math.inf, None
    for p in extrinsic_mod._plane_candidates(sites, T.diam):
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


def _agreement_shapes():
    """(kind, shape): instances 0-199 of seeds 42, 15 and 66, 250
    normalized isosceles shapes, the thin sweep at floor 1e-12 and the
    regular shape."""
    spec = GeneratorSpec(kind="random")
    for seed in (42, 15, 66):
        for i in range(200):
            yield "random", normalize(generate(spec,
                                               seed=instance_stream(seed, i)))
    rng = np.random.default_rng(0)
    count = 0
    while count < 250:
        p, q, r = (float(x) for x in rng.uniform(0.5, 1.0, 3))
        if p * p + q * q > r * r and p * p + r * r > q * q \
                and q * q + r * r > p * p:
            yield "isosceles", normalize(make_isosceles(p, q, r))
            count += 1
    cfg = ToleranceConfig(quality_floor=1e-12)
    for eps in np.geomspace(1e-4, 3e-2, 25):
        for seed in range(4):
            yield "thin", make_eps_thick(float(eps), seed=seed, cfg=cfg)
        yield "thin", make_normal_eps_thick(float(eps), cfg=cfg)
    yield "regular", REG


def test_certificate_agrees_with_the_enumeration():
    # the smallest-ball certificate settles every thin shape and no
    # isosceles or regular one, whose ball's center is inside the solid;
    # where it settles, rad is at most GEOM_TOL * diam above the per-face
    # enumeration, and where it does not, rad is the enumeration's
    certified = {"random": 0, "isosceles": 0, "thin": 0, "regular": 0}
    for kind, T in _agreement_shapes():
        cert = extrinsic_mod._certified_radius(T)
        ref = extrinsic_mod._enumerated_radius(T)
        r = extrinsic_radius(T)
        if cert is None:
            assert r == ref
            continue
        certified[kind] += 1
        assert r == cert
        # the enumeration misses the exact value by under 1e-12 * diam
        assert -1e-12 * T.diam <= r.value - ref.value <= GEOM_TOL * T.diam
    assert certified == {"random": 543, "isosceles": 0, "thin": 125,
                         "regular": 0}


def _fallback_shapes():
    """(kind, shape, flat): the shapes of instances 0-199 of seeds 42, 15
    and 66 that the certificate leaves to the enumeration, 60 isosceles
    shapes at floor 1e-12, every fourth one with a face that falls short of
    right by a relative flat in [1e-10, 1e-2], and the regular shape; flat
    is the relative gap of a face's largest angle to a right angle."""
    spec = GeneratorSpec(kind="random")
    for seed in (42, 15, 66):
        for i in range(200):
            T = normalize(generate(spec, seed=instance_stream(seed, i)))
            if extrinsic_mod._certified_radius(T) is None:
                yield "random", T, 1.0
    cfg = ToleranceConfig(quality_floor=1e-12)
    flats = np.geomspace(1e-10, 1e-2, 15)
    rng = np.random.default_rng(0)
    count = 0
    while count < 60:
        p, q, r = (float(x) for x in rng.uniform(0.5, 1.0, 3))
        if count % 4 == 3:
            r = math.sqrt((p * p + q * q) * (1.0 - flats[count // 4]))
        s2 = sorted((p * p, q * q, r * r))
        flat = (s2[0] + s2[1] - s2[2]) / (s2[0] + s2[1])
        if flat > 0.0:
            yield "isosceles", make_isosceles(p, q, r, cfg=cfg), flat
            count += 1
    yield "regular", REG, 1.0


def test_the_least_plane_minimum_lies_in_its_face():
    # the enumeration scores each face's plane and drops the face
    # constraints: the lowest face's plane minimizer must come out in its
    # own triangle before the clip, and the value must not exceed a grid
    # search over the surface.  On a face within flat of right the plane
    # minimum is so shallow that its minimizer is fixed only to about
    # u / flat, u the unit roundoff, so the weights get that much slack
    counts = {"random": 0, "isosceles": 0, "regular": 0}
    for kind, T, flat in _fallback_shapes():
        counts[kind] += 1
        mins = [extrinsic_mod._face_minimum(T, f) for f in range(4)]
        f = min(range(4), key=lambda g: mins[g][0])
        bary = T.bary_from_frame2(f, mins[f][1])
        assert min(bary) >= -1e-12 - 2.0 ** -53 / flat
        r = extrinsic_radius(T)
        assert r.value <= _grid_min_eccentricity(T) + 1e-12 * T.diam
    assert counts == {"random": 57, "isosceles": 60, "regular": 1}


@given(kind=st.sampled_from(["regular", "isosceles", "eps", "normal"]),
       floor=st.sampled_from([1e-6, 1e-9]),
       u=st.floats(0.0, 1.0),
       sides=st.tuples(*[st.floats(0.5, 1.0)] * 3),
       seed=st.integers(0, 10_000))
@settings(ENGINE_FUZZ, max_examples=300)
def test_radius_contract_fuzz(kind, floor, u, sides, seed):
    # the value is its center's eccentricity, at least diam/2 and no
    # larger than the eccentricity at the vertices, edge midpoints and
    # face centroids, but for rounding: the enumeration's center on the
    # regular shape is a face centroid rounded otherwise, up to 2 ulps
    # above it
    p, q, r = sides
    assume(kind != "isosceles" or (p * p + q * q > r * r
                                   and p * p + r * r > q * q
                                   and q * q + r * r > p * p))
    try:
        T = _fuzz_shape(kind, ToleranceConfig(quality_floor=floor), u,
                        sides, seed)
    except TetraError:
        return
    rad = extrinsic_radius(T)
    assert rad.value == extrinsic_radius_at(T, rad.center).distance
    assert rad.value >= T.diam / 2.0 - 1e-12 * T.diam
    probes = ([vertex_point(v) for v in range(4)]
              + [edge_point(a, b, 0.5) for a, b in EDGES]
              + [face_point(f, (1 / 3, 1 / 3, 1 / 3)) for f in range(4)])
    assert rad.value <= min(extrinsic_radius_at(T, x).distance
                            for x in probes) + 1e-15 * T.diam
