"""Generator families: exact shapes, determinism, canonicalization."""

import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tetrametric import (EDGES, DegenerateInput, GenerationFailed,
                         GeneratorSpec, NotAcute, Tetrahedron, face_angle_sum,
                         generate, instance_stream, is_isosceles,
                         make_eps_thick, make_isosceles, make_normal_eps_thick,
                         make_regular, normalize, random_tetrahedron,
                         shape_distance, spec_from_json, spec_to_json)


# ---------------------------------------------------------------------------
# regular

def test_regular_edges_exact():
    T = make_regular(2.0)
    for e in EDGES:
        assert T.elen[e] == pytest.approx(2.0, rel=1e-15)


def test_regular_rejects_bad_edge():
    with pytest.raises(ValueError):
        make_regular(0.0)
    with pytest.raises(ValueError):
        make_regular(-1.0)


# ---------------------------------------------------------------------------
# isosceles (opposite edge pairs equal)

def test_isosceles_unit_is_regular():
    T = make_isosceles(1.0, 1.0, 1.0)
    assert shape_distance(T, make_regular(1.0)) < 1e-12


def test_isosceles_567_edge_pairs():
    # oracle: construction promises (01)=(23)=5, (02)=(13)=6, (03)=(12)=7
    T = make_isosceles(5.0, 6.0, 7.0)
    assert T.elen[(0, 1)] == pytest.approx(5.0, rel=1e-12)
    assert T.elen[(2, 3)] == pytest.approx(5.0, rel=1e-12)
    assert T.elen[(0, 2)] == pytest.approx(6.0, rel=1e-12)
    assert T.elen[(1, 3)] == pytest.approx(6.0, rel=1e-12)
    assert T.elen[(0, 3)] == pytest.approx(7.0, rel=1e-12)
    assert T.elen[(1, 2)] == pytest.approx(7.0, rel=1e-12)
    assert is_isosceles(T)


def test_isosceles_567_flat_vertices():
    # equal opposite edges make all four faces congruent, so the three face
    # angles at each vertex are the three angles of one triangle: sum = pi
    T = make_isosceles(5.0, 6.0, 7.0)
    for v in range(4):
        assert face_angle_sum(T, v) == pytest.approx(math.pi, abs=1e-12)


def test_isosceles_needs_acute_triangle():
    with pytest.raises(NotAcute):
        make_isosceles(3.0, 4.0, 5.0)  # right triangle
    with pytest.raises(NotAcute):
        make_isosceles(1.0, 1.0, 2.5)  # violates strict acuteness
    with pytest.raises(ValueError):
        make_isosceles(0.0, 1.0, 1.0)


def test_isosceles_scaling_homogeneity():
    a = make_isosceles(5.0, 6.0, 7.0)
    b = make_isosceles(10.0, 12.0, 14.0)
    assert shape_distance(a, b) < 1e-12


# ---------------------------------------------------------------------------
# thin families

def test_normal_eps_thick_layout():
    eps = 0.01
    T = make_normal_eps_thick(eps)
    # long edge (0,1) has length 1 and is the extrinsic diameter
    assert T.elen[(0, 1)] == pytest.approx(1.0, rel=1e-15)
    assert max(T.elen.values()) == T.elen[(0, 1)]
    # the short edge midpoint stays within eps of the long edge midpoint
    m_long = np.add(T.vertices[0], T.vertices[1]) / 2.0
    m_short = np.add(T.vertices[2], T.vertices[3]) / 2.0
    assert float(np.linalg.norm(m_short - m_long)) <= eps
    # and both endpoints of the short edge do too
    for v in (T.vertices[2], T.vertices[3]):
        assert float(np.linalg.norm(np.subtract(v, m_long))) <= eps
    # the short edge is perpendicular to the long edge
    e_long = np.subtract(T.vertices[1], T.vertices[0])
    e_short = np.subtract(T.vertices[3], T.vertices[2])
    assert abs(float(np.dot(e_long, e_short))) < 1e-15


def test_normal_eps_thick_deterministic():
    a = make_normal_eps_thick(0.01)
    b = make_normal_eps_thick(0.01)
    assert a.vertices == b.vertices


def test_eps_thick_seeded():
    eps = 0.01
    a = make_eps_thick(eps, seed=7)
    b = make_eps_thick(eps, seed=7)
    assert a.vertices == b.vertices
    c = make_eps_thick(eps, seed=8)
    assert shape_distance(a, c) > 1e-9
    # both loose vertices fall in the eps-ball about the long edge midpoint
    m = np.add(a.vertices[0], a.vertices[1]) / 2.0
    for v in (a.vertices[2], a.vertices[3]):
        assert float(np.linalg.norm(np.subtract(v, m))) <= eps + 1e-15
    assert a.longest_edge == 0  # edge (0,1)


# ---------------------------------------------------------------------------
# random instances

def test_random_determinism_and_spread():
    a = random_tetrahedron(3)
    b = random_tetrahedron(3)
    assert a.vertices == b.vertices
    seen = [normalize(random_tetrahedron(s)) for s in range(20)]
    for i in range(len(seen)):
        for j in range(i + 1, len(seen)):
            assert shape_distance(seen[i], seen[j]) > 1e-9


def test_instance_stream_reproducible():
    # streams are order-insensitive rng handles; compare by what they emit
    assert (instance_stream(42, 5).random(4).tolist()
            == instance_stream(42, 5).random(4).tolist())
    draws = {instance_stream(42, k).random() for k in range(100)}
    assert len(draws) == 100
    assert instance_stream(43, 0).random() != instance_stream(42, 0).random()
    # generate() accepts a stream wherever it accepts an int seed
    a = generate(GeneratorSpec(kind="random"), seed=instance_stream(42, 3))
    b = generate(GeneratorSpec(kind="random"), seed=instance_stream(42, 3))
    assert a.vertices == b.vertices


# ---------------------------------------------------------------------------
# canonical form

def test_normalize_layout():
    T = random_tetrahedron(11)
    N = normalize(T)
    v = N.vertices
    assert v[0][0] == pytest.approx(-0.5, abs=1e-12)
    assert v[1][0] == pytest.approx(0.5, abs=1e-12)
    for k in (1, 2):
        assert abs(v[0][k]) < 1e-12 and abs(v[1][k]) < 1e-12
    assert abs(v[2][1]) < 1e-12 and v[2][2] > 0.0
    assert v[3][1] < 0.0
    assert max(N.elen.values()) == pytest.approx(1.0, abs=1e-12)


@given(st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_normalize_idempotent(seed):
    N = normalize(random_tetrahedron(seed))
    M = normalize(N)
    for u, v in zip(N.vertices, M.vertices):
        assert math.dist(u, v) < 1e-12


def test_normalize_similarity_invariant():
    T = random_tetrahedron(5)
    # rotate, scale, translate: the canonical form must not move
    th = 0.7
    R = np.array([[math.cos(th), -math.sin(th), 0.0],
                  [math.sin(th), math.cos(th), 0.0],
                  [0.0, 0.0, 1.0]])
    moved = [(tuple((R @ np.asarray(p)) * 2.5 + np.array([3.0, -1.0, 0.5])))
             for p in T.vertices]
    from tetrametric import validate_tetrahedron
    T2 = validate_tetrahedron([tuple(map(float, p)) for p in moved])
    assert shape_distance(T, T2) < 1e-9


def test_normalize_keeps_the_quality_it_was_given():
    # a similarity map keeps volume / diam^3, so a shape admitted by a low
    # quality floor normalizes, whatever the default floor; a flat one
    # has no canonical form
    spec = GeneratorSpec(kind="eps-thick", eps=0.001, quality_floor=1e-9)
    T = generate(spec, seed=instance_stream(3, 0))
    q = T.volume / T.diam ** 3
    assert q < 1e-6
    N = normalize(T)
    assert N.volume / N.diam ** 3 == pytest.approx(q, rel=1e-9)
    assert N.vertices[3][1] < 0.0 < N.vertices[2][2]
    flat = Tetrahedron(((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.3, 0.4, 0.0),
                        (0.6, 0.2, 0.0)))
    with pytest.raises(DegenerateInput):
        normalize(flat)


# ---------------------------------------------------------------------------
# declarative specs

def test_spec_roundtrip():
    s = GeneratorSpec(kind="eps-thick", edge=2.0, eps=0.05, seed=9)
    assert spec_from_json(spec_to_json(s)) == s


def test_spec_rejects_unknown_kind():
    with pytest.raises(ValueError):
        GeneratorSpec(kind="banana")


def test_generate_dispatch():
    reg = generate(GeneratorSpec(kind="regular", edge=3.0))
    assert reg.elen[(0, 1)] == pytest.approx(3.0, rel=1e-15)
    iso = generate(GeneratorSpec(kind="isosceles", sides=(5.0, 6.0, 7.0)))
    assert iso.elen[(0, 3)] == pytest.approx(7.0, rel=1e-12)
    r1 = generate(GeneratorSpec(kind="random", seed=4))
    r2 = generate(GeneratorSpec(kind="random", seed=0), seed=4)
    assert r1.vertices == r2.vertices  # override wins over spec seed


def test_quality_floor_comes_from_the_spec():
    # generate takes no ToleranceConfig: the spec's floor is the only one
    assert list(inspect.signature(generate).parameters) == ["spec", "seed"]
    spec = GeneratorSpec(kind="eps-thick", eps=0.03, quality_floor=3e-3)
    with pytest.raises(GenerationFailed):
        generate(spec, 3)
    T = generate(GeneratorSpec(kind="eps-thick", eps=0.03), 3)
    assert T.volume < 3e-3 * T.diam ** 3  # the default floor lets it pass
