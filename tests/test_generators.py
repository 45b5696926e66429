"""Generator families: exact shapes, determinism, canonicalization."""

import inspect
import json
import math
import pathlib
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tetrametric import (EDGES, RATIO_KEYS, DegenerateInput,
                         GenerationFailed, GeneratorSpec, NotAcute,
                         Tetrahedron, ToleranceConfig, check_inequalities,
                         compute_report, generate, instance_stream,
                         make_eps_thick, make_isosceles,
                         make_normal_eps_thick, make_regular, normalize,
                         random_tetrahedron, shape_distance, spec_from_json,
                         spec_to_json, validate_tetrahedron)

from shape_reference import cone_angles, is_isosceles

SHAPE_PIN = (pathlib.Path(__file__).resolve().parent / "data"
             / "generated_shapes.json")


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
    for cone in cone_angles(T):
        assert cone == pytest.approx(math.pi, abs=1e-12)


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


def _jumped_state(seed, index):
    """The reference stream state: Philox(key=seed) jumped index times,
    each jump 2**128 draws ahead; arrays as lists, so states compare."""
    return _plain(np.random.Philox(key=seed).jumped(index).state)


def _plain(state):
    if isinstance(state, dict):
        return {k: _plain(v) for k, v in state.items()}
    if isinstance(state, np.ndarray):
        return state.tolist()
    return state


@pytest.mark.parametrize("index", [0, 1, 2 ** 64 - 1, 2 ** 64, 2 ** 128 - 1,
                                   -1, 2 ** 128, 12345])
def test_instance_stream_is_the_jumped_philox(index):
    # the stream opens at the counter the jumps reach, index mod 2**128 in
    # the counter's high words: the same state, and so the same draws, as
    # the jumped generator; jumped wraps, so -1 is 2**128 - 1
    for seed in (0, 42, 2 ** 128 - 1):
        got = _plain(instance_stream(seed, index).bit_generator.state)
        assert got == _jumped_state(seed, index)
    assert _jumped_state(5, -1) == _jumped_state(5, 2 ** 128 - 1)
    a, b = instance_stream(42, index), np.random.Generator(
        np.random.Philox(key=42).jumped(index))
    assert a.random(8).tolist() == b.random(8).tolist()
    assert a.normal(size=3).tolist() == b.normal(size=3).tolist()


@given(seed=st.integers(0, 2 ** 128 - 1),
       index=st.integers(-2 ** 130, 2 ** 130))
@settings(max_examples=200, deadline=None)
def test_instance_stream_matches_jumped_on_a_sample(seed, index):
    got = _plain(instance_stream(seed, index).bit_generator.state)
    assert got == _jumped_state(seed, index)


# ---------------------------------------------------------------------------
# canonical form

def _normalize_reference(T):
    """normalize's vertices in plain float sums: each dot product and
    squared norm summed x, y, z, left to right, as the package sums them
    (no BLAS, no fused multiply-add); DegenerateInput where the input is
    flat."""
    def dot(u, v):
        return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]

    a, b = EDGES[T.longest_edge]
    c, d = sorted(set(range(4)) - {a, b})
    P = [T.vertices[i] for i in (a, b, c, d)]
    origin = [(P[0][k] + P[1][k]) / 2.0 for k in range(3)]
    x = [P[1][k] - P[0][k] for k in range(3)]
    L = math.sqrt(dot(x, x))
    if L == 0.0:
        raise DegenerateInput("coincident")
    x = [t / L for t in x]
    w = [P[2][k] - origin[k] for k in range(3)]
    t = dot(w, x)
    w = [w[k] - t * x[k] for k in range(3)]
    n = math.sqrt(dot(w, w))
    if n == 0.0:
        raise DegenerateInput("collinear")
    z = [t / n for t in w]
    y = [z[1] * x[2] - z[2] * x[1], z[2] * x[0] - z[0] * x[2],
         z[0] * x[1] - z[1] * x[0]]
    rows = []
    for p in P:
        r = [(p[k] - origin[k]) / L for k in range(3)]
        rows.append([dot(r, x), dot(r, y), dot(r, z)])
    if rows[3][1] > 0.0:
        rows = [[u, -v, w] for u, v, w in rows]
    if not rows[3][1] < 0.0:
        raise DegenerateInput("flat")
    return tuple(tuple(r) for r in rows)


_COORD = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)


@given(coords=st.lists(_COORD, min_size=12, max_size=12),
       flat=st.sampled_from([None, "plane", "line", "point"]))
@settings(max_examples=400, deadline=None)
def test_normalize_is_the_plain_sum_reference(coords, flat):
    # bit for bit, on any four points: the frame and every coordinate come
    # from plain float sums in a fixed order, so no BLAS kernel moves them;
    # a flat input (all in one plane, on one line or at one point) is
    # refused by both
    verts = [coords[3 * i:3 * i + 3] for i in range(4)]
    if flat == "plane":
        verts = [(u, v, 0.0) for u, v, _ in verts]
    elif flat == "line":
        verts = [(u, 0.0, 0.0) for u, _, _ in verts]
    elif flat == "point":
        verts = [verts[0]] * 4
    T = Tetrahedron(tuple(tuple(v) for v in verts))
    try:
        want = _normalize_reference(T)
    except DegenerateInput:
        with pytest.raises(DegenerateInput):
            normalize(T)
        return
    assert normalize(T).vertices == want


def _generated_shapes():
    """{name: vertices as float.hex} of the vertex pin: instances 0-11 of
    stream 42 normalized, and make_eps_thick at eps 0.01 on instances 0-11
    of stream 5, as built."""
    spec = GeneratorSpec(kind="random")
    shapes = {}
    for i in range(12):
        shapes["random/42/%d" % i] = normalize(
            generate(spec, seed=instance_stream(42, i)))
    for i in range(12):
        shapes["eps-thick/5/%d" % i] = make_eps_thick(
            0.01, instance_stream(5, i))
    return {name: [[c.hex() for c in v] for v in T.vertices]
            for name, T in shapes.items()}


def test_generated_vertices_are_pinned():
    # tests/data/generated_shapes.json holds _generated_shapes() as an
    # earlier tree built them; numpy is left only the random draws, so the
    # vertices are the same bits under any BLAS kernel
    # (OPENBLAS_CORETYPE).  python tests/test_generators.py re-pins them
    assert _generated_shapes() == json.loads(SHAPE_PIN.read_text())["shapes"]


# ---------------------------------------------------------------------------
# the admitted range of the longest edge

@pytest.mark.parametrize("edge", [1e46, 1e75, 1e80, 1e100, 1e110, 1e120,
                                  1e160, 1e300, 1e-46, 1e-80, 1e-90, 1e-100,
                                  1e-110, 1e-160, 1e-300])
def test_out_of_range_shapes_are_refused(edge):
    # beyond 2**+-150 the chord radius's sixth powers overflow or lose
    # bits: each family refuses a shape of that size with DegenerateInput,
    # before any measure runs, where reports raised ValueError,
    # OverflowError, ZeroDivisionError or AmbiguousCut
    for spec in (GeneratorSpec(kind="regular", edge=edge),
                 GeneratorSpec(kind="isosceles",
                               sides=(5.0 * edge, 6.0 * edge, 7.0 * edge)),
                 GeneratorSpec(kind="eps-thick", edge=edge),
                 GeneratorSpec(kind="normal-eps-thick", edge=edge)):
        with pytest.raises(DegenerateInput, match="outside"):
            generate(spec)
    verts = [tuple(edge * c for c in v) for v in make_regular(1.0).vertices]
    with pytest.raises(DegenerateInput):
        validate_tetrahedron(verts)
    report = {"ratios": {k: 1.0 for k in RATIO_KEYS},
              "tetrahedron": {"vertices": verts}, "config": {}}
    with pytest.raises(DegenerateInput):
        check_inequalities(report)


@pytest.mark.parametrize("scale", [2.0 ** -149, 2.0 ** 149])
def test_shapes_in_range_keep_their_bits(scale):
    # at the ends of the range a shape scaled by a power of two is admitted
    # with its vertices as given, and measures to the same ratios, bit for
    # bit, as at unit size: no length's power leaves the normal floats.  A
    # thin shape at the 1e-12 quality floor is among them
    cfg = ToleranceConfig(quality_floor=1e-12)
    shapes = [normalize(generate(GeneratorSpec(kind="random"),
                                 seed=instance_stream(42, i)))
              for i in (0, 1)]
    shapes += [make_eps_thick(1e-4, 1, cfg=cfg),
               normalize(make_isosceles(5.0, 6.0, 7.0)),
               make_normal_eps_thick(1e-4, cfg=cfg)]
    assert shapes[2].volume < 1e-9 * shapes[2].diam ** 3
    for T in shapes:
        verts = tuple(tuple(scale * c for c in v) for v in T.vertices)
        S = validate_tetrahedron(verts, cfg)
        assert S.vertices == verts
        assert compute_report(S).ratios() == compute_report(T).ratios()

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


def _repin():
    """python tests/test_generators.py: re-pin tests/data/generated_shapes.json
    from this tree, one shape a line."""
    rows = ["  %s: %s" % (json.dumps(name), json.dumps(verts))
            for name, verts in _generated_shapes().items()]
    SHAPE_PIN.write_text(
        '{"note": "float.hex vertices of tests/test_generators.py '
        '_generated_shapes(): instances 0-11 of instance_stream(42, .) '
        'normalized, and make_eps_thick(0.01, instance_stream(5, i)) for '
        'i = 0-11",\n "shapes": {\n' + ",\n".join(rows) + "\n}}\n")
    return 0


if __name__ == "__main__":
    sys.exit(_repin())
