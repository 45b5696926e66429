"""Core geometry: validation, angles, unfolding strips, triangle facts."""

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from tetrametric import (DegenerateInput, EDGES, FACES, SurfacePoint,
                         Tetrahedron, Triangle2, circumcenter, edge_point,
                         face_point, geodesic_distance, instance_stream,
                         longest_side, make_eps_thick, make_isosceles,
                         make_normal_eps_thick, make_regular, normalize,
                         random_tetrahedron,
                         tetrahedron_from_json, tetrahedron_to_json,
                         triangle_is_acute, validate_tetrahedron,
                         vertex_point)
from tetrametric.geometry import (EDGE_INDEX, TRIM, _cross3, _dot3, _lerp2,
                                  _norm3, _sub3, apex_vertex, dist3,
                                  neighbor_face)

from chain_reference import reference_distance
from face_strip import _place_apex, unfold_faces
from shape_reference import cone_angles, corner_angles, is_isosceles

REG_VERTS = [
    (0.0, 0.0, 0.0),
    (1.0, 0.0, 0.0),
    (0.5, math.sqrt(3.0) / 2.0, 0.0),
    (0.5, math.sqrt(3.0) / 6.0, math.sqrt(2.0 / 3.0)),
]


# ---------------------------------------------------------------------------
# tetrahedron validation

def test_regular_volume_matches_determinant_oracle():
    # independent oracle: volume from the scalar triple product
    a, b, c, d = [list(v) for v in REG_VERTS[:4]]
    u = [b[i] - a[i] for i in range(3)]
    v = [c[i] - a[i] for i in range(3)]
    w = [d[i] - a[i] for i in range(3)]
    det = (u[0] * (v[1] * w[2] - v[2] * w[1])
           - u[1] * (v[0] * w[2] - v[2] * w[0])
           + u[2] * (v[0] * w[1] - v[1] * w[0]))
    oracle = abs(det) / 6.0
    assert oracle == pytest.approx(math.sqrt(2.0) / 12.0, rel=1e-12)
    T = validate_tetrahedron(REG_VERTS)
    assert T.volume == pytest.approx(oracle, rel=1e-12)


def test_coplanar_points_rejected():
    flat = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]
    with pytest.raises(DegenerateInput):
        validate_tetrahedron(flat)


def test_orientation_is_canonicalized():
    T1 = validate_tetrahedron(REG_VERTS)
    mirrored = [REG_VERTS[0], REG_VERTS[2], REG_VERTS[1], REG_VERTS[3]]
    T2 = validate_tetrahedron(mirrored)
    # both orders describe the same point set; face tables and volumes agree
    assert T1.volume == pytest.approx(T2.volume, rel=1e-12)
    for f in range(4):
        s1 = sorted(FACES[f])
        assert sorted(FACES[f]) == s1


def test_edge_table_and_opposite_pairing():
    assert EDGES == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    # opposite pairs exhaust all four vertices
    for a, b in ((0, 5), (1, 4), (2, 3)):
        assert sorted(set(EDGES[a]) | set(EDGES[b])) == [0, 1, 2, 3]


# ---------------------------------------------------------------------------
# surface points

def test_surface_point_validation():
    with pytest.raises(ValueError):
        SurfacePoint(5, (1.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        SurfacePoint(0, (0.5, 0.5))
    with pytest.raises(ValueError):
        SurfacePoint(0, (0.9, 0.3, -0.2))
    with pytest.raises(ValueError):
        SurfacePoint(0, (0.5, 0.2, 0.2))


def test_canonical_addressing_lowest_face():
    # a vertex lives on three faces; canonical form picks the lowest index
    for v in range(4):
        sp = vertex_point(v)
        assert sp.face == min(f for f in range(4) if f != v)
        assert sp.support() == (v,)
    ep = edge_point(2, 3, 0.25)
    assert ep.support() == (2, 3)
    assert ep.face == 0  # face 0 = (1,2,3) is the lowest face containing both


def _nudge(w, k):
    """w moved by k ulps."""
    for _ in range(abs(k)):
        w = math.nextafter(w, math.copysign(math.inf, k))
    return w


_WEIGHT = st.one_of(st.floats(0.0, 1.0),
                    st.sampled_from([0.0, -0.0, 1e-13, 1e-12, 2e-12]))


@st.composite
def _surface_points(draw):
    """Face, edge and vertex points, each given on any face holding it,
    with weights normalized by their sum and moved by a few ulps, signed
    zeros, and weights at and around SUPPORT_TOL."""
    kind = draw(st.sampled_from(["face", "edge", "vertex"]))
    if kind == "vertex":
        supp = [draw(st.integers(0, 3))]
    else:
        supp = draw(st.permutations(range(4)))[:3 if kind == "face" else 2]
    face = draw(st.sampled_from([f for f in range(4) if f not in supp]))
    raw = [draw(_WEIGHT) if v in supp else draw(st.sampled_from(
        [0.0, -0.0, 1e-13, 1e-12, math.nextafter(1e-12, 0.0)]))
        for v in FACES[face]]
    s = sum(raw)
    if s <= 0.0:
        raw = [1.0 if v in supp else 0.0 for v in FACES[face]]
        s = float(len(supp))
    bary = [_nudge(w / s, draw(st.integers(-3, 3))) for w in raw]
    try:
        return SurfacePoint(face, tuple(bary))
    except ValueError:
        return SurfacePoint(face, tuple(w / s for w in raw))


@given(_surface_points())
@settings(max_examples=2000, deadline=None)
def test_canonical_is_a_fixpoint(sp):
    once = sp.canonical()
    assert once.canonical() is once
    # no weight is -0.0 or at most SUPPORT_TOL unless it is +0.0
    assert all(w > 1e-12 or (w == 0.0 and math.copysign(1.0, w) > 0.0)
               for w in once.bary)


@given(st.integers(0, 3),
       st.tuples(st.floats(0.01, 1.0), st.floats(0.01, 1.0),
                 st.floats(0.01, 1.0)))
def test_canonical_idempotent(face, raw):
    s = raw[0] + raw[1] + raw[2]
    sp = face_point(face, (raw[0] / s, raw[1] / s, raw[2] / s))
    assert sp.canonical() is sp
    assert SurfacePoint(face, (raw[0] / s, raw[1] / s,
                               raw[2] / s)).canonical() == sp


def test_canonical_settles_near_tied_weights():
    # setting the largest of near-tied weights can leave another larger;
    # every such point still settles to a fixpoint
    moved = 0
    for base in ((1 / 3, 1 / 3, 1 / 3), (0.5, 0.5, 0.0), (0.4, 0.4, 0.2),
                 (0.25, 0.375, 0.375)):
        for ks in itertools.product(range(-4, 5), repeat=3):
            bary = tuple(_nudge(w, k) if w else w for w, k in zip(base, ks))
            sp = SurfacePoint(0, bary)
            once = sp.canonical()
            assert once.canonical() is once
            moved += once.bary != bary
    assert moved > 1000


def test_canonical_returns_unchanged_point_itself():
    # a point already in canonical form comes back as is; a -0.0 weight
    # compares equal to 0.0 but must still become +0.0
    for sp in (edge_point(2, 3, 0.25), face_point(1, (0.2, 0.3, 0.5)),
               vertex_point(2)):
        assert sp.canonical() is sp
    neg = SurfacePoint(0, (-0.0, 0.25, 0.75))
    out = neg.canonical()
    assert out is not neg
    assert out.bary == (0.0, 0.25, 0.75)
    assert math.copysign(1.0, out.bary[0]) == 1.0


def _canonical_slow(sp, tol=1e-12):
    """canonical() written plainly: snap, move to the lowest face holding
    the point, then set the largest weight, the first of equals, to 1
    minus the sum of the other two until the largest stays."""
    b = [0.0 if x <= tol else x for x in sp.bary]
    fv = FACES[sp.face]
    supp = [fv[i] for i in range(3) if b[i] > 0.0]
    target = min(f for f in range(4) if f not in supp)
    nb = [0.0, 0.0, 0.0]
    for gi, val in zip(fv, b):
        if val > 0.0:
            nb[FACES[target].index(gi)] = val
    while True:
        k = nb.index(max(nb))
        i, j = [m for m in range(3) if m != k]
        nb[k] = 1.0 - (nb[i] + nb[j])
        if nb.index(max(nb)) == k:
            return target, tuple(nb)


@given(st.integers(0, 3), st.tuples(_WEIGHT, _WEIGHT, _WEIGHT),
       st.tuples(*[st.integers(-2, 2)] * 3))
@settings(max_examples=500, deadline=None)
def test_canonical_fast_path_is_bit_identical(face, raw, ulps):
    # weights normalized by their sum, then moved by a few ulps so that
    # their sum is often not exactly 1.0: canonical() must give the plain
    # rule's bits, return the point itself when they are its own, and
    # return its result itself when given it
    s = raw[0] + raw[1] + raw[2]
    if s <= 0.0:
        return
    bary = [_nudge(w / s, k) for w, k in zip(raw, ulps)]
    try:
        sp = SurfacePoint(face, tuple(bary))
    except ValueError:
        return
    out = sp.canonical()
    want_face, want_bary = _canonical_slow(sp)
    assert out.face == want_face
    assert [x.hex() for x in out.bary] == [x.hex() for x in want_bary]
    if want_face == face and [x.hex() for x in want_bary] == \
            [x.hex() for x in sp.bary]:
        assert out is sp
    assert out.canonical() is out


def _reference_tables(T):
    """Frames, rims and corner angles, each table built whole by plain
    loops from the vertices alone, the rims by the face strip's step: the
    reference that the lazily built tables must match bit for bit."""
    V = T.vertices
    elen = {}
    for a, b in EDGES:
        elen[(a, b)] = elen[(b, a)] = dist3(V[a], V[b])
    frames = []
    for p, q, r in FACES:
        lpq, lpr, lqr = elen[(p, q)], elen[(p, r)], elen[(q, r)]
        x = (lpq * lpq + lpr * lpr - lqr * lqr) / (2.0 * lpq)
        y = math.sqrt(lpr * lpr - x * x)
        frames.append(((0.0, 0.0), (lpq, 0.0), (x, y)))
    apex = {}
    for g in range(4):
        for a in FACES[g]:
            for b in FACES[g]:
                if a == b:
                    continue
                c = apex_vertex(g, a, b)
                lab, lac, lbc = elen[(a, b)], elen[(a, c)], elen[(b, c)]
                u = (lac * lac - lbc * lbc + lab * lab) / (2.0 * lab)
                apex[(g, a, b)] = (u, math.sqrt(lac * lac - u * u))
    rims = []
    for f in range(4):
        fv, frame = FACES[f], frames[f]
        rim = []
        for i in range(3):
            a, b = sorted((fv[i], fv[(i + 1) % 3]))
            A2, B2 = frame[fv.index(a)], frame[fv.index(b)]
            u, h = apex[(neighbor_face(f, a, b), a, b)]
            C2 = _place_apex(A2, B2, frame[fv.index(apex_vertex(f, a, b))],
                             u, h)
            rim.append((a, b, A2, B2, C2, _lerp2(A2, B2, TRIM),
                        _lerp2(A2, B2, 1.0 - TRIM), EDGE_INDEX[(a, b)]))
        rims.append(tuple(rim))
    corners = {}
    for f in range(4):
        for v in FACES[f]:
            others = [w for w in FACES[f] if w != v]
            u = _sub3(V[others[0]], V[v])
            w = _sub3(V[others[1]], V[v])
            corners[(f, v)] = math.atan2(_norm3(_cross3(u, w)), _dot3(u, w))
    return frames, rims, corners


def _hex(obj):
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, (tuple, list)):
        return [_hex(x) for x in obj]
    return obj


def _table_shapes():
    for seed in range(50):
        yield normalize(random_tetrahedron(seed))
    for i, eps in enumerate((0.003, 0.005, 0.01, 0.03, 0.1)):
        yield make_eps_thick(eps, instance_stream(9, i))
    yield make_normal_eps_thick(0.01)
    for p, q, r in ((5.0, 6.0, 7.0), (0.9, 0.95, 1.0), (1.0, 1.0, 1.0),
                    (0.6, 0.8, 0.99)):
        yield make_isosceles(p, q, r)
        yield normalize(make_isosceles(p, q, r))


def test_rim_table_matches_development_on_the_spot():
    for T in _table_shapes():
        frames, rims, corners = _reference_tables(T)
        assert _hex(T.face_frames) == _hex(frames)
        # a rim is built the first time it is read, and read again after
        order = (2, 0, 3, 1)
        for k, f in enumerate(order):
            rim = T.rim_table[f]
            assert _hex(rim) == _hex(rims[f])
            assert list(T.rim_table) == list(order[:k + 1])
            assert T.rim_table[f] is rim
        # the tests' corner angles (shape_reference) are the helpers'
        table = corner_angles(T)
        assert list(table) == list(corners)
        assert _hex(list(table.values())) == _hex(list(corners.values()))


def test_face_cells_develop_as_the_rims():
    # a face cell (v, e1, e2) places its corner of v by developing face a
    # across (e1, e2) from face v's frame, which is the C2 of face v's rim
    # row for that edge: both go through the one development, the cell in
    # the mirror image of the frames (y -> -y)
    shapes = list(_table_shapes())
    shapes += [make_eps_thick(eps, seed=k) for k, eps in
               enumerate((0.003, 0.004, 0.008, 0.02, 0.05))]
    cells = 0
    for T in shapes:
        for v in range(4):
            for e1, e2 in EDGES:
                if v in (e1, e2):
                    continue
                corner = T.star_cells[(v, e1, e2)][0][v]
                (C2,) = [row[4] for row in T.rim_table[v]
                         if row[:2] == (e1, e2)]
                assert _hex(corner) == _hex((C2[0], -C2[1]))
                cells += 1
    assert cells == len(shapes) * 12


def test_a_search_builds_only_the_tables_it_reads():
    # a distance from a point of face 2 reads face 2's rim alone: the
    # opposite cut of its star develops that face's edges, and so does the
    # reference chain walk, which starts from face 2; a second point of
    # face 2 is joined by the chord and starts no chain
    p = face_point(2, (0.2, 0.3, 0.5))
    for T in _table_shapes():
        for distance in (geodesic_distance, reference_distance):
            S = Tetrahedron(T.vertices)
            distance(S, p, face_point(0, (0.6, 0.3, 0.1)))
            assert list(S.rim_table) == [2]
        S = Tetrahedron(T.vertices)
        reference_distance(S, p, face_point(2, (0.6, 0.3, 0.1)))
        assert list(S.rim_table) == []


def test_a_table_is_kept_on_first_read():
    # the first read stores the table in the instance __dict__, where
    # later reads find it; a read that raises stores nothing and raises
    # again
    T = normalize(random_tetrahedron(4))
    assert "face_frames" not in vars(T)
    frames = T.face_frames
    assert vars(T)["face_frames"] is frames and T.face_frames is frames
    flat = Tetrahedron(((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (2.0, 0.0, 0.0),
                        (0.0, 1.0, 0.0)))
    for _ in range(2):
        with pytest.raises(DegenerateInput):
            flat.face_frames
        assert "face_frames" not in vars(flat)
    assert "isometric copy" in Tetrahedron.face_frames.__doc__


# ---------------------------------------------------------------------------
# angles and curvature, on the tests' corner angles (shape_reference)

def _total_defect(T):
    """Sum over the vertices of 2 * pi less the cone angle: 4 * pi for any
    tetrahedron (Gauss-Bonnet)."""
    return sum([2.0 * math.pi - cone for cone in cone_angles(T)])


def test_face_angle_sums_regular():
    T = validate_tetrahedron(REG_VERTS)
    for cone in cone_angles(T):
        assert cone == pytest.approx(math.pi, abs=1e-12)


def test_face_angle_sums_isosceles():
    T = make_isosceles(5.0, 6.0, 7.0)
    for cone in cone_angles(T):
        assert cone == pytest.approx(math.pi, abs=1e-9)


def test_sharp_vertex_of_thin_instance():
    T = make_normal_eps_thick(0.01)
    sums = cone_angles(T)
    assert min(sums) < math.pi  # the long-edge apexes are sharp
    assert all(s < 2.0 * math.pi for s in sums)


def test_total_defect_regular():
    T = validate_tetrahedron(REG_VERTS)
    assert _total_defect(T) == pytest.approx(4.0 * math.pi, abs=1e-12)


def test_total_defect_isosceles_each_pi():
    T = make_isosceles(5.0, 6.0, 7.0)
    assert _total_defect(T) == pytest.approx(4.0 * math.pi, abs=1e-9)
    for cone in cone_angles(T):
        assert 2.0 * math.pi - cone == pytest.approx(math.pi, abs=1e-9)


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_total_defect_random(seed):
    T = random_tetrahedron(seed)
    assert _total_defect(T) == pytest.approx(4.0 * math.pi, abs=1e-9)


def test_is_isosceles_cases():
    assert is_isosceles(make_regular(1.0))
    assert is_isosceles(make_isosceles(5.0, 6.0, 7.0))
    assert not is_isosceles(make_normal_eps_thick(0.01))


# ---------------------------------------------------------------------------
# unfolding strips

def test_unfold_single_face_identity():
    T = validate_tetrahedron(REG_VERTS)
    strip = unfold_faces(T, (0,))
    assert len(strip.corners) == 1
    tri = strip.corners[0]
    fv = FACES[0]
    for i in range(3):
        for j in range(i + 1, 3):
            want = T.elen[tuple(sorted((fv[i], fv[j])))]
            got = math.dist(tri[i], tri[j])
            assert got == pytest.approx(want, abs=1e-12)


def test_unfold_rhombus_far_vertices():
    # oracle first: two unit equilateral triangles sharing an edge form a
    # rhombus whose long diagonal is sqrt(3) by the law of cosines
    oracle = math.sqrt(1.0 + 1.0 - 2.0 * math.cos(2.0 * math.pi / 3.0))
    assert oracle == pytest.approx(math.sqrt(3.0), rel=1e-15)
    T = validate_tetrahedron(REG_VERTS)
    strip = unfold_faces(T, (0, 1))
    # the far vertices are the apexes opposite the shared edge
    shared = set(FACES[0]) & set(FACES[1])
    a0 = [strip.corners[0][i] for i in range(3) if FACES[0][i] not in shared][0]
    a1 = [strip.corners[1][i] for i in range(3) if FACES[1][i] not in shared][0]
    assert math.dist(a0, a1) == pytest.approx(math.sqrt(3.0), abs=1e-9)


def test_unfold_rejects_immediate_backtrack():
    T = validate_tetrahedron(REG_VERTS)
    with pytest.raises(ValueError):
        unfold_faces(T, (0, 1, 0))


# ---------------------------------------------------------------------------
# planar triangle facts

def test_equilateral_in_its_circumcircle():
    R = 2.0 / math.sqrt(3.0)
    pts = [(R * math.cos(a), R * math.sin(a))
           for a in (0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0)]
    tri = Triangle2(pts[0], pts[1], pts[2])
    assert triangle_is_acute(tri)
    c = circumcenter(tri)
    assert math.hypot(*c) < 1e-12
    assert math.dist(c, pts[0]) == pytest.approx(R, abs=1e-12)
    assert longest_side(tri) == pytest.approx(2.0, abs=1e-12)


def test_right_triangle_thales():
    tri = Triangle2((0.0, 0.0), (3.0, 0.0), (0.0, 4.0))
    assert not triangle_is_acute(tri)
    c = circumcenter(tri)
    # Thales: the circumcenter of a right triangle is the hypotenuse midpoint
    assert c[0] == pytest.approx(1.5, abs=1e-12)
    assert c[1] == pytest.approx(2.0, abs=1e-12)
    assert math.dist(c, (0.0, 0.0)) == pytest.approx(2.5, abs=1e-12)


@given(st.tuples(st.floats(0.0, 2.0 * math.pi), st.floats(0.1, 2.0),
                 st.floats(0.1, 2.0)))
@settings(max_examples=200)
def test_acute_triangle_in_unit_circle_long_side(params):
    # inscribed triangle from three circle angles; acute iff all arcs < pi
    t0, g1, g2 = params
    total = g1 + g2
    if total >= 2.0 * math.pi - 0.1:
        return
    angles = (t0, t0 + g1, t0 + g1 + g2)
    gaps = (g1, g2, 2.0 * math.pi - total)
    if max(gaps) >= math.pi - 1e-6:
        return
    pts = tuple((math.cos(a), math.sin(a)) for a in angles)
    tri = Triangle2(pts[0], pts[1], pts[2])
    assert triangle_is_acute(tri, tol=1e-9)
    assert longest_side(tri) >= math.sqrt(3.0) - 1e-9


def test_json_roundtrip():
    T = validate_tetrahedron(REG_VERTS)
    T2 = tetrahedron_from_json(tetrahedron_to_json(T))
    for v1, v2 in zip(T.vertices, T2.vertices):
        assert math.dist(v1, v2) < 1e-15
    N = normalize(T)
    assert N.edge_lengths[N.longest_edge] == pytest.approx(1.0, abs=1e-12)
