"""Exact surface shortest paths against closed forms, a lattice oracle
(tests/mesh_oracle.py) and the face-chain search
(tests/chain_reference.py)."""

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from tetrametric import (DEFAULT_CFG, EDGES, FACES, GeneratorSpec,
                         TetraError, Tetrahedron, all_geodesic_segments,
                         cut_locus, edge_point, face_point, generate,
                         geodesic_distance, instance_stream,
                         intrinsic_radius_at,
                         make_eps_thick, make_isosceles, make_regular,
                         normalize, random_tetrahedron, star_unfold,
                         vertex_point)
from tetrametric.errors import SearchExhausted
from tetrametric.geometry import (DEDUP_TOL, EDGE_INDEX, TRIM, _lerp2,
                                  _orient, dist3, faces_containing,
                                  neighbor_face)
from tetrametric.intrinsic import _star_paths

import chain_reference
from chain_reference import _cap
from face_strip import _place_apex, apex_offset, unfold_faces
from fuzzing import ENGINE_FUZZ
from mesh_oracle import mesh_oracle_distance
from ray_reference import chart_sectors, cut_angles, trace_ray
from shape_reference import cone_angles

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
                                 face_point(0, (1 / 3, 1 / 3, 1 / 3)))
    assert len(segs) == 3
    for s in segs:
        assert s.length == pytest.approx(DIAM_REG, abs=1e-9)
    # opposite edge midpoints are joined by at least two equal routes
    segs = all_geodesic_segments(REG, edge_point(0, 1, 0.5),
                                 edge_point(2, 3, 0.5))
    assert len(segs) >= 2
    # a generic interior pair has a unique shortest path
    segs = all_geodesic_segments(REG, face_point(0, (0.61, 0.18, 0.21)),
                                 face_point(1, (0.13, 0.55, 0.32)))
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
    # cone points here without settling the distance
    T = make_eps_thick(0.01, seed=1)
    p = face_point(0, (0.2, 0.3, 0.5))
    q = face_point(1, (0.5, 0.3, 0.2))
    d, path = geodesic_distance(T, p, q)
    tol = DEFAULT_CFG.opt_tol * T.diam
    assert math.dist(T.xyz(p), T.xyz(q)) <= d
    assert d <= mesh_oracle_distance(T, p, q, 6) + tol
    assert d <= intrinsic_radius_at(T, p).value
    assert len(path.crossings) <= 3


def _face_simple_minimum(T, p, q):
    """Shortest straight development from p to q over face-simple sequences.

    A shortest path between face-interior points meets each face in one
    segment and passes through no vertex, so it is the straight image
    segment of some sequence of distinct faces that crosses every shared
    edge strictly inside it.
    """
    if p.face == q.face:
        return math.dist(T.xyz(p), T.xyz(q))
    rest = [f for f in range(4) if f not in (p.face, q.face)]
    best = math.inf
    for k in range(3):
        for mid in itertools.permutations(rest, k):
            strip = unfold_faces(T, (p.face,) + mid + (q.face,))
            P2 = strip.point2(0, p.bary)
            Q2 = strip.point2(len(strip.faces) - 1, q.bary)
            rx, ry = Q2[0] - P2[0], Q2[1] - P2[1]
            straight = True
            for level, (a, b) in enumerate(strip.crossed):
                fv = FACES[strip.faces[level]]
                A2 = strip.corners[level][fv.index(a)]
                B2 = strip.corners[level][fv.index(b)]
                ex, ey = B2[0] - A2[0], B2[1] - A2[1]
                den = rx * ey - ry * ex
                dx, dy = A2[0] - P2[0], A2[1] - P2[1]
                if den == 0.0:
                    straight = False
                    break
                s = (dx * ey - dy * ex) / den
                t = (dx * ry - dy * rx) / den
                if not (0.0 < t < 1.0 and 0.0 <= s <= 1.0):
                    straight = False
                    break
            if straight:
                best = min(best, math.hypot(rx, ry))
    return best


def test_search_answer_is_the_face_simple_minimum(monkeypatch):
    # the oracle tests only bound the distance from above; here every
    # face-simple development is enumerated independently, so the star's
    # distance and the reference search's must both be their minimum, the
    # search developing at most the 3 + 6 + 6 = 15 chain states of its
    # single start face
    calls = []
    place = chain_reference._place_apex

    def counting(*args):
        calls.append(1)
        return place(*args)

    monkeypatch.setattr(chain_reference, "_place_apex", counting)
    shapes = [normalize(random_tetrahedron(seed)) for seed in range(4)]
    shapes += [make_eps_thick(0.003 + 0.009 * k, seed=k) for k in range(4)]
    for T in shapes:
        for i in range(12):
            p = _surface_point(i, 5)
            q = _surface_point(i + 40, 6)
            calls.clear()
            d, _ = chain_reference.reference_distance(T, p, q)
            assert len(calls) <= 15
            want = _face_simple_minimum(T, p, q)
            assert abs(d - want) <= 1e-12 * T.diam
            assert abs(geodesic_distance(T, p, q)[0] - want) <= 1e-12 * T.diam


def _walk_chains_unpruned(T, p, q, slack):
    """_walk_chains as it was before chains stopped at q's last face: every
    face-simple chain is walked to its end."""
    psupp = p.support()
    qsupp = q.support()
    if len(psupp) == 1 and len(qsupp) == 1:
        if psupp == qsupp:
            return ((0.0, (), ()),)
        return ((T.elen[(psupp[0], qsupp[0])], (), ()),)
    pfaces = faces_containing(psupp)
    qfaces = frozenset(faces_containing(qsupp))
    qvert = qsupp[0] if len(qsupp) == 1 else None
    cap = _cap(T.diam, slack)
    qbary = {f: T.bary_on_face(q, f) for f in qfaces}
    candidates = []
    if any(f in qfaces for f in pfaces):
        candidates.append((dist3(T.xyz(p), T.xyz(q)), (), ()))
    stack = []
    for f0 in pfaces:
        S2 = T.frame2(f0, T.bary_on_face(p, f0))
        for x, y, X2, Y2, C2, W1, W2, _ in T.rim_table[f0]:
            if set(psupp) <= {x, y}:
                continue
            if qvert == x or qvert == y:
                continue
            if _orient(S2, W1, W2) < 0.0:
                W1, W2 = W2, W1
            g = neighbor_face(f0, x, y)
            stack.append(((g, x, y), X2, Y2, C2, W1, W2, S2, None,
                          (1 << f0) | (1 << g)))
    while stack:
        key, A2, B2, C2, W1, W2, S2, chain, seen = stack.pop()
        g, a, b, pos, exits = chain_reference._STATE[key]
        chain2 = (chain, a, b, A2, B2)
        if g in qfaces and qsupp != (a, b):
            bq = qbary[g]
            images = (A2, B2, C2)
            I0, I1, I2 = images[pos[0]], images[pos[1]], images[pos[2]]
            Q2 = (sum((bq[0] * I0[0], bq[1] * I1[0], bq[2] * I2[0])),
                  sum((bq[0] * I0[1], bq[1] * I1[1], bq[2] * I2[1])))
            if (_orient(A2, B2, Q2) * _orient(A2, B2, C2) > 0.0
                    and _orient(S2, W1, Q2) >= 0.0 and _orient(S2, Q2, W2) >= 0.0):
                d = math.hypot(Q2[0] - S2[0], Q2[1] - S2[1])
                crossings = (chain_reference._chain_crossings(chain2, S2, Q2)
                             if d <= cap else None)
                if crossings is not None:
                    sig = tuple((EDGE_INDEX[(i, j)], round(t / DEDUP_TOL))
                                for (i, j), t in crossings)
                    candidates.append((d, sig, crossings))
        for x, y, flipped, side, gn, nxt in exits:
            if qvert == x or qvert == y:
                continue
            if seen >> gn & 1:
                continue
            X2, P2n = (B2, A2) if side else (A2, B2)
            X2, Y2 = (C2, X2) if flipped else (X2, C2)
            clip = chain_reference._cone_clip(S2, W1, W2, X2, Y2, TRIM,
                                              1.0 - TRIM)
            if clip is None:
                continue
            N1 = _lerp2(X2, Y2, clip[0])
            N2 = _lerp2(X2, Y2, clip[1])
            if _orient(S2, N1, N2) < 0.0:
                N1, N2 = N2, N1
            u, h = apex_offset(T, nxt)
            stack.append((nxt, X2, Y2, _place_apex(X2, Y2, P2n, u, h),
                          N1, N2, S2, chain2, seen | (1 << gn)))
    if not candidates:
        raise SearchExhausted("no straight development reaches the target")
    return tuple(candidates)


def _hexed(obj):
    """obj with every float replaced by its float.hex, recursively."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, tuple):
        return tuple(_hexed(x) for x in obj)
    return obj


def _outcome(develop, T, p, q, slack):
    try:
        return _hexed(develop(T, p, q, slack))
    except SearchExhausted as exc:
        return ("SearchExhausted", str(exc))


def _prune_sources(T, k):
    """Canonical sources: the vertices, four points of each edge (two of
    them a hair from a vertex) and two face points per face."""
    out = [vertex_point(v) for v in range(4)]
    for a, b in EDGES:
        out += [edge_point(a, b, t) for t in (0.5, 0.25, 1e-6, 1.0 - 1e-6)]
    out += [_surface_point(k * 8 + i, 9) for i in range(8)]
    return [x.canonical() for x in out]


def test_pruned_walk_keeps_the_full_walks_candidates():
    # a chain stops once every face of q is behind it: the candidates, and
    # the exception when there are none, are the full walk's to the bit
    shapes = [normalize(random_tetrahedron(seed)) for seed in range(4)]
    shapes += [make_eps_thick(eps, seed=k)
               for k, eps in enumerate((0.003, 0.006, 0.01, 0.03))]
    shapes += [make_isosceles(5.0, 6.0, 7.0),
               normalize(make_isosceles(0.9, 0.95, 1.0)), REG]
    pairs = 0
    for k, T in enumerate(shapes):
        points = _prune_sources(T, k)
        for p in points:
            for q in points[k % 3::3]:
                for slack in (1e-7, 0.5):
                    walk = chain_reference._walk_chains
                    assert (_outcome(walk, T, p, q, slack)
                            == _outcome(_walk_chains_unpruned, T, p, q, slack))
                    pairs += 1
    assert pairs == len(shapes) * 36 * 12 * 2


def test_pruned_walk_work(monkeypatch):
    # a same-face pair of face points is joined by its chord and starts no
    # chain; a pair in two faces develops at most the six states that do
    # not start in, or pass through, the target's face
    calls = []
    place = chain_reference._place_apex

    def counting(*args):
        calls.append(1)
        return place(*args)

    monkeypatch.setattr(chain_reference, "_place_apex", counting)
    shapes = [normalize(random_tetrahedron(seed)) for seed in range(6)]
    shapes += [make_eps_thick(0.003 + 0.009 * k, seed=k) for k in range(4)]
    placed = []
    for T in shapes:
        for i in range(12):
            p = _surface_point(i, 7)
            bary = _surface_point(i, 8).bary
            for g in range(4):
                fresh = Tetrahedron(T.vertices)
                calls.clear()
                chain_reference.reference_distance(fresh, p, face_point(g, bary))
                if g == p.face:
                    assert calls == []
                    assert list(fresh.rim_table) == []
                else:
                    placed.append(len(calls))
    assert len(placed) == len(shapes) * 12 * 3
    assert max(placed) <= 6


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
    # the reference chart's total angle, and that of the star's cut
    # angles, to the bit
    for x, want in ((vertex_point(0), cone_angles(REG)[0]),
                    (face_point(0, (0.3, 0.3, 0.4)), 2.0 * math.pi),
                    (edge_point(1, 2, 0.3), 2.0 * math.pi)):
        omega, _ = chart_sectors(REG, x)
        assert omega == pytest.approx(want, abs=1e-12)
        assert cut_angles(star_unfold(REG, x))[0] == omega


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


def _pin_rays():
    """(name, T, x, theta, length) of the trace_ray pins: from a face point
    of REG and of a random shape, rays ending inside the face, at the
    midpoint of one side, 5e-10 past that side (within 1e-9, so clamped
    back onto it) and 0.1 past it (in the next face); and from an edge
    point, a ray ending inside the face on one side of the edge."""
    out = []
    for name, T, f, bary in (("REG", REG, 2, (0.5, 0.3, 0.2)),
                             ("rand", normalize(random_tetrahedron(3)), 1,
                              (0.2, 0.45, 0.35))):
        x = face_point(f, bary)
        S = T.frame2(f, x.bary)
        A, B, C = T.face_frames[f]
        M = (0.5 * (A[0] + B[0]), 0.5 * (A[1] + B[1]))
        omega, sectors = chart_sectors(T, x)
        for kind, end, extra in (("inside", C, 0.0), ("side", M, 0.0),
                                 ("clamped", M, 5e-10), ("across", M, 0.1)):
            d2 = (end[0] - S[0], end[1] - S[1])
            r = math.hypot(*d2)
            if kind == "inside":
                r *= 0.5
            theta = math.atan2(d2[1], d2[0]) % (2.0 * math.pi)
            out.append(("%s/%s" % (name, kind), T, x, theta, r + extra))
        e = edge_point(0, 1, 0.3)
        out.append(("%s/edge" % name, T, e, 1.0, 0.05))
    return out


def test_trace_ray_pins():
    # face and bary.hex() of each ray's end, as an earlier tree traced
    # them; the "side" ends land within 3e-16 of the side, on either side.
    # Each end is built canonical: canonical() returns it as is
    pins = {
        "REG/inside": (2, ["0x1.ffffffffffffcp-3", "0x1.3333333333336p-3",
                           "0x1.3333333333334p-1"]),
        "REG/side": (2, ["0x1.0000000000000p-1", "0x1.fffffffffffffp-2",
                         "0x0.0p+0"]),
        "REG/clamped": (2, ["0x1.fffffffbb47d4p-2", "0x1.0000000225c16p-1",
                            "0x0.0p+0"]),
        "REG/across": (3, ["0x1.999999999999dp-2", "0x1.99999999999a0p-4",
                           "0x1.ffffffffffffcp-2"]),
        "REG/edge": (2, ["0x1.4c2194f8cbb9cp-1", "0x1.35fd43bd74552p-2",
                         "0x1.8dfc9287a1ba7p-5"]),
        "rand/inside": (1, ["0x1.99999999999a0p-4", "0x1.ccccccccccccdp-3",
                            "0x1.5999999999999p-1"]),
        "rand/side": (1, ["0x1.0000000000003p-1", "0x1.ffffffffffffap-2",
                          "0x0.0p+0"]),
        "rand/clamped": (1, ["0x1.000000024dd73p-1", "0x1.fffffffb6451ap-2",
                             "0x0.0p+0"]),
        "rand/across": (2, ["0x1.92c7936d429bep-1", "0x1.9ded6844ae056p-4",
                            "0x1.cbd5fc513d1b7p-4"]),
        "rand/edge": (2, ["0x1.1e28b42df06eap-1", "0x1.07570df20cb86p-2",
                          "0x1.78af136424d4bp-3"]),
    }
    for name, T, x, theta, length in _pin_rays():
        y = trace_ray(T, x, theta, length)
        assert (y.face, [b.hex() for b in y.bary]) == pins[name]
        assert y.canonical() is y


# ---------------------------------------------------------------------------
# the star's paths against the reference chain search

def _fuzz_shape(kind, sides, eps, seed):
    if kind == "regular":
        return REG
    if kind == "isosceles":
        return normalize(make_isosceles(*sides))
    if kind == "eps-thick":
        return make_eps_thick(eps, seed=seed)
    return normalize(random_tetrahedron(seed))


def _fuzz_source(kind, a, u, w):
    """A vertex, an edge midpoint, a face centroid or a point of a face
    median (the tied sources of symmetric shapes), or any edge or face
    point."""
    if kind == "vertex":
        return vertex_point(a % 4)
    if kind == "midpoint":
        return edge_point(*EDGES[a % 6], 0.5)
    if kind == "centroid":
        return face_point(a % 4, (1 / 3, 1 / 3, 1 / 3))
    if kind == "median":
        s = 0.01 + 0.48 * u
        i = a // 4 % 3
        return face_point(a % 4, tuple(1.0 - 2.0 * s if k == i else s
                                       for k in range(3)))
    if kind == "edge":
        return edge_point(*EDGES[a % 6], 0.01 + 0.98 * u)
    return face_point(a % 4, tuple(c / sum(w) for c in w))


def _fuzz_target(kind, T, x, a, u, w):
    """A corner of x's star, a point on one of its cuts, a node of x's cut
    locus or a point on one of its arcs, or any face point."""
    star = star_unfold(T, x)
    k = a % len(star.cuts)
    cut = star.cuts[k]
    if kind == "corner":
        return vertex_point(cut.vertex)
    if kind == "cut":
        return trace_ray(T, x, cut_angles(star)[1][k], u * cut.length,
                         chart_sectors(T, x))
    locus = cut_locus(T, x)
    if kind == "node":
        return locus.nodes[a % len(locus.nodes)].surface
    if kind == "arc":
        arc = locus.arcs[a % len(locus.arcs)]
        return star.to_surface(arc.images[0], arc.point_at(u))
    return face_point(a % 4, tuple(c / sum(w) for c in w))


@given(shape=st.sampled_from(["regular", "isosceles", "eps-thick", "random"]),
       sides=st.tuples(*[st.floats(0.8, 1.0)] * 3),
       eps=st.floats(3e-3, 0.03), seed=st.integers(0, 10_000),
       source=st.sampled_from(["vertex", "midpoint", "centroid", "median",
                               "edge", "face"]),
       target=st.sampled_from(["corner", "cut", "node", "arc", "face"]),
       a=st.integers(0, 11), b=st.integers(0, 11), u=st.floats(0.0, 1.0),
       w=st.tuples(*[st.floats(1e-3, 1.0)] * 3))
@settings(ENGINE_FUZZ, max_examples=300)
def test_paths_contract_fuzz(shape, sides, eps, seed, source, target, a, b,
                             u, w):
    # the distance and the number of shortest paths read off the star
    # agree with the reference chain search, or the call raises a
    # TetraError; targets sit where the star is least generic: at its
    # corners, on its cuts and on the source's cut locus
    T = _fuzz_shape(shape, sides, eps, seed)
    x = _fuzz_source(source, a, u, w)
    try:
        y = _fuzz_target(target, T, x, b, u, w)
    except TetraError:
        return
    try:
        d, _ = geodesic_distance(T, x, y)
        segs = all_geodesic_segments(T, x, y)
    except TetraError:
        return
    assert abs(d - chain_reference.reference_distance(T, x, y)[0]) \
        <= 1e-12 * T.diam
    assert len(segs) == len(chain_reference.reference_segments(T, x, y))


def test_a_failed_star_reads_the_other_end():
    # the star of a source 3e-12 (in weight) from vertex 2 of instance 17
    # of stream 42 fails its foreign-image check: the cut to vertex 3
    # crosses edge (0, 1), where a shorter path passes next to vertex 2,
    # outside every edge's [TRIM, 1 - TRIM] window (_opposite_cut).  The
    # paths are then read off the target's star, walked the other way.
    # The chain search has the same windows: for the targets on edge
    # (2, 3) and at vertex 3 it returns a path 0.35 and 0.22 longer, and
    # never one shorter than the star's
    T = normalize(generate(GeneratorSpec(kind="random"),
                           seed=instance_stream(42, 17)))
    p = face_point(3, (3e-12, 1.0 - 6e-12, 3e-12))
    with pytest.raises(TetraError):
        star_unfold(T, p)
    for q in (face_point(1, (0.2, 0.3, 0.5)), edge_point(2, 3, 0.3),
              vertex_point(3), vertex_point(1)):
        d, path = geodesic_distance(T, p, q)
        star = star_unfold(T, q)
        assert d == _star_paths(star, p)[0][0]
        want, ref = chain_reference.reference_distance(T, p, q)
        assert d <= want + 1e-12 * T.diam
        if q.support() not in ((3,), (2, 3)):
            assert abs(d - want) <= 1e-12 * T.diam
            assert ([e for e, _ in path.crossings]
                    == [e for e, _ in ref.crossings])
        back = geodesic_distance(T, q, p)[1]
        assert path.crossings == back.crossings[::-1]


def test_an_image_whose_segment_leaves_the_star_starts_no_path():
    # an image within DEDUP_TOL of the nearest starts no path when its
    # segment to the target leaves the star polygon: past a corner on its
    # way to that corner's vertex (1/3837) or to a point next to it
    # (1/5401, 1/19237), or through the notch a vertex of cone angle near
    # 2 pi leaves in the polygon (2/505, from a vertex of cone angle 0.05)
    for seed, i in ((1, 3837), (1, 5401), (1, 19237), (2, 505)):
        _, T, p, q = chain_reference.bundle(seed, i)
        assert len(all_geodesic_segments(T, p, q)) == 1
        assert len(chain_reference.reference_segments(T, p, q)) == 1
