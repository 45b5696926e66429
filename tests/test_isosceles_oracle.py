"""Surface distance on isosceles shapes against an exact oracle.

A tetrahedron whose opposite edges are equal (make_isosceles) has four
congruent acute faces and cone angle pi at every vertex.  Its surface is
the flat orbifold R^2/G, with G = {z -> +-z + 2 lam : lam in L} and L the
lattice of the face triangle's tiling.  Lay face (0, 1, 2) out as the
plane triangle P0 P1 P2; in the face across edge ab from it, vertex 3 lies
at Pa + Pb - Pc, c the third vertex.  Then for points developing at X and
Y,

    d(x, y) = min over lam of min(|X - Y - 2 lam|, |X + Y - 2 lam|),

and each image of Y at that distance starts one shortest path.  The oracle
uses nothing of the package but the edge lengths, the face table and the
points' weights: no star unfolding and no chain search.
"""

import math

from hypothesis import assume, given, settings, strategies as st

from tetrametric import (EDGES, FACES, ToleranceConfig, all_geodesic_segments,
                         edge_point, face_point, geodesic_distance,
                         make_isosceles, vertex_point)
from tetrametric.errors import TetraError
from tetrametric.geometry import DEDUP_TOL

from fuzzing import ENGINE_FUZZ

_FLAT_CFG = ToleranceConfig(quality_floor=1e-12)


def _plane_vertices(T):
    """P0, P1 and P2, the layout of face (0, 1, 2), from the edge lengths."""
    l01, l02, l12 = (T.edge_lengths[EDGES.index(e)]
                     for e in ((0, 1), (0, 2), (1, 2)))
    x = (l01 * l01 + l02 * l02 - l12 * l12) / (2.0 * l01)
    return (0.0, 0.0), (l01, 0.0), (x, math.sqrt(l02 * l02 - x * x))


def _develop(P, sp):
    """The plane point of surface point sp: in its face's layout, with
    vertex 3 at Pa + Pb - Pc across edge ab from face (0, 1, 2)."""
    where = dict(enumerate(P))
    if sp.face != 3:
        a, b = (v for v in FACES[sp.face] if v != 3)
        c = sp.face
        where[3] = tuple(where[a][k] + where[b][k] - where[c][k]
                         for k in range(2))
    return tuple(sum(w * where[v][k] for v, w in zip(FACES[sp.face], sp.bary))
                 for k in range(2))


def oracle_paths(T, x, y, slack=DEDUP_TOL):
    """(d(x, y), the number of shortest paths within (1 + slack) of it).

    Two images of Y start one path when they coincide (y is a vertex, a
    fixed point of G) or when x is a vertex and the half turn about X
    takes one to the other.
    """
    P = _plane_vertices(T)
    X, Y = _develop(P, x), _develop(P, y)
    e1 = (P[1][0] - P[0][0], P[1][1] - P[0][1])
    e2 = (P[2][0] - P[0][0], P[2][1] - P[0][1])
    images = []
    for i in range(-5, 6):
        for j in range(-5, 6):
            lx = 2.0 * (i * e1[0] + j * e2[0])
            ly = 2.0 * (i * e1[1] + j * e2[1])
            for s in (1.0, -1.0):
                Z = (s * Y[0] + lx, s * Y[1] + ly)
                images.append((math.dist(X, Z), Z))
    d = min(dz for dz, _ in images)
    limit = d * (1.0 + slack) + 1e-15 * T.diam
    snap = 1e-9 * T.diam
    paths = []
    for dz, Z in images:
        if dz > limit:
            continue
        same = [Z]
        if len(x.support()) == 1:
            same.append((2.0 * X[0] - Z[0], 2.0 * X[1] - Z[1]))
        if not any(math.dist(W, Q) <= snap for W in same for Q in paths):
            paths.append(Z)
    return d, len(paths)


def _point(kind, a, u, w):
    if kind == "vertex":
        return vertex_point(a % 4)
    if kind == "edge":
        return edge_point(*EDGES[a % 6], u)
    if kind == "centroid":
        return face_point(a % 4, (1 / 3, 1 / 3, 1 / 3))
    return face_point(a % 4, tuple(c / sum(w) for c in w))


_POINTS = st.tuples(st.sampled_from(["vertex", "edge", "centroid", "face"]),
                    st.integers(0, 11), st.floats(0.0, 1.0),
                    st.tuples(*[st.floats(1e-3, 1.0)] * 3))


@given(sides=st.tuples(*[st.floats(0.5, 1.0)] * 3),
       flat=st.one_of(st.none(), st.floats(1e-4, 1e-2)),
       points=st.lists(st.tuples(_POINTS, _POINTS), min_size=4, max_size=4))
@settings(ENGINE_FUZZ, max_examples=60)
def test_distance_matches_the_orbifold(sides, flat, points):
    # the distance and the number of shortest paths, on acute side triples
    # and on flat ones, whose face triangles fall short of right by a
    # relative flat (at quality floor 1e-12)
    a, b, c = sides
    cfg = None
    if flat is not None:
        c = math.sqrt((a * a + b * b) * (1.0 - flat))
        cfg = _FLAT_CFG
    assume(a * a + b * b > c * c and a * a + c * c > b * b
           and b * b + c * c > a * a)
    try:
        T = make_isosceles(a, b, c, cfg=cfg)
    except TetraError:
        assume(False)
    for p, q in points:
        x, y = _point(*p), _point(*q)
        try:
            d, _ = geodesic_distance(T, x, y)
            count = len(all_geodesic_segments(T, x, y))
        except TetraError:
            continue
        want, paths = oracle_paths(T, x.canonical(), y.canonical())
        assert abs(d - want) <= 1e-12 * T.diam
        assert count == paths


def test_regular_centroid_to_vertex_has_three_paths():
    # the regular shape is isosceles: from a vertex to the centroid of the
    # opposite face the oracle finds the three symmetric paths
    T = make_isosceles(1.0, 1.0, 1.0)
    x, y = vertex_point(0), face_point(0, (1 / 3, 1 / 3, 1 / 3))
    d, paths = oracle_paths(T, x, y)
    assert abs(d - 2.0 / math.sqrt(3.0)) <= 1e-15
    assert paths == 3
    assert abs(geodesic_distance(T, x, y)[0] - d) <= 1e-15
    assert len(all_geodesic_segments(T, x, y)) == paths
