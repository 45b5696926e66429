"""The written-out layout of a four-cut star against the loops it replaces.

A face-interior or edge source has four cuts, so its star polygon is an
8-gon; star_unfold lays it out written out (_octagon_layout), with its
junction candidates (_circumcenters), simplicity check (_octagon_simple),
point-in-polygon test (_point_in_octagon) and opposite cut (_opposite_cut)
written out as well.  Each must give the loops' floats to the bit and
their decisions, which these tests compare on random, thin, regular and
isosceles shapes, also within 1e-9 of an edge or a vertex, and on random
8-gons.
"""

import itertools
import math
import random
from operator import itemgetter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from tetrametric import (EDGES, GeneratorSpec, ToleranceConfig, edge_point,
                         face_point, generate, instance_stream, make_eps_thick,
                         make_isosceles, make_normal_eps_thick, make_regular,
                         normalize, star_unfold, vertex_point)
from tetrametric import intrinsic as intrinsic_mod
from tetrametric.errors import AmbiguousCut, SearchExhausted
from tetrametric.geodesics import _cap, _chain_crossings, _orient
from tetrametric.geometry import DEDUP_TOL, _circumcenter2
from tetrametric.intrinsic import (CutPath, _face_angle, _opposite_cut,
                                   _polygon_star, _read_farthest, _star_cuts,
                                   _unfold)
from tetrametric.planar import (_circumcenters, _octagon_layout,
                                _octagon_simple, _point_in_octagon,
                                _point_in_polygon, _polygon_simple)

_THIN_CFG = ToleranceConfig(quality_floor=1e-9)


def _bits(value):
    """value with every float replaced by its float.hex, so that two
    values compare equal only when they agree to the bit."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple):
        return tuple([_bits(v) for v in value])
    if isinstance(value, list):
        return [_bits(v) for v in value]
    return value


def _star_bits(star):
    """Every field of a star but the tetrahedron, to the bit."""
    return (type(star), star.source) + _bits(tuple(star[2:]))


def _circumcenters_by_loop(images, scale):
    """_circumcenters as a loop over every triple of images, for any
    number of them."""
    snap = DEDUP_TOL * scale
    min_det = 1e-14 * scale * scale
    out = []
    for i, j, k in itertools.combinations(range(len(images)), 3):
        c = _circumcenter2(images[i], images[j], images[k], min_det)
        if c is None:
            continue
        ds = [math.dist(c, a) for a in images]
        val = min(ds)
        if val < ds[i] - snap:
            continue
        out.append((val, c, None, (i, j, k)))
    out.sort(key=itemgetter(0), reverse=True)
    return out


def _opposite_cut_by_helpers(T, x, v, sec):
    """_opposite_cut through the search's helpers: _orient for the cone
    test, math.dist for the length, _chain_crossings for the crossing."""
    S2 = sec[1][0][3]
    cap = _cap(T.diam, 0.0)
    cands = []
    for a, b, A2, B2, C2, W1, W2, e in T.rim_table[x.face]:
        if _orient(S2, W1, W2) < 0.0:
            W1, W2 = W2, W1
        if _orient(S2, W1, C2) < 0.0 or _orient(S2, C2, W2) < 0.0:
            continue
        d = math.dist(C2, S2)
        if d <= cap:
            cands.append((d, e, a, b, A2, B2, C2))
    cands.sort()
    for rho, _, a, b, A2, B2, C2 in cands:
        crossings = _chain_crossings((None, a, b, A2, B2), S2, C2)
        if crossings is not None:
            return (rho, _face_angle(C2[0] - S2[0], C2[1] - S2[1], rho),
                    crossings)
    raise SearchExhausted("no straight development reaches the target")


def _shapes():
    spec = GeneratorSpec(kind="random")
    shapes = [normalize(generate(spec, seed=instance_stream(42, i)))
              for i in range(30)]
    shapes += [make_eps_thick(eps, seed=k)
               for k, eps in enumerate((0.003, 0.01, 0.03))]
    shapes += [make_normal_eps_thick(0.02), normalize(make_regular(1.0)),
               make_isosceles(5.0, 6.0, 7.0)]
    return shapes


def _sources(rng):
    """Face and edge sources: inside each face, within 1e-9 (in weight) of
    one of its edges and of one of its vertices, and along each edge,
    also within 1e-9 of an end."""
    out = []
    for f in range(4):
        for _ in range(3):
            w = [rng.uniform(0.05, 1.0) for _ in range(3)]
            out.append(face_point(f, tuple(c / sum(w) for c in w)))
        for tiny in (1e-9, 5e-10, 3e-12):
            k = rng.randrange(3)
            u = rng.uniform(0.1, 0.9)
            near_edge = (tiny, u, 1.0 - u - tiny)
            near_vertex = (1.0 - 2.0 * tiny, tiny, tiny)
            for w in (near_edge, near_vertex):
                out.append(face_point(f, w[k:] + w[:k]))
    for a, b in EDGES:
        for t in (rng.uniform(0.05, 0.95), 0.5, 1e-9, 1.0 - 1e-9):
            out.append(edge_point(a, b, t))
    return out


def _loop_star(T, x, cuts, sec):
    """The loops' star, to the bit, or the AmbiguousCut they raise."""
    try:
        return _star_bits(_polygon_star(T, x, cuts, sec))
    except AmbiguousCut as exc:
        return ("AmbiguousCut", str(exc))


def _handed_back(want):
    """Whether the written-out layout must leave this star to the loops:
    where they raise, or where the star's charts are rotations."""
    return want[0] == "AmbiguousCut" or want[-2] is False


def test_octagon_layout_matches_the_loops():
    # the written-out layout returns None exactly where the loops raise or
    # fit only a rotation, and star_unfold's build is then the loops';
    # every star it lays out itself is the loops' to the bit
    rng = random.Random(42)
    counts = {"stars": 0, "raised": 0, "juncs": 0, "points": 0}
    for T in _shapes():
        snap = DEDUP_TOL * T.diam
        for x in _sources(rng):
            x = x.canonical()
            cuts, sec = _star_cuts(T, x)
            assert len(cuts) == 4
            if len(x.support()) == 3:
                f = x.face
                assert (_bits(_opposite_cut(T, x, f, sec))
                        == _bits(_opposite_cut_by_helpers(T, x, f, sec)))
            want = _loop_star(T, x, cuts, sec)
            laid = _octagon_layout(cuts, sec[0], T.cone_angles, T.area,
                                   T.diam)
            assert (laid is None) is _handed_back(want)
            try:
                star = _unfold(T, x)
            except AmbiguousCut as exc:
                assert want == ("AmbiguousCut", str(exc))
                counts["raised"] += 1
                continue
            assert _star_bits(star) == want
            counts["stars"] += 1
            juncs = _circumcenters(star.images, T.diam)
            assert _bits(juncs) == _bits(_circumcenters_by_loop(star.images,
                                                                T.diam))
            counts["juncs"] += len(juncs)
            poly = star.poly
            # junctions, corners, and points just off the corners
            pts = [node[1] for node in juncs] + list(poly)
            pts += [(p[0] + dx, p[1] + dy) for p in poly
                    for dx, dy in ((snap, 0.0), (-2 * snap, snap),
                                   (0.0, -0.5 * snap))]
            for pt in pts:
                assert (_point_in_octagon(pt, poly, snap)
                        is _point_in_polygon(pt, poly, snap))
            counts["points"] += len(pts)
            for tol in (1e-9 * T.diam, 1e-3 * T.diam, 0.05 * T.diam):
                assert _octagon_simple(poly, tol) is _polygon_simple(poly, tol)
            for window in (0.0, 1e-3 * T.diam, 0.2 * T.diam):
                assert (_bits(_read_farthest(star, juncs, window))
                        == _bits(_read_farthest_by_loop(star, juncs, window)))
    assert counts["stars"] >= 1300 and counts["raised"] >= 700
    assert counts["juncs"] >= 3000 and counts["points"] >= 45000


def _read_farthest_by_loop(star, juncs, window):
    """_read_farthest with the loop's point-in-polygon test."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(intrinsic_mod, "_point_in_octagon", _point_in_polygon)
        return _read_farthest(star, juncs, window)


def _octagons(gap):
    """8-gons with two non-adjacent sides gap apart: a slit square, a
    square whose corner is pushed gap short of the far side, and a
    self-crossing star, each also turned and moved off the origin."""
    slit = ((0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0), (0.0, 1.0 + gap),
            (1.5, 1.0 + gap), (1.5, 1.0), (0.0, 1.0))
    dent = ((0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (2.0, 1.0), (1.0, gap),
            (2.0, 2.0), (0.0, 2.0), (0.0, 1.0))
    cross = tuple((math.cos(3 * math.pi * k / 8), math.sin(3 * math.pi * k / 8))
                  for k in range(8))
    c, s = math.cos(0.3), math.sin(0.3)
    out = []
    for poly in (slit, dent, cross):
        out.append(poly)
        out.append(tuple((5.0 + c * x - s * y, -3.0 + s * x + c * y)
                         for x, y in poly))
    return out


def _synthetic_star_input(rng):
    """A random 8-gon, and the cone angles, cuts and chart angle whose
    turtle walk retraces it: (cone, area, diam, cuts, omega, poly).

    Images a_k are random; corner w_k lies on the perpendicular bisector
    of a_k and a_k+1, so both sides at it have the cut's length.  The
    8-gon is moved so that a_0 is the origin and w_0 lies on the x axis,
    where the walk starts; the turns at the corners give the cone angles
    and those at the images the angles between cuts.  The 8-gon may cross
    itself, and a corner may lie nearer a foreign image than its own.
    """
    imgs = [(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
            for _ in range(4)]
    pts = []
    for k in range(4):
        (ax, ay), (bx, by) = imgs[k], imgs[(k + 1) % 4]
        off = rng.uniform(-1.5, 1.5)
        pts += [(ax, ay), (0.5 * (ax + bx) - off * (by - ay),
                           0.5 * (ay + by) + off * (bx - ax))]
    ox, oy = pts[0]
    turn = math.atan2(pts[1][1] - oy, pts[1][0] - ox)
    c, s = math.cos(-turn), math.sin(-turn)
    pts = [(c * (x - ox) - s * (y - oy), s * (x - ox) + c * (y - oy))
           for x, y in pts]

    def turn_at(i):
        (px, py), (qx, qy), (rx, ry) = pts[i - 1], pts[i], pts[(i + 1) % 8]
        ux, uy, vx, vy = qx - px, qy - py, rx - qx, ry - qy
        return math.atan2(ux * vy - uy * vx, ux * vx + uy * vy)

    labels = rng.sample(range(4), 4)
    cone = [0.0] * 4
    thetas = [rng.uniform(0.0, 1.0)]
    for k in range(4):
        cone[labels[k]] = math.pi - turn_at(2 * k + 1)
        if k < 3:
            thetas.append(thetas[-1] + math.pi - turn_at(2 * k + 2))
    # the angle at image 0 that closes the chart
    omega = thetas[3] - thetas[0] + math.pi - turn_at(0)
    cuts = [CutPath(thetas[k], labels[k],
                    math.dist(pts[2 * k], pts[2 * k + 1]), ())
            for k in range(4)]
    area = abs(sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1)
                   in zip(pts, pts[1:] + pts[:1]))) / 2.0
    diam = max(math.dist(p, q) for p in pts for q in pts)
    return cone, area, diam, cuts, omega, tuple(pts)


def test_octagon_layout_matches_the_loops_on_synthetic_8gons():
    # random 8-gons, also with the chart's total angle, the area or one
    # cut's length off, and with two cut directions colliding: every
    # check of the loops fails on some of them, and the written-out pass
    # agrees with the loops on each
    rng = random.Random(3)
    x = vertex_point(0)
    outcomes = {}
    for _ in range(3000):
        cone, area, diam, cuts, omega, poly = _synthetic_star_input(rng)
        for tol in (1e-9, 0.01, 0.1):
            assert _octagon_simple(poly, tol) is _polygon_simple(poly, tol)
        for _ in range(5):
            pt = (rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
            assert (_point_in_octagon(pt, poly, 0.01)
                    is _point_in_polygon(pt, poly, 0.01))
        k = rng.randrange(4)
        longer = list(cuts)
        longer[k] = cuts[k]._replace(length=cuts[k].length * (1.0 + 1e-6))
        collide = list(cuts)
        collide[k] = cuts[k]._replace(
            angle=cuts[k - 1].angle + 1e-10 if k else cuts[k].angle)
        variants = [(area, cuts, omega), (area, cuts, omega + 1e-3),
                    (area * (1.0 + 1e-5), cuts, omega),
                    (area, longer, omega), (area, collide, omega)]
        for a, cs, om in variants:
            T = SimpleNamespace(cone_angles=tuple(cone), area=a, diam=diam)
            want = _loop_star(T, x, cs, (om, ()))
            laid = _octagon_layout(cs, om, T.cone_angles, a, diam)
            if laid is None:
                assert _handed_back(want)
            else:
                assert want[-2] is True and _bits(laid) == want[4:9]
            key = want[1] if want[0] == "AmbiguousCut" else "star"
            outcomes[key] = outcomes.get(key, 0) + 1
    assert len(outcomes) == 7 and min(outcomes.values()) >= 100, outcomes


@pytest.mark.parametrize("k", [0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
def test_octagon_simple_near_touching_sides(k):
    # sides 0.5 to 3 tol apart, around both the box test's and the line
    # test's margins
    tol = 2e-9
    for poly in _octagons(k * tol):
        assert _octagon_simple(poly, tol) is _polygon_simple(poly, tol)
        rng = random.Random(7)
        for _ in range(50):
            pt = (rng.uniform(-1.0, 7.0), rng.uniform(-4.0, 3.0))
            assert (_point_in_octagon(pt, poly, tol)
                    is _point_in_polygon(pt, poly, tol))


def test_unfold_picks_the_layout_by_cut_count(monkeypatch):
    # a vertex source's three cuts take the loops, any other source's four
    # the written-out layout
    T = normalize(make_regular(1.0))
    used = []
    for name in ("_octagon_layout", "_polygon_star"):
        fn = getattr(intrinsic_mod, name)
        monkeypatch.setattr(intrinsic_mod, name,
                            lambda *a, fn=fn, name=name: used.append(name)
                            or fn(*a))
    _unfold(T, vertex_point(0))
    _unfold(T, edge_point(0, 1, 0.3))
    _unfold(T, face_point(1, (0.2, 0.3, 0.5)))
    assert used == ["_polygon_star", "_octagon_layout", "_octagon_layout"]


def _source(kind, k, t, weights):
    if kind == "vertex":
        return vertex_point(k % 4)
    if kind == "edge":
        return edge_point(*EDGES[k % 6], t)
    return face_point(k % 4, tuple(w / sum(weights) for w in weights))


@given(thin=st.sampled_from(["eps", "normal"]),
       eps=st.floats(1e-3, 0.03),
       seed=st.integers(0, 10_000),
       kind=st.sampled_from(["vertex", "edge", "face"]),
       k=st.integers(0, 5),
       t=st.floats(1e-9, 1.0 - 1e-9),
       weights=st.tuples(*[st.floats(1e-9, 1.0)] * 3))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_thin_star_fuzz(thin, eps, seed, kind, k, t, weights):
    # on eps-thick shapes down to eps = 1e-3 and on normal eps-thick ones,
    # a star from any source passes its own checks again, or raises
    # AmbiguousCut
    if thin == "eps":
        T = make_eps_thick(eps, seed=seed, cfg=_THIN_CFG)
    else:
        T = make_normal_eps_thick(eps, cfg=_THIN_CFG)
    x = _source(kind, k, t, weights)
    try:
        star = star_unfold(T, x)
    except AmbiguousCut:
        return
    assert abs(star.area() - T.area) <= 1e-6 * T.area
    assert _polygon_simple(star.poly, 1e-9 * T.diam)
    for near, cut in zip(star.near, star.cuts):
        assert near >= (1.0 - 1e-7) * cut.length
