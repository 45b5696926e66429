"""The written-out star layouts and closed-form cuts against the loops and
the chart scan they replace.

A face-interior or edge source has four cuts, so its star polygon is an
8-gon; a vertex source has three, a 6-gon.  star_unfold lays either out
written out (_octagon_layout, _hexagon_layout), with the 8-gon's junction
candidates (_circumcenters), simplicity check (_octagon_simple) and
opposite cut (_opposite_cut) and the 6-gon's simplicity check
(_hexagon_simple) written out as well, keeps the junction candidates on
the star (StarUnfolding.junctions), and reads an edge or vertex source's
cuts off its chart by index (_star_cuts).  Each must give the floats of
the loops (_polygon_star, kept here as the reference) and of the chart
scan (_chart_by_scan and _cuts_by_scan: the vertex fan walked,
bary_on_face, and chart_angle's sector scan) to the bit, and raise the
loops' AmbiguousCut where they raise; these tests compare them on random,
thin, regular and isosceles shapes, also within 1e-9 of an edge or a
vertex, and on random 6-gons and 8-gons.  The point test and the side
test a star's readers run (_point_in_star, _star_sides_within) are one
loop each for both shapes, held to the loops of tests/polygon_loops.py.
"""

import itertools
import math
import random
from operator import itemgetter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from tetrametric import (EDGES, FACES, GeneratorSpec, StarUnfolding,
                         ToleranceConfig, compute_report, edge_point,
                         face_point, generate, instance_stream, make_eps_thick,
                         make_isosceles, make_normal_eps_thick, make_regular,
                         normalize, star_unfold, vertex_point)
from tetrametric import intrinsic as intrinsic_mod
from tetrametric.errors import AmbiguousCut, SearchExhausted
from tetrametric.geometry import (DEDUP_TOL, _circumcenter2, _orient,
                                  _signed_angle, apex_vertex,
                                  faces_containing, neighbor_face)
from tetrametric.intrinsic import (CutPath, _cap, _face_angle,
                                   _opposite_cut, _read_farthest, _shoelace,
                                   _star_cuts, _unfold, _unit2, chart_sectors)
from tetrametric.planar import (_circumcenters, _hexagon_layout,
                                _hexagon_simple, _octagon_layout,
                                _octagon_simple, _point_in_star,
                                _star_sides_within)

from chain_reference import _chain_crossings
from fuzzing import ENGINE_FUZZ
from polygon_loops import _point_in_polygon, _polygon_simple, _side_within

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
    """_opposite_cut through the reference search's helpers: _orient for
    the cone test, math.dist for the length, _chain_crossings for the
    crossing."""
    S2 = sec[1][0][3]
    cap = _cap(T.diam)
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


def _wrap(a, period):
    a = math.fmod(a, period)
    return a + period if a < 0.0 else a


def _angle_gap(a, b):
    """Smallest absolute difference between two angles mod 2*pi."""
    d = _wrap(a - b, 2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)


def _polygon_star(T, x, cuts, sec):
    """The star of x from its sorted cuts and chart, or AmbiguousCut: the
    loops over the cuts that the written-out layouts replace, for any
    number of them.

    The boundary is laid out by turtle walk (_octagon_layout).  Image k is
    flanked by cuts k - 1 and k; its chart constant is fixed on cut k and
    cross-checked on cut k - 1 for a reflection, to 1e-6.  The checks run
    in the order: cut directions apart, closure, flank consistency, area,
    simplicity, foreign image.  The junction candidates are every triple's
    (_circumcenters_by_loop).
    """
    scale = T.diam
    omega = sec[0]
    thetas = [cut[0] for cut in cuts]
    sigmas = [b - a for a, b in zip(thetas, thetas[1:])]
    sigmas.append(omega - thetas[-1] + thetas[0])
    for gap in sigmas:
        if gap < 1e-9:
            raise AmbiguousCut("cut directions collide at the source")

    cone = T.cone_angles
    px = py = heading = 0.0
    pts = []
    for (_, v, L, _), sigma in zip(cuts, sigmas):
        pts.append((px, py))
        px, py = px + L * math.cos(heading), py + L * math.sin(heading)
        heading += math.pi - cone[v]
        pts.append((px, py))
        px, py = px + L * math.cos(heading), py + L * math.sin(heading)
        heading += math.pi - sigma
    if math.hypot(px, py) > 1e-7 * scale:
        raise AmbiguousCut("star polygon failed to close")
    images = tuple(pts[0::2])
    corners = tuple(pts[1::2])

    m = len(images)
    dirs = []
    for k in range(m):
        a, w, wp = images[k], corners[k], corners[(k - 1) % m]
        dirs.append((thetas[k], math.atan2(w[1] - a[1], w[0] - a[0]),
                     math.atan2(wp[1] - a[1], wp[0] - a[0]),
                     thetas[k] - sigmas[(k - 1) % m]))
    rots = []
    for theta, phi, phip, th_prev in dirs:
        c = theta + phi
        if _angle_gap(phip, c - th_prev) >= 1e-6:
            raise AmbiguousCut("star polygon failed to close consistently")
        rots.append(_wrap(c, 2.0 * math.pi))
    poly = tuple(pts)

    if abs(abs(_shoelace(poly)) - T.area) > 1e-6 * T.area:
        raise AmbiguousCut("star polygon area drifted from the surface area")
    if not _polygon_simple(poly, 1e-9 * scale):
        raise AmbiguousCut("star polygon is not simple")
    near = tuple([min([math.dist(w, a) for a in images]) for w in corners])
    for d, cut in zip(near, cuts):
        if d < cut[2] * (1.0 - 1e-7):
            raise AmbiguousCut("vertex image closer to a foreign source image")
    return StarUnfolding(T, x, omega, tuple(cuts), images, corners, near,
                         poly, tuple(rots),
                         _circumcenters_by_loop(images, scale))


def _loop_star(T, x, cuts, sec):
    """The loops' star, to the bit, or the AmbiguousCut they raise."""
    try:
        return _star_bits(_polygon_star(T, x, cuts, sec))
    except AmbiguousCut as exc:
        return ("AmbiguousCut", str(exc))


def _check_point_tests(pts, poly, tol):
    """_point_in_star and _star_sides_within decide each of pts in poly as
    the loops do."""
    sides = list(zip(poly, poly[1:] + poly[:1]))
    for pt in pts:
        assert (_point_in_star(pt, poly, tol)
                is _point_in_polygon(pt, poly, tol))
        assert (_star_sides_within(pt, poly, tol)
                is any(_side_within(pt, a, b, tol) for a, b in sides))


def _star_points(star, snap):
    """A star's junction candidates, its corners, and points just off the
    corners."""
    poly = star.poly
    return [node[1] for node in star.junctions] + list(poly) + [
        (p[0] + dx, p[1] + dy) for p in poly
        for dx, dy in ((snap, 0.0), (-2 * snap, snap), (0.0, -0.5 * snap))]


def _laid_out(layout, cuts, omega, T):
    """layout's (images, corners, near, poly, rotations) to the bit, or the
    AmbiguousCut it raises."""
    try:
        return _bits(layout(cuts, omega, T.cone_angles, T.area, T.diam))
    except AmbiguousCut as exc:
        return ("AmbiguousCut", str(exc))


def _layout_part(want):
    """The part of the loops' outcome a layout returns."""
    return want if want[0] == "AmbiguousCut" else want[4:9]


def test_octagon_layout_matches_the_loops():
    # the written-out layout raises the loops' message exactly where they
    # raise, and star_unfold's build is the loops' star to the bit
    # everywhere else
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
            assert (_laid_out(_octagon_layout, cuts, sec[0], T)
                    == _layout_part(want))
            try:
                star = _unfold(T, x)
            except AmbiguousCut as exc:
                assert want == ("AmbiguousCut", str(exc))
                counts["raised"] += 1
                continue
            # the junction candidates too: every triple's, to the bit
            assert _star_bits(star) == want
            counts["stars"] += 1
            assert star.junctions == _circumcenters(star.images, T.diam)
            counts["juncs"] += len(star.junctions)
            poly = star.poly
            pts = _star_points(star, snap)
            _check_point_tests(pts, poly, snap)
            counts["points"] += len(pts)
            for tol in (1e-9 * T.diam, 1e-3 * T.diam, 0.05 * T.diam):
                assert _octagon_simple(poly, tol) is _polygon_simple(poly, tol)
            for window in (0.0, 1e-3 * T.diam, 0.2 * T.diam):
                assert (_bits(_read_farthest(star, window))
                        == _bits(_read_farthest_by_loop(star, window)))
    assert counts["stars"] >= 1300 and counts["raised"] >= 700
    assert counts["juncs"] >= 3000 and counts["points"] >= 45000


_SWEEP_CFG = ToleranceConfig(quality_floor=1e-12)


def test_hexagon_layout_matches_the_loops():
    # every vertex source of the same shapes, and of eps-thick shapes at
    # eps 1e-4 below the default quality floor, where some vertex stars
    # are not simple: the written-out 6-gon raises the loops' message
    # where they raise and is their star to the bit elsewhere
    shapes = _shapes() + [make_eps_thick(1e-4, seed=s, cfg=_SWEEP_CFG)
                          for s in range(40)]
    outcomes = {}
    for T in shapes:
        for v in range(4):
            x = vertex_point(v)
            cuts, sec = _star_cuts(T, x)
            assert len(cuts) == 3
            want = _loop_star(T, x, cuts, sec)
            assert (_laid_out(_hexagon_layout, cuts, sec[0], T)
                    == _layout_part(want))
            try:
                star = _unfold(T, x)
            except AmbiguousCut as exc:
                assert want == ("AmbiguousCut", str(exc))
            else:
                assert _star_bits(star) == want
                assert star.junctions == _circumcenters(star.images, T.diam)
                for tol in (1e-9 * T.diam, 1e-3 * T.diam, 0.05 * T.diam):
                    assert (_hexagon_simple(star.poly, tol)
                            is _polygon_simple(star.poly, tol))
                _check_point_tests(_star_points(star, DEDUP_TOL * T.diam),
                                   star.poly, DEDUP_TOL * T.diam)
                for window in (0.0, 1e-3 * T.diam, 0.2 * T.diam):
                    assert (_bits(_read_farthest(star, window))
                            == _bits(_read_farthest_by_loop(star, window)))
            key = want[1] if want[0] == "AmbiguousCut" else "star"
            outcomes[key] = outcomes.get(key, 0) + 1
    assert outcomes == {"star": 300, "star polygon is not simple": 4}


def test_thin_vertex_star_that_is_not_simple():
    # one of the Diam vertex stars that fail at eps 1e-4 below the default
    # floor: the 6-gon raises the loops' simplicity message, not another
    T = make_eps_thick(1e-4, seed=9, cfg=_SWEEP_CFG)
    x = vertex_point(3)
    with pytest.raises(AmbiguousCut, match="^star polygon is not simple$"):
        star_unfold(T, x)
    assert _loop_star(T, x, *_star_cuts(T, x)) == (
        "AmbiguousCut", "star polygon is not simple")
    with pytest.raises(AmbiguousCut, match="^star polygon is not simple$"):
        compute_report(T, _SWEEP_CFG)


def _chart_by_scan(T, x):
    """chart_sectors at an edge or vertex point as it was computed from
    the vertex fan walk, bary_on_face and index lookups."""
    supp = x.support()
    if len(supp) == 2:
        a, b = supp
        f, g = faces_containing(supp)
        sectors = []
        for face, th0 in ((f, 0.0), (g, math.pi)):
            fv = FACES[face]
            corners = T.face_frames[face]
            base = T.frame2(face, T.bary_on_face(x, face))
            A2 = corners[fv.index(a)]
            B2 = corners[fv.index(b)]
            C2 = corners[fv.index(apex_vertex(face, a, b))]
            ref = _unit2((B2[0] - A2[0], B2[1] - A2[1]))
            if th0 > 0.0:
                ref = (-ref[0], -ref[1])
            cr = ref[0] * (C2[1] - base[1]) - ref[1] * (C2[0] - base[0])
            sign = 1.0 if cr > 0.0 else -1.0
            sectors.append((face, th0, th0 + math.pi, base, ref, sign))
        return 2.0 * math.pi, tuple(sectors)
    v = supp[0]
    face = 0 if v != 0 else 1
    entry = sorted(w for w in FACES[face] if w != v)[0]
    sectors = []
    th = 0.0
    for _ in range(3):
        exit_v = apex_vertex(face, v, entry)
        fv = FACES[face]
        corners = T.face_frames[face]
        base = corners[fv.index(v)]
        E2 = corners[fv.index(entry)]
        X2 = corners[fv.index(exit_v)]
        ref = _unit2((E2[0] - base[0], E2[1] - base[1]))
        out = (X2[0] - base[0], X2[1] - base[1])
        sign = 1.0 if ref[0] * out[1] - ref[1] * out[0] > 0.0 else -1.0
        alpha = T.corner_angles[(face, v)]
        sectors.append((face, th, th + alpha, base, ref, sign))
        th += alpha
        face, entry = neighbor_face(face, v, exit_v), exit_v
    return th, tuple(sectors)


def _cuts_by_scan(T, x):
    """The sorted cuts from an edge or vertex point as they were read: each
    developed in the first face holding x and not its target, from x's
    image there (frame2 of bary_on_face), its angle found by a scan of
    the chart's sectors (chart_angle's loop)."""
    supp = x.support()
    omega, secs = sec = _chart_by_scan(T, x)
    bases = [(f, T.frame2(f, T.bary_on_face(x, f)))
             for f in range(4) if f not in supp]
    cuts = []
    for v in range(4):
        if supp == (v,):
            continue
        f, p2 = next(fb for fb in bases if fb[0] != v)
        q2 = T.face_frames[f][FACES[f].index(v)]
        d2 = (q2[0] - p2[0], q2[1] - p2[1])
        for face, th0, th1, _, ref, sign in secs:
            if face == f:
                sa = sign * _signed_angle(ref, _unit2(d2))
                if sa < -1e-9:
                    sa += 2.0 * math.pi
                sa = min(max(sa, 0.0), th1 - th0)
                theta = (th0 + sa) % omega
                break
        cuts.append(CutPath(theta, v, math.hypot(d2[0], d2[1]), ()))
    return tuple(sorted(cuts)), sec


def test_closed_form_cuts_match_the_chart_scan():
    # every vertex, and the midpoint, points 1e-9 and 1e-6 from each end
    # and a random point of every edge, on random, isosceles, regular,
    # eps-thick and normal eps-thick shapes: the cuts and chart read by
    # index are the scan's to the bit, and so is chart_sectors
    rng = random.Random(8)
    spec = GeneratorSpec(kind="random")
    shapes = [normalize(generate(spec, seed=instance_stream(5, i)))
              for i in range(25)]
    shapes += [make_isosceles(5.0, 6.0, 7.0), make_isosceles(3.0, 3.5, 4.0),
               normalize(make_regular(1.0)), make_regular(2.0)]
    shapes += [make_eps_thick(eps, seed=k) for k, eps in
               enumerate((0.003, 0.01, 0.03, 0.003, 0.01))]
    shapes += [make_eps_thick(1e-4, seed=s, cfg=_SWEEP_CFG) for s in range(5)]
    shapes += [make_normal_eps_thick(eps) for eps in (0.01, 0.02, 0.03)]
    shapes.append(make_normal_eps_thick(1e-4, cfg=_SWEEP_CFG))
    count = 0
    for T in shapes:
        sources = [vertex_point(v) for v in range(4)]
        for a, b in EDGES:
            for t in (0.5, 1e-9, 1.0 - 1e-9, 1e-6, 1.0 - 1e-6,
                      rng.uniform(0.01, 0.99)):
                sources.append(edge_point(a, b, t))
        for x in sources:
            want = _bits(_cuts_by_scan(T, x))
            assert _bits(_star_cuts(T, x)) == want
            assert _bits(chart_sectors(T, x)) == want[1]
            count += 1
    assert count == len(shapes) * 40


def test_only_the_opposite_cut_crosses_an_edge():
    # the SVG's edge images are read off the star on this (svg._edge_pieces,
    # intrinsic._crossing_copies): of every cut of every star, only a face
    # source's opposite cut crosses an edge, and it crosses one, once, away
    # from its ends
    rng = random.Random(35)
    shapes = _shapes()
    count = 0
    for T in shapes:
        for x in [vertex_point(v) for v in range(4)] + _sources(rng):
            for cut in _star_cuts(T, x)[0]:
                if len(x.support()) == 3 and cut.vertex == x.face:
                    ((a, b), t), = cut.crossings
                    assert (a, b) in EDGES and x.face not in (a, b)
                    assert 0.0 < t < 1.0
                    count += 1
                else:
                    assert cut.crossings == ()
    # 9 sources in each face of each shape
    assert count == 36 * len(shapes)


def test_charts_are_reflections():
    # seen through image k, both corners flanking it lie along their cuts
    # in the source's chart, at the cuts' lengths (through image 0, cut
    # m - 1 lies a full turn omega back), to the flank check's 1e-6:
    # transform_to_source reads every star's charts as reflections
    rng = random.Random(12)
    shapes = _shapes()[::5] + [make_eps_thick(1e-4, seed=1, cfg=_SWEEP_CFG)]
    count = 0
    for T in shapes:
        sources = [vertex_point(v) for v in range(4)] + _sources(rng)[::4]
        for x in sources:
            try:
                star = star_unfold(T, x)
            except AmbiguousCut:
                continue
            m = len(star.cuts)
            for k in range(m):
                back = star.cuts[k - 1].angle - (star.omega if k == 0 else 0.0)
                for cut, w, angle in (
                        (star.cuts[k], star.corners[k], star.cuts[k].angle),
                        (star.cuts[k - 1], star.corners[k - 1], back)):
                    px, py = star.transform_to_source(k, w)
                    assert math.hypot(px - cut.length * math.cos(angle),
                                      py - cut.length * math.sin(angle)
                                      ) <= 1e-6 * T.diam
                    count += 1
    assert count >= 1000


def test_thin_report_runs_no_chart_scan_and_no_loops(monkeypatch):
    # a report on a thin shape builds four vertex stars and an edge star
    # with no chart scan and no layout loops: every star goes through a
    # written-out layout, and no module holds the loops, or chart_angle's
    # scan (tests/ray_reference.py keeps it for the ray walk)
    calls = {}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args)
        return wrapper

    import tetrametric
    modules = [m for m in vars(tetrametric).values()
               if type(m) is type(tetrametric)
               and m.__name__.startswith("tetrametric.")]
    for mod in modules + [tetrametric]:
        assert not hasattr(mod, "_polygon_star")
        assert not hasattr(mod, "chart_angle")
    for name in ("_hexagon_layout", "_octagon_layout"):
        monkeypatch.setattr(intrinsic_mod, name,
                            counted(name, getattr(intrinsic_mod, name)))
    T = make_normal_eps_thick(0.01)
    compute_report(T)
    assert calls["_hexagon_layout"] == 4 and calls["_octagon_layout"] >= 1


def _read_farthest_by_loop(star, window):
    """_read_farthest with the loop's point-in-polygon test."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(intrinsic_mod, "_point_in_star", _point_in_polygon)
        return _read_farthest(star, window)


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


def _synthetic_star_input(rng, m=4):
    """A random 2m-gon, and the cone angles, cuts and chart angle whose
    turtle walk retraces it: (cone, area, diam, cuts, omega, poly).

    Images a_k are random; corner w_k lies on the perpendicular bisector
    of a_k and a_k+1, so both sides at it have the cut's length.  The
    polygon is moved so that a_0 is the origin and w_0 lies on the x
    axis, where the walk starts; the turns at the corners give the cone
    angles and those at the images the angles between cuts.  The polygon
    may cross itself, and a corner may lie nearer a foreign image than
    its own.
    """
    imgs = [(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
            for _ in range(m)]
    pts = []
    for k in range(m):
        (ax, ay), (bx, by) = imgs[k], imgs[(k + 1) % m]
        off = rng.uniform(-1.5, 1.5)
        pts += [(ax, ay), (0.5 * (ax + bx) - off * (by - ay),
                           0.5 * (ay + by) + off * (bx - ax))]
    ox, oy = pts[0]
    turn = math.atan2(pts[1][1] - oy, pts[1][0] - ox)
    c, s = math.cos(-turn), math.sin(-turn)
    pts = [(c * (x - ox) - s * (y - oy), s * (x - ox) + c * (y - oy))
           for x, y in pts]
    return _star_input(pts, rng.sample(range(4), m), rng.uniform(0.0, 1.0))


def _star_input(pts, labels, theta0, sigma0=None):
    """(cone, area, diam, cuts, omega, poly) for a walk that retraces the
    2m-gon pts from image pts[0] at the origin toward corner pts[1] on the
    x axis: the turn at corner k gives the cone angle at vertex labels[k]
    and the turn at image k + 1 the angle sigma_k between cuts k and
    k + 1, from theta0 on; the angle the chart closes with, at image 0,
    is the polygon's there unless sigma0 is given."""
    n = len(pts)
    m = n // 2

    def turn_at(i):
        (px, py), (qx, qy), (rx, ry) = pts[i - 1], pts[i], pts[(i + 1) % n]
        ux, uy, vx, vy = qx - px, qy - py, rx - qx, ry - qy
        return math.atan2(ux * vy - uy * vx, ux * vx + uy * vy)

    cone = [0.0] * 4
    thetas = [theta0]
    for k in range(m):
        cone[labels[k]] = math.pi - turn_at(2 * k + 1)
        if k < m - 1:
            thetas.append(thetas[-1] + math.pi - turn_at(2 * k + 2))
    if sigma0 is None:
        sigma0 = math.pi - turn_at(0)
    omega = thetas[m - 1] - thetas[0] + sigma0
    cuts = [CutPath(thetas[k], labels[k],
                    math.dist(pts[2 * k], pts[2 * k + 1]), ())
            for k in range(m)]
    area = abs(sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1)
                   in zip(pts, pts[1:] + pts[:1]))) / 2.0
    diam = max(math.dist(p, q) for p in pts for q in pts)
    return cone, area, diam, cuts, omega, tuple(pts)


def _synthetic_outcomes(m, layout, rng):
    """Random 2m-gons, also with the chart's total angle, the area or one
    cut's length off, and with two cut directions colliding, laid out by
    the loops and by the written-out layout, which must agree on each;
    returns how often each outcome of the loops came up."""
    x = vertex_point(0)
    outcomes = {}
    for _ in range(3000):
        cone, area, diam, cuts, omega, poly = _synthetic_star_input(rng, m)
        simple = _octagon_simple if m == 4 else _hexagon_simple
        for tol in (1e-9, 0.01, 0.1):
            assert simple(poly, tol) is _polygon_simple(poly, tol)
        _check_point_tests([(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
                            for _ in range(5)], poly, 0.01)
        k = rng.randrange(m)
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
            loops = _loop_star(T, x, cs, (om, ()))
            assert _laid_out(layout, cs, om, T) == _layout_part(loops)
            key = loops[1] if loops[0] == "AmbiguousCut" else "star"
            outcomes[key] = outcomes.get(key, 0) + 1
    return outcomes


@pytest.mark.parametrize("m, layout", [(4, _octagon_layout),
                                       (3, _hexagon_layout)])
def test_a_star_that_fits_only_a_rotation_raises(m, layout):
    # every image but image 0 is a straight point of the polygon
    # (sigma = pi), where a rotation fits as well as the reflection, and
    # the chart closes at image 0 with 2 pi less the polygon's angle
    # there, which only a rotation fits.  The star passes the area and
    # simplicity checks, but the layout and the loops lay out reflections
    # only, so both raise the flank check's message.  No tetrahedron gives
    # such a star (_octagon_layout); these cone angles sum to 2 pi, not
    # 4 pi
    if m == 4:
        pts = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (1.0, 2.0), (0.0, 2.0),
               (-2.0, 2.0), (-0.4, 0.8), (0.0, 0.5)]
        sigma0 = 1.5 * math.pi
    else:
        pts = [(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (2.0, 3.0), (1.0, 3.0),
               (-4.0, 3.0)]
        sigma0 = math.pi + math.atan2(3.0, 4.0)
    cone, area, diam, cuts, omega, poly = _star_input(pts, [2, 0, 3, 1][:m],
                                                      0.25, sigma0)
    # a rotation fits at every image: the direction of corner k - 1 from
    # image k is that of corner k turned clockwise by sigma_{k-1}
    thetas = [cut.angle for cut in cuts]
    sigmas = [b - a for a, b in zip(thetas, thetas[1:])]
    sigmas.append(omega - thetas[-1] + thetas[0])
    for k in range(m):
        (ax, ay), (wx, wy), (px, py) = poly[2 * k], poly[2 * k + 1], \
            poly[2 * k - 1]
        assert _angle_gap(math.atan2(py - ay, px - ax),
                          math.atan2(wy - ay, wx - ax) - sigmas[k - 1]) < 1e-6
    assert abs(abs(_shoelace(poly)) - area) <= 1e-6 * area
    assert _polygon_simple(poly, 1e-9 * diam)
    T = SimpleNamespace(cone_angles=tuple(cone), area=area, diam=diam)
    flank = ("AmbiguousCut", "star polygon failed to close consistently")
    assert _loop_star(T, vertex_point(0), cuts, (omega, ())) == flank
    assert _laid_out(layout, cuts, omega, T) == flank


def test_octagon_layout_matches_the_loops_on_synthetic_8gons():
    # every check of the loops fails on some of the 8-gons, and the
    # written-out pass raises the loops' message on each of them
    outcomes = _synthetic_outcomes(4, _octagon_layout, random.Random(3))
    assert len(outcomes) == 7 and min(outcomes.values()) >= 100, outcomes


def test_hexagon_layout_matches_the_loops_on_synthetic_6gons():
    # the same for the 6-gon of three cuts
    outcomes = _synthetic_outcomes(3, _hexagon_layout, random.Random(4))
    assert len(outcomes) == 7 and min(outcomes.values()) >= 100, outcomes


@pytest.mark.parametrize("k", [0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
def test_octagon_simple_near_touching_sides(k):
    # sides 0.5 to 3 tol apart, around both the box test's and the line
    # test's margins
    tol = 2e-9
    for poly in _octagons(k * tol):
        assert _octagon_simple(poly, tol) is _polygon_simple(poly, tol)
        rng = random.Random(7)
        _check_point_tests([(rng.uniform(-1.0, 7.0), rng.uniform(-4.0, 3.0))
                            for _ in range(50)], poly, tol)


def _hexagons(gap):
    """6-gons with two non-adjacent sides gap apart: a square with a notch
    whose tip comes gap short of the far side, a slit triangle, and a
    self-crossing star, each also turned and moved off the origin."""
    notch = ((0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (1.0, gap), (0.0, 2.0),
             (0.0, 1.0))
    slit = ((0.0, 0.0), (3.0, 0.0), (3.0, gap), (1.0, gap), (1.0, 2.0 * gap),
            (0.0, 3.0))
    cross = tuple((math.cos(5 * math.pi * k / 6), math.sin(5 * math.pi * k / 6))
                  for k in range(6))
    c, s = math.cos(0.3), math.sin(0.3)
    out = []
    for poly in (notch, slit, cross):
        out.append(poly)
        out.append(tuple((5.0 + c * x - s * y, -3.0 + s * x + c * y)
                         for x, y in poly))
    return out


@pytest.mark.parametrize("k", [0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
def test_hexagon_simple_near_touching_sides(k):
    # as for the 8-gon, sides 0.5 to 3 tol apart
    tol = 2e-9
    for poly in _hexagons(k * tol):
        assert _hexagon_simple(poly, tol) is _polygon_simple(poly, tol)
        rng = random.Random(7)
        _check_point_tests([(rng.uniform(-1.0, 7.0), rng.uniform(-4.0, 3.0))
                            for _ in range(50)], poly, tol)


def test_unfold_picks_the_layout_by_cut_count(monkeypatch):
    # a vertex source's three cuts take the written-out 6-gon, any other
    # source's four the written-out 8-gon
    T = normalize(make_regular(1.0))
    used = []
    for name in ("_octagon_layout", "_hexagon_layout"):
        fn = getattr(intrinsic_mod, name)
        monkeypatch.setattr(intrinsic_mod, name,
                            lambda *a, fn=fn, name=name: used.append(name)
                            or fn(*a))
    _unfold(T, vertex_point(0))
    _unfold(T, edge_point(0, 1, 0.3))
    _unfold(T, face_point(1, (0.2, 0.3, 0.5)))
    assert used == ["_hexagon_layout", "_octagon_layout", "_octagon_layout"]


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
@settings(ENGINE_FUZZ, max_examples=300)
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
