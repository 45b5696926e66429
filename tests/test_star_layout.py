"""Star layouts from their cells and closed-form cuts against the loops
and the chart scan they replace.

A face-interior or edge source has four cuts, so its star polygon is an
8-gon; a vertex source has three, a 6-gon.  star_unfold places either on
the source's cell (Tetrahedron.star_cells, planar._layout) and reads an
edge or vertex source's cuts off its chart by index (_star_cuts); the
8-gon's junction candidates (_circumcenters) and opposite cut
(_opposite_cut) are written out.  The turtle walk that laid stars out
before, from the cuts' angles and lengths, is kept here as the reference
(_polygon_star, with its checks): each cell's star must be the walk's, in
the walk's frame, to rounding, and give its F, and must build where the
walk's checks fail near a vertex.  The junction candidates and the chart
must be the loops' and the chart scan's (_chart_by_scan and
_cuts_by_scan: the vertex fan walked, bary_on_face, and chart_angle's
sector scan) to the bit.  The point test and the side test a star's
readers run (_point_in_star, _star_sides_within) are one loop each for
both shapes, held to the loops of tests/polygon_loops.py.
"""

import itertools
import math
import random
from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

from tetrametric import (EDGES, FACES, GeneratorSpec, StarUnfolding,
                         Tetrahedron, ToleranceConfig, compute_report,
                         edge_point, face_point, generate, instance_stream,
                         intrinsic_diameter, make_eps_thick, make_isosceles,
                         make_normal_eps_thick, make_regular, normalize,
                         star_unfold, vertex_point)
from tetrametric import intrinsic as intrinsic_mod
from tetrametric.errors import AmbiguousCut, SearchExhausted
from tetrametric.geometry import (DEDUP_TOL, _circumcenter2, _orient,
                                  _signed_angle, apex_vertex, dist3,
                                  faces_containing, neighbor_face)
from tetrametric.intrinsic import (CutPath, _cap, _cell_key, _face_angle,
                                   _opposite_cut, _read_farthest, _shoelace,
                                   _star_cuts, _unfold, _unit2, chart_sectors)
from tetrametric.planar import (_circumcenters, _layout, _point_in_star,
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
    turtle walk that the cells replace, for any number of cuts.

    From image 0 at the origin, the walk runs the length of cut k to
    corner k, turns by pi less the cone angle there, runs the cut's length
    again to image k + 1 and turns by pi less the angle between cuts k and
    k + 1, so corner 0 lies on the positive x axis.  Image k is flanked by
    cuts k - 1 and k; its chart constant is fixed on cut k and
    cross-checked on cut k - 1 for a reflection, to 1e-6.  The checks run
    in the order: cut directions apart, closure, flank consistency, area,
    simplicity at 1e-9 * diam, foreign image (against every image).  The
    junction candidates are every triple's (_circumcenters_by_loop).
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
                         _circumcenters_by_loop(images, scale), None)


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


def _agrees_with_the_loops(T, star, want, apart=1e-12, tol=1e-13):
    """star, laid out on its cell, is the loops' star want to rounding:
    the same cuts and chart, both polygons counterclockwise, with each
    distance between two of their points the same within apart * diam,
    so one is the other moved rigidly; near and F within tol * diam; and
    its junction candidates are its own images' by the loop, to the bit."""
    assert star.cuts == want.cuts and star.omega == want.omega
    assert _shoelace(star.poly) > 0.0 and _shoelace(want.poly) > 0.0
    for (p, q), (r, s) in zip(itertools.combinations(star.poly, 2),
                              itertools.combinations(want.poly, 2)):
        assert abs(math.dist(p, q) - math.dist(r, s)) <= apart * T.diam
    for a, b in zip(star.near, want.near):
        assert abs(a - b) <= tol * T.diam
    assert (abs(_read_farthest(star, 0.0)[0] - _read_farthest(want, 0.0)[0])
            <= tol * T.diam)
    assert (_bits(star.junctions)
            == _bits(_circumcenters_by_loop(star.images, T.diam)))


_FACE_CELLS = {(f,) + e for f in range(4) for e in EDGES if f not in e}


def test_octagon_layout_matches_the_loops():
    # every edge and face source of the shapes, also within 1e-9 of an
    # edge or a vertex: the star laid out on its cell is the turtle walk's
    # to rounding at every source whose weights are all above 1e-6 (where
    # the walk's own rounding stays far below its checks' tolerances), and
    # builds, with no two sides that cross or touch, at all but three
    # face points 3e-12 (in weight) from a vertex.  There the cut to the
    # opposite vertex crosses its edge inside the edge's [TRIM, 1 - TRIM]
    # window, although a shorter path crosses another edge next to the
    # vertex (_opposite_cut), so an image lies nearer that vertex's corner
    # than the cut is long, and both the walk and the cell raise.  Every
    # edge cell and every face cell is laid out
    rng = random.Random(42)
    counts = {"matched": 0, "stars": 0, "raised": 0, "juncs": 0,
              "points": 0}
    cells = set()
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
            least = min([w for w in x.bary if w > 0.0])
            try:
                star = _unfold(T, x)
            except AmbiguousCut as exc:
                assert str(exc) == ("vertex image closer to a foreign "
                                    "source image")
                assert least < 1e-11
                assert _loop_star(T, x, cuts, sec)[0] == "AmbiguousCut"
                counts["raised"] += 1
                continue
            cells.add(_cell_key(x, cuts))
            assert _polygon_simple(star.poly, 0.0)
            counts["stars"] += 1
            if least > 1e-6:
                _agrees_with_the_loops(T, star, _polygon_star(T, x, cuts,
                                                              sec))
                counts["matched"] += 1
            counts["juncs"] += len(star.junctions)
            pts = _star_points(star, snap)
            _check_point_tests(pts, star.poly, snap)
            counts["points"] += len(pts)
            for window in (0.0, 1e-3 * T.diam, 0.2 * T.diam):
                assert (_bits(_read_farthest(star, window))
                        == _bits(_read_farthest_by_loop(star, window)))
    assert cells == set(EDGES) | _FACE_CELLS
    assert counts["matched"] >= 800 and counts["stars"] >= 2100
    assert counts["raised"] == 3
    assert counts["juncs"] >= 5000 and counts["points"] >= 70000


_SWEEP_CFG = ToleranceConfig(quality_floor=1e-12)


def test_hexagon_layout_matches_the_loops():
    # every vertex source of the same shapes, and of eps-thick shapes at
    # eps 1e-4 below the default quality floor: the star laid out on its
    # vertex cell is the turtle walk's to rounding where the walk's checks
    # pass; where the walk finds sides within 1e-9 * diam of each other,
    # no two sides of the cell's star cross or touch.  On the eps 1e-4
    # shapes, whose faces are about 1e-4 * diam high, the walk's turns
    # leave far points up to 1.9e-8 * diam from where the faces place
    # them (its closure check allows 1e-7 * diam), and F differs by up to
    # 6.7e-12 * diam
    shapes = _shapes() + [make_eps_thick(1e-4, seed=s, cfg=_SWEEP_CFG)
                          for s in range(40)]
    outcomes = {}
    for n, T in enumerate(shapes):
        apart, tol = (1e-12, 1e-13) if n < 36 else (1e-7, 1e-11)
        for v in range(4):
            x = vertex_point(v)
            cuts, sec = _star_cuts(T, x)
            assert len(cuts) == 3 and _cell_key(x, cuts) == (v,)
            star = _unfold(T, x)
            try:
                want = _polygon_star(T, x, cuts, sec)
            except AmbiguousCut as exc:
                key = str(exc)
                assert _polygon_simple(star.poly, 0.0)
            else:
                key = "star"
                _agrees_with_the_loops(T, star, want, apart, tol)
            _check_point_tests(_star_points(star, DEDUP_TOL * T.diam),
                               star.poly, DEDUP_TOL * T.diam)
            for window in (0.0, 1e-3 * T.diam, 0.2 * T.diam):
                assert (_bits(_read_farthest(star, window))
                        == _bits(_read_farthest_by_loop(star, window)))
            outcomes[key] = outcomes.get(key, 0) + 1
    assert outcomes == {"star": 300, "star polygon is not simple": 4}


def test_thin_vertex_star_that_is_not_simple():
    # one of the Diam vertex stars that the turtle walk rejected at eps
    # 1e-4 below the default floor: two of its sides come within 1e-9 *
    # diam, the walk's tolerance, but none cross or touch, and the star
    # laid out on its cell builds.  Every vertex locus builds and Diam is
    # read; the report now fails in the radius search, on a cut locus
    # whose image pair is not shared by two nodes (ROADMAP item 10)
    T = make_eps_thick(1e-4, seed=9, cfg=_SWEEP_CFG)
    x = vertex_point(3)
    assert _loop_star(T, x, *_star_cuts(T, x)) == (
        "AmbiguousCut", "star polygon is not simple")
    star = star_unfold(T, x)
    assert not _polygon_simple(star.poly, 1e-9 * T.diam)
    assert _polygon_simple(star.poly, 0.0)
    assert abs(star.area() - T.area) <= 1e-6 * T.area
    assert intrinsic_diameter(T, _SWEEP_CFG).value == T.diam
    with pytest.raises(AmbiguousCut,
                       match="^an image pair is not shared by two nodes$"):
        compute_report(T, _SWEEP_CFG)


def test_tied_opposite_cuts_read_one_farthest_distance():
    # from a face centroid of the regular shape the cut to the opposite
    # vertex ties three ways, one development across each edge of the
    # face: the star laid out on each of the three cells, with that
    # development as its cut, reads the same F
    T = normalize(make_regular(1.0))
    for f in range(4):
        x = face_point(f, (1 / 3, 1 / 3, 1 / 3))
        cuts, sec = _star_cuts(T, x)
        straight = [cut for cut in cuts if not cut.crossings]
        S2 = sec[1][0][3]
        values = []
        for a, b, A2, B2, C2, _, _, _ in T.rim_table[f]:
            rho = math.dist(C2, S2)
            tied = tuple(sorted(straight + [CutPath(
                _face_angle(C2[0] - S2[0], C2[1] - S2[1], rho), f, rho,
                _chain_crossings((None, a, b, A2, B2), S2, C2))]))
            images, corners, near, poly, rotations, pieces = _layout(
                T.star_cells[(f, a, b)], x.bary, tied, sec[0])
            values.append(_read_farthest(StarUnfolding(
                T, x, sec[0], tied, images, corners, near, poly, rotations,
                _circumcenters(images, T.diam), pieces), 0.0)[0])
        assert max(values) - min(values) <= 1e-13 * T.diam


def test_stars_next_to_a_vertex_build():
    # instances 0-29 of instance_stream(7, .), normalized: from the edge
    # and face points 1e-9 and 1e-11 (in weight) from each vertex, 1,440
    # sources of which the turtle walk rejected 1,237, every star builds,
    # no two of its sides cross or touch, its area is the surface's within
    # 1e-9 relative, and its F lies within the source's distance to the
    # vertex of the vertex's F, as F is 1-Lipschitz, up to rounding
    count = 0
    for i in range(30):
        T = normalize(generate(GeneratorSpec(kind="random"),
                               seed=instance_stream(7, i)))
        for v in range(4):
            fv = _read_farthest(star_unfold(T, vertex_point(v)), 0.0)[0]
            for t in (1e-9, 1e-11):
                sources = [edge_point(v, w, t) for w in range(4) if w != v]
                sources += [face_point(f, tuple([1.0 - 2.0 * t if u == v
                                                 else t for u in FACES[f]]))
                            for f in range(4) if f != v]
                for x in sources:
                    star = star_unfold(T, x)
                    assert _polygon_simple(star.poly, 0.0)
                    assert abs(star.area() - T.area) <= 1e-9 * T.area
                    d = dist3(T.xyz(x), T.vertices[v])
                    assert (abs(_read_farthest(star, 0.0)[0] - fv)
                            <= d + 1e-13 * T.diam)
                    count += 1
    assert count == 1440


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
    the chart's sectors (chart_angle's loop); the cut from an edge point
    to an end of its edge (a, b) runs along the edge, at the angle of
    that end's ray in the chart, 0 toward b and pi toward a."""
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
        if v in supp:
            theta = 0.0 if v == supp[-1] else math.pi
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
    # the SVG's edge images are read off the star on this
    # (intrinsic._edge_pieces): of every cut of every star, only a face
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
    # a report on a thin shape lays out four vertex stars and an edge star
    # on their cells, with no chart scan and no turtle walk: no module
    # holds the walk, or chart_angle's scan (tests/ray_reference.py keeps
    # it for the ray walk)
    import tetrametric
    modules = [m for m in vars(tetrametric).values()
               if type(m) is type(tetrametric)
               and m.__name__.startswith("tetrametric.")]
    for mod in modules + [tetrametric]:
        assert not hasattr(mod, "_polygon_star")
        assert not hasattr(mod, "chart_angle")
    keys = []
    layout = intrinsic_mod._layout

    def counted(cell, bary, cuts, omega):
        keys.append(len(cuts))
        return layout(cell, bary, cuts, omega)

    monkeypatch.setattr(intrinsic_mod, "_layout", counted)
    compute_report(make_normal_eps_thick(0.01))
    assert keys.count(3) == 4 and keys.count(4) >= 1


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


def _check_near_touching(polys, k, tol):
    """Each polygon of polys, whose closest non-adjacent sides are k tol
    apart, is simple at tol exactly when k > 1 (at k = 1 rounding decides),
    but for the last two, which cross themselves; and the point tests
    decide points around it as the loops do."""
    for n, poly in enumerate(polys):
        if n >= len(polys) - 2:
            assert _polygon_simple(poly, tol) is False
        elif k != 1.0:
            assert _polygon_simple(poly, tol) is (k > 1.0)
        rng = random.Random(7)
        _check_point_tests([(rng.uniform(-1.0, 7.0), rng.uniform(-4.0, 3.0))
                            for _ in range(50)], poly, tol)


@pytest.mark.parametrize("k", [0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
def test_octagon_simple_near_touching_sides(k):
    # sides 0.5 to 3 tol apart, around the box test's margin
    _check_near_touching(_octagons(k * 2e-9), k, 2e-9)


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
    _check_near_touching(_hexagons(k * 2e-9), k, 2e-9)


def test_unfold_lays_out_each_source_on_its_cell():
    # a vertex source's star is laid out on its vertex's cell, an edge
    # point's on its edge's, and a face point's on its face and the edge
    # its opposite cut crosses; a shape builds a cell when a star first
    # reads it, and the star's corners are the cell's points
    T = normalize(make_regular(1.0))
    for x, kind in ((vertex_point(0), (0,)), (edge_point(0, 1, 0.3), (0, 1)),
                    (face_point(1, (0.2, 0.3, 0.5)), None)):
        fresh = Tetrahedron(T.vertices)
        assert fresh.star_cells == {}
        star = star_unfold(fresh, x)
        key = _cell_key(x, star.cuts)
        assert key == kind or key in _FACE_CELLS and key[0] == x.face
        assert list(fresh.star_cells) == [key]
        corners = fresh.star_cells[key][0]
        assert all(w is corners[cut.vertex]
                   for w, cut in zip(star.corners, star.cuts))


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
    # a star from any source has the surface's area, no two sides that
    # cross or touch, and corners no nearer a foreign image than the
    # foreign-image check allows, or raises AmbiguousCut
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
    assert _polygon_simple(star.poly, 0.0)
    for near, cut in zip(star.near, star.cuts):
        assert (1.0 - 1e-7) * cut.length <= near <= cut.length
