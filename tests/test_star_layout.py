"""Star layouts from their cells and closed-form cuts against the loops
and the chart scan they replace.

A face-interior or edge source has four cuts, so its star polygon is an
8-gon; a vertex source has three, a 6-gon.  star_unfold places either on
the source's cell (Tetrahedron.star_cells, planar._layout), reads every
source's cuts in its cell's chart order (_star_cuts) and each
image's chart map off its petal (StarUnfolding.turns); the 8-gon's
junction candidates (_circumcenters) and opposite cut (_opposite_cut) are
written out.  The turtle walk that laid stars out before, from the cuts'
angles and lengths, is kept here as the reference (_polygon_star, with
its checks), on the cut angles of tests/ray_reference.py (cut_angles),
since a star carries none: each cell's star must be the walk's, in the
walk's frame, to rounding, and give its F, and must build where the
walk's checks fail near a vertex.  The junction candidates must be the
loops' to the bit; the reference angle chart (tests/ray_reference.py)
must be the chart scan's (_chart_by_scan: the vertex fan walked and
bary_on_face) to the bit, and the cuts the scan's (_cuts_by_scan, with
chart_angle's sector scan) in their order and lengths to the bit; the
cut angles must be the reference chart's to rounding.  The point test and the
side test a star's readers run (_point_in_star, _star_sides_within) are one
loop each for both shapes, held to the loops of tests/polygon_loops.py.
"""

import itertools
import math
import random
import sys
from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

from tetrametric import (EDGES, FACES, GeneratorSpec, StarUnfolding,
                         Tetrahedron, ToleranceConfig, compute_report,
                         edge_point, face_point, generate, instance_stream,
                         intrinsic_diameter, intrinsic_radius,
                         make_eps_thick, make_isosceles,
                         make_normal_eps_thick, make_regular, normalize,
                         star_unfold, vertex_point)
from tetrametric import intrinsic as intrinsic_mod
from tetrametric.errors import AmbiguousCut, SearchExhausted
from tetrametric.geometry import (DEDUP_TOL, _CELL_PLANS, _circumcenter2,
                                  _orient, apex_vertex, dist3,
                                  faces_containing, neighbor_face)
from tetrametric.intrinsic import (CutPath, _cap, _crossing, _opposite_cut,
                                   _read_farthest, _shoelace, _star_cuts,
                                   _unfold)
from tetrametric.planar import (_circumcenters, _layout, _point_in_star,
                                _star_sides_within)

from chain_reference import _chain_crossings
from fuzzing import ENGINE_FUZZ
from polygon_loops import (_point_in_polygon, _polygon_simple, _side_within,
                           _signed_angle)
from ray_reference import (_unit2, chart_angle, chart_sectors, cut_angles,
                           frame_angles, to_chart, wedge_by_angle)
from shape_reference import cone_angles, corner_angles

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
        out.append((val, c, tuple(ds), (i, j, k)))
    out.sort(key=itemgetter(0), reverse=True)
    return out


def _opposite_cut_by_helpers(T, x, v, S2):
    """_opposite_cut through the reference search's helpers: _orient for
    the cone test, math.dist for the length, _chain_crossings for the
    crossing."""
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
            return rho, C2[1] - S2[1] >= 0.0, crossings
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


def _polygon_star(T, x, cuts, chart):
    """The star of x from its sorted cuts and their chart (omega, thetas),
    the total angle and each cut's angle (ray_reference.cut_angles), or
    AmbiguousCut: the turtle walk that the cells replace, for any number
    of cuts.

    From image 0 at the origin, the walk runs the length of cut k to
    corner k, turns by pi less the cone angle there, runs the cut's length
    again to image k + 1 and turns by pi less the angle between cuts k and
    k + 1, so corner 0 lies on the positive x axis.  Image k is flanked by
    cuts k - 1 and k; its chart constant c, the plane direction of chart
    angle 0, is fixed on cut k and cross-checked on cut k - 1 for a
    reflection, to 1e-6, and its turn is (cos c, sin c).  The checks run
    in the order: cut directions apart, closure, flank consistency, area,
    simplicity at 1e-9 * diam, foreign image (against every image).  The
    junction candidates are every triple's (_circumcenters_by_loop).
    """
    scale = T.diam
    omega, thetas = chart
    sigmas = [b - a for a, b in zip(thetas, thetas[1:])]
    sigmas.append(omega - thetas[-1] + thetas[0])
    for gap in sigmas:
        if gap < 1e-9:
            raise AmbiguousCut("cut directions collide at the source")

    cone = cone_angles(T)
    px = py = heading = 0.0
    pts = []
    for (v, L, _), sigma in zip(cuts, sigmas):
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
        rots.append((math.cos(c), math.sin(c)))
    poly = tuple(pts)

    if abs(abs(_shoelace(poly)) - T.area) > 1e-6 * T.area:
        raise AmbiguousCut("star polygon area drifted from the surface area")
    if not _polygon_simple(poly, 1e-9 * scale):
        raise AmbiguousCut("star polygon is not simple")
    near = tuple([min([math.dist(w, a) for a in images]) for w in corners])
    for d, cut in zip(near, cuts):
        if d < cut[1] * (1.0 - 1e-7):
            raise AmbiguousCut("vertex image closer to a foreign source image")
    return StarUnfolding(T, x, tuple(cuts), images, corners, near,
                         poly, tuple(rots),
                         _circumcenters_by_loop(images, scale), None)


def _loop_star(T, x, cuts, chart):
    """The loops' star, to the bit, or the AmbiguousCut they raise."""
    try:
        return _star_bits(_polygon_star(T, x, cuts, chart))
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
    assert star.cuts == want.cuts
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
            cuts, key = _star_cuts(T, x)
            assert len(cuts) == 4
            if len(x.support()) == 3:
                f = x.face
                S2 = T.frame2(f, x.bary)
                assert (_bits(_opposite_cut(T, x, f, S2))
                        == _bits(_opposite_cut_by_helpers(T, x, f, S2)))
            least = min([w for w in x.bary if w > 0.0])
            try:
                star = _unfold(T, x)
            except AmbiguousCut as exc:
                assert str(exc) == ("vertex image closer to a foreign "
                                    "source image")
                assert least < 1e-11
                chart = 2.0 * math.pi, frame_angles(T, x, cuts)
                assert _loop_star(T, x, cuts, chart)[0] == "AmbiguousCut"
                counts["raised"] += 1
                continue
            cells.add(key)
            assert _polygon_simple(star.poly, 0.0)
            counts["stars"] += 1
            if least > 1e-6:
                _agrees_with_the_loops(T, star, _polygon_star(
                    T, x, cuts, cut_angles(star)))
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
            cuts, key = _star_cuts(T, x)
            assert len(cuts) == 3 and key == (v,)
            star = _unfold(T, x)
            try:
                want = _polygon_star(T, x, cuts, cut_angles(star))
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
    star = star_unfold(T, x)
    assert _loop_star(T, x, star.cuts, cut_angles(star)) == (
        "AmbiguousCut", "star polygon is not simple")
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
        straight = [cut for cut in _star_cuts(T, x)[0] if not cut.crossings]
        S2 = T.frame2(f, x.bary)
        values = []
        for a, b, A2, B2, C2, _, _, _ in T.rim_table[f]:
            cuts = straight + [CutPath(f, math.dist(C2, S2), _chain_crossings(
                (None, a, b, A2, B2), S2, C2))]
            # in the order of their chart angles
            tied = tuple([cut for _, cut in
                          sorted(zip(frame_angles(T, x, cuts), cuts))])
            images, corners, near, poly, turns, pieces = _layout(
                T.star_cells[(f, a, b)], x.bary, tied)
            values.append(_read_farthest(StarUnfolding(
                T, x, tied, images, corners, near, poly, turns,
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
        alpha = corner_angles(T)[(face, v)]
        sectors.append((face, th, th + alpha, base, ref, sign))
        th += alpha
        face, entry = neighbor_face(face, v, exit_v), exit_v
    return th, tuple(sectors)


def _cuts_by_scan(T, x):
    """The cuts from an edge or vertex point as they were read, sorted by
    their chart angles: each developed in the first face holding x and
    not its target, from x's image there (frame2 of bary_on_face), its
    angle found by a scan of the chart's sectors (chart_angle's loop); the
    cut from an edge point to an end of its edge (a, b) runs along the
    edge, at the angle of that end's ray in the chart, 0 toward b and pi
    toward a."""
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
        cuts.append((theta, CutPath(v, math.hypot(d2[0], d2[1]), ())))
    return tuple([cut for _, cut in sorted(cuts)]), sec


def test_closed_form_cuts_match_the_chart_scan():
    # every vertex, and the midpoint, points 1e-9 and 1e-6 from each end
    # and a random point of every edge, on random, isosceles, regular,
    # eps-thick and normal eps-thick shapes: the reference chart
    # (ray_reference.chart_sectors) is the scan's to the bit, and the cuts
    # read off the cells (_star_cuts), whose order takes no angle, have
    # the scan's vertices, order by angle, and lengths to the bit
    # (test_cut_angles_match_the_reference_chart compares the angles)
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
            scan, sec = _cuts_by_scan(T, x)
            assert _bits(chart_sectors(T, x)) == _bits(sec)
            assert _bits(_star_cuts(T, x)[0]) == _bits(scan)
            count += 1
    assert count == len(shapes) * 40


def _reference_angle(T, x, cut, sec):
    """cut's angle in the reference chart sec of x (ray_reference
    .chart_sectors): that of the direction from x's image to the cut's
    vertex in the lowest face holding both, or, for a face point's cut
    across an edge, to the vertex developed across that edge (rim_table);
    an edge point's cuts to its edge's ends run along the rays at 0,
    toward b, and pi, toward a."""
    supp = x.support()
    w = cut.vertex
    if len(supp) == 2 and w in supp:
        return 0.0 if w == supp[1] else math.pi
    if cut.crossings:
        ((edge, _),) = cut.crossings
        face = x.face
        q = next(row[4] for row in T.rim_table[face] if row[:2] == edge)
    else:
        face = min(f for f in range(4) if f not in supp and f != w)
        q = T.face_frames[face][FACES[face].index(w)]
    base = next(sector[3] for sector in sec[1] if sector[0] == face)
    return chart_angle(T, x, face, (q[0] - base[0], q[1] - base[1]), sec)


def test_cut_angles_match_the_reference_chart():
    # the sources of the layout sweep and every vertex, each cut's angle
    # taken from its direction (ray_reference.cut_angles; a face point's
    # by frame_angles, whose star may not build): a face point's cut
    # angles are the reference chart's (ray_reference.chart_sectors) to the
    # bit, but where the reference reads a direction up to 1e-9 below the
    # frame's x axis as 0 and the cut keeps its angle, just under 2 * pi,
    # which the sweep's points 1e-9 and 3e-12 from an edge reach.  A
    # vertex's are the fan's cumulative corner angles
    # (shape_reference.corner_angles); the reference reads a cut in the lower
    # of the two fan faces along it, and where that is the face the cut leaves
    # the fan by, it measures the corner angle in the face's frame, to rounding
    # (2.7e-15 on these random shapes, 1.1e-13 on the eps-thick ones); read in
    # the face it enters, the two agree to the bit.  An edge point's cuts to
    # the vertices off its edge are the atan2 of the chart vector from their
    # image, taken back by its turn, within 1e-13 of the reference, or 5e-13 on
    # the eps-thick shapes, whose faces, as little as 2e-3 * diam high, the
    # cell places by developments that round to about 1e-16 * diam / 2e-3
    rng = random.Random(42)
    shapes = _shapes()
    gaps = {}
    below = 0
    for n, T in enumerate(shapes):
        thin = 30 <= n <= 33
        for x in [vertex_point(v) for v in range(4)] + _sources(rng):
            x = x.canonical()
            supp = x.support()
            cuts = _star_cuts(T, x)[0]
            if len(supp) == 3:
                omega, angles = 2.0 * math.pi, frame_angles(T, x, cuts)
            else:
                omega, angles = cut_angles(_unfold(T, x))
            sec = chart_sectors(T, x)
            assert omega == sec[0]
            for cut, got in zip(cuts, angles):
                want = _reference_angle(T, x, cut, sec)
                if len(supp) == 3:
                    if want == 0.0 and got != 0.0:
                        assert 2.0 * math.pi - 1e-9 <= got <= 2.0 * math.pi
                        below += 1
                    else:
                        assert got == want
                    continue
                kind = (len(supp), "thin" if thin else "other")
                if len(supp) == 1:
                    face = min(f for f in range(4) if f != supp[0]
                               and f != cut.vertex)
                    start = next(s[1] for s in sec[1] if s[0] == face)
                    if got == start:
                        assert got == want
                        kind += ("entered",)
                gaps[kind] = max(gaps.get(kind, 0.0), abs(got - want))
    assert below >= 200
    assert gaps[(1, "other", "entered")] == gaps[(1, "thin", "entered")] == 0
    for kind, bound in (((1, "other"), 1e-14), ((1, "thin"), 5e-13),
                        ((2, "other"), 1e-13), ((2, "thin"), 5e-13)):
        assert 0.0 < gaps[kind] <= bound


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


def _corner_misses(star):
    """How far each corner lies, seen through each image flanking it
    (transform_to_source), from where its cut's length and angle
    (ray_reference.cut_angles) put it in the source's chart; through image
    0, cut m - 1 lies a full turn omega back."""
    omega, angles = cut_angles(star)
    out = []
    for k in range(len(star.cuts)):
        back = angles[k - 1] - (omega if k == 0 else 0.0)
        for cut, w, angle in (
                (star.cuts[k], star.corners[k], angles[k]),
                (star.cuts[k - 1], star.corners[k - 1], back)):
            px, py = star.transform_to_source(k, w)
            out.append(math.hypot(px - cut.length * math.cos(angle),
                                  py - cut.length * math.sin(angle)))
    return out


def test_charts_are_reflections():
    # seen through image k, both corners flanking it lie along their cuts
    # in the source's chart, at the cuts' lengths and angles (cut_angles),
    # to 1e-12 * diam: transform_to_source reads every star's charts as
    # reflections, each image's off its cell, and a face point's cut
    # angles are its frame's, none read as 0.  On the eps 1e-4 shape, below the
    # default quality floor, whose faces are about 1e-5 * diam high, a face
    # point's opposite cut is developed once across its edge from the face's
    # frame (_opposite_cut) and its corner through the cell's chain of
    # developments, which place the corner up to 5e-10 * diam from where the
    # cut's length and angle put it, so the bound there is 1e-9 * diam (ROADMAP
    # item 20)
    rng = random.Random(12)
    shapes = _shapes()[::5] + [make_eps_thick(1e-4, seed=1, cfg=_SWEEP_CFG)]
    count = 0
    for n, T in enumerate(shapes):
        tol = (1e-9 if n == len(shapes) - 1 else 1e-12) * T.diam
        sources = [vertex_point(v) for v in range(4)] + _sources(rng)[::4]
        for x in sources:
            try:
                star = star_unfold(T, x)
            except AmbiguousCut:
                continue
            misses = _corner_misses(star)
            assert max(misses) <= tol
            count += len(misses)
    assert count >= 1000


def test_face_cuts_come_in_their_cells_order():
    # from face points next to a vertex or an edge, where a cut may run
    # less than 1e-9 below the frame's x axis, at angle 0: the cut vertices
    # are the cell plan's order (geometry._cell_plan), rotated, the cut
    # angles (cut_angles, from the cuts' directions) rise strictly, so the
    # order the package sets by orientation signs is the angles', and
    # every corner lies on its cut's ray within
    # 1e-12 * diam through both flanking images.  The first source has such
    # a cut, whose corner lies 2.7e-10 * diam from where angle 0 puts it.
    # The others lie 1e-9 and 2e-12 (in weight) off an edge: a weight of
    # SUPPORT_TOL = 1e-12 snaps to 0, onto the edge
    spec = GeneratorSpec(kind="random")
    cases = [(normalize(generate(spec, seed=instance_stream(42, 15))),
              face_point(0, (1.0 - 2e-9, 1e-9, 1e-9)))]
    for T in _shapes():
        for f in range(4):
            for tiny in (1e-9, 2e-12):
                for k in range(3):
                    for u in (0.25, 0.5):
                        w = [(1.0 - tiny) * u, (1.0 - tiny) * (1.0 - u)]
                        w.insert(k, tiny)
                        cases.append((T, face_point(f, tuple(w))))
    for T, x in cases:
        star = star_unfold(T, x)
        angles = cut_angles(star)[1]
        assert all(a < b for a, b in zip(angles, angles[1:]))
        order = [z for z, _ in
                 _CELL_PLANS[(x.face,) + _crossing(star)[0]][2]]
        verts = [cut.vertex for cut in star.cuts]
        assert verts in [order[i:] + order[:i] for i in range(4)]
        assert max(_corner_misses(star)) <= 1e-12 * T.diam
    assert len(cases) == 1 + 48 * len(_shapes())


def test_descent_wedges_are_the_angles_wedges(monkeypatch):
    # every descent step of intrinsic_radius on instances 0-19 of
    # instance_stream(42, .): the image the step d is mapped through, whose
    # wedge holds d by the signs of d's cross products with the cuts'
    # chart vectors (intrinsic._descend), is the one the cuts' angles
    # give (ray_reference.wedge_by_angle).  The steps start from face and
    # edge points; none starts from a vertex
    steps, last = [], []
    step, to_surface = intrinsic_mod._step, StarUnfolding.to_surface

    def record_step(*args):
        low, d = step(*args)
        last[:] = [d]
        return low, d

    def record(star, k, y2):
        if sys._getframe(1).f_code.co_name == "_descend":
            steps.append((star, last[0], k))
        return to_surface(star, k, y2)

    monkeypatch.setattr(intrinsic_mod, "_step", record_step)
    monkeypatch.setattr(StarUnfolding, "to_surface", record)
    spec = GeneratorSpec(kind="random")
    for i in range(20):
        intrinsic_radius(normalize(generate(spec,
                                            seed=instance_stream(42, i))))
    kinds = {}
    for star, d, k in steps:
        assert k == wedge_by_angle(star, d)
        n = len(star.source.support())
        kinds[n] = kinds.get(n, 0) + 1
    assert kinds[3] >= 200 and kinds[2] >= 10 and 1 not in kinds


def test_a_step_along_a_cut_lands_alike_through_either_image():
    # a chart vector along cut k, at a quarter, a half and three quarters
    # of the cut's length, lies where the wedges of images k and k + 1
    # meet, and maps to one surface point through either image within
    # 1e-12 * diam, or 2e-12 * diam on the eps-thick shapes, so the wedge
    # rule's choice on the cut (image k + 1, as d lies on cut k's vector)
    # moves no step.  A vertex chart's total angle is its cone angle, below
    # 2 * pi, so its last cut, between its last image and image 0, is a
    # seam and is left out.  So are the sources with a weight below 1e-6:
    # next to an edge a petal is a sliver, and a point on a cut lands up
    # to 1.8e-8 * diam apart through its two images there
    rng = random.Random(3)
    count = 0
    for n, T in enumerate(_shapes()):
        tol = (2e-12 if 30 <= n <= 33 else 1e-12) * T.diam
        for x in [vertex_point(v) for v in range(4)] + _sources(rng):
            if min([w for w in x.canonical().bary if w > 0.0]) < 1e-6:
                continue
            star = star_unfold(T, x)
            m = len(star.cuts)
            for k in range(m - 1 if m == 3 else m):
                ux, uy = star.transform_to_source(k, star.corners[k])
                for t in (0.25, 0.5, 0.75):
                    dx, dy = t * ux, t * uy
                    ends = []
                    for j in (k, (k + 1) % m):
                        (ax, ay), (c, s) = star.images[j], star.turns[j]
                        ends.append(T.xyz(star.to_surface(
                            j, (ax + c * dx + s * dy, ay + s * dx - c * dy))))
                    assert math.dist(*ends) <= tol
                    count += 1
    assert count >= 11000


def test_the_opposite_cut_across_the_far_edge_goes_by_its_side():
    # face points of the layout shapes whose opposite cut crosses the edge
    # (c1, c2) of their face f = (c0, c1, c2), whose frame's x axis runs
    # from c0 to c1: the cut leaves x above the axis from some and below
    # it from others, and from each the cuts come in the order of their
    # reference chart angles (_reference_angle), so the opposite cut goes
    # first where it points above the axis and last where below
    rng = random.Random(5)
    sides = {True: 0, False: 0}
    for T in _shapes():
        for f in range(4):
            for _ in range(10):
                w = [rng.uniform(0.05, 1.0) for _ in range(3)]
                x = face_point(f, tuple(c / sum(w) for c in w))
                cuts, key = _star_cuts(T, x)
                if key[1:] != FACES[f][1:]:
                    continue
                sec = chart_sectors(T, x)
                angles = [_reference_angle(T, x, cut, sec) for cut in cuts]
                assert all(a < b for a, b in zip(angles, angles[1:]))
                k = [cut.vertex for cut in cuts].index(f)
                above = angles[k] < math.pi
                assert k == (0 if above else 3)
                sides[above] += 1
    assert sides[True] >= 250 and sides[False] >= 40


def test_every_source_of_a_cell_has_its_turns():
    # the chart map of each image is its petal's, read off the cell: every
    # star of a cell has, for each pair of consecutive corners, the same
    # turn, the very object the cell keeps, and it is a unit vector; the
    # reference walk's chart point of each corner flanking image k and of
    # its petal's centroid (ray_reference.to_chart, from the cuts' angles)
    # is its transform_to_source within 1e-12 * diam
    rng = random.Random(27)
    count = shared = 0
    for T in _shapes()[::3]:
        seen, stars = {}, {}
        for x in [vertex_point(v) for v in range(4)] + _sources(rng):
            try:
                star = star_unfold(T, x)
            except AmbiguousCut:
                continue
            key = _star_cuts(T, star.source)[1]
            petals = T.star_cells[key][1]
            omega, angles = cut_angles(star)
            for k, turn in enumerate(star.turns):
                uw = (star.cuts[k - 1].vertex, star.cuts[k].vertex)
                assert turn is petals[uw][4]
                assert abs(math.hypot(*turn) - 1.0) <= 4.5e-16
                assert seen.setdefault((key, uw), turn) is turn
                points = star.pieces[k][1]
                for y in (star.corners[k - 1], star.corners[k],
                          tuple(sum(p[i] for p in points) / 3.0
                                for i in range(2))):
                    # to_chart wraps image 0's angles below cut 0's, which
                    # lie a full turn omega back, to past cut m - 1's
                    theta, r = to_chart(star, k, y)
                    if k == 0 and 2.0 * theta > angles[0] + angles[-1]:
                        theta -= omega
                    px, py = star.transform_to_source(k, y)
                    assert (math.hypot(px - r * math.cos(theta),
                                       py - r * math.sin(theta))
                            <= 1e-12 * T.diam)
                    count += 1
            stars[key] = stars.get(key, 0) + 1
        shared += sum([n > 1 for n in stars.values()])
    # of the 6 edge and 12 face cells of each of the 15 shapes, 177 hold
    # more than one star
    assert count >= 9000 and shared >= 170


def test_thin_report_runs_no_chart_scan_and_no_loops(monkeypatch):
    # a report on a thin shape lays out four vertex stars and an edge star
    # on their cells, with no chart scan and no turtle walk: no module
    # holds the walk, or the angle chart and chart_angle's scan
    # (tests/ray_reference.py keeps them for the ray walk)
    import tetrametric
    modules = [m for m in vars(tetrametric).values()
               if type(m) is type(tetrametric)
               and m.__name__.startswith("tetrametric.")]
    for mod in modules + [tetrametric]:
        assert not hasattr(mod, "_polygon_star")
        assert not hasattr(mod, "chart_angle")
        assert not hasattr(mod, "chart_sectors")
    keys = []
    layout = intrinsic_mod._layout

    def counted(cell, bary, cuts):
        keys.append(len(cuts))
        return layout(cell, bary, cuts)

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
        key = _star_cuts(fresh, star.source)[1]
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
