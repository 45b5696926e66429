"""Intrinsic metrics of tetrahedron surfaces.

Star unfoldings, cut loci, farthest-point sets, and the geodesic radius and
diameter they induce.  The star unfolding develops the surface, cut along the
shortest paths from a source to every vertex, into a planar polygon with one
image of the source per cut sector.  Shortest-path distance to the source then
equals straight-line distance to the nearest source image, which turns
cut-locus and farthest-point questions into planar nearest-site geometry.
The cut locus is the Voronoi diagram of the source images restricted to the
star polygon (Agarwal, Aronov, O'Rourke & Schevon, SIAM J. Comput. 1997); its
junctions, the non-dominated circumcenters, are enumerated once
(_circumcenters) for both the cut locus and the radius probe.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import namedtuple
from dataclasses import dataclass
from operator import itemgetter
from typing import Optional

from .errors import AmbiguousCut, SearchExhausted
from .geometry import (
    DEDUP_TOL,
    DEFAULT_CFG,
    EDGES,
    FACES,
    GEOM_TOL,
    SUPPORT_TOL,
    SurfacePoint,
    Tetrahedron,
    _bary_in_triangle,
    _circumcenter2,
    dist3,
    edge_point,
    faces_containing,
    vertex_point,
)
from .geodesics import (
    GeodesicPath,
    _cap,
    _chain_crossings,
    _orient,
    _pt_seg2,
    _signed_angle,
    all_geodesic_segments,
    chart_angle,
    chart_sectors,
    trace_ray,
)

Vec2 = tuple

_TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# planar helpers

def _wrap(a, period):
    a = math.fmod(a, period)
    return a + period if a < 0.0 else a


def _angle_gap(a, b):
    """Smallest absolute difference between two angles mod 2*pi."""
    d = _wrap(a - b, _TWO_PI)
    return min(d, _TWO_PI - d)


def _shoelace(poly):
    s = 0.0
    n = len(poly)
    for i in range(n):
        x0, y0 = poly[i]
        x1, y1 = poly[(i + 1) % n]
        s += x0 * y1 - x1 * y0
    return 0.5 * s


def _seg_gap(p, q, r, s):
    """Distance between segments pq and rs (0 when they properly cross)."""
    d1, d2 = _orient(p, q, r), _orient(p, q, s)
    d3, d4 = _orient(r, s, p), _orient(r, s, q)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) and d1 != d2 and d3 != d4:
        return 0.0
    return min(_pt_seg2(r, p, q), _pt_seg2(s, p, q), _pt_seg2(p, r, s),
               _pt_seg2(q, r, s))


def _segments_within(p, q, r, s, tol):
    """Whether segments pq and rs come within tol of each other.

    Two segments are at least as far apart as their bounding boxes, so a
    pair whose boxes are more than tol apart is settled without _seg_gap.
    """
    for k in (0, 1):
        lo1, hi1 = (p[k], q[k]) if p[k] <= q[k] else (q[k], p[k])
        lo2, hi2 = (r[k], s[k]) if r[k] <= s[k] else (s[k], r[k])
        if lo2 - hi1 > tol or lo1 - hi2 > tol:
            return False
    return _seg_gap(p, q, r, s) <= tol


def _polygon_simple(poly, tol):
    """No two non-adjacent sides of the closed polygon come within tol
    (_segments_within, with each side's bounding box found once)."""
    n = len(poly)
    sides = []
    for i in range(n):
        p, q = poly[i], poly[(i + 1) % n]
        x0, x1 = (p[0], q[0]) if p[0] <= q[0] else (q[0], p[0])
        y0, y1 = (p[1], q[1]) if p[1] <= q[1] else (q[1], p[1])
        sides.append((p, q, x0, x1, y0, y1))
    for i in range(n):
        p, q, x0, x1, y0, y1 = sides[i]
        for j in range(i + 2, n - 1 if i == 0 else n):
            r, s, u0, u1, v0, v1 = sides[j]
            if u0 - x1 > tol or x0 - u1 > tol or v0 - y1 > tol or y0 - v1 > tol:
                continue
            if _segments_within(p, q, r, s, tol):
                return False
    return True


def _clip_left(poly, a, b):
    """Keep the part of the polygon on or left of the directed line a->b."""
    nx, ny = b[1] - a[1], a[0] - b[0]
    c = nx * a[0] + ny * a[1]
    out = []
    n = len(poly)
    for i in range(n):
        P, Q = poly[i], poly[(i + 1) % n]
        hp = P[0] * nx + P[1] * ny - c
        hq = Q[0] * nx + Q[1] * ny - c
        if hp <= 0.0:
            out.append(P)
        if (hp < 0.0 < hq) or (hq < 0.0 < hp):
            t = hp / (hp - hq)
            out.append((P[0] + t * (Q[0] - P[0]), P[1] + t * (Q[1] - P[1])))
    return out


# ---------------------------------------------------------------------------
# star unfolding

@dataclass(frozen=True)
class CutPath:
    """One cut of a star unfolding: the shortest path from the source to a vertex."""

    vertex: int
    length: float
    angle: float
    path: GeodesicPath


@dataclass(frozen=True)
class StarUnfolding:
    """Planar development of the surface cut along shortest paths to the vertices.

    The boundary polygon alternates source images ``images[k]`` and vertex
    images ``corners[k]``; both sides flanking ``corners[k]`` develop the cut
    ``cuts[k]``, so they share its length.  ``rotations[k]`` converts between
    chart angles at the source and plane directions seen from ``images[k]``.
    """

    tetra: Tetrahedron
    source: SurfacePoint
    omega: float
    cuts: tuple
    images: tuple
    corners: tuple
    rotations: tuple
    mirrored: bool
    sectors: tuple

    def polygon(self):
        out = []
        for k in range(len(self.images)):
            out.append(self.images[k])
            out.append(self.corners[k])
        return tuple(out)

    def area(self):
        return abs(_shoelace(self.polygon()))

    def to_chart(self, k, y2):
        """Chart angle and run length of y2 as seen through image k.

        Measured as an angle difference from the nearer flanking cut, which
        stays branch-safe for any wedge width below a full turn.
        """
        a = self.images[k]
        d_pt = (y2[0] - a[0], y2[1] - a[1])
        r = math.hypot(d_pt[0], d_pt[1])
        if r == 0.0:
            return self.cuts[k].angle, 0.0
        m = len(self.images)
        wi, wp = self.corners[k], self.corners[(k - 1) % m]
        d_i = (wi[0] - a[0], wi[1] - a[1])
        d_p = (wp[0] - a[0], wp[1] - a[1])
        s = -1.0 if self.mirrored else 1.0
        di, dp = _signed_angle(d_i, d_pt), _signed_angle(d_p, d_pt)
        if abs(di) <= abs(dp):
            theta = self.cuts[k].angle + s * di
        else:
            theta = self.cuts[(k - 1) % m].angle + s * dp
        return _wrap(theta, self.omega), r

    def to_surface(self, k, y2):
        """Surface point developing at y2, reached through image k."""
        theta, r = self.to_chart(k, y2)
        if r <= 1e-15 * self.tetra.diam:
            return self.source
        return trace_ray(self.tetra, self.source, theta, r, self.sectors)

    def transform_to_source(self, k, y2):
        """Map a point of image k's cell into the source-centred development."""
        a = self.images[k]
        dx, dy = y2[0] - a[0], y2[1] - a[1]
        if self.mirrored:
            dy = -dy
        c = self.rotations[k]
        co, si = math.cos(c), math.sin(c)
        return (co * dx - si * dy, si * dx + co * dy)

    def reduced_polygon(self, tol=1e-7):
        """Boundary polygon with straight corners removed."""
        poly = self.polygon()
        n = len(poly)
        out = []
        for i in range(n):
            p, q, r = poly[(i - 1) % n], poly[i], poly[(i + 1) % n]
            u = (q[0] - p[0], q[1] - p[1])
            v = (r[0] - q[0], r[1] - q[1])
            if abs(_signed_angle(u, v)) > tol:
                out.append(q)
        return tuple(out)


class _StarLayout(namedtuple("_StarLayout", "tetra source omega cuts images "
                             "corners near poly rotations mirrored sectors")):
    """A star unfolding without its path objects, as a radius probe reads it.

    Fields as in StarUnfolding, but a cut is (angle, vertex, length,
    crossings), poly is the boundary polygon and near[k] the distance from
    corners[k] to its nearest source image.  A named tuple is cheaper to
    build, once per probe, than a frozen dataclass.
    """

    __slots__ = ()


def _walk(rhos, sigmas, omegas):
    """Lay out the boundary polygon by turtle walk; returns it and its closure gap.

    From image k: run rho_k to corner k, turn by pi - omega_k, run rho_k to
    image k + 1, turn by pi - sigma_k.
    """
    x = y = heading = 0.0
    pts = []
    for k in range(len(rhos)):
        L = rhos[k]
        pts.append((x, y))
        x, y = x + L * math.cos(heading), y + L * math.sin(heading)
        heading += math.pi - omegas[k]
        pts.append((x, y))
        x, y = x + L * math.cos(heading), y + L * math.sin(heading)
        heading += math.pi - sigmas[k]
    return pts, math.hypot(x, y)


def _rotation_constants(thetas, sigmas, images, corners):
    """Per-image chart-to-plane rotation constants and the orientation they fit.

    Image k is flanked by cuts k-1 and k; the constant is fixed on cut k and
    cross-checked on cut k-1, first for a reflection, then for a rotation.
    The plane directions from each image to its two flanking corners are the
    same for both, so they are measured once.  Returns (rots, mirrored), or
    raises AmbiguousCut when neither orientation is consistent to 1e-6.
    """
    m = len(images)
    dirs = []
    for k in range(m):
        a, w, wp = images[k], corners[k], corners[(k - 1) % m]
        dirs.append((thetas[k], math.atan2(w[1] - a[1], w[0] - a[0]),
                     math.atan2(wp[1] - a[1], wp[0] - a[0]),
                     thetas[k] - sigmas[(k - 1) % m]))
    for mirrored in (True, False):
        rots = []
        for theta, phi, phip, th_prev in dirs:
            c = (theta + phi) if mirrored else (theta - phi)
            expect = (c - th_prev) if mirrored else (th_prev - c)
            if _angle_gap(phip, expect) >= 1e-6:
                break
            rots.append(_wrap(c, _TWO_PI))
        else:
            return rots, mirrored
    raise AmbiguousCut("star polygon failed to close consistently")


def _opposite_cut(T, x, v, sec, tie_guard):
    """Shortest path from a face-interior x to the vertex v its face omits.

    A shortest path visits each face at most once and crosses no edge
    through its target vertex, so this one leaves the face of x across one
    of the face's three edges and runs straight to v in the neighbouring
    face.  Each of the three developments is kept only if the geodesic
    search would keep it (the TRIM window, the crossing test and the cap),
    so the shortest survivor is the search's answer.  Returns (rho, theta,
    crossings); with tie_guard, a second survivor within the dedup slack of
    the shortest raises AmbiguousCut, as all_geodesic_segments would report
    it.
    """
    f0 = x.face
    # the search develops from x.canonical(), whose renormalized weights can
    # differ from those of x in the last bit; the same source keeps rho and
    # the crossing bit-identical to geodesic_distance
    S2 = T.frame2(f0, x.canonical().bary)
    scale = T.diam
    cap = _cap(scale, DEDUP_TOL if tie_guard else 0.0)
    cands = []
    for a, b, A2, B2, C2, W1, W2, e in T.rim_table[f0]:
        if _orient(S2, W1, W2) < 0.0:
            W1, W2 = W2, W1
        if _orient(S2, W1, C2) < 0.0 or _orient(S2, C2, W2) < 0.0:
            continue
        d = math.dist(C2, S2)
        if d <= cap:
            cands.append((d, e, a, b, A2, B2, C2))
    # crossing tests in order of (length, edge), until the shortest
    # survivor (with tie_guard, the two shortest) is known
    cands.sort()
    kept = []
    for d, _, a, b, A2, B2, C2 in cands:
        crossings = _chain_crossings((None, a, b, A2, B2), S2, C2)
        if crossings is not None:
            kept.append((d, crossings, C2))
            if len(kept) == (2 if tie_guard else 1):
                break
    if not kept:
        raise SearchExhausted("no straight development reaches the target")
    rho, crossings, C2 = kept[0]
    if (tie_guard and len(kept) > 1
            and kept[1][0] <= rho * (1.0 + DEDUP_TOL) + 1e-15 * scale):
        raise AmbiguousCut("two shortest paths of length %.12g reach vertex %d"
                           % (rho, v))
    theta = chart_angle(T, x, f0, (C2[0] - S2[0], C2[1] - S2[1]), sec)
    return rho, theta, crossings


def _star_layout(T, x, tie_guard=False):
    """The layout of star_unfold(T, x, tie_guard), with every check, no objects.

    star_unfold adds the CutPath, GeodesicPath and StarUnfolding objects;
    the radius probe reads the layout alone.  The tie guard runs in the
    loop over the vertices, so a tie raises before later cuts develop.
    """
    # x is canonicalized once here, and _opposite_cut canonicalizes it once
    # more: canonical() is not idempotent (the second renormalization can
    # move a weight by an ulp), and developing every cut from one source
    # would change F in the last bit at some points
    x = x.canonical()
    supp = x.support()
    scale = T.diam
    sec = chart_sectors(T, x)
    omega = sec[0]
    # the faces holding x, each with the image of x in its frame
    bases = [(f, T.frame2(f, T.bary_on_face(x, f)))
             for f in range(4) if f not in supp]

    entries = []
    for v in range(4):
        if supp == (v,):
            continue
        shared = [fb for fb in bases if fb[0] != v]
        if shared:
            f, p2 = shared[0]
            # frame2 of the unit weight on v, which is this corner exactly
            q2 = T.face_frames[f][FACES[f].index(v)]
            d2 = (q2[0] - p2[0], q2[1] - p2[1])
            rho = math.hypot(d2[0], d2[1])
            theta = chart_angle(T, x, f, d2, sec)
            crossings = ()
            if tie_guard:
                segs = all_geodesic_segments(T, x, vertex_point(v))
                if len(segs) > 1:
                    raise AmbiguousCut(
                        "two shortest paths of length %.12g reach vertex %d" %
                        (segs[0].length, v))
        else:
            rho, theta, crossings = _opposite_cut(T, x, v, sec, tie_guard)
        entries.append((theta, v, rho, crossings))
    entries.sort()

    m = len(entries)
    thetas, verts, rhos, _ = zip(*entries)
    sigmas = [thetas[k + 1] - thetas[k] for k in range(m - 1)]
    sigmas.append(omega - thetas[m - 1] + thetas[0])
    for gap in sigmas:
        if gap < 1e-9:
            raise AmbiguousCut("cut directions collide at the source")
    omegas = [T.cone_angles[v] for v in verts]

    # the two walk orientations are planar mirror images, so one layout
    # suffices; the chart-to-plane map may still be a rotation or a
    # reflection, which the flank consistency check decides
    pts, closure = _walk(rhos, sigmas, omegas)
    if closure > 1e-7 * scale:
        raise AmbiguousCut("star polygon failed to close")
    images = tuple(pts[0::2])
    corners = tuple(pts[1::2])
    rots, mirrored = _rotation_constants(thetas, sigmas, images, corners)
    poly = tuple(pts)

    if abs(abs(_shoelace(poly)) - T.area) > 1e-6 * T.area:
        raise AmbiguousCut("star polygon area drifted from the surface area")
    if not _polygon_simple(poly, 1e-9 * scale):
        raise AmbiguousCut("star polygon is not simple")
    # math.dist(p, q) is math.hypot(p[0] - q[0], p[1] - q[1]) to the bit
    dist = math.dist
    near = tuple([min([dist(w, a) for a in images]) for w in corners])
    for d, rho in zip(near, rhos):
        if d < rho * (1.0 - 1e-7):
            raise AmbiguousCut("vertex image closer to a foreign source image")
    return _StarLayout(T, x, omega, tuple(entries), images, corners, near,
                       poly, tuple(rots), mirrored, sec)


def star_unfold(T, x, tie_guard=True):
    """Star unfolding of the surface from x.

    The cut to a vertex sharing a face with x is the straight segment in
    that face.  The one vertex that shares no face with x, the vertex its
    face omits when x is inside a face, is reached in closed form: the
    shortest path visits each face at most once (Sharir & Schorr), so it
    crosses exactly one edge of the face of x, and the shortest of those
    three one-crossing developments is the cut.  No geodesic search runs
    for it.

    Raises AmbiguousCut when some vertex admits two shortest paths from x
    within the dedup tolerance (the development is then ill-defined), or when
    the laid-out polygon fails its closure, area, or simplicity checks.  The
    tie check compares the three closed-form candidates for the opposite
    vertex and still runs all_geodesic_segments for every vertex sharing a
    face with x, whose straight cut may tie with a path around the surface.
    tie_guard=False skips the tie check, which still yields correct
    distances (ties only make the cut structure ambiguous, never the
    farthest-distance values).  The layout and its checks are
    _star_layout's, which the radius probe calls without this wrapper.
    """
    lay = _star_layout(T, x, tie_guard)
    x = lay.source
    cuts = tuple(CutPath(vertex=v, length=rho, angle=theta,
                         path=GeodesicPath(source=x, target=vertex_point(v),
                                           crossings=crossings, length=rho))
                 for theta, v, rho, crossings in lay.cuts)
    return StarUnfolding(tetra=T, source=x, omega=lay.omega, cuts=cuts,
                         images=lay.images, corners=lay.corners,
                         rotations=lay.rotations, mirrored=lay.mirrored,
                         sectors=lay.sectors)


# ---------------------------------------------------------------------------
# cut locus

@dataclass(frozen=True)
class CutNode:
    """Cut-locus node: a leaf at a vertex image or an interior junction."""

    point: Vec2
    distance: float
    images: tuple
    vertex: Optional[int]
    spread: float
    surface: Optional[SurfacePoint]

    @property
    def is_leaf(self):
        return self.vertex is not None


@dataclass(frozen=True)
class CutArc:
    """Straight piece of the cut locus on the bisector of two source images."""

    images: tuple
    nodes: tuple
    p0: Vec2
    p1: Vec2

    @property
    def length(self):
        return math.hypot(self.p1[0] - self.p0[0], self.p1[1] - self.p0[1])

    def point_at(self, t):
        return (self.p0[0] + t * (self.p1[0] - self.p0[0]),
                self.p0[1] + t * (self.p1[1] - self.p0[1]))


@dataclass(frozen=True)
class CutLocus:
    """The set of points with two or more shortest paths to the source.

    A tree whose leaves are the tetrahedron vertices (other than a vertex
    source); arcs are straight bisector segments of the star unfolding's
    source images.
    """

    star: StarUnfolding
    nodes: tuple
    arcs: tuple
    perturbation: Optional[tuple]

    def radius(self):
        """Largest distance from the source to the surface (attained on nodes)."""
        return max(n.distance for n in self.nodes)

    def leaves(self):
        return tuple(i for i, n in enumerate(self.nodes) if n.is_leaf)

    def junctions(self):
        return tuple(i for i, n in enumerate(self.nodes) if not n.is_leaf)

    def signature(self):
        """Structural fingerprint used to compare perturbed reconstructions."""
        vmap = tuple(c.vertex for c in self.star.cuts)

        def im(t):
            return tuple(sorted(vmap[k] for k in t))

        leafs = tuple(sorted((n.vertex, im(n.images))
                             for n in self.nodes if n.is_leaf))
        juncs = tuple(sorted(im(n.images)
                             for n in self.nodes if not n.is_leaf))
        arcs = tuple(sorted(im(a.images) for a in self.arcs))
        return (leafs, juncs, arcs)


def _voronoi_locus(T, x, perturbation):
    """Cut locus at x itself, built as cut_locus describes, or AmbiguousCut."""
    star = star_unfold(T, x)
    images = star.images
    m = len(images)
    poly = star.polygon()
    sides = list(zip(poly, poly[1:] + poly[:1]))
    snap = DEDUP_TOL * T.diam

    def dists(pt):
        return [math.hypot(pt[0] - a[0], pt[1] - a[1]) for a in images]

    nodes, owns = [], []
    for k, w in enumerate(star.corners):
        fl = tuple(sorted((k, (k + 1) % m)))
        d = dists(w)
        vert = star.cuts[k].vertex
        nodes.append(CutNode(point=w, distance=star.cuts[k].length, images=fl,
                             vertex=vert, spread=abs(d[fl[0]] - d[fl[1]]),
                             surface=vertex_point(vert)))
        owns.append([fl])

    # the junctions are the probe's candidates inside the polygon, but the
    # domination slack, DEDUP_TOL * diam, admits ill-conditioned
    # circumcenters of thin shapes that sit well off the true node;
    # GEOM_TOL * diam keeps only the genuine ones
    juncs = [node for node in _circumcenters(images, T.diam)
             if _point_in_polygon(node[1], poly, snap) and node[0] >= math.dist(
                 node[1], images[node[3][0]]) - GEOM_TOL * T.diam]
    built = []
    for _, members in _group_junctions(juncs, snap):
        n = len(members)
        pt = (sum(c[1][0] for c in members) / n,
              sum(c[1][1] for c in members) / n)
        if min(_pt_seg2(pt, a, b) for a, b in sides) <= snap:
            raise AmbiguousCut("cut-locus junction on the polygon boundary")
        d = dists(pt)
        img = tuple(k for k in range(m) if d[k] <= min(d) + snap)
        if len(members) == 1:
            # a fourth image within snap of a single triple need not have
            # an arc here, so only the triple's own bisectors count
            own = list(itertools.combinations(members[0][3], 2))
        else:
            ring = sorted(img, key=lambda k: math.atan2(images[k][1] - pt[1],
                                                         images[k][0] - pt[0]))
            own = [tuple(sorted((ring[t - 1], ring[t])))
                   for t in range(len(ring))]
        dsel = [d[k] for k in img]
        built.append((CutNode(point=pt, distance=sum(dsel) / len(dsel),
                              images=img, vertex=None,
                              spread=max(dsel) - min(dsel),
                              surface=star.to_surface(img[0], pt)), own))
    # deterministic node order: leaves by corner index, then junctions by
    # position
    built.sort(key=lambda b: b[0].point)
    nodes += [b[0] for b in built]
    owns += [b[1] for b in built]

    ends = {}
    for ni, own in enumerate(owns):
        for pair in own:
            ends.setdefault(pair, []).append(ni)
    arcs = []
    for pair, ns in sorted(ends.items()):
        if len(ns) != 2:
            raise AmbiguousCut("an image pair is not shared by two nodes")
        # p0 comes first along rot90(a_j - a_i)
        (ax, ay), (bx, by) = images[pair[0]], images[pair[1]]
        na, nb = ns
        pa, pb = nodes[na].point, nodes[nb].point
        if ((pb[0] - pa[0]) * (ay - by) + (pb[1] - pa[1]) * (bx - ax)) < 0.0:
            na, nb = nb, na
        arcs.append(CutArc(images=pair, nodes=(na, nb), p0=nodes[na].point,
                           p1=nodes[nb].point))

    # tree invariants
    if len(arcs) != len(nodes) - 1:
        raise AmbiguousCut("cut locus is not a tree")
    adj = {i: [] for i in range(len(nodes))}
    for arc in arcs:
        adj[arc.nodes[0]].append(arc.nodes[1])
        adj[arc.nodes[1]].append(arc.nodes[0])
    seen = {0}
    stack = [0]
    while stack:
        cur = stack.pop()
        for nxt in adj[cur]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    if len(seen) != len(nodes):
        raise AmbiguousCut("cut locus is disconnected")
    for i, node in enumerate(nodes):
        deg = len(adj[i])
        if node.is_leaf and deg != 1:
            raise AmbiguousCut("vertex image is not a leaf of the cut locus")
        if not node.is_leaf and deg < 3:
            raise AmbiguousCut("interior cut-locus node of degree below three")

    return CutLocus(star=star, nodes=tuple(nodes), arcs=tuple(arcs),
                    perturbation=perturbation)


def _nudged(T, x, face, delta, u):
    """Move x by arc length delta in direction u of `face`'s frame."""
    p2 = T.frame2(face, T.bary_on_face(x, face))
    nb = T.bary_from_frame2(face, (p2[0] + delta * u[0], p2[1] + delta * u[1]))
    if min(nb) < 0.0:
        return None  # the move leaves the face
    s = sum(nb)
    nb = tuple(c / s for c in nb)
    return SurfacePoint(face, nb).canonical(), delta


def _nudge_directions(T, x):
    """Nudge directions at x as (face, unit direction in that face's frame).

    In the face of x.canonical(): toward its centroid and the two
    perpendiculars, three pairwise non-parallel directions.  A degeneracy
    locus through x is a curve; its tangent can parallel at most one of
    the three, so at least two cut across it.  From a vertex both
    perpendiculars leave the face (unless its corner is obtuse), so a
    vertex source adds the centroid direction of each other incident face,
    in face order.
    """
    x = x.canonical()
    supp = x.support()
    # x.face is the lowest face containing x, so it comes first
    faces = faces_containing(supp) if len(supp) == 1 else (x.face,)
    out = []
    for f in faces:
        p2 = T.frame2(f, T.bary_on_face(x, f))
        c2 = T.frame2(f, (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0))
        dx, dy = c2[0] - p2[0], c2[1] - p2[1]
        n = math.hypot(dx, dy)
        if n <= 1e-12 * T.diam:
            u0 = (1.0, 0.0)
        else:
            u0 = (dx / n, dy / n)
        out.append((f, u0))
        if f == x.face:
            u1 = (-u0[1], u0[0])
            out += [(f, u1), (f, (-u1[0], -u1[1]))]
    return tuple(out)


def cut_locus(T, x, cfg=DEFAULT_CFG):
    """Cut locus of the surface with respect to x.

    The locus is the Voronoi diagram of the star unfolding's source images,
    restricted to the star polygon (Agarwal et al. 1997).  Its leaves are
    the vertex images; its junctions are the non-dominated circumcenters of
    three images, grouped within DEDUP_TOL * diam into nodes of higher
    degree; its arcs join the two nodes that share an image pair.  A
    junction on the polygon's boundary, an image pair not shared by exactly
    two nodes, or a graph that is not such a tree makes it ambiguous.  Each
    node carries its surface point: a leaf its vertex, a junction the end of
    the geodesic ray from the source that develops onto it.

    When the construction is ambiguous (a vertex with tied shortest paths, or
    a degenerate nearest-image diagram), the source is nudged inside its
    face by max(opt_tol/100, 20*DEDUP_TOL) * diam, then by half and a
    quarter of that, in up to three directions: toward the face centroid
    and the two perpendiculars.  A vertex source is also nudged toward the
    centroid of each other incident face.  The first direction in which the
    two largest nudges that build give the same tree signature wins, and
    the smaller of those two is returned, with the perturbation recorded on
    the result.  AmbiguousCut is raised when no direction is stable.
    """
    x = x.canonical()
    try:
        return _voronoi_locus(T, x, None)
    except AmbiguousCut:
        pass
    # the nudge must separate tied path lengths beyond the relative dedup
    # slack that defines a tie, or every retry stays ambiguous; the spread
    # of directions guarantees at least one cuts across the degeneracy
    base = max(cfg.opt_tol / 100.0, 20.0 * DEDUP_TOL) * T.diam
    for f, u in _nudge_directions(T, x):
        built, sigs = [], []
        for delta in (base, base / 2.0, base / 4.0):
            try:
                moved = _nudged(T, x, f, delta, u)
                if moved is None:
                    raise AmbiguousCut("nudge leaves the face")
                xd, off = moved
                loc = _voronoi_locus(T, xd, (x, off))
                built.append(loc)
                sigs.append(loc.signature())
            except AmbiguousCut:
                built.append(None)
                sigs.append(None)
        # the smallest nudge can land back inside the tie-detection window
        # or the degeneracy's flicker zone, so stability is judged on the
        # two largest scales that built at all: agreement a factor of two
        # apart already rules out a one-off numerical accident
        ok = [(b, s) for b, s in zip(built, sigs) if b is not None]
        if len(ok) >= 2 and ok[0][1] == ok[1][1]:
            return ok[1][0]
    raise AmbiguousCut("cut structure is unstable under perturbation of the source")


# ---------------------------------------------------------------------------
# farthest-point sets and the intrinsic radius / diameter

@dataclass(frozen=True)
class AntipodeSet:
    """Farthest points from a source and the distance realizing them."""

    source: SurfacePoint
    value: float
    points: tuple
    distances: tuple
    continuum: bool
    locus: CutLocus


def intrinsic_radius_at(T, x, cfg=DEFAULT_CFG):
    """Farthest-point distance from x and the set of points attaining it.

    The distance to the source is convex along every cut-locus arc, so the
    maximum lives on nodes; an arc whose whole length stays within tolerance
    of the maximum is reported as a continuum and sampled densely.
    """
    locus = cut_locus(T, x, cfg)
    scale = T.diam
    tolv = cfg.opt_tol * scale
    if locus.perturbation is not None:
        # the locus was built at a nudged source; its structure is what we
        # want, but distances there are biased by the nudge offset, so the
        # value is re-read at the true source where it needs no structure
        R = _radius_value(T, x)
        tolv += locus.perturbation[1]
    else:
        R = locus.radius()
    cand = [(n.distance, n.surface) for n in locus.nodes
            if n.distance >= R - tolv]
    continuum = False
    for arc in locus.arcs:
        d0 = locus.nodes[arc.nodes[0]].distance
        d1 = locus.nodes[arc.nodes[1]].distance
        # only arcs long enough to be resolved at the sampling spacing count
        # as a continuum; collapsed slivers near a perturbed degeneracy do not
        if min(d0, d1) >= R - tolv and arc.length > 1e-3 * scale:
            site = locus.star.images[arc.images[0]]
            if _pt_seg2(site, arc.p0, arc.p1) >= R - tolv:
                continuum = True
                steps = max(2, int(math.ceil(arc.length / (1e-3 * scale))))
                for s in range(1, steps):
                    p = arc.point_at(s / steps)
                    cand.append((math.hypot(p[0] - site[0], p[1] - site[1]),
                                 locus.star.to_surface(arc.images[0], p)))
    cand.sort(key=lambda c: -c[0])
    points, dists = [], []
    for d, sp in cand:
        xyz = T.xyz(sp)
        if all(dist3(xyz, T.xyz(o)) > tolv for o in points):
            points.append(sp)
            dists.append(d)
    # a nudged locus sits off x, but the antipodes belong to x itself; an
    # un-nudged star holds x canonicalized once more, which is kept as is
    # because canonical() can still move a weight by an ulp
    source = locus.star.source if locus.perturbation is None else x.canonical()
    return AntipodeSet(source=source, value=R, points=tuple(points),
                       distances=tuple(dists), continuum=continuum, locus=locus)


@dataclass(frozen=True)
class DiameterResult:
    """Largest surface distance, its witness pair, and how it was found."""

    value: float
    pair: tuple
    multiplicity: int
    continuum: bool


def intrinsic_diameter(T, cfg=DEFAULT_CFG):
    """Intrinsic diameter of the surface.

    Maximizes the farthest-point distance over the four vertices and over
    every farthest point of a vertex; the maximizing source and its farthest
    point form the witness pair.
    """
    scale = T.diam
    tolm = cfg.opt_tol * scale
    records = []
    continuum = False
    pool = []
    for v in range(4):
        aset = intrinsic_radius_at(T, vertex_point(v), cfg)
        records.append((aset.value, aset.source, aset.points[0]))
        continuum = continuum or aset.continuum
        for pt in aset.points:
            if len(pt.support()) == 1:
                continue
            if all(dist3(T.xyz(pt), T.xyz(o)) > tolm for o in pool):
                pool.append(pt)
    for a in pool:
        aset = intrinsic_radius_at(T, a, cfg)
        records.append((aset.value, aset.source, aset.points[0]))
        continuum = continuum or aset.continuum
    records.sort(key=lambda r: -r[0])
    value, p, q = records[0]
    mult = len(all_geodesic_segments(T, p, q))
    return DiameterResult(value=value, pair=(p, q), multiplicity=mult,
                          continuum=continuum)


@dataclass(frozen=True)
class RadiusResult:
    """Intrinsic radius: the smallest farthest-point distance and its center."""

    value: float
    center: SurfacePoint
    antipodes: AntipodeSet
    evaluations: int


def _fold_uv(u, v):
    """Clamp (u, v) to the unit triangle by folding across its diagonal."""
    u = min(max(u, 0.0), 1.0)
    v = min(max(v, 0.0), 1.0)
    if u + v > 1.0:
        u, v = 1.0 - v, 1.0 - u
    w = max(1.0 - u - v, 0.0)
    s = u + v + w
    return (u / s, v / s, w / s)


def _point_in_polygon(pt, poly, tol):
    """Even-odd test; a point outside within tol of the boundary is inside."""
    n = len(poly)
    px, py = pt
    inside = False
    # the parity does not depend on which side is counted first
    x1, y1 = poly[-1]
    for x2, y2 in poly:
        if (y1 > py) != (y2 > py):
            xc = x1 + (py - y1) / (y2 - y1) * (x2 - x1)
            if px < xc:
                inside = not inside
        x1, y1 = x2, y2
    return inside or any(_pt_seg2(pt, poly[i], poly[(i + 1) % n]) <= tol
                         for i in range(n))


def _circumcenters(images, scale):
    """Junction candidates of the source images, falling by value.

    (value, point, None, (i, j, l)) for each circumcenter of three images
    that no fourth image is nearer to by more than DEDUP_TOL * scale; value
    is its distance to the nearest image.
    """
    m = len(images)
    snap = DEDUP_TOL * scale
    min_det = 1e-14 * scale * scale
    dist = math.dist
    out = []
    for i in range(m):
        for j in range(i + 1, m):
            for k in range(j + 1, m):
                c = _circumcenter2(images[i], images[j], images[k], min_det)
                if c is None:
                    continue
                # min over a list: a generator costs more on this hot path
                ds = [dist(c, a) for a in images]
                val = min(ds)
                if val < ds[i] - snap:
                    continue  # dominated by a fourth image: not a junction
                out.append((val, c, None, (i, j, k)))
    # falling by value; reverse=True keeps ties in enumeration order
    out.sort(key=itemgetter(0), reverse=True)
    return out


def _star_farthest(star, window=0.0):
    """Farthest-point distance read off a star layout, tolerant of ties.

    The nearest-image distance of any chart point is an exact surface
    distance, so every candidate only ever underestimates the maximum; the
    maximum itself sits on a cut-locus node, and every node is either a
    vertex image or a circumcenter of three source images, so the candidate
    set covers it even when tied path lengths scramble the arc structure.

    Returns (best, nodes): nodes lists the candidates within window of best
    as (value, point, k, triple), where the point is either the vertex image
    corners[k] (triple None) or the circumcenter of the source images
    triple = (i, j, l) (k None).
    """
    return _read_farthest(star, _circumcenters(star.images, star.tetra.diam),
                          window)


def _read_farthest(star, juncs, window):
    """_star_farthest(star, window), given the star's _circumcenters juncs.

    The best value does not depend on the window, so a list read once at
    one window can be read again at another without a second enumeration.
    """
    nodes = [(d, w, k, None)
             for k, (d, w) in enumerate(zip(star.near, star.corners))]
    best = max(star.near)
    snap = DEDUP_TOL * star.tetra.diam
    # in falling order of value, the first junction inside the polygon
    # settles best, and the scan ends below the window
    for node in juncs:
        if node[0] < best - window:
            break
        if _point_in_polygon(node[1], star.poly, snap):
            best = max(best, node[0])
            nodes.append(node)
    return best, [node for node in nodes if node[0] >= best - window]


def _group_junctions(juncs, snap):
    """Junction candidates grouped by circumcenter: (first point, members).

    A candidate joins the first group whose first point lies within snap.
    """
    groups = []
    for node in juncs:
        pt = node[1]
        for g in groups:
            if math.hypot(pt[0] - g[0][0], pt[1] - g[0][1]) <= snap:
                g[1].append(node)
                break
        else:
            groups.append((pt, [node]))
    return groups


def _radius_value(T, x):
    """Farthest-point distance from x, read off its unguarded star layout.

    Near-tied cut paths make the cut structure ambiguous but leave the
    farthest distance well defined, so no tie check is needed here.
    """
    return _star_farthest(_star_layout(T, x))[0]


def _seed_bound(T, face, bary):
    """Lower bound on _radius_value at a point of `face`, with no unfolding.

    F is at least the distance to every vertex.  The straight segment to a
    corner of the face is a shortest path, and a shortest path to the
    vertex the face omits runs straight through one neighbouring face
    (_opposite_cut), so the nearest of its three unfolded images is no
    farther than it.  For an edge point this covers the vertex across the
    edge too.  star_unfold only accepts a vertex image at least
    (1 - 1e-7) * rho from every source image, so the bound is shrunk by a
    relative 1e-6, which also absorbs the rounding between its distances
    and the probe's.
    """
    sx, sy = T.frame2(face, bary)
    near = max(math.hypot(c[0] - sx, c[1] - sy) for c in T.face_frames[face])
    far = min(math.hypot(C2[0] - sx, C2[1] - sy)
              for _, _, _, _, C2, _, _, _ in T.rim_table[face])
    return max(near, far) * (1.0 - 1e-6)


def _chart_to_frame(star, face):
    """Linear map from chart vectors at the star's source to `face`'s frame.

    Chart angle theta points along rot(ref, sign * (theta - theta0)) in the
    face's sector; for an edge source the sector is continued flat across
    the edge.  Returns (c, s, sign, ref), c and s the cosine and sine of
    theta0: v maps to rot(ref, (c * v0 + s * v1, sign * (c * v1 - s * v0))).
    """
    for f, th0, _, _, ref, sign in star.sectors[1]:
        if f == face:
            return math.cos(th0), math.sin(th0), sign, ref
    raise ValueError("face %d is not part of the chart at this point" % face)


def _node_models(star, nodes, face):
    """First-order pieces of each farthest-distance candidate.

    A node's distance from the source moves, to first order, by g.d when
    the source moves by d in `face`'s frame.  A vertex at distance r has
    g = -e, e the unit start direction of a shortest path to it; a vertex
    with tied paths keeps one piece per distinct path, and its model is the
    min over them.  A junction, the circumcenter c of source images i, j, l,
    has g = -sum(lam * e) over its three paths, lam the barycentric
    coordinates of c in the images' triangle (the weights that balance the
    three arriving directions).  Junctions whose circumcenters coincide
    within DEDUP_TOL * diam are one node of higher degree, whose model is
    the min over its triples with lam >= 0 (to rounding).  A junction with
    a negative weight is no local maximum of the distance along the cut
    locus (it grows along one of its arcs), so it never sets F and gets no
    model.  Returns one list of (value, gx, gy) pieces per modelled node.
    """
    images = star.images
    m = len(images)
    snap = DEDUP_TOL * star.tetra.diam
    c, s, sign, (rx, ry) = _chart_to_frame(star, face)
    # StarUnfolding.transform_to_source, with each image's cosine and sine
    # taken once per call rather than once per direction
    turns = [(math.cos(rot), math.sin(rot)) for rot in star.rotations]
    mirrored = star.mirrored

    def unit(k, pt):
        """Unit direction in the frame at which the path through image k
        leaves the source toward pt."""
        a = images[k]
        dx, dy = pt[0] - a[0], pt[1] - a[1]
        if mirrored:
            dy = -dy
        co, si = turns[k]
        u, v = co * dx - si * dy, si * dx + co * dy
        x = c * u + s * v
        y = sign * (c * v - s * u)
        vx, vy = rx * x - ry * y, ry * x + rx * y
        r = math.hypot(vx, vy)
        return vx / r, vy / r

    models = []
    for val, pt, k, tri in nodes:
        if tri is not None:
            continue
        near = [j for j in range(m) if math.hypot(
            pt[0] - images[j][0], pt[1] - images[j][1]) <= val + snap]
        if k in near and (k + 1) % m in near:
            near.remove((k + 1) % m)  # both flanks develop cut k
        pieces = []
        for j in near:
            ex, ey = unit(j, pt)
            pieces.append((val, -ex, -ey))
        models.append(pieces)
    juncs = [node for node in nodes if node[3] is not None]
    for _, members in _group_junctions(juncs, snap):
        pieces = []
        for val, cc, _, tri in members:
            i, j, l = tri
            lam = _bary_in_triangle((images[i], images[j], images[l]), cc)
            # a circumcenter on a side of its triangle (a diagonal of a
            # degree-four node) gets weights of either sign by rounding
            if min(lam) < -1e-9:
                continue
            gx = gy = 0.0
            for w, t in zip(lam, tri):
                ex, ey = unit(t, cc)
                gx -= w * ex
                gy -= w * ey
            pieces.append((val, gx, gy))
        if pieces:
            models.append(pieces)
    return models


def _max_below(pieces, x, y, top):
    """max(v + gx * x + gy * y) over the pieces, or None once it reaches top."""
    m = -math.inf
    for v, gx, gy in pieces:
        t = v + gx * x + gy * y
        if t > m:
            if t >= top:
                return None
            m = t
    return m


def _minimax_lp(pieces, poly):
    """Minimize max(v + g.d) over d in the convex polygon poly.

    A convex piecewise-linear function is smallest at a vertex of its
    arrangement over the polygon: a polygon corner, a breakline (two pieces
    equal) meeting an edge, or two breaklines meeting (three pieces equal).
    The candidates are walked in that order and the first lowest wins.  A
    candidate is dropped as soon as one piece reaches the incumbent's
    value, as it can then no longer be lower, and two breaklines' meeting
    point is tested for lying in the polygon only when it would win.
    pieces is a nonempty list of finite (v, gx, gy).  Returns (value, d).
    """
    n, E = len(pieces), len(poly)
    best = None
    top = math.inf
    for d in poly:
        val = _max_below(pieces, d[0], d[1], top)
        if val is not None:
            best, top = (val, d), val
    for a in range(n):
        va, gax, gay = pieces[a]
        for b in range(a + 1, n):
            vb, gbx, gby = pieces[b]
            dv, dx, dy = va - vb, gax - gbx, gay - gby
            for e in range(E):
                P, Q = poly[e], poly[(e + 1) % E]
                fp = dv + dx * P[0] + dy * P[1]
                fq = dv + dx * Q[0] + dy * Q[1]
                if (fp < 0.0 < fq) or (fq < 0.0 < fp):
                    t = fp / (fp - fq)
                    d = (P[0] + t * (Q[0] - P[0]), P[1] + t * (Q[1] - P[1]))
                    val = _max_below(pieces, d[0], d[1], top)
                    if val is not None:
                        best, top = (val, d), val
            for c in range(b + 1, n):
                vc, gcx, gcy = pieces[c]
                ex, ey = gax - gcx, gay - gcy
                det = dx * ey - dy * ex
                if det == 0.0:
                    continue
                r1, r2 = -dv, vc - va
                d = ((r1 * ey - dy * r2) / det, (dx * r2 - ex * r1) / det)
                val = _max_below(pieces, d[0], d[1], top)
                if val is not None and all(
                        _orient(poly[e], poly[(e + 1) % E], d) >= 0.0
                        for e in range(E)):
                    best, top = (val, d), val
    return best


def _trust_step(models, poly):
    """Minimize the max over nodes of the min over their pieces on poly.

    max-of-min equals the min, over one chosen piece per node, of the
    max-of-affine model, so each choice is one convex problem.
    """
    best = None
    for choice in itertools.product(*models):
        res = _minimax_lp(choice, poly)
        if best is None or res[0] < best[0]:
            best = res
    return best


def _descend(T, face, bary, value, reading, probe, limit, ends, stop):
    """Trust-region minimax descent of the farthest distance inside a face.

    Each step minimizes the nodes' first-order models (_node_models) over
    the box |d|_inf <= delta intersected with the face triangle, probes the
    minimizer, and moves there when the probe is lower.  delta starts at
    0.05 * diam, doubles when a step to the box boundary gains more than
    3/4 of the predicted decrease, becomes half the step taken when a step
    gains less than 1/4 of it, and is quartered when the probe raises
    AmbiguousCut.  The descent stops when the predicted decrease is at most
    1e-13 * diam, delta is at most stop * diam, after `limit` steps (one
    probe each), at a vertex, or within 1e-3 * diam of a point in `ends` (the
    frame points where earlier descents in this face ended), whose minimum
    it would only find again.  Only nodes within 3 * delta of the value can
    overtake it within the box, and a probe lists those within 6 * delta,
    which covers a doubled delta.  A reading is (star, juncs), a probe's
    layout and its junction candidates (_circumcenters), so the start
    point's candidates are listed again at the first window without being
    enumerated again.  probe(face, bary, window) returns (value, nodes,
    reading).  Returns (value, bary, reading) at the end point.
    """
    scale = T.diam
    tri = T.face_frames[face]
    p = T.frame2(face, bary)
    delta = 0.05 * scale
    models = _node_models(reading[0],
                          _read_farthest(*reading, 6.0 * delta)[1], face)
    for _ in range(limit):
        if any(f == face and math.hypot(p[0] - q[0], p[1] - q[1])
               <= 1e-3 * scale for f, q in ends):
            break
        active = [pcs for pcs in models
                  if max(pc[0] for pc in pcs) >= value - 3.0 * delta]
        poly = [(-delta, -delta), (delta, -delta), (delta, delta),
                (-delta, delta)]
        for i in range(3):
            a, b = tri[i], tri[(i + 1) % 3]
            poly = _clip_left(poly, (a[0] - p[0], a[1] - p[1]),
                              (b[0] - p[0], b[1] - p[1]))
        low, d = _trust_step(active, poly)
        pred = value - low
        if pred <= 1e-13 * scale:
            break
        q = (p[0] + d[0], p[1] + d[1])
        qb = [max(c, 0.0) for c in T.bary_from_frame2(face, q)]
        total = qb[0] + qb[1] + qb[2]
        qb = tuple(c / total for c in qb)
        step = max(abs(d[0]), abs(d[1]))
        try:
            val_q, nodes_q, reading_q = probe(face, qb, 6.0 * delta)
        except AmbiguousCut:
            delta *= 0.25
        else:
            gain = (value - val_q) / pred
            if val_q < value:
                p, bary, value, reading = q, qb, val_q, reading_q
                models = _node_models(reading_q[0], nodes_q, face)
            if gain < 0.25:
                delta = 0.5 * step
            elif gain > 0.75 and step >= 0.99 * delta:
                delta *= 2.0
            # at a vertex: one weight in the support (SurfacePoint.support)
            if sum([w > SUPPORT_TOL for w in bary]) == 1:
                break
        if delta <= stop * scale:
            break
    return value, bary, reading


# the two stages of a radius search (Hald & Madsen's split of a minimax
# solver): descents from the seeds share _EXPLORE_PROBES probes and stop
# once delta is _EXPLORE_STOP * diam, enough to rank their basins; only the
# winner is then polished, with at most _POLISH_PROBES more, down to
# delta = _POLISH_STOP * diam
_EXPLORE_PROBES = 44
_EXPLORE_STOP = 3e-4
_POLISH_PROBES = 30
_POLISH_STOP = 1e-11


def _radius_seeds():
    """The 42 (face, bary) seeds of the radius search.

    A 3x3 grid folded into each face, then the six edge midpoints.
    """
    seeds = []
    grid = (0.15, 0.45, 0.75)
    for f in range(4):
        for u in grid:
            for v in grid:
                seeds.append((f, _fold_uv(u, v)))
    for a, b in EDGES:
        f = faces_containing((a, b))[0]
        bary = tuple(0.5 if w in (a, b) else 0.0 for w in FACES[f])
        seeds.append((f, bary))
    return seeds


def intrinsic_radius(T, cfg=DEFAULT_CFG):
    """Intrinsic radius: minimize the farthest-point distance over the surface.

    Every center c satisfies d(c,a) + d(c,b) >= |ab| = diam for the endpoints
    a, b of a longest edge, so Rad >= diam/2.  The midpoint of that edge is
    tried first: when its farthest-point distance is within GEOM_TOL * diam
    of diam/2 it is returned as the center after one evaluation, certified
    to that tolerance.  Its cut locus is built only when _seed_bound there
    is at most diam/2 + GEOM_TOL * diam; above it F(mid), which is at least
    the bound, fails the certificate for certain.  Otherwise the search
    seeds a grid on every face plus the six edge midpoints and runs a
    trust-region minimax descent (_descend) inside a face.  The farthest
    distance F is a max of distance functions, and every probe yields each
    candidate's exact gradient pieces, so each step solves the
    piecewise-linear model of F over the trust region exactly (Madsen's
    minimax method).  The search has two stages.  Exploring, it descends
    from each seed in turn, in order of (F, face, bary), until the descents
    have spent _EXPLORE_PROBES probes; each descent stops once its trust
    region is _EXPLORE_STOP * diam across, which is enough to tell the
    basins apart, so a descent crawling along a valley of F leaves the
    budget to further seeds.  The seeds are probed lazily, best first: each
    has a lower bound on F from its vertex distances (_seed_bound), and a
    seed is probed only once that bound is at most the lowest F probed but
    not yet descended from, so the descents start exactly where a full scan
    of the seeds would start them.
    Polishing, it descends once more from the best point found, with at
    most _POLISH_PROBES probes and down to a trust region of
    _POLISH_STOP * diam.  A search therefore makes between
    1 + 1 + _EXPLORE_PROBES and 1 + 42 + _EXPLORE_PROBES + _POLISH_PROBES
    probes, fewer only if the usable seeds run out.  A
    descent result replaces the incumbent only when it is lower by more
    than GEOM_TOL * diam, so probe rounding cannot pull the center off a
    tied optimum, and the winner is re-evaluated with full ambiguity
    handling.  evaluations counts the certificate as one, whether or not
    its cut locus was built, plus every probe of the search; the final
    re-evaluation is not counted.
    """
    scale = T.diam
    margin = GEOM_TOL * scale
    mid = edge_point(*EDGES[T.longest_edge], 0.5)
    # F(mid) is at least _seed_bound there, so above diam/2 + margin the
    # certificate fails for certain and its cut locus is not built
    if _seed_bound(T, mid.face, mid.bary) <= 0.5 * scale + margin:
        try:
            aset = intrinsic_radius_at(T, mid, cfg)
        except AmbiguousCut:
            aset = None  # no certificate; the search decides
        if aset is not None and aset.value <= 0.5 * scale + margin:
            return RadiusResult(value=aset.value, center=aset.source,
                                antipodes=aset, evaluations=1)
    count = [1]

    def probe(face, bary, window):
        count[0] += 1
        star = _star_layout(T, SurfacePoint(face, bary))
        juncs = _circumcenters(star.images, scale)
        return (*_read_farthest(star, juncs, window), (star, juncs))

    def value(face, bary):
        try:
            val, _, reading = probe(face, bary, 0.0)
        except AmbiguousCut:
            return math.inf, None  # unusable probe point; the scan moves on
        return val, reading

    # lazy best-first scan: a seed is probed only once its lower bound could
    # place it before the best probed seed, so the heap pops the seeds in
    # exactly the order of a full scan sorted by (F, face, bary); spent
    # counts descent probes only, as seed probes are off the explore budget
    order = sorted((_seed_bound(T, f, bary), f, bary)
                   for f, bary in _radius_seeds())
    heap = []
    nxt = spent = 0
    best = None
    ends = []
    while spent < _EXPLORE_PROBES:
        while nxt < len(order) and (not heap or order[nxt][0] <= heap[0][0]):
            _, f, bary = order[nxt]
            val, reading = value(f, bary)
            # nxt is unique, so no two entries ever compare their readings
            heapq.heappush(heap, (val, f, bary, nxt, reading))
            nxt += 1
        if not heap or not math.isfinite(heap[0][0]):
            break
        val, f, bary, _, reading = heapq.heappop(heap)
        if best is None:
            best = (val, reading, f, bary)
        start = count[0]
        val, bary, reading = _descend(T, f, bary, val, reading, probe,
                                      _EXPLORE_PROBES - spent, ends,
                                      _EXPLORE_STOP)
        spent += count[0] - start
        ends.append((f, T.frame2(f, bary)))
        if val < best[0] - margin:
            best = (val, reading, f, bary)
    if best is None:
        raise AmbiguousCut("no probe point produced a usable evaluation")

    val, reading, f, bary = best
    polished = _descend(T, f, bary, val, reading, probe, _POLISH_PROBES, [],
                        _POLISH_STOP)
    if polished[0] < val - margin:
        bary = polished[1]

    center = SurfacePoint(f, bary).canonical()
    aset = intrinsic_radius_at(T, center, cfg)
    return RadiusResult(value=aset.value, center=aset.source, antipodes=aset,
                        evaluations=count[0])

