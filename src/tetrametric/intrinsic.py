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
(_star_farthest) for both the cut locus and the radius probe.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

from .errors import AmbiguousCut, SearchExhausted
from .geometry import (
    DEFAULT_CFG,
    EDGES,
    FACES,
    SurfacePoint,
    Tetrahedron,
    ToleranceConfig,
    _bary_in_triangle,
    _circumcenter2,
    dist3,
    edge_point,
    faces_containing,
    vertex_point,
)
from .geodesics import (
    CAP_RATIO,
    GeodesicPath,
    _pt_seg2,
    _seg_cross_param,
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


def _orient(p, q, r):
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


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
    """No two non-adjacent sides of the closed polygon come within tol."""
    n = len(poly)
    for i in range(n):
        for j in range(i + 2, n):
            if i == 0 and j == n - 1:
                continue
            if _segments_within(poly[i], poly[(i + 1) % n], poly[j],
                                poly[(j + 1) % n], tol):
                return False
    return True


def _clip_halfplane(poly, a, b):
    """Keep the part of the polygon at least as close to a as to b."""
    nx, ny = b[0] - a[0], b[1] - a[1]
    c = 0.5 * (b[0] * b[0] + b[1] * b[1] - a[0] * a[0] - a[1] * a[1])
    return _clip(poly, nx, ny, c)


def _clip_left(poly, a, b):
    """Keep the part of the polygon on or left of the directed line a->b."""
    nx, ny = b[1] - a[1], a[0] - b[0]
    return _clip(poly, nx, ny, nx * a[0] + ny * a[1])


def _clip(poly, nx, ny, c):
    """Keep the part of the polygon where P.n <= c."""
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

    def nearest_image(self, y2):
        best, arg = None, 0
        for k, a in enumerate(self.images):
            d = math.hypot(y2[0] - a[0], y2[1] - a[1])
            if best is None or d < best:
                best, arg = d, k
        return arg, best

    def source_distance(self, y2):
        """Surface distance from the source to the point developing at y2."""
        return self.nearest_image(y2)[1]

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

        def sa(u, v):
            return math.atan2(u[0] * v[1] - u[1] * v[0],
                              u[0] * v[0] + u[1] * v[1])

        s = -1.0 if self.mirrored else 1.0
        di, dp = sa(d_i, d_pt), sa(d_p, d_pt)
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
            turn = math.atan2(u[0] * v[1] - u[1] * v[0], u[0] * v[0] + u[1] * v[1])
            if abs(turn) > tol:
                out.append(q)
        return tuple(out)


def _walk(rhos, sigmas, omegas, sign):
    """Lay out the boundary polygon by turtle walk; returns corners and closure gap."""
    m = len(rhos)
    pos = (0.0, 0.0)
    heading = 0.0
    pts = []
    for i in range(2 * m):
        pts.append(pos)
        L = rhos[i // 2]
        pos = (pos[0] + L * math.cos(heading), pos[1] + L * math.sin(heading))
        nxt = i + 1
        if nxt < 2 * m:
            alpha = omegas[nxt // 2] if nxt % 2 == 1 else sigmas[(nxt // 2 - 1) % m]
            heading += sign * (math.pi - alpha)
    return pts, math.hypot(pos[0] - pts[0][0], pos[1] - pts[0][1])


def _rotation_constants(thetas, sigmas, images, corners, mirrored):
    """Per-image chart-to-plane rotation constants and their worst inconsistency.

    Image k is flanked by cuts k-1 and k; the constant is fixed on cut k and
    cross-checked on cut k-1.
    """
    m = len(images)
    rots = []
    worst = 0.0
    for k in range(m):
        a, w = images[k], corners[k]
        phi = math.atan2(w[1] - a[1], w[0] - a[0])
        c = (thetas[k] + phi) if mirrored else (thetas[k] - phi)
        wp = corners[(k - 1) % m]
        phip = math.atan2(wp[1] - a[1], wp[0] - a[0])
        th_prev = thetas[k] - sigmas[(k - 1) % m]
        expect = (c - th_prev) if mirrored else (th_prev - c)
        worst = max(worst, _angle_gap(phip, expect))
        rots.append(_wrap(c, _TWO_PI))
    return rots, worst


def _opposite_cut(T, x, v, sec, cfg, tie_guard):
    """Shortest path from a face-interior x to the vertex v its face omits.

    A shortest path visits each face at most once and crosses no edge
    through its target vertex, so this one leaves the face of x across one
    of the face's three edges and runs straight to v in the neighbouring
    face.  Each of the three developments is kept only if the geodesic
    search would keep it (the TRIM window, the crossing test and the cap),
    so the shortest survivor is the search's answer.  Returns (rho, theta,
    path); with tie_guard, a second survivor within the dedup slack of the
    shortest raises AmbiguousCut, as all_geodesic_segments would report it.
    """
    f0 = x.face
    # the search develops from x.canonical(), whose renormalized weights can
    # differ from those of x in the last bit; the same source keeps rho and
    # the crossing bit-identical to geodesic_distance
    S2 = T.frame2(f0, x.canonical().bary)
    scale = T.diam
    slack = cfg.dedup_tol if tie_guard else 0.0
    cap = CAP_RATIO * scale * (1.0 + 1e-9) * (1.0 + slack) + 1e-14 * scale
    cands = []
    for a, b, A2, B2, C2, W1, W2, e in T.rim_table[f0]:
        if _orient(S2, W1, W2) < 0.0:
            W1, W2 = W2, W1
        if _orient(S2, W1, C2) < 0.0 or _orient(S2, C2, W2) < 0.0:
            continue
        d = math.hypot(C2[0] - S2[0], C2[1] - S2[1])
        hit = _seg_cross_param(S2, C2, A2, B2)
        if d > cap or hit is None:
            continue
        t, s = hit
        if -1e-9 <= t <= 1.0 + 1e-9 and -1e-12 <= s <= 1.0 + 1e-12:
            cands.append((d, e, (a, b), min(max(t, 0.0), 1.0), C2))
    if not cands:
        raise SearchExhausted("no geodesic found within the face budget")
    cands.sort()
    rho, _, edge, t, C2 = cands[0]
    if (tie_guard and len(cands) > 1
            and cands[1][0] <= rho * (1.0 + cfg.dedup_tol) + 1e-15 * scale):
        raise AmbiguousCut("two shortest paths of length %.12g reach vertex %d"
                           % (rho, v))
    theta = chart_angle(T, x, f0, (C2[0] - S2[0], C2[1] - S2[1]), sec)
    path = GeodesicPath(source=x, target=vertex_point(v),
                        crossings=((edge, t),), length=rho)
    return rho, theta, path


def star_unfold(T, x, cfg=DEFAULT_CFG, tie_guard=True):
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
    farthest-distance values).
    """
    x = x.canonical()
    supp = x.support()
    scale = T.diam
    sec = chart_sectors(T, x)
    omega = sec[0]

    entries = []
    for v in range(4):
        if supp == (v,):
            continue
        shared = [f for f in range(4) if f not in supp and f != v]
        if shared:
            f = shared[0]
            p2 = T.frame2(f, T.bary_on_face(x, f))
            vb = tuple(1.0 if w == v else 0.0 for w in FACES[f])
            q2 = T.frame2(f, vb)
            d2 = (q2[0] - p2[0], q2[1] - p2[1])
            rho = math.hypot(d2[0], d2[1])
            theta = chart_angle(T, x, f, d2, sec)
            path = GeodesicPath(source=x, target=vertex_point(v), crossings=(),
                                length=rho)
            if tie_guard:
                segs = all_geodesic_segments(T, x, vertex_point(v),
                                             slack=cfg.dedup_tol, cfg=cfg)
                if len(segs) > 1:
                    raise AmbiguousCut(
                        "two shortest paths of length %.12g reach vertex %d" %
                        (segs[0].length, v))
        else:
            rho, theta, path = _opposite_cut(T, x, v, sec, cfg, tie_guard)
        entries.append((theta, v, rho, path))
    entries.sort()

    m = len(entries)
    thetas = [e[0] for e in entries]
    rhos = [e[2] for e in entries]
    sigmas = []
    for k in range(m):
        if k + 1 < m:
            gap = thetas[k + 1] - thetas[k]
        else:
            gap = omega - thetas[m - 1] + thetas[0]
        if gap < 1e-9:
            raise AmbiguousCut("cut directions collide at the source")
        sigmas.append(gap)
    omegas = [T.cone_angles[e[1]] for e in entries]

    # the two walk orientations are planar mirror images, so one layout
    # suffices; the chart-to-plane map may still be a rotation or a
    # reflection, which the flank consistency check decides
    pts, closure = _walk(rhos, sigmas, omegas, 1.0)
    if closure > 1e-7 * scale:
        raise AmbiguousCut("star polygon failed to close")
    images = tuple(pts[0::2])
    corners = tuple(pts[1::2])
    chosen = None
    for mirrored in (True, False):
        rots, worst = _rotation_constants(thetas, sigmas, images, corners,
                                          mirrored)
        if worst < 1e-6:
            chosen = (tuple(rots), mirrored)
            break
    if chosen is None:
        raise AmbiguousCut("star polygon failed to close consistently")
    rots, mirrored = chosen

    cuts = tuple(CutPath(vertex=e[1], length=e[2], angle=e[0], path=e[3])
                 for e in entries)
    star = StarUnfolding(tetra=T, source=x, omega=omega, cuts=cuts,
                         images=images, corners=corners, rotations=rots,
                         mirrored=mirrored, sectors=sec)

    if abs(star.area() - T.area) > 1e-6 * T.area:
        raise AmbiguousCut("star polygon area drifted from the surface area")
    if not _polygon_simple(star.polygon(), 1e-9 * scale):
        raise AmbiguousCut("star polygon is not simple")
    for k in range(m):
        w = corners[k]
        dists = [math.hypot(w[0] - a[0], w[1] - a[1]) for a in images]
        if min(dists) < rhos[k] * (1.0 - 1e-7):
            raise AmbiguousCut("vertex image closer to a foreign source image")
    return star


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


def _voronoi_locus(T, x, cfg, back_map, perturbation):
    """Cut locus at x itself, built as cut_locus describes, or AmbiguousCut."""
    star = star_unfold(T, x, cfg)
    images = star.images
    m = len(images)
    poly = star.polygon()
    sides = list(zip(poly, poly[1:] + poly[:1]))
    snap = cfg.dedup_tol * T.diam

    def dists(pt):
        return [math.hypot(pt[0] - a[0], pt[1] - a[1]) for a in images]

    nodes, owns = [], []
    for k, w in enumerate(star.corners):
        fl = tuple(sorted((k, (k + 1) % m)))
        d = dists(w)
        vert = star.cuts[k].vertex
        nodes.append(CutNode(point=w, distance=star.cuts[k].length, images=fl,
                             vertex=vert, spread=abs(d[fl[0]] - d[fl[1]]),
                             surface=vertex_point(vert) if back_map else None))
        owns.append([fl])

    # _star_farthest's own domination slack, dedup_tol * diam, admits
    # ill-conditioned circumcenters of thin shapes that sit well off the
    # true node; geom_tol * diam keeps only the genuine ones
    juncs = [node for node in _star_farthest(star, cfg, math.inf)[1]
             if node[3] is not None and node[0] >= math.dist(
                 node[1], images[node[3][0]]) - cfg.geom_tol * T.diam]
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
        surf = star.to_surface(img[0], pt) if back_map else None
        built.append((CutNode(point=pt, distance=sum(dsel) / len(dsel),
                              images=img, vertex=None,
                              spread=max(dsel) - min(dsel), surface=surf), own))
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


def cut_locus(T, x, cfg=DEFAULT_CFG, resolve=True, back_map=True):
    """Cut locus of the surface with respect to x.

    The locus is the Voronoi diagram of the star unfolding's source images,
    restricted to the star polygon (Agarwal et al. 1997).  Its leaves are
    the vertex images; its junctions are the non-dominated circumcenters of
    three images, grouped within dedup_tol * diam into nodes of higher
    degree; its arcs join the two nodes that share an image pair.  A
    junction on the polygon's boundary, an image pair not shared by exactly
    two nodes, or a graph that is not such a tree makes it ambiguous.

    When the construction is ambiguous (a vertex with tied shortest paths, or
    a degenerate nearest-image diagram) and resolve is true, the source is
    nudged inside its face by max(opt_tol/100, 20*dedup_tol) * diam, then by
    half and a quarter of that, in up to three directions: toward the face
    centroid and the two perpendiculars.  A vertex source is also nudged
    toward the centroid of each other incident face.  The first direction
    in which the two largest nudges that build give the same tree
    signature wins, and the smaller of those two is returned, with the
    perturbation recorded on the result.  AmbiguousCut is raised when no
    direction is stable.
    """
    x = x.canonical()
    try:
        return _voronoi_locus(T, x, cfg, back_map, None)
    except AmbiguousCut:
        if not resolve:
            raise
    # the nudge must separate tied path lengths beyond the relative dedup
    # slack that defines a tie, or every retry stays ambiguous; the spread
    # of directions guarantees at least one cuts across the degeneracy
    base = max(cfg.opt_tol / 100.0, 20.0 * cfg.dedup_tol) * T.diam
    for f, u in _nudge_directions(T, x):
        built, sigs = [], []
        for delta in (base, base / 2.0, base / 4.0):
            try:
                moved = _nudged(T, x, f, delta, u)
                if moved is None:
                    raise AmbiguousCut("nudge leaves the face")
                xd, off = moved
                loc = _voronoi_locus(T, xd, cfg, back_map, (x, off))
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


def intrinsic_radius_at(T, x, cfg=DEFAULT_CFG, resolve=True):
    """Farthest-point distance from x and the set of points attaining it.

    The distance to the source is convex along every cut-locus arc, so the
    maximum lives on nodes; an arc whose whole length stays within tolerance
    of the maximum is reported as a continuum and sampled densely.
    """
    locus = cut_locus(T, x, cfg, resolve=resolve)
    scale = T.diam
    tolv = cfg.opt_tol * scale
    if locus.perturbation is not None:
        # the locus was built at a nudged source; its structure is what we
        # want, but distances there are biased by the nudge offset, so the
        # value is re-read at the true source where it needs no structure
        R = _radius_value(T, x, cfg)
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
    return AntipodeSet(source=locus.star.source, value=R, points=tuple(points),
                       distances=tuple(dists), continuum=continuum, locus=locus)


@dataclass(frozen=True)
class DiameterResult:
    """Largest surface distance, its witness pair, and how it was found."""

    value: float
    pair: tuple
    multiplicity: int
    continuum: bool
    candidates: tuple


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
    mult = len(all_geodesic_segments(T, p, q, slack=cfg.dedup_tol, cfg=cfg))
    return DiameterResult(value=value, pair=(p, q), multiplicity=mult,
                          continuum=continuum,
                          candidates=tuple((r[1], r[0]) for r in records))


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
    """Even-odd test with a boundary band of width tol counted as inside."""
    n = len(poly)
    px, py = pt
    inside = False
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        if _pt_seg2(pt, poly[i], poly[(i + 1) % n]) <= tol:
            return True
        if (y1 > py) != (y2 > py):
            xc = x1 + (py - y1) / (y2 - y1) * (x2 - x1)
            if px < xc:
                inside = not inside
    return inside


def _star_farthest(star, cfg, window=0.0):
    """Farthest-point distance read off a star unfolding, tolerant of ties.

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
    images = star.images
    m = len(images)
    scale = star.tetra.diam
    snap = cfg.dedup_tol * scale

    def nearest(pt):
        # min over a list: a generator costs more on this hot path
        return min([math.hypot(pt[0] - a[0], pt[1] - a[1]) for a in images])

    nodes = [(nearest(w), w, k, None) for k, w in enumerate(star.corners)]
    best = max(node[0] for node in nodes)
    juncs = []
    for i in range(m):
        for j in range(i + 1, m):
            for k in range(j + 1, m):
                c = _circumcenter2(images[i], images[j], images[k],
                                   1e-14 * scale * scale)
                if c is None:
                    continue
                val = nearest(c)
                ax, ay = images[i]
                if val < math.hypot(c[0] - ax, c[1] - ay) - snap:
                    continue  # dominated by a fourth image: not a junction
                juncs.append((val, c, None, (i, j, k)))
    if juncs:
        poly = star.polygon()
        # in falling order of value, the first junction inside the polygon
        # settles best, and the scan ends below the window
        juncs.sort(key=lambda node: -node[0])
        for node in juncs:
            if node[0] < best - window:
                break
            if _point_in_polygon(node[1], poly, snap):
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


def _radius_value(T, x, cfg):
    """Farthest-point distance from x, read off its unguarded star unfolding.

    Near-tied cut paths make the cut structure ambiguous but leave the
    farthest distance well defined, so no tie check is needed here.
    """
    return _star_farthest(star_unfold(T, x, cfg, tie_guard=False), cfg)[0]


def _chart_to_frame(star, face):
    """Linear map from chart vectors at the star's source to `face`'s frame.

    Chart angle theta points along rot(ref, sign * (theta - theta0)) in the
    face's sector; for an edge source the sector is continued flat across
    the edge.
    """
    for f, th0, _, _, ref, sign in star.sectors[1]:
        if f == face:
            c, s = math.cos(th0), math.sin(th0)

            def to_frame(v):
                x = c * v[0] + s * v[1]
                y = sign * (c * v[1] - s * v[0])
                return (ref[0] * x - ref[1] * y, ref[1] * x + ref[0] * y)

            return to_frame
    raise ValueError("face %d is not part of the chart at this point" % face)


def _node_models(star, nodes, face, cfg):
    """First-order pieces of each farthest-distance candidate.

    A node's distance from the source moves, to first order, by g.d when
    the source moves by d in `face`'s frame.  A vertex at distance r has
    g = -e, e the unit start direction of a shortest path to it; a vertex
    with tied paths keeps one piece per distinct path, and its model is the
    min over them.  A junction, the circumcenter c of source images i, j, l,
    has g = -sum(lam * e) over its three paths, lam the barycentric
    coordinates of c in the images' triangle (the weights that balance the
    three arriving directions).  Junctions whose circumcenters coincide
    within dedup_tol * diam are one node of higher degree, whose model is
    the min over its triples with lam >= 0 (to rounding).  A junction with
    a negative weight is no local maximum of the distance along the cut
    locus (it grows along one of its arcs), so it never sets F and gets no
    model.  Returns one list of (value, gx, gy) pieces per modelled node.
    """
    images = star.images
    m = len(images)
    snap = cfg.dedup_tol * star.tetra.diam
    to_frame = _chart_to_frame(star, face)

    def unit(k, pt):
        vx, vy = to_frame(star.transform_to_source(k, pt))
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
        for val, c, _, tri in members:
            lam = _bary_in_triangle(tuple(images[t] for t in tri), c)
            # a circumcenter on a side of its triangle (a diagonal of a
            # degree-four node) gets weights of either sign by rounding
            if min(lam) < -1e-9:
                continue
            gx = gy = 0.0
            for w, t in zip(lam, tri):
                ex, ey = unit(t, c)
                gx -= w * ex
                gy -= w * ey
            pieces.append((val, gx, gy))
        if pieces:
            models.append(pieces)
    return models


def _minimax_lp(pieces, poly):
    """Minimize max(v + g.d) over d in the convex polygon poly.

    A convex piecewise-linear function is smallest at a vertex of its
    arrangement over the polygon: a polygon corner, a breakline (two pieces
    equal) meeting an edge, or two breaklines meeting (three pieces equal).
    Returns (value, d).
    """
    n, E = len(pieces), len(poly)
    cands = list(poly)
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
                    cands.append((P[0] + t * (Q[0] - P[0]),
                                  P[1] + t * (Q[1] - P[1])))
            for c in range(b + 1, n):
                vc, gcx, gcy = pieces[c]
                ex, ey = gax - gcx, gay - gcy
                det = dx * ey - dy * ex
                if det == 0.0:
                    continue
                r1, r2 = -dv, vc - va
                d = ((r1 * ey - dy * r2) / det, (dx * r2 - ex * r1) / det)
                if all(_orient(poly[e], poly[(e + 1) % E], d) >= 0.0
                       for e in range(E)):
                    cands.append(d)
    best = None
    for d in cands:
        val = max(v + gx * d[0] + gy * d[1] for v, gx, gy in pieces)
        if best is None or val < best[0]:
            best = (val, d)
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


def _descend(T, face, bary, value, star, cfg, probe, limit, ends, stop):
    """Trust-region minimax descent of the farthest distance inside a face.

    Each step minimizes the nodes' first-order models (_node_models) over
    the box |d|_inf <= delta intersected with the face triangle, probes the
    minimizer, and moves there when the probe is lower.  delta starts at
    0.05 * diam, doubles when a step to the box boundary gains more than
    3/4 of the predicted decrease, becomes half the step taken when a step
    gains less than 1/4 of it, and is quartered when the probe raises
    AmbiguousCut.  The descent stops when the predicted decrease is at most
    1e-13 * diam, delta is at most stop * diam, after 60 steps or `limit`
    probes, at a vertex, or within 1e-3 * diam of a point in `ends` (the
    frame points where earlier descents in this face ended), whose minimum
    it would only find again.  Only nodes within 3 * delta of the value can
    overtake it within the box, and a probe lists those within 6 * delta,
    which covers a doubled delta.  probe(face, bary, window) returns
    (value, nodes, star).  Returns (value, bary, star) at the end point.
    """
    scale = T.diam
    tri = T.face_frames[face]
    p = T.frame2(face, bary)
    delta = 0.05 * scale
    models = _node_models(star, _star_farthest(star, cfg, 6.0 * delta)[1],
                          face, cfg)
    for _ in range(min(60, limit)):
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
            val_q, nodes_q, star_q = probe(face, qb, 6.0 * delta)
        except AmbiguousCut:
            delta *= 0.25
        else:
            gain = (value - val_q) / pred
            if val_q < value:
                p, bary, value, star = q, qb, val_q, star_q
                models = _node_models(star_q, nodes_q, face, cfg)
            if gain < 0.25:
                delta = 0.5 * step
            elif gain > 0.75 and step >= 0.99 * delta:
                delta *= 2.0
            if len(SurfacePoint(face, bary).support()) == 1:
                break
        if delta <= stop * scale:
            break
    return value, bary, star


# the two stages of a radius search (Hald & Madsen's split of a minimax
# solver): descents from the seeds share _EXPLORE_PROBES probes and stop
# once delta is _EXPLORE_STOP * diam, enough to rank their basins; only the
# winner is then polished, with at most _POLISH_PROBES more, down to
# delta = _POLISH_STOP * diam
_EXPLORE_PROBES = 44
_EXPLORE_STOP = 3e-4
_POLISH_PROBES = 30
_POLISH_STOP = 1e-11


def intrinsic_radius(T, cfg=DEFAULT_CFG):
    """Intrinsic radius: minimize the farthest-point distance over the surface.

    Every center c satisfies d(c,a) + d(c,b) >= |ab| = diam for the endpoints
    a, b of a longest edge, so Rad >= diam/2.  The midpoint of that edge is
    tried first: when its farthest-point distance is within geom_tol * diam
    of diam/2 it is returned as the center after one evaluation, certified
    to that tolerance.  Otherwise the search seeds a grid on every face plus
    the six edge midpoints and runs a trust-region minimax descent
    (_descend) inside a face.  The farthest distance F is a max of distance
    functions, and every probe yields each candidate's exact gradient
    pieces, so each step solves the piecewise-linear model of F over the
    trust region exactly (Madsen's minimax method).  The search has two
    stages.  Exploring, it descends from each seed in turn, best first,
    until the descents have spent _EXPLORE_PROBES probes; each descent
    stops once its trust region is _EXPLORE_STOP * diam across, which is
    enough to tell the basins apart, so a descent crawling along a valley
    of F leaves the budget to further seeds.  Polishing, it descends once
    more from the best point found, with at most _POLISH_PROBES probes and
    down to a trust region of _POLISH_STOP * diam.  A search therefore
    makes between 1 + 42 + _EXPLORE_PROBES and 1 + 42 + _EXPLORE_PROBES +
    _POLISH_PROBES probes, fewer only if the usable seeds run out.  A
    descent result replaces the incumbent only when it is lower by more
    than geom_tol * diam, so probe rounding cannot pull the center off a
    tied optimum, and the winner is re-evaluated with full ambiguity
    handling.  evaluations counts every probe.
    """
    scale = T.diam
    margin = cfg.geom_tol * scale
    try:
        mid = intrinsic_radius_at(T, edge_point(*EDGES[T.longest_edge], 0.5),
                                  cfg)
    except AmbiguousCut:
        mid = None  # no certificate; the search decides
    if mid is not None and mid.value <= 0.5 * scale + margin:
        return RadiusResult(value=mid.value, center=mid.source, antipodes=mid,
                            evaluations=1)
    count = [1]

    def probe(face, bary, window):
        count[0] += 1
        star = star_unfold(T, SurfacePoint(face, bary), cfg, tie_guard=False)
        return (*_star_farthest(star, cfg, window), star)

    def value(face, bary):
        try:
            val, _, star = probe(face, bary, 0.0)
        except AmbiguousCut:
            return math.inf, None  # unusable probe point; the scan moves on
        return val, star

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

    evals = sorted(((*value(f, bary), f, bary) for f, bary in seeds),
                   key=lambda e: (e[0], e[2], e[3]))
    best = evals[0]
    if not math.isfinite(best[0]):
        raise AmbiguousCut("no probe point produced a usable evaluation")

    budget = count[0] + _EXPLORE_PROBES
    ends = []
    for val, star, f, bary in evals:
        if count[0] >= budget or not math.isfinite(val):
            break
        val, bary, star = _descend(T, f, bary, val, star, cfg, probe,
                                   budget - count[0], ends, _EXPLORE_STOP)
        ends.append((f, T.frame2(f, bary)))
        if val < best[0] - margin:
            best = (val, star, f, bary)

    val, star, f, bary = best
    polished = _descend(T, f, bary, val, star, cfg, probe, _POLISH_PROBES, [],
                        _POLISH_STOP)
    if polished[0] < val - margin:
        bary = polished[1]

    center = SurfacePoint(f, bary).canonical()
    aset = intrinsic_radius_at(T, center, cfg)
    return RadiusResult(value=aset.value, center=aset.source, antipodes=aset,
                        evaluations=count[0])


# ---------------------------------------------------------------------------
# source unfolding

@dataclass(frozen=True)
class SourceUnfolding:
    """Development of the surface around the source itself.

    Each nearest-image cell of the star unfolding is rotated about its source
    image into a common plane with the source at the origin; the cells tile a
    star-shaped region whose outer boundary develops the cut locus.
    """

    star: StarUnfolding
    cells: tuple
    star_cells: tuple

    def radius(self):
        return max(math.hypot(p[0], p[1]) for cell in self.cells for p in cell)


def source_unfold(T, x, cfg=DEFAULT_CFG):
    """Source unfolding of the surface from x (cells of the nearest-image diagram)."""
    star = star_unfold(T, x, cfg)
    m = len(star.images)
    poly = star.polygon()
    raw, cells = [], []
    for k in range(m):
        cell = list(poly)
        for j in range(m):
            if j == k:
                continue
            cell = _clip_halfplane(cell, star.images[k], star.images[j])
            if not cell:
                break
        raw.append(tuple(cell))
        cells.append(tuple(star.transform_to_source(k, p) for p in cell))
    total = sum(abs(_shoelace(c)) for c in raw if len(c) >= 3)
    if abs(total - star.area()) > 1e-6 * star.area():
        raise AmbiguousCut("nearest-image cells fail to tile the development")
    return SourceUnfolding(star=star, cells=tuple(cells), star_cells=tuple(raw))
