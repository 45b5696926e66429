"""Intrinsic metrics of tetrahedron surfaces.

Star unfoldings, cut loci, farthest-point sets, and the geodesic radius and
diameter they induce.  The star unfolding develops the surface, cut along the
shortest paths from a source to every vertex, into a planar polygon with one
image of the source per cut sector.  Shortest-path distance to the source then
equals straight-line distance to the nearest source image, which turns
cut-locus and farthest-point questions into planar nearest-site geometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import AmbiguousCut, SearchExhausted
from .geometry import (
    DEFAULT_CFG,
    EDGE_INDEX,
    EDGES,
    FACES,
    SurfacePoint,
    Tetrahedron,
    ToleranceConfig,
    apex_vertex,
    dist3,
    edge_point,
    faces_containing,
    neighbor_face,
    vertex_point,
)
from .geodesics import (
    CAP_RATIO,
    TRIM,
    GeodesicPath,
    _lerp2,
    _place_apex,
    _pt_seg2,
    _seg_cross_param,
    all_geodesic_segments,
    chart_angle,
    chart_sectors,
    trace_ray,
)

Vec2 = tuple

_TWO_PI = 2.0 * math.pi
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


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


def _golden_min(f, a, b, tol):
    """Golden-section minimum of f over [a, b] to parameter tolerance tol."""
    x1 = b - _INV_PHI * (b - a)
    x2 = a + _INV_PHI * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_PHI * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_PHI * (b - a)
            f2 = f(x2)
    xm = 0.5 * (a + b)
    return xm, f(xm)


def _line_polygon_events(p0, u, poly, tol):
    """Sorted parameters s where the line p0 + s*u crosses the polygon boundary.

    Corners sitting on the line (within tol) are grouped: a run of on-line
    corners contributes one crossing when the flanking corners lie on strictly
    opposite sides and none when the boundary only touches the line.
    """
    n = len(poly)
    nx, ny = -u[1], u[0]
    h = [(c[0] - p0[0]) * nx + (c[1] - p0[1]) * ny for c in poly]
    on = [abs(v) <= tol for v in h]
    if all(on):
        raise AmbiguousCut("polygon collapsed onto a bisector line")
    start = next(i for i in range(n) if not on[i])
    events = []
    k = 0
    while k < n:
        i = (start + k) % n
        j = (i + 1) % n
        if not on[j]:
            if h[i] * h[j] < 0.0:
                t = h[i] / (h[i] - h[j])
                px = poly[i][0] + t * (poly[j][0] - poly[i][0])
                py = poly[i][1] + t * (poly[j][1] - poly[i][1])
                events.append((px - p0[0]) * u[0] + (py - p0[1]) * u[1])
            k += 1
            continue
        run = [j]
        while on[(run[-1] + 1) % n]:
            run.append((run[-1] + 1) % n)
        q = (run[-1] + 1) % n
        if h[i] * h[q] < 0.0:
            s = sum((poly[r][0] - p0[0]) * u[0] + (poly[r][1] - p0[1]) * u[1]
                    for r in run) / len(run)
            events.append(s)
        k += len(run) + 1
    events.sort()
    return events


def _dominance_window(p0, u, ai, others, lo, hi, scale):
    """Clip [lo, hi] on the line p0 + s*u to where ai is nearer than `others`.

    Returns (lo, hi, lo_site, hi_site) with the site index that set each bound
    (None when the polygon bound survived), or None when the window is empty.
    """
    lo_site = hi_site = None
    for kid, ak in others:
        dx, dy = ak[0] - ai[0], ak[1] - ai[1]
        rhs = 0.5 * (ak[0] * ak[0] + ak[1] * ak[1] - ai[0] * ai[0] - ai[1] * ai[1])
        c0 = p0[0] * dx + p0[1] * dy - rhs
        c1 = u[0] * dx + u[1] * dy
        if abs(c1) <= 1e-14 * scale:
            if c0 > 0.0:
                return None
            continue
        s_b = -c0 / c1
        if c1 > 0.0:
            if s_b < hi:
                hi, hi_site = s_b, kid
        else:
            if s_b > lo:
                lo, lo_site = s_b, kid
    if hi - lo <= 0.0:
        return None
    return lo, hi, lo_site, hi_site


def _clip_halfplane(poly, a, b):
    """Keep the part of the polygon at least as close to a as to b."""
    nx, ny = b[0] - a[0], b[1] - a[1]
    c = 0.5 * (b[0] * b[0] + b[1] * b[1] - a[0] * a[0] - a[1] * a[1])
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
    fv = FACES[f0]
    frame = T.face_frames[f0]
    # the search develops from x.canonical(), whose renormalized weights can
    # differ from those of x in the last bit; the same source keeps rho and
    # the crossing bit-identical to geodesic_distance
    S2 = T.frame2(f0, x.canonical().bary)
    scale = T.diam
    slack = cfg.dedup_tol if tie_guard else 0.0
    cap = CAP_RATIO * scale * (1.0 + 1e-9) * (1.0 + slack) + 1e-14 * scale
    cands = []
    for i in range(3):
        a, b = sorted((fv[i], fv[(i + 1) % 3]))
        A2, B2 = frame[fv.index(a)], frame[fv.index(b)]
        u, h = T.apex_table[(neighbor_face(f0, a, b), a, b)]
        C2 = _place_apex(A2, B2, frame[fv.index(apex_vertex(f0, a, b))], u, h)
        W1, W2 = _lerp2(A2, B2, TRIM), _lerp2(A2, B2, 1.0 - TRIM)
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
            cands.append((d, EDGE_INDEX[(a, b)], (a, b), min(max(t, 0.0), 1.0),
                          C2))
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


def _cut_locus_raw(T, x, cfg, back_map, perturbation):
    star = star_unfold(T, x, cfg)
    scale = T.diam
    m = len(star.images)
    poly = star.polygon()
    snap = cfg.dedup_tol * scale

    raw_arcs = []
    for i in range(m):
        for j in range(i + 1, m):
            ai, aj = star.images[i], star.images[j]
            dx, dy = aj[0] - ai[0], aj[1] - ai[1]
            L = math.hypot(dx, dy)
            if L <= 1e-12 * scale:
                raise AmbiguousCut("coincident source images")
            mid = (0.5 * (ai[0] + aj[0]), 0.5 * (ai[1] + aj[1]))
            u = (-dy / L, dx / L)
            events = _line_polygon_events(mid, u, poly, 1e-10 * scale)
            if len(events) % 2:
                raise AmbiguousCut("bisector crossing parity failed")
            others = [(k, star.images[k]) for k in range(m) if k != i and k != j]
            found = 0
            for e0, e1 in zip(events[0::2], events[1::2]):
                win = _dominance_window(mid, u, ai, others, e0, e1, scale)
                if win is None:
                    continue
                lo, hi, lo_site, hi_site = win
                if hi - lo <= 1e-11 * scale:
                    continue
                found += 1
                if found > 1:
                    raise AmbiguousCut("bisector cell is not an interval")
                p0 = (mid[0] + lo * u[0], mid[1] + lo * u[1])
                p1 = (mid[0] + hi * u[0], mid[1] + hi * u[1])
                raw_arcs.append(((i, j), p0, p1, lo_site, hi_site))

    # cluster arc endpoints into nodes
    records = []
    for idx, (pair, p0, p1, lo_site, hi_site) in enumerate(raw_arcs):
        records.append((p0, pair, lo_site, idx, 0))
        records.append((p1, pair, hi_site, idx, 1))
    clusters = []
    owner = {}
    for rec in records:
        pt = rec[0]
        placed = False
        for ci, cl in enumerate(clusters):
            cx, cy = cl["centroid"]
            if math.hypot(pt[0] - cx, pt[1] - cy) <= snap:
                cl["recs"].append(rec)
                k = len(cl["recs"])
                cl["centroid"] = (cx + (pt[0] - cx) / k, cy + (pt[1] - cy) / k)
                owner[(rec[3], rec[4])] = ci
                placed = True
                break
        if not placed:
            clusters.append({"centroid": pt, "recs": [rec]})
            owner[(rec[3], rec[4])] = len(clusters) - 1

    corner_of = {}
    prelim = []
    for ci, cl in enumerate(clusters):
        pt = cl["centroid"]
        boundary = any(rec[2] is None for rec in cl["recs"])
        if boundary:
            best_k, best_d = 0, None
            for k, w in enumerate(star.corners):
                d = math.hypot(pt[0] - w[0], pt[1] - w[1])
                if best_d is None or d < best_d:
                    best_k, best_d = k, d
            if best_d > snap:
                raise AmbiguousCut(
                    "cut locus meets the boundary away from a vertex image")
            flank = {best_k, (best_k + 1) % m}
            for rec in cl["recs"]:
                if set(rec[1]) != flank:
                    raise AmbiguousCut(
                        "foreign bisector reaches a vertex image")
            w = star.corners[best_k]
            dists = [math.hypot(w[0] - a[0], w[1] - a[1]) for a in star.images]
            fl = sorted(flank)
            spread = abs(dists[fl[0]] - dists[fl[1]])
            corner_of[ci] = best_k
            prelim.append((ci, w, star.cuts[best_k].length, tuple(fl),
                           star.cuts[best_k].vertex, spread))
        else:
            dists = [math.hypot(pt[0] - a[0], pt[1] - a[1]) for a in star.images]
            dmin = min(dists)
            img = tuple(k for k in range(m) if dists[k] <= dmin + snap)
            if len(img) < 3:
                raise AmbiguousCut("interior junction with fewer than three images")
            dsel = [dists[k] for k in img]
            prelim.append((ci, pt, sum(dsel) / len(dsel), img, None,
                           max(dsel) - min(dsel)))

    if len(corner_of) != m or len(set(corner_of.values())) != m:
        raise AmbiguousCut("cut locus does not reach every vertex image exactly once")

    # deterministic node order: leaves by corner index, then junctions by position
    prelim.sort(key=lambda e: (0, corner_of[e[0]], (0.0, 0.0)) if e[4] is not None
                else (1, 0, e[1]))
    remap = {entry[0]: ni for ni, entry in enumerate(prelim)}

    nodes = []
    for ci, pt, dist, img, vert, spread in prelim:
        if back_map:
            if vert is not None:
                surf = vertex_point(vert)
            else:
                surf = star.to_surface(img[0], pt)
        else:
            surf = None
        nodes.append(CutNode(point=pt, distance=dist, images=img, vertex=vert,
                             spread=spread, surface=surf))

    arcs = []
    for idx, (pair, p0, p1, lo_site, hi_site) in enumerate(raw_arcs):
        na = remap[owner[(idx, 0)]]
        nb = remap[owner[(idx, 1)]]
        if na == nb:
            if math.hypot(p1[0] - p0[0], p1[1] - p0[1]) > 3.0 * snap:
                raise AmbiguousCut("cut locus arc loops back on itself")
            continue
        arcs.append(CutArc(images=pair, nodes=(na, nb),
                           p0=nodes[na].point, p1=nodes[nb].point))

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


def _nudged(T, x, delta, u):
    """Move x along its face by arc length delta in chart direction u."""
    x = x.canonical()
    f = x.face
    p2 = T.frame2(f, x.bary)
    nb = T.bary_from_frame2(f, (p2[0] + delta * u[0], p2[1] + delta * u[1]))
    if min(nb) < 0.0:
        return None  # the move leaves the face
    s = sum(nb)
    nb = tuple(c / s for c in nb)
    return SurfacePoint(f, nb).canonical(), delta


def _nudge_directions(T, x):
    """Three pairwise non-parallel unit directions in the face chart of x.

    A degeneracy locus through x is a curve; its tangent can parallel at
    most one of the three, so at least two directions cut across it.
    """
    x = x.canonical()
    f = x.face
    p2 = T.frame2(f, x.bary)
    c2 = T.frame2(f, (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0))
    dx, dy = c2[0] - p2[0], c2[1] - p2[1]
    n = math.hypot(dx, dy)
    if n <= 1e-12 * T.diam:
        u0 = (1.0, 0.0)
    else:
        u0 = (dx / n, dy / n)
    u1 = (-u0[1], u0[0])
    return (u0, u1, (-u1[0], -u1[1]))


def cut_locus(T, x, cfg=DEFAULT_CFG, resolve=True, back_map=True):
    """Cut locus of the surface with respect to x.

    When the construction is ambiguous (a vertex with tied shortest paths, or
    a degenerate nearest-image diagram) and resolve is true, the source is
    nudged inside its face by max(opt_tol/100, 20*dedup_tol) * diam, then by
    half and a quarter of that, in up to three directions: toward the face
    centroid and the two perpendiculars.  The first direction in which the
    two largest nudges that build give the same tree signature wins, and the
    smaller of those two is returned, with the perturbation recorded on the
    result.  AmbiguousCut is raised when no direction is stable.
    """
    x = x.canonical()
    try:
        return _cut_locus_raw(T, x, cfg, back_map, None)
    except AmbiguousCut:
        if not resolve:
            raise
    # the nudge must separate tied path lengths beyond the relative dedup
    # slack that defines a tie, or every retry stays ambiguous; the spread
    # of directions guarantees at least one cuts across the degeneracy
    base = max(cfg.opt_tol / 100.0, 20.0 * cfg.dedup_tol) * T.diam
    for u in _nudge_directions(T, x):
        built, sigs = [], []
        for delta in (base, base / 2.0, base / 4.0):
            try:
                moved = _nudged(T, x, delta, u)
                if moved is None:
                    raise AmbiguousCut("nudge leaves the face")
                xd, off = moved
                loc = _cut_locus_raw(T, xd, cfg, back_map, (x, off))
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


def _arc_valley(locus, arc):
    """Minimum source distance along an arc (distances are convex along arcs)."""
    site = locus.star.images[arc.images[0]]

    def f(t):
        p = arc.point_at(t)
        return math.hypot(p[0] - site[0], p[1] - site[1])

    _, vmin = _golden_min(f, 0.0, 1.0, 1e-7)
    return vmin, f


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
            vmin, f = _arc_valley(locus, arc)
            if vmin >= R - tolv:
                continuum = True
                steps = max(2, int(math.ceil(arc.length / (1e-3 * scale))))
                for s in range(1, steps):
                    t = s / steps
                    cand.append((f(t), locus.star.to_surface(arc.images[0],
                                                             arc.point_at(t))))
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


def _star_farthest(star, cfg):
    """Farthest-point distance read off a star unfolding, tolerant of ties.

    The nearest-image distance of any chart point is an exact surface
    distance, so every candidate only ever underestimates the maximum; the
    maximum itself sits on a cut-locus node, and every node is either a
    vertex image or a circumcenter of three source images, so the candidate
    set covers it even when tied path lengths scramble the arc structure.
    """
    images = star.images
    m = len(images)
    poly = star.polygon()
    scale = star.tetra.diam
    snap = cfg.dedup_tol * scale

    def nearest(pt):
        return min(math.hypot(pt[0] - a[0], pt[1] - a[1]) for a in images)

    best = max(nearest(w) for w in star.corners)
    for i in range(m):
        for j in range(i + 1, m):
            for k in range(j + 1, m):
                (ax, ay), (bx, by), (cx, cy) = images[i], images[j], images[k]
                d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
                if abs(d) <= 1e-14 * scale * scale:
                    continue
                a2 = ax * ax + ay * ay
                b2 = bx * bx + by * by
                c2 = cx * cx + cy * cy
                ux = (a2 * (by - cy) + b2 * (cy - ay) + c2 * (ay - by)) / d
                uy = (a2 * (cx - bx) + b2 * (ax - cx) + c2 * (bx - ax)) / d
                val = nearest((ux, uy))
                if val < math.hypot(ux - ax, uy - ay) - snap:
                    continue  # dominated by a fourth image: not a junction
                if val > best and _point_in_polygon((ux, uy), poly, snap):
                    best = val
    return best


def _radius_value(T, x, cfg):
    """Farthest-point distance from x, read off its unguarded star unfolding.

    Near-tied cut paths make the cut structure ambiguous but leave the
    farthest distance well defined, so no tie check is needed here.
    """
    return _star_farthest(star_unfold(T, x, cfg, tie_guard=False), cfg)


def intrinsic_radius(T, cfg=DEFAULT_CFG):
    """Intrinsic radius: minimize the farthest-point distance over the surface.

    Every center c satisfies d(c,a) + d(c,b) >= |ab| = diam for the endpoints
    a, b of a longest edge, so Rad >= diam/2.  The midpoint of that edge is
    tried first: when its farthest-point distance is within geom_tol * diam
    of diam/2 it is returned as the center after one evaluation, certified
    to that tolerance.  Otherwise the search seeds a grid on every face plus
    the six edge midpoints, polishes up to three of the best seeds with
    Nelder-Mead under a fold-to-triangle parametrization (a descent result
    replaces the incumbent only when it is lower by more than geom_tol *
    diam, so probe rounding cannot pull the center off a tied optimum), and
    re-evaluates the winner with full ambiguity handling.
    """
    from scipy.optimize import minimize

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

    def value(face, bary):
        count[0] += 1
        try:
            return _radius_value(T, SurfacePoint(face, bary), cfg)
        except AmbiguousCut:
            return math.inf  # unusable probe point; the scan moves on

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

    evals = sorted((value(f, bary), f, bary) for f, bary in seeds)
    best_val, best_face, best_bary = evals[0]
    if not math.isfinite(best_val):
        raise AmbiguousCut("no probe point produced a usable evaluation")

    starts = [e for e in evals[:3] if e[0] <= best_val * 1.05][:3]

    best = (best_val, best_face, best_bary)
    for val, f, bary in starts:
        def fun(uv, face=f):
            b = _fold_uv(uv[0], uv[1])
            return value(face, b)

        res = minimize(fun, x0=(bary[0], bary[1]), method="Nelder-Mead",
                       options=dict(xatol=2e-4, fatol=1e-8 * scale,
                                    maxfev=80))
        if res.fun < best[0] - margin:
            best = (float(res.fun), f, _fold_uv(res.x[0], res.x[1]))

    # final polish from the incumbent with a tight small simplex
    f = best[1]
    u0, v0 = best[2][0], best[2][1]
    h = 1e-3

    def fun(uv, face=f):
        return value(face, _fold_uv(uv[0], uv[1]))

    res = minimize(fun, x0=(u0, v0), method="Nelder-Mead",
                   options=dict(initial_simplex=[(u0, v0), (u0 + h, v0),
                                                 (u0, v0 + h)],
                                xatol=1e-6, fatol=1e-10 * scale, maxfev=150))
    if res.fun < best[0] - margin:
        best = (float(res.fun), f, _fold_uv(res.x[0], res.x[1]))

    center = SurfacePoint(best[1], best[2]).canonical()
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
