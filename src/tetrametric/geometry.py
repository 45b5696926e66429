"""Tetrahedron surface primitives: combinatorics, validation, planar unfolding.

Vertices are labeled 0..3.  Face i is the triangle opposite vertex i; with a
positively oriented vertex order the canonical face triples carry outward
normals.  Points on the surface are addressed by (face, barycentric) with a
deterministic canonical form (SurfacePoint.canonical): the lowest-index
incident face, and weights that settle to themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import Collinear, DegenerateInput

# ---------------------------------------------------------------------------
# combinatorics

# Face i is opposite vertex i; outward-oriented when det[v1-v0,v2-v0,v3-v0]>0.
FACES = ((1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 1))
# Edge i and edge 5-i are an opposite pair: (01,23), (02,13), (03,12).
EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
# the vertices of each face in increasing order
_FACE_SUPPORT = tuple(tuple(sorted(fv)) for fv in FACES)

EDGE_INDEX = {}
for _i, (_a, _b) in enumerate(EDGES):
    EDGE_INDEX[(_a, _b)] = _i
    EDGE_INDEX[(_b, _a)] = _i

# geodesic windows stay open at vertex images: crossing parameters are
# confined to [TRIM, 1-TRIM], excluding paths through a positive-defect vertex
TRIM = 1e-12

# a barycentric weight at most this is zero: it leaves a point's support
SUPPORT_TOL = 1e-12

# GEOM_TOL * diam is the slack of comparisons between two exact values: tied
# chord distances, genuine cut-locus junctions, and the Rad margin
GEOM_TOL = 1e-9

# DEDUP_TOL is the relative slack under which two path lengths tie (a vertex
# with two shortest paths), the rounding step of crossing parameters in path
# signatures, and, times diam, the distance under which two planar points
# are one (cut-locus nodes)
DEDUP_TOL = 1e-7


def neighbor_face(f, a, b):
    """The other face containing edge (a, b)."""
    return 6 - a - b - f


def apex_vertex(f, a, b):
    """The vertex of face f not on edge (a, b)."""
    # sum(FACES[f]) = 6 - f, so the remaining vertex is 6 - f - a - b
    return 6 - f - a - b


def faces_containing(support):
    """Faces whose closed triangle contains all vertices in `support`."""
    # face f omits exactly vertex f
    return tuple(f for f in range(4) if f not in support)


# Which edge lengths and frame corners each entry of a Tetrahedron's tables
# reads, fixed by the face table: per shape only the arithmetic is left.

# face_frames: per face (p, q, r) = FACES[f], the edges pq, pr and qr
_FRAME_EDGES = tuple(
    (EDGE_INDEX[(p, q)], EDGE_INDEX[(p, r)], EDGE_INDEX[(q, r)])
    for p, q, r in FACES)

# apex_table: (g, a, b) -> the edges ab, ac and bc, c = apex_vertex(g, a, b)
_APEX_EDGES = {(g, a, b): (EDGE_INDEX[(a, b)], EDGE_INDEX[(a, 6 - g - a - b)],
                           EDGE_INDEX[(b, 6 - g - a - b)])
               for g in range(4) for a in FACES[g] for b in FACES[g] if a != b}


def _rim_row(f, i):
    """rim_table's row i of face f: (a, b, ia, ib, ic, apex key, edge index),
    the edge's sorted endpoints, the frame corners of a, b and of f's
    vertex off the edge, and the apex_table key across the edge."""
    fv = FACES[f]
    a, b = sorted((fv[i], fv[(i + 1) % 3]))
    return (a, b, fv.index(a), fv.index(b), fv.index(apex_vertex(f, a, b)),
            (neighbor_face(f, a, b), a, b), EDGE_INDEX[(a, b)])


_RIM_ROWS = tuple(tuple(_rim_row(f, i) for i in range(3)) for f in range(4))

# corner_angles: per face corner (f, v), in FACES order, v's two neighbours
_CORNERS = tuple((f, v) + tuple(w for w in FACES[f] if w != v)
                 for f in range(4) for v in FACES[f])


def _vertex_fan(v):
    """The faces around vertex v in chart order, as (face, iv, ie, ix):
    the positions in FACES[face] of v and of the neighbours on the edges
    the fan enters and leaves the face by.  The fan starts in the lowest
    face holding v, at its lowest other vertex, and each face leaves by
    the edge the next one enters."""
    face = 0 if v != 0 else 1
    entry = min(w for w in FACES[face] if w != v)
    fan = []
    for _ in range(3):
        exit_v = apex_vertex(face, v, entry)
        fv = FACES[face]
        fan.append((face, fv.index(v), fv.index(entry), fv.index(exit_v)))
        face, entry = neighbor_face(face, v, exit_v), exit_v
    return tuple(fan)


# chart_sectors at a vertex: the fan of each vertex
_VERTEX_FANS = tuple(_vertex_fan(v) for v in range(4))

# chart_sectors at a point of edge (a, b), a < b: the faces f < g holding
# it, the positions of a, b and g in FACES[f] and those of a, b and f in
# FACES[g] (g is f's vertex off the edge, and f is g's)
_EDGE_CHARTS = {
    (a, b): (f, g, FACES[f].index(a), FACES[f].index(b), FACES[f].index(g),
             FACES[g].index(a), FACES[g].index(b), FACES[g].index(f))
    for a, b in EDGES for f, g in [faces_containing((a, b))]}


# ---------------------------------------------------------------------------
# small vector helpers (plain tuples; hot paths avoid array overhead)

def _sub3(u, v):
    return (u[0] - v[0], u[1] - v[1], u[2] - v[2])


def _dot3(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _cross3(u, v):
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _norm3(u):
    return math.sqrt(u[0] * u[0] + u[1] * u[1] + u[2] * u[2])


def _lerp2(A, B, t):
    return (A[0] + t * (B[0] - A[0]), A[1] + t * (B[1] - A[1]))


def dist3(u, v):
    return _norm3(_sub3(u, v))


def _orient(p, q, r):
    """Twice the signed area of triangle pqr (> 0 when counterclockwise)."""
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def _pt_seg2(P, A, B):
    """Distance from planar point P to segment AB."""
    ax, ay = A
    vx, vy = B[0] - ax, B[1] - ay
    wx, wy = P[0] - ax, P[1] - ay
    vv = vx * vx + vy * vy
    t = 0.0 if vv == 0.0 else max(0.0, min(1.0, (wx * vx + wy * vy) / vv))
    dx, dy = wx - t * vx, wy - t * vy
    return math.hypot(dx, dy)


def _signed_angle(u, v):
    """Angle turning planar vector u into v, in (-pi, pi]."""
    return math.atan2(u[0] * v[1] - u[1] * v[0], u[0] * v[0] + u[1] * v[1])


def _bary_in_triangle(corners, p2):
    """Barycentric coordinates of planar point p2 in the triangle `corners`."""
    a, b, c = corners
    d = (b[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (b[1] - a[1])
    v = ((p2[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (p2[1] - a[1])) / d
    w = ((b[0] - a[0]) * (p2[1] - a[1]) - (p2[0] - a[0]) * (b[1] - a[1])) / d
    return (1.0 - v - w, v, w)


def _circumcenter2(a, b, c, min_det=0.0):
    """Circumcenter of three planar points; None when |2 det| <= min_det."""
    ax, ay = a
    bx, by = b
    cx, cy = c
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if abs(d) <= min_det:
        return None
    a2 = ax * ax + ay * ay
    b2 = bx * bx + by * by
    c2 = cx * cx + cy * cy
    ux = (a2 * (by - cy) + b2 * (cy - ay) + c2 * (ay - by)) / d
    uy = (a2 * (cx - bx) + b2 * (ax - cx) + c2 * (bx - ax)) / d
    return (ux, uy)


# ---------------------------------------------------------------------------
# configuration

@dataclass(frozen=True)
class ToleranceConfig:
    """The two tolerances a caller can set.

    opt_tol, times diam, is the farthest-point window of
    intrinsic_radius_at: cut-locus nodes that close to the farthest
    distance are antipodes, and arcs that close along their length are a
    continuum.  Antipodes closer together than that are one point.
    quality_floor is the degeneracy threshold volume >= floor *
    longest_edge^3.
    """

    opt_tol: float = 1e-6
    quality_floor: float = 1e-6

    def __post_init__(self):
        if not (self.opt_tol > 0 and self.quality_floor > 0):
            raise ValueError("tolerances must be strictly positive")
        if self.opt_tol < GEOM_TOL:
            raise ValueError("opt_tol must not be below GEOM_TOL")


DEFAULT_CFG = ToleranceConfig()


# ---------------------------------------------------------------------------
# surface points

@dataclass(frozen=True)
class SurfacePoint:
    """A point on the surface: face index plus barycentric coordinates.

    bary is taken over FACES[face] in table order.  canonical() gives the
    point's one address: weights at most SUPPORT_TOL are +0.0, the face is
    the lowest-index one holding the point, and the largest weight (the
    first of equals) is 1 minus the sum of the other two.  That form is a
    fixpoint, so p.canonical().canonical() is p.canonical().
    """

    face: int
    bary: tuple

    def __post_init__(self):
        if not 0 <= self.face <= 3:
            raise ValueError("face index out of range")
        b = tuple([float(x) for x in self.bary])
        if len(b) != 3:
            raise ValueError("bary must have three components")
        if not all(map(math.isfinite, b)):
            raise ValueError("bary must be finite")
        if min(b) < -1e-9 or abs(b[0] + b[1] + b[2] - 1.0) > 1e-9:
            raise ValueError("bary must be nonnegative and sum to 1")
        object.__setattr__(self, "bary", b)

    def support(self):
        """Global vertex ids with weight above SUPPORT_TOL."""
        b0, b1, b2 = self.bary
        if b0 > SUPPORT_TOL and b1 > SUPPORT_TOL and b2 > SUPPORT_TOL:
            return _FACE_SUPPORT[self.face]  # the common face-interior case
        return tuple(sorted([v for v, w in zip(FACES[self.face], self.bary)
                             if w > SUPPORT_TOL]))

    def canonical(self):
        """The point's canonical form, which is its own canonical form.

        Weights at most SUPPORT_TOL snap to +0.0, the point moves to the
        lowest-index face holding it, and the largest weight (the first of
        equals) becomes 1 minus the sum of the other two.  A point already
        in that form is returned as is.
        """
        face, bary = self.face, self.bary
        if _settle(*bary) == bary:
            b0, b1, b2 = bary
            if b0 > SUPPORT_TOL and b1 > SUPPORT_TOL and b2 > SUPPORT_TOL:
                return self  # the common face-interior case
            # each weight above SUPPORT_TOL or +0.0 (-0.0 compares equal to
            # the +0.0 it snaps to), and no vertex below the face weightless
            for v, w in zip(FACES[face], bary):
                if w <= SUPPORT_TOL and (v < face or w != 0.0
                                         or math.copysign(1.0, w) < 0.0):
                    break
            else:
                return self
        return _trusted_point(*_canonical_form(face, bary))


def _settle(b0, b1, b2):
    """The weights with the largest, the first of equals, set to 1 minus
    the sum of the other two.  Setting it can leave another weight larger
    by an ulp; that one is set next, until the largest stays, so the
    result settles to itself."""
    while True:
        if b0 >= b1 and b0 >= b2:
            w = 1.0 - (b1 + b2)
            if w >= b1 and w >= b2:
                return (w, b1, b2)
            b0 = w
        elif b1 >= b2:
            w = 1.0 - (b0 + b2)
            if w > b0 and w >= b2:
                return (b0, w, b2)
            b1 = w
        else:
            w = 1.0 - (b0 + b1)
            if w > b0 and w > b1:
                return (b0, b1, w)
            b2 = w


def _canonical_form(face, bary):
    """(face, bary) of SurfacePoint(face, bary).canonical()."""
    b0, b1, b2 = bary
    if b0 > SUPPORT_TOL and b1 > SUPPORT_TOL and b2 > SUPPORT_TOL:
        # a face point: nothing snaps and it stays on its face
        return face, _settle(b0, b1, b2)
    b = [0.0 if w <= SUPPORT_TOL else w for w in bary]
    fv = FACES[face]
    # face v is the one opposite vertex v, so the faces holding the point
    # are its own and those of its zero weights
    target = min([face] + [v for v, w in zip(fv, b) if w == 0.0])
    if target != face:
        # vertex `face` is off the old face, so its new weight is zero
        b = [0.0 if v == face else b[fv.index(v)] for v in FACES[target]]
    return target, _settle(*b)


def _trusted_point(face, bary):
    """SurfacePoint(face, bary) without __post_init__'s checks, for a face
    index in range and a tuple of float weights, each nonnegative, that sum
    to 1 within rounding."""
    sp = object.__new__(SurfacePoint)
    object.__setattr__(sp, "face", face)
    object.__setattr__(sp, "bary", bary)
    return sp


# one shared frozen point per vertex: vertex points are requested on every
# star unfolding and cut, and rebuilding them re-runs the bary validation
_VERTEX_POINTS = tuple(
    SurfacePoint(f, tuple(1.0 if gi == v else 0.0 for gi in FACES[f]))
    for v, f in ((0, 1), (1, 0), (2, 0), (3, 0)))


def vertex_point(v):
    """Canonical SurfacePoint at vertex v."""
    if v not in range(4):
        raise ValueError("vertex index out of range")
    return _VERTEX_POINTS[v]


def edge_point(a, b, t):
    """Canonical SurfacePoint at (1-t) a + t b on edge (a, b)."""
    if a == b:
        raise ValueError("edge endpoints must differ")
    face = min(f for f in range(4) if f != a and f != b)
    bary = [0.0, 0.0, 0.0]
    fv = FACES[face]
    bary[fv.index(a)] = 1.0 - t
    bary[fv.index(b)] = t
    return SurfacePoint(face, tuple(bary)).canonical()


def face_point(face, bary):
    """Canonical SurfacePoint from a face index and barycentric triple."""
    return SurfacePoint(face, tuple(bary)).canonical()


# ---------------------------------------------------------------------------
# the tetrahedron

class _first_read:
    """A method read as an attribute, computed on first read and kept.

    The value goes into the instance __dict__, which shadows this
    non-data descriptor, so later reads never reach it; unlike
    functools.cached_property on CPython 3.11 the first read takes no lock.
    A read that raises stores nothing and raises again when read again.
    Two threads may both compute a value on first read; they store equal
    values.
    """

    def __init__(self, func):
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


@dataclass(frozen=True)
class Tetrahedron:
    """Four labeled 3D vertices with derived combinatorics.

    Construct through validate_tetrahedron, which fixes orientation and
    enforces the quality floor; most derived tables are cached lazily.
    """

    vertices: tuple

    @_first_read
    def edge_lengths(self):
        return tuple(dist3(self.vertices[a], self.vertices[b]) for a, b in EDGES)

    @_first_read
    def elen(self):
        """Edge length lookup keyed by ordered vertex pair (both orders)."""
        table = {}
        for i, (a, b) in enumerate(EDGES):
            table[(a, b)] = self.edge_lengths[i]
            table[(b, a)] = self.edge_lengths[i]
        return table

    @_first_read
    def longest_edge(self):
        """Index of the longest edge; lowest index wins ties."""
        lengths = self.edge_lengths
        return max(range(6), key=lambda i: (lengths[i], -i))

    @_first_read
    def diam(self):
        """Extrinsic diameter: the longest edge length."""
        return self.edge_lengths[self.longest_edge]

    @_first_read
    def volume(self):
        v0, v1, v2, v3 = self.vertices
        det = _dot3(_cross3(_sub3(v1, v0), _sub3(v2, v0)), _sub3(v3, v0))
        return abs(det) / 6.0

    @_first_read
    def face_frames(self):
        """Per face, 2D corner coordinates aligned with FACES order.

        Corner 0 at the origin, corner 1 on the positive x-axis, corner 2
        with positive y.  The frame is an isometric copy of the face.
        """
        lengths = self.edge_lengths
        frames = []
        for f, (pq, pr, qr) in enumerate(_FRAME_EDGES):
            lpq, lpr, lqr = lengths[pq], lengths[pr], lengths[qr]
            x = (lpq * lpq + lpr * lpr - lqr * lqr) / (2.0 * lpq)
            y2 = lpr * lpr - x * x
            if y2 <= 0.0:
                raise DegenerateInput("face %d is degenerate" % f)
            frames.append(((0.0, 0.0), (lpq, 0.0), (x, math.sqrt(y2))))
        return tuple(frames)

    @_first_read
    def apex_table(self):
        """(face, a, b) -> (u, h): apex offsets along/off the directed edge a->b.

        For each face g and ordered pair (a, b) of its vertices, the
        vertex c = apex_vertex(g, a, b) lies u along a->b from a and h off
        the edge.  An entry is computed the first time table[key] reads it
        (so `in`, len and iteration see only the entries read so far), and
        a face degenerate at that entry raises DegenerateInput then.
        """
        return _ApexTable(self.edge_lengths)

    @_first_read
    def rim_table(self):
        """Per face, its three edges developed into the face's frame.

        Entry i of face f describes edge (FACES[f][i], FACES[f][i+1]) as
        (a, b, A2, B2, C2, W1, W2, e): the sorted endpoints a < b, their
        frame images, the image of the neighbouring face's apex unfolded
        across the edge, the ends of the edge's [TRIM, 1-TRIM] window and
        the edge index.  rim_table[f] builds face f's rim the first time
        it is read; reading the table checks every face (face_frames).
        """
        return _RimTable(self.face_frames, self.apex_table)

    @_first_read
    def star_cells(self):
        """Cell key -> the layout of the star unfolding from any source in
        that cell (_StarCells), each built the first time it is read."""
        return _StarCells(self.face_frames, self.edge_lengths)

    @_first_read
    def corner_angles(self):
        """(face, global vertex) -> interior angle of that face corner."""
        verts = self.vertices
        table = {}
        for f, v, i, j in _CORNERS:
            # atan2(|u x w|, u . w) for the sides u, w from v: stable near 0
            # and pi
            px, py, pz = verts[v]
            ux, uy, uz = verts[i][0] - px, verts[i][1] - py, verts[i][2] - pz
            wx, wy, wz = verts[j][0] - px, verts[j][1] - py, verts[j][2] - pz
            cx = uy * wz - uz * wy
            cy = uz * wx - ux * wz
            cz = ux * wy - uy * wx
            table[(f, v)] = math.atan2(math.sqrt(cx * cx + cy * cy + cz * cz),
                                       ux * wx + uy * wy + uz * wz)
        return table

    @_first_read
    def cone_angles(self):
        """Total surface angle at each vertex (sum of incident face corners)."""
        totals = [0.0, 0.0, 0.0, 0.0]
        for (f, v), ang in self.corner_angles.items():
            totals[v] += ang
        return tuple(totals)

    @_first_read
    def face_areas(self):
        areas = []
        for f in range(4):
            p, q, r = (self.vertices[i] for i in FACES[f])
            areas.append(0.5 * _norm3(_cross3(_sub3(q, p), _sub3(r, p))))
        return tuple(areas)

    @_first_read
    def area(self):
        return sum(self.face_areas)

    # -- point mappings ----------------------------------------------------

    def xyz(self, sp):
        """3D coordinates of a surface point."""
        p, q, r = (self.vertices[i] for i in FACES[sp.face])
        u, v, w = sp.bary
        return (u * p[0] + v * q[0] + w * r[0],
                u * p[1] + v * q[1] + w * r[1],
                u * p[2] + v * q[2] + w * r[2])

    def frame2(self, face, bary):
        """Frame coordinates of a barycentric point of `face`."""
        a, b, c = self.face_frames[face]
        u, v, w = bary
        return (u * a[0] + v * b[0] + w * c[0], u * a[1] + v * b[1] + w * c[1])

    def bary_from_frame2(self, face, p2):
        """Barycentric coordinates of a frame point of `face`."""
        return _bary_in_triangle(self.face_frames[face], p2)

    def bary_on_face(self, sp, face):
        """Express a surface point on another face containing its support."""
        if sp.face == face:
            return sp.bary
        supp = sp.support()
        if face in supp:
            raise ValueError("face %d does not contain the point" % face)
        fv_old = FACES[sp.face]
        fv_new = FACES[face]
        nb = [0.0, 0.0, 0.0]
        for gi, val in zip(fv_old, sp.bary):
            if val != 0.0:
                nb[fv_new.index(gi)] = val
        return tuple(nb)


class _ApexTable(dict):
    """Tetrahedron.apex_table: each entry computed on first read from the
    edge lengths alone, so the table refers to no tetrahedron.  Two threads
    may both compute an entry; they store equal values."""

    __slots__ = ("lengths",)

    def __init__(self, lengths):
        super().__init__()
        self.lengths = lengths

    def __missing__(self, key):
        ab, ac, bc = _APEX_EDGES[key]
        lengths = self.lengths
        lab, lac, lbc = lengths[ab], lengths[ac], lengths[bc]
        u = (lac * lac - lbc * lbc + lab * lab) / (2.0 * lab)
        h2 = lac * lac - u * u
        if h2 <= 0.0:
            raise DegenerateInput("face %d is degenerate" % key[0])
        value = self[key] = (u, math.sqrt(h2))
        return value


class _RimTable:
    """Tetrahedron.rim_table: each face's rim built on first read from the
    face frames and the apex table, so the table refers to no
    tetrahedron.  Two threads may both build a rim; they store equal
    values."""

    __slots__ = ("frames", "apex", "rims")

    def __init__(self, frames, apex):
        self.frames = frames
        self.apex = apex
        self.rims = [None] * 4

    def __getitem__(self, f):
        rim = self.rims[f]
        if rim is None:
            frame, apex = self.frames[f], self.apex
            rows = []
            for a, b, ia, ib, ic, key, e in _RIM_ROWS[f]:
                A2, B2 = frame[ia], frame[ib]
                u, h = apex[key]
                C2 = _place_apex(A2, B2, frame[ic], u, h)
                rows.append((a, b, A2, B2, C2, _lerp2(A2, B2, TRIM),
                             _lerp2(A2, B2, 1.0 - TRIM), e))
            rim = self.rims[f] = tuple(rows)
        return rim


def _follows(f, u, w):
    """Whether w follows u in FACES[f], counterclockwise in f's frame."""
    fv = FACES[f]
    return fv[(fv.index(u) + 1) % 3] == w


def _cell_plan(key):
    """How _StarCells lays out the cell key: (face, steps, corners,
    petals, outer, ccw).  The layout starts from the frame of `face`,
    points 0-2; step i, ((g, p, q), i0, i1, i2), adds point 3 + i, the
    vertex of face g off its edge (p, q) developed across points i0 and i1
    away from point i2.  corners names the points of the cell's corners in
    chart order.  A piece is (g, points, z, apex, side) as _StarCells
    gives it, with the indices of its points.  petals pairs each two
    consecutive corners (u, w) with the points of their petal in the
    order of the source's canonical weights, with the corner of a vertex
    the source does not weigh, and with its piece; outer lists the other
    pieces.  ccw is whether the source's chart turns counterclockwise in
    the face frames: a vertex chart turns from each fan face's entry
    vertex to its exit (_vertex_chart), an edge chart from the ray toward
    b into the lower face f (_edge_chart), and a face chart
    counterclockwise in its frame, with the cut to v between those to e1
    and e2.
    """
    at = {}
    steps = []

    def across(name, g, p, q, P, Q, R):
        at[name] = 3 + len(steps)
        steps.append(((g, p, q), at[P], at[Q], at[R]))

    outer = []
    if len(key) == 1:
        (v,) = key
        fan = _VERTEX_FANS[v]
        src, iv, ie, _ = fan[0]
        order = tuple([FACES[f][i] for f, _, i, _ in fan])
        ccw = FACES[src][(iv + 1) % 3] == FACES[src][ie]
        face = v
        at.update({z: i for i, z in enumerate(FACES[v])})
        petals = {}
        for u, w in zip(order, order[1:] + order[:1]):
            g = 6 - v - u - w
            across((u, w), g, u, w, u, w, g)
            petals[frozenset((u, w))] = (g, {v: (u, w)}, v, None)
    elif len(key) == 2:
        # the kernel is faces b and a, glued along (f, g)
        a, b = key
        src, g = _EDGE_CHARTS[key][:2]
        f = src
        order, ccw, face = (b, g, a, f), _follows(f, a, b), b
        at.update({z: i for i, z in enumerate(FACES[b])})
        across(b, a, f, g, f, g, a)
        across("b across ag", f, a, g, a, g, f)
        across("b across af", g, a, f, a, f, g)
        across("a across bg", f, g, b, g, b, f)
        across("a across bf", g, f, b, f, b, g)
        petals = {frozenset((a, g)): (f, {b: "b across ag"}, b, None),
                  frozenset((a, f)): (g, {b: "b across af"}, b, None),
                  frozenset((b, g)): (f, {a: "a across bg"}, a, None),
                  frozenset((b, f)): (g, {a: "a across bf"}, a, None)}
    else:
        # face v's own frame is the half petal across (corner e1, P1);
        # the kernel is faces e2 and e1, glued along (v, a)
        v, e1, e2 = key
        a = 6 - v - e1 - e2
        src, face, ccw = v, v, True
        order = (e1, v, e2, a) if _follows(v, e1, e2) else (e2, v, e1, a)
        at.update({z: i for i, z in enumerate(FACES[v])})
        at["P1"], at["h1"] = at[e2], at[a]
        across(v, a, e1, e2, e1, "P1", "h1")
        across(a, e2, v, e1, v, e1, "P1")
        across(e2, e1, v, a, v, a, e1)
        across("P2", a, v, e2, v, e2, a)
        across("a1", v, a, e1, a, e1, v)
        across("a2", v, a, e2, a, e2, v)
        across("h2", v, e1, e2, "P2", e2, v)
        # the cut to v splits its petal and face a at the crossing c
        side1, side2 = (e1, e2, 1.0), (e1, e2, -1.0)
        petals = {frozenset((a, e1)): (v, {e2: "a1"}, e2, None),
                  frozenset((a, e2)): (v, {e1: "a2"}, e1, None),
                  frozenset((e1, v)): (v, {e2: "P1", a: "h1"}, a, side1),
                  frozenset((v, e2)): (v, {e1: "P2", a: "h2"}, a, side2)}
        outer = [(a, {e2: "P1"}, v, side1), (a, {e1: "P2"}, v, side2)]

    def piece(g, names, z, side, apex=False):
        # the copy of face g whose vertex u lies at point names.get(u, u)
        fv = FACES[g]
        return (g, tuple([at[names.get(u, u)] for u in fv]), fv.index(z),
                tuple([float(u == z) for u in fv]) if apex else None,
                side and (fv.index(side[0]), fv.index(side[1]), side[2]))

    rows = []
    for uw in zip(order[-1:] + order[:-1], order):
        g, names, z, side = petals[frozenset(uw)]
        rows.append((uw, tuple([at[names.get(y, y)] for y in FACES[src]]),
                     piece(g, names, z, side)))
    # the faces no cut enters, the kernel's, are those of the vertices the
    # source weighs (face f omits vertex f), but for the face a cut crosses
    outer += [(f, {}, FACES[f][0], None) for f in (key[1:] if outer else key)]
    return (face, tuple(steps), tuple([(z, at[z]) for z in order]),
            tuple(rows), tuple([piece(*spec, apex=True) for spec in outer]),
            ccw)


_CELL_PLANS = {key: _cell_plan(key) for key in
               [(v,) for v in range(4)] + list(EDGES)
               + [(v, e1, e2) for v in range(4) for e1, e2 in EDGES
                  if v not in (e1, e2)]}


class _StarCells(dict):
    """Tetrahedron.star_cells: each cell built on first read from the face
    frames and the edge lengths, so the table refers to no tetrahedron.
    Two threads may both build a cell; they store equal values.

    A star unfolding is the union of rigid copies of faces: the kernel,
    the faces that no cut enters, whose vertices are the star's corners,
    and a petal around each source image, the face that holds the source
    between the cuts to two consecutive corners (Agarwal, Aronov,
    O'Rourke & Schevon 1997).  Within a cell of the surface each copy is
    fixed, so the cell is laid out once, each face developed across an
    edge of one already placed (_place_apex, in the steps of _cell_plan).
    A vertex source v is its own cell, keyed (v,): the kernel is face v,
    and the petals are v developed across its edges.  An edge point's
    cell is its sorted edge (a, b): the kernel is faces b and a, glued
    along (f, g), the other two vertices, with a petal across each side.
    A face point's cell is (v, e1, e2), its face v and the sorted edge of
    v that its cut to vertex v crosses: the kernel is faces e2 and e1,
    glued along (v, a), a the third vertex of face v; the petals across
    (a, e1) and (a, e2) are laid out as an edge cell's, and the petal on
    (e1, e2) is split by the cut into two halves, face v developed across
    (corner e1, P1) and across (P2, corner e2), where P1 and P2 are e2 and
    e1 as face a develops across (v, e1) and across (v, e2).

    A cell is (corners, petals, outer): corners maps each vertex the star
    cuts to onto its star point; petals maps each two consecutive corners
    (u, w), in the order of the source's chart angles, to the three points
    whose sum weighted by the source's canonical weights is the source
    image between them, then the petal's piece; outer lists the cell's
    other pieces, from a face point face a's two, then the kernel's.  So
    a vertex cell has 4 pieces, an edge cell 6 and a face cell 8.  A piece
    is (g, points, z, apex, side), a rigid copy of face g, its vertices'
    star points in FACES[g] order, and its clip, the part of the copy in
    the star: the triangle, in weights on g, of an apex and the edge of g
    opposite its vertex z.  The apex is the source where apex is None,
    else vertex z, with the weights apex.  Where the opposite cut splits
    the piece at its crossing c, t along the edge from vertex i of g to
    vertex j, side is (i, j, s), and the clip keeps the part on i's side
    of the line from the apex to c (s = 1) or on j's (s = -1).  The
    frames see the surface from outside; where the source's chart turns
    counterclockwise in them, the cell is their mirror image (y -> -y), so
    that the chart of every star is a reflection (StarUnfolding).
    """

    __slots__ = ("frames", "lengths")

    def __init__(self, frames, lengths):
        super().__init__()
        self.frames = frames
        self.lengths = lengths

    def __missing__(self, key):
        value = self[key] = self._build(*_CELL_PLANS[key])
        return value

    def _build(self, face, steps, corners, petals, outer, ccw):
        # a development of the mirror image is the mirror image of the
        # development, to the bit
        s = -1.0 if ccw else 1.0
        pts = [(x, s * y) for x, y in self.frames[face]]
        lengths = self.lengths
        sqrt, hypot = math.sqrt, math.hypot
        for key, i, j, k in steps:
            # _place_apex(pts[i], pts[j], pts[k], *apex_table[key]) written
            # out: a cell takes three to seven of them, most read nowhere
            # else, and the calls and the table cost as much as the
            # arithmetic
            ab, ac, bc = _APEX_EDGES[key]
            lab, lac, lbc = lengths[ab], lengths[ac], lengths[bc]
            u = (lac * lac - lbc * lbc + lab * lab) / (2.0 * lab)
            h = lac * lac - u * u
            if h <= 0.0:
                raise DegenerateInput("face %d is degenerate" % key[0])
            (ax, ay), (bx, by), (px, py) = pts[i], pts[j], pts[k]
            ex, ey = bx - ax, by - ay
            n = hypot(ex, ey)
            tx, ty = ex / n, ey / n
            h = sqrt(h)
            if ex * (py - ay) - ey * (px - ax) > 0.0:
                h = -h
            pts.append((ax + u * tx - h * ty, ay + u * ty + h * tx))
        return ({z: pts[i] for z, i in corners},
                {uw: (pts[i], pts[j], pts[k],
                      (g, (pts[a], pts[b], pts[c]), z, apex, side))
                 for uw, (i, j, k), (g, (a, b, c), z, apex, side) in petals},
                tuple([(g, (pts[a], pts[b], pts[c]), z, apex, side)
                       for g, (a, b, c), z, apex, side in outer]))


# the slot of _memo: the most recent tetrahedron and its entries
_MEMO = (None, {})


def _memo(T, key, build):
    """build(), or what it returned for the same key on this very T.

    The entries belong to the most recent tetrahedron, matched by identity,
    so a new T drops them.  A build that raises stores nothing and raises
    again when called again.  Callers share every value, so a value must
    not change after it is stored: the paths and the edge images are
    tuples.  A key is a family, then the face and weights of each
    canonical point its value is built from, plain tuples that hash
    without a call into Python.  The families, all in intrinsic.py:
    "star", a star unfolding (star_unfold); "cut", a cut locus
    (cut_locus); "paths", a pair's shortest paths (_shortest_paths); and
    "edges", a star's edge images, keyed by its source (_edge_pieces).
    The values point back to T (StarUnfolding.tetra, CutNode.star), so
    they live in this slot rather than on T, where the cycle would leave
    each tetrahedron to the garbage collector.  Threads that share the
    slot may build an entry twice or drop each other's entries, but each
    call returns the value built for its own T and key.
    """
    global _MEMO
    held, entries = _MEMO
    if held is not T:
        entries = {}
        _MEMO = (T, entries)
    value = entries.get(key)
    if value is None:
        value = entries[key] = build()
    return value


def validate_tetrahedron(vertices, cfg=None):
    """Check, orient and wrap four 3D points as a Tetrahedron.

    A negatively oriented labeling is fixed by swapping vertices 2 and 3,
    so the canonical face table always carries outward normals.  The volume
    must be at least the quality floor times the longest edge cubed.
    """
    cfg = cfg or DEFAULT_CFG
    T, volume, longest = _oriented(vertices)
    if volume < cfg.quality_floor * longest ** 3:
        raise DegenerateInput(
            "volume %.3e below quality floor %.3e * diam^3" % (volume, cfg.quality_floor))
    return T


def _oriented(vertices):
    """(Tetrahedron, volume, longest edge) of four 3D points, with no floor.

    validate_tetrahedron's checks and orientation, short of the quality
    floor: ValueError for a malformed vertex list, DegenerateInput when all
    vertices coincide.
    """
    verts = []
    for v in vertices:
        coords = tuple(float(c) for c in v)
        if len(coords) != 3:
            raise ValueError("each vertex needs three coordinates")
        if any(not math.isfinite(c) for c in coords):
            raise ValueError("vertex coordinates must be finite")
        verts.append(coords)
    if len(verts) != 4:
        raise ValueError("a tetrahedron needs four vertices")
    v0, v1, v2, v3 = verts
    det = _dot3(_cross3(_sub3(v1, v0), _sub3(v2, v0)), _sub3(v3, v0))
    if det < 0.0:
        verts[2], verts[3] = verts[3], verts[2]
        det = -det
    longest = max(dist3(a, b) for a, b in
                  ((verts[i], verts[j]) for i in range(4) for j in range(i + 1, 4)))
    if longest <= 0.0:
        raise DegenerateInput("all vertices coincide")
    return Tetrahedron(tuple(verts)), det / 6.0, longest


# ---------------------------------------------------------------------------
# angles and curvature bookkeeping

def face_angle_sum(T, v):
    """Total surface angle at vertex v (sum of the three incident corners)."""
    if not 0 <= v <= 3:
        raise ValueError("vertex index out of range")
    return T.cone_angles[v]


def total_angle_defect(T):
    """Sum over vertices of 2*pi minus the vertex angle; 4*pi for any tetrahedron."""
    return sum(2.0 * math.pi - T.cone_angles[v] for v in range(4))


def is_isosceles(T, tol=1e-9):
    """True iff the three opposite-edge pairs have equal lengths (relative tol)."""
    lengths = T.edge_lengths
    for i in range(3):
        a, b = lengths[i], lengths[5 - i]
        if abs(a - b) > tol * max(a, b):
            return False
    return True


# ---------------------------------------------------------------------------
# planar triangles

@dataclass(frozen=True)
class Triangle2:
    """A planar triangle given by its three corner points."""

    a: tuple
    b: tuple
    c: tuple

    def sides(self):
        """Side lengths opposite corners a, b, c."""
        return (math.dist(self.b, self.c),
                math.dist(self.a, self.c),
                math.dist(self.a, self.b))


def _tri_guard(t, tol):
    sa, sb, sc = t.sides()
    scale = max(sa, sb, sc)
    area2 = abs((t.b[0] - t.a[0]) * (t.c[1] - t.a[1])
                - (t.c[0] - t.a[0]) * (t.b[1] - t.a[1]))
    if scale <= 0.0 or area2 <= tol * scale * scale:
        raise Collinear("triangle is degenerate within tolerance")
    return sa, sb, sc, scale


def triangle_is_acute(t, tol=1e-9):
    """True iff every angle is strictly acute, with slack tol * scale^2."""
    sa, sb, sc, scale = _tri_guard(t, tol)
    s2 = scale * scale
    a2, b2, c2 = sa * sa, sb * sb, sc * sc
    return (a2 + b2 - c2 > tol * s2 and
            b2 + c2 - a2 > tol * s2 and
            c2 + a2 - b2 > tol * s2)


def circumcenter(t, tol=1e-12):
    """Center of the circle through the three corners."""
    _tri_guard(t, tol)  # a triangle that passes has a nonzero determinant
    return _circumcenter2(t.a, t.b, t.c)


def longest_side(t, tol=1e-12):
    """Length of the longest side."""
    sa, sb, sc, _ = _tri_guard(t, tol)
    return max(sa, sb, sc)


# ---------------------------------------------------------------------------
# an apex unfolded across an edge

def _place_apex(A2, B2, P2, u, h):
    """Apex position from edge images A2->B2, offsets (u, h), opposite side of P2."""
    ex, ey = B2[0] - A2[0], B2[1] - A2[1]
    elen = math.hypot(ex, ey)
    tx, ty = ex / elen, ey / elen
    side = 1.0 if (ex * (P2[1] - A2[1]) - ey * (P2[0] - A2[0])) > 0.0 else -1.0
    # place on the side away from P2
    nx, ny = -ty * (-side), tx * (-side)
    return (A2[0] + u * tx + h * nx, A2[1] + u * ty + h * ny)


# ---------------------------------------------------------------------------
# JSON forms

def tetrahedron_to_json(T):
    return {"vertices": [list(v) for v in T.vertices]}


def tetrahedron_from_json(obj):
    return validate_tetrahedron(obj["vertices"])


def surface_point_to_json(sp):
    return {"face": sp.face, "bary": list(sp.bary)}


def surface_point_from_json(obj):
    return SurfacePoint(int(obj["face"]), tuple(obj["bary"])).canonical()
