"""Exact point-to-point shortest paths on the tetrahedron surface.

A shortest path meets each face in one segment (Sharir & Schorr, SIAM J.
Comput. 1986), so it crosses at most three edges and develops along one of
3 + 6 + 6 = 15 face chains from each start face.  The engine walks those
chains depth first and stops one once every face holding the target is
behind it.  Each chain keeps the planar "window" of its last
crossed edge -- the sub-segment still visible from the unfolded source
through all earlier windows -- which makes the enumeration exact for
straight-line candidates; the shortest candidate is the distance.  No
surface distance exceeds 2/sqrt(3) times the longest edge, which caps the
candidates.

Also provides an independent graph oracle on edge-lattice nodes, angle
charts around a surface point, and geodesic ray tracing (used to map planar
constructions back to the surface).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import SearchExhausted
from .geometry import (DEDUP_TOL, EDGE_INDEX, EDGES, FACES, TRIM,
                       SurfacePoint, _EDGE_CHARTS, _VERTEX_FANS,
                       _bary_in_triangle, _canonical_form, _lerp2, _memo,
                       _place_apex, _trusted_point, apex_vertex, dist3,
                       faces_containing, neighbor_face)

# no surface distance exceeds (2/sqrt(3)) * longest edge
CAP_RATIO = 2.0 / math.sqrt(3.0)


@dataclass(frozen=True)
class GeodesicPath:
    """A shortest path: endpoints, crossed edges with parameters, length.

    crossings holds ((i, j), t) per crossed edge with i < j and t the
    parameter from vertex i to vertex j.  The unfolded image of the path is
    a straight segment.
    """

    source: SurfacePoint
    target: SurfacePoint
    crossings: tuple
    length: float


# ---------------------------------------------------------------------------
# planar helpers

def _pt_seg2(P, A, B):
    ax, ay = A
    vx, vy = B[0] - ax, B[1] - ay
    wx, wy = P[0] - ax, P[1] - ay
    vv = vx * vx + vy * vy
    t = 0.0 if vv == 0.0 else max(0.0, min(1.0, (wx * vx + wy * vy) / vv))
    dx, dy = wx - t * vx, wy - t * vy
    return math.hypot(dx, dy)


def _orient(p, q, r):
    """Twice the signed area of triangle pqr (> 0 when counterclockwise)."""
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def _cone_clip(S2, W1, W2, P2, Q2, lo, hi):
    """Clip s in [lo, hi] of segment P2 + s (Q2 - P2) to the cone (S2; W1, W2).

    W1, W2 must be ordered so cross(W1 - S2, W2 - S2) >= 0.  Returns the
    surviving (s_lo, s_hi) or None.
    """
    ax, ay = W1[0] - S2[0], W1[1] - S2[1]
    bx, by = W2[0] - S2[0], W2[1] - S2[1]
    p0x, p0y = P2[0] - S2[0], P2[1] - S2[1]
    p1x, p1y = Q2[0] - S2[0], Q2[1] - S2[1]
    for c0, c1 in ((ax * p0y - ay * p0x, ax * p1y - ay * p1x),
                   (p0x * by - p0y * bx, p1x * by - p1y * bx)):
        if c0 < 0.0 and c1 < 0.0:
            return None
        d = c1 - c0
        if d != 0.0:
            s = -c0 / d
            if c0 < 0.0:
                lo = max(lo, s)
            elif c1 < 0.0:
                hi = min(hi, s)
        elif c0 < 0.0:
            return None
    if hi - lo <= 0.0:
        return None
    return lo, hi


def _seg_cross_param(S2, Q2, A2, B2):
    """Parameters (t on A2->B2, s on S2->Q2) of the line intersection."""
    rx, ry = Q2[0] - S2[0], Q2[1] - S2[1]
    ex, ey = B2[0] - A2[0], B2[1] - A2[1]
    den = rx * ey - ry * ex
    if den == 0.0:
        return None
    dx, dy = A2[0] - S2[0], A2[1] - S2[1]
    s = (dx * ey - dy * ex) / den
    t = (dx * ry - dy * rx) / den
    return t, s


# ---------------------------------------------------------------------------
# the search

def _cap(scale, slack):
    """Longest straight development kept as a candidate: the CAP_RATIO
    bound widened by a relative slack and a little rounding room."""
    return CAP_RATIO * scale * (1.0 + 1e-9) * (1.0 + slack) + 1e-14 * scale


def _solve(T, p, q, slack):
    """Collect straight-line path candidates from canonical p to canonical
    q; returns (best, candidates).

    Candidates are (length, signature, crossings) tuples, in the order
    _develop finds them; callers filter by the final minimum.  slack only
    widens the CAP_RATIO bound.  The search runs once per T and pair at
    max(slack, DEDUP_TOL) (_memo).  The bound gates only the crossing test
    of a development that reaches q, so a narrower request's candidates
    are the chord's and those within its own bound, in the same order.
    SearchExhausted is raised when no development reaches q.
    """
    wide = max(slack, DEDUP_TOL)
    candidates = _memo(T, ("solve", p, q, wide),
                       lambda: _develop(T, p, q, wide))
    if slack < wide:
        cap = _cap(T.diam, slack)
        candidates = [c for c in candidates if not c[1] or c[0] <= cap]
        if not candidates:
            raise SearchExhausted("no straight development reaches the target")
    return min(d for d, _, _ in candidates), candidates


def _chain_state(g, a, b):
    """_STATE's entry for face g entered across its edge (a, b), a < b."""
    fv = FACES[g]
    c = apex_vertex(g, a, b)
    exits = []
    for side, v in enumerate((a, b)):
        flipped = v > c
        x, y = (c, v) if flipped else (v, c)
        gn = neighbor_face(g, x, y)
        exits.append((x, y, flipped, side, gn, (gn, x, y)))
    return g, a, b, tuple((a, b, c).index(v) for v in fv), tuple(exits)


# The chain walk's states: face g entered across its edge (a, b), a < b,
# keyed (g, a, b), 12 in all.  Each holds g, a, b, the positions of
# FACES[g] among (a, b, apex) and the two exits, across the apex's edges
# through a (side 0) and through b (side 1): (x, y, flipped, side, next
# face, key), with x < y, flipped when the edge runs from the apex, and key
# both the next state's and its apex_table entry's.
_STATE = {(g, a, b): _chain_state(g, a, b)
          for g in range(4) for a in FACES[g] for b in FACES[g] if a < b}


def _develop(T, p, q, slack):
    """The candidates of _solve, as a tuple, for canonical p and q.

    A depth-first walk develops the face chains that visit each face at
    most once -- up to 3 + 6 + 6 = 15 chain states from each start face --
    and keeps every straight development that reaches q inside its windows
    and within the CAP_RATIO bound.  Only a state in a face of q adds a
    candidate, and a chain never re-enters a face it visited, so a chain
    stops once every face of q is behind it: a state whose visited faces
    hold them all pushes no exits, and a start face that is q's only face
    starts no chain.  The candidates and their order are the full walk's.
    """
    psupp = p.support()
    qsupp = q.support()
    # vertex-to-vertex is closed form: every path is at least the 3D chord,
    # and the chord between two vertices is an edge of the surface, so the
    # edge is the unique minimizer.
    if len(psupp) == 1 and len(qsupp) == 1:
        if psupp == qsupp:
            return ((0.0, (), ()),)
        return ((T.elen[(psupp[0], qsupp[0])], (), ()),)
    pfaces = faces_containing(psupp)
    qfaces = frozenset(faces_containing(qsupp))
    qmask = sum(1 << f for f in qfaces)
    # a straight development that ends at a vertex image meets the line of
    # any edge through that vertex only there, so a path to a vertex target
    # never crosses an edge incident to it.
    qvert = qsupp[0] if len(qsupp) == 1 else None
    cap = _cap(T.diam, slack)
    apex_tab = T.apex_table

    qbary = {f: T.bary_on_face(q, f) for f in qfaces}

    candidates = []
    # points sharing a face are joined inside it: the chord is the distance
    if any(f in qfaces for f in pfaces):
        candidates.append((dist3(T.xyz(p), T.xyz(q)), (), ()))

    # a chain state: the face g entered across edge (a, b), the images of
    # a, b and of g's apex unfolded across the edge, the window of the edge
    # still visible from the source image S2, the crossed-edge chain and the
    # visited faces; the start states are the rims of the source's faces
    stack = []
    for f0 in pfaces:
        if qmask == 1 << f0:
            continue  # a chain out of q's only face never comes back to it
        S2 = T.frame2(f0, T.bary_on_face(p, f0))
        for x, y, X2, Y2, C2, W1, W2, _ in T.rim_table[f0]:
            if set(psupp) <= {x, y}:
                continue  # paths out through the supporting edge start in the other face
            if qvert == x or qvert == y:
                continue  # no path to a vertex crosses an edge through it
            if _orient(S2, W1, W2) < 0.0:
                W1, W2 = W2, W1
            g = neighbor_face(f0, x, y)
            stack.append(((g, x, y), X2, Y2, C2, W1, W2, S2, None,
                          (1 << f0) | (1 << g)))

    while stack:
        key, A2, B2, C2, W1, W2, S2, chain, seen = stack.pop()
        g, a, b, pos, exits = _STATE[key]
        chain2 = (chain, a, b, A2, B2)

        # a path ending on its own supporting edge is the parent's candidate
        if g in qfaces and qsupp != (a, b):
            bq = qbary[g]
            images = (A2, B2, C2)
            I0, I1, I2 = images[pos[0]], images[pos[1]], images[pos[2]]
            Q2 = (sum((bq[0] * I0[0], bq[1] * I1[0], bq[2] * I2[0])),
                  sum((bq[0] * I0[1], bq[1] * I1[1], bq[2] * I2[1])))
            # strictly past the entry edge (else the parent found it) and
            # inside the window
            if (_orient(A2, B2, Q2) * _orient(A2, B2, C2) > 0.0
                    and _orient(S2, W1, Q2) >= 0.0 and _orient(S2, Q2, W2) >= 0.0):
                d = math.hypot(Q2[0] - S2[0], Q2[1] - S2[1])
                crossings = _chain_crossings(chain2, S2, Q2) if d <= cap else None
                if crossings is not None:
                    sig = tuple((EDGE_INDEX[(i, j)], round(t / DEDUP_TOL))
                                for (i, j), t in crossings)
                    candidates.append((d, sig, crossings))

        if not qmask & ~seen:
            continue  # every face of q is behind this chain
        for x, y, flipped, side, gn, nxt in exits:
            if qvert == x or qvert == y:
                continue  # no path to a vertex crosses an edge through it
            if seen >> gn & 1:
                continue  # a shortest path meets each face only once
            # the exit's end on the entry edge, and that edge's far end
            X2, P2n = (B2, A2) if side else (A2, B2)
            X2, Y2 = (C2, X2) if flipped else (X2, C2)
            clip = _cone_clip(S2, W1, W2, X2, Y2, TRIM, 1.0 - TRIM)
            if clip is None:
                continue
            N1 = _lerp2(X2, Y2, clip[0])
            N2 = _lerp2(X2, Y2, clip[1])
            if _orient(S2, N1, N2) < 0.0:
                N1, N2 = N2, N1
            u, h = apex_tab[nxt]
            stack.append((nxt, X2, Y2, _place_apex(X2, Y2, P2n, u, h),
                          N1, N2, S2, chain2, seen | (1 << gn)))

    if not candidates:
        raise SearchExhausted("no straight development reaches the target")
    return tuple(candidates)


def _chain_crossings(chain, S2, Q2):
    """Crossing parameters of segment S2->Q2 against the chained edges."""
    rev = []
    node = chain
    while node is not None:
        node, a, b, A2, B2 = node
        hit = _seg_cross_param(S2, Q2, A2, B2)
        if hit is None:
            return None
        t, s = hit
        if not (-1e-9 <= t <= 1.0 + 1e-9) or not (-1e-12 <= s <= 1.0 + 1e-12):
            return None
        rev.append(((a, b), min(max(t, 0.0), 1.0)))
    rev.reverse()
    return tuple(rev)


def geodesic_distance(T, p, q):
    """Globally minimal surface distance and a path realizing it.

    Among equal-length minimizers (within 1e-12 relative) the path with the
    lexicographically smallest crossing signature is reported.
    """
    p = p.canonical()
    q = q.canonical()
    best, candidates = _solve(T, p, q, 0.0)
    tie = best * (1.0 + 1e-12) + 1e-15 * T.diam
    pool = sorted(((sig, d, cr) for d, sig, cr in candidates if d <= tie))
    sig, d, crossings = pool[0]
    return best, GeodesicPath(source=p, target=q, crossings=crossings,
                              length=best)


def all_geodesic_segments(T, p, q, slack=DEDUP_TOL):
    """All combinatorially distinct near-minimal paths, sorted by length.

    Keeps every candidate within (1+slack) of the minimum, deduplicated by
    crossing signature.
    """
    if not slack >= 0.0:
        raise ValueError("slack must be nonnegative")
    p = p.canonical()
    q = q.canonical()
    best, candidates = _solve(T, p, q, slack)
    keep = {}
    limit = best * (1.0 + slack) + 1e-15 * T.diam
    for d, sig, crossings in candidates:
        if d <= limit and (sig not in keep or d < keep[sig][0]):
            keep[sig] = (d, crossings)
    out = [(d, sig, crossings) for sig, (d, crossings) in keep.items()]
    out.sort(key=lambda item: (item[0], item[1]))
    return [GeodesicPath(source=p, target=q, crossings=crossings, length=d)
            for d, sig, crossings in out]


# ---------------------------------------------------------------------------
# independent oracle: shortest paths in an edge-lattice chord graph

def _oracle_base(T, n):
    key = ("oracle", n)
    if key in T.scratch:
        return T.scratch[key]
    m = 2 ** n
    index = {}
    coords = []
    keys = []

    def node(key3, xyz):
        if key3 not in index:
            index[key3] = len(coords)
            coords.append(xyz)
            keys.append(key3)
        return index[key3]

    members = {f: [] for f in range(4)}
    for v in range(4):
        idx = node(("v", v), T.vertices[v])
        for f in faces_containing((v,)):
            members[f].append(idx)
    for ei, (a, b) in enumerate(EDGES):
        A, B = T.vertices[a], T.vertices[b]
        for k in range(1, m):
            t = k / m
            xyz = (A[0] + t * (B[0] - A[0]), A[1] + t * (B[1] - A[1]),
                   A[2] + t * (B[2] - A[2]))
            idx = node(("e", ei, k), xyz)
            for f in faces_containing((a, b)):
                members[f].append(idx)
    rows, cols, wts = [], [], []
    for f in range(4):
        mem = members[f]
        for i in range(len(mem)):
            xi = coords[mem[i]]
            for j in range(i + 1, len(mem)):
                rows.append(mem[i])
                cols.append(mem[j])
                wts.append(dist3(xi, coords[mem[j]]))
    base = (coords, keys, members, rows, cols, wts)
    T.scratch[key] = base
    return base


def _refine_chain(points, segments):
    """Shorten a surface polyline by sliding interior points along edges.

    points[i] with segments[i] = (A, B) may move anywhere on that 3D
    segment; a None entry is pinned.  Each sweep solves every single-point
    subproblem exactly (the two-leg length is convex along the segment, so
    its derivative is monotone and bisection finds the minimum), hence the
    total length never increases.  Sliding keeps every point on its
    original edge, so chords between consecutive points stay inside the
    faces that carried them and the polyline remains a genuine surface
    path.
    """
    n = len(points)

    def leg(i, j):
        return dist3(points[i], points[j])

    for _ in range(40):
        gain = 0.0
        for i in range(1, n - 1):
            seg = segments[i]
            if seg is None:
                continue
            A, B = seg
            ex, ey, ez = B[0] - A[0], B[1] - A[1], B[2] - A[2]
            Pm, Pp = points[i - 1], points[i + 1]

            def slope(t):
                px, py, pz = A[0] + t * ex, A[1] + t * ey, A[2] + t * ez
                s = 0.0
                for Q in (Pm, Pp):
                    dx, dy, dz = px - Q[0], py - Q[1], pz - Q[2]
                    r = math.sqrt(dx * dx + dy * dy + dz * dz)
                    if r > 0.0:
                        s += (dx * ex + dy * ey + dz * ez) / r
                return s

            if slope(0.0) >= 0.0:
                t = 0.0
            elif slope(1.0) <= 0.0:
                t = 1.0
            else:
                lo, hi = 0.0, 1.0
                for _b in range(60):
                    mid = 0.5 * (lo + hi)
                    if slope(mid) < 0.0:
                        lo = mid
                    else:
                        hi = mid
                t = 0.5 * (lo + hi)
            before = leg(i - 1, i) + leg(i, i + 1)
            points[i] = (A[0] + t * ex, A[1] + t * ey, A[2] + t * ez)
            gain += before - (leg(i - 1, i) + leg(i, i + 1))
        if gain <= 0.0:
            break
    return math.fsum(leg(i, i + 1) for i in range(n - 1))


def mesh_oracle_distance(T, p, q, n=6):
    """Upper bound on surface distance from a refined edge-lattice path.

    Nodes are the dyadic points of the six edges at refinement n plus p and
    q; any two nodes on a common face are joined by their 3D chord (a valid
    surface path, so the graph distance upper-bounds the true distance).
    The best graph path is then shortened by sliding its crossing points
    continuously along their edges, which removes the lattice quantization
    error while staying a genuine surface path: the result is the exact
    length of the best crossing sequence the lattice discovered.
    """
    if n < 1:
        raise ValueError("subdivision must be at least 1")
    import numpy as np
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    p = p.canonical()
    q = q.canonical()
    coords, keys, members, rows, cols, wts = _oracle_base(T, n)
    nbase = len(coords)
    rows = list(rows)
    cols = list(cols)
    wts = list(wts)
    extra = [T.xyz(p), T.xyz(q)]
    for off, (sp, xyz) in enumerate(zip((p, q), extra)):
        idx = nbase + off
        for f in faces_containing(sp.support()):
            for other in members[f]:
                rows.append(idx)
                cols.append(other)
                wts.append(dist3(xyz, coords[other]))
    # join p and q directly when they share a face
    shared = set(faces_containing(p.support())) & set(faces_containing(q.support()))
    if shared:
        rows.append(nbase)
        cols.append(nbase + 1)
        wts.append(dist3(extra[0], extra[1]))
    ntot = nbase + 2
    graph = csr_matrix((np.array(wts), (np.array(rows), np.array(cols))),
                       shape=(ntot, ntot))
    dist, pred = dijkstra(graph, directed=False, indices=nbase,
                          return_predecessors=True)
    raw = float(dist[nbase + 1])
    if not math.isfinite(raw):
        return raw
    node = nbase + 1
    chain = []
    while node != nbase:
        chain.append(node)
        node = int(pred[node])
        if node < 0:
            return raw
    chain.append(nbase)
    chain.reverse()
    points = []
    segments = []
    for idx in chain:
        if idx >= nbase:
            points.append(extra[idx - nbase])
            segments.append(None)
        else:
            points.append(coords[idx])
            key3 = keys[idx]
            if key3[0] == "e":
                a, b = EDGES[key3[1]]
                segments.append((T.vertices[a], T.vertices[b]))
            else:
                segments.append(None)  # cone points stay pinned
    refined = _refine_chain(points, segments)
    return min(raw, refined)


# ---------------------------------------------------------------------------
# angle charts and ray tracing

def _rot2(v, ang):
    c, s = math.cos(ang), math.sin(ang)
    return (c * v[0] - s * v[1], s * v[0] + c * v[1])


def _unit2(v):
    n = math.hypot(v[0], v[1])
    return (v[0] / n, v[1] / n)


def _signed_angle(u, v):
    return math.atan2(u[0] * v[1] - u[1] * v[0], u[0] * v[0] + u[1] * v[1])


def chart_sectors(T, x):
    """Angle chart around x: (total angle, tuple of sectors).

    Each sector is (face, theta0, theta1, base2, ref2, sign): chart angle
    theta in [theta0, theta1] maps to the frame direction rot(ref2,
    sign*(theta-theta0)) at base2, the image of x in that face's frame.
    The chart covers 2*pi around interior and edge points and the cone
    angle around a vertex.
    """
    x = x.canonical()
    supp = x.support()
    if len(supp) == 3:
        f = x.face
        base = T.frame2(f, x.bary)
        sector = (f, 0.0, 2.0 * math.pi, base, (1.0, 0.0), 1.0)
        return 2.0 * math.pi, (sector,)
    if len(supp) == 2:
        return _edge_chart(T, x, supp)
    return _vertex_chart(T, supp[0])


def _edge_chart(T, x, edge):
    """chart_sectors(T, x) at x, canonical, on the sorted edge (a, b): a
    sector from angle 0 in the lower face f holding it, the edge ray
    toward b its reference, and one from angle pi in the other face g,
    toward a, each turning into the half plane of its face's apex."""
    f, g, ia, ib, ig, ja, jb, jf = _EDGE_CHARTS[edge]
    # x lies on f, its lowest face; on g it keeps the weights of a and b
    # (T.bary_on_face)
    bary = x.bary
    nb = [0.0, 0.0, 0.0]
    nb[ja], nb[jb] = bary[ia], bary[ib]
    sectors = []
    for face, th0, w, i, j, k in ((f, 0.0, bary, ia, ib, ig),
                                  (g, math.pi, nb, ja, jb, jf)):
        corners = T.face_frames[face]
        base = T.frame2(face, w)
        A2, B2, C2 = corners[i], corners[j], corners[k]
        ref = _unit2((B2[0] - A2[0], B2[1] - A2[1]))
        if th0 > 0.0:
            ref = (-ref[0], -ref[1])
        # rotate from the edge ray into the wedge holding the apex
        cr = ref[0] * (C2[1] - base[1]) - ref[1] * (C2[0] - base[0])
        sign = 1.0 if cr > 0.0 else -1.0
        sectors.append((face, th0, th0 + math.pi, base, ref, sign))
    return 2.0 * math.pi, tuple(sectors)


def _vertex_chart(T, v):
    """chart_sectors(T, x) at vertex v: one sector per face of v's fan, in
    fan order, each spanning the face's corner angle at v."""
    sectors = []
    th = 0.0
    for face, iv, ie, ix in _VERTEX_FANS[v]:
        corners = T.face_frames[face]
        base = corners[iv]
        E2 = corners[ie]
        X2 = corners[ix]
        ref = _unit2((E2[0] - base[0], E2[1] - base[1]))
        out = (X2[0] - base[0], X2[1] - base[1])
        sign = 1.0 if ref[0] * out[1] - ref[1] * out[0] > 0.0 else -1.0
        alpha = T.corner_angles[(face, v)]
        sectors.append((face, th, th + alpha, base, ref, sign))
        th += alpha
    return th, tuple(sectors)


def chart_angle(T, x, face, d2, sectors=None):
    """Chart angle at x of frame direction d2 within `face`."""
    omega, secs = sectors if sectors is not None else chart_sectors(T, x)
    for sector in secs:
        if sector[0] == face:
            return _sector_angle(d2[0], d2[1], math.hypot(d2[0], d2[1]),
                                 sector, omega)
    raise ValueError("face %d is not part of the chart at this point" % face)


def _sector_angle(dx, dy, n, sector, omega):
    """Chart angle of the frame direction (dx, dy), of length n, within
    a sector of a chart of total angle omega (chart_angle, with the
    sector found and _unit2's norm given)."""
    _, th0, th1, _, ref, sign = sector
    sa = sign * _signed_angle(ref, (dx / n, dy / n))
    if sa < -1e-9:
        sa += 2.0 * math.pi
    sa = min(max(sa, 0.0), th1 - th0)
    return (th0 + sa) % omega


def chart_direction(T, x, theta, sectors=None):
    """Invert the chart: (face, base2, unit frame direction) of angle theta."""
    omega, secs = sectors if sectors is not None else chart_sectors(T, x)
    theta = theta % omega
    for f, th0, th1, base, ref, sign in secs:
        if th0 - 1e-12 <= theta <= th1 + 1e-12:
            d2 = _rot2(ref, sign * (theta - th0))
            return f, base, d2
    raise ValueError("chart angle lookup failed")


def trace_ray(T, x, theta, length, sectors=None):
    """Surface point reached by the geodesic ray from x with chart angle theta.

    A ray that ends in its start face returns at once.  Otherwise it walks
    through an on-the-fly unfolding, face by face; face crossings never
    count against path optimality here, so the budget is generous.  The
    end's barycentric weights are clamped to [0, 1] and normalized, and
    the end is built in canonical form (SurfacePoint.canonical), so its
    canonical() returns it as is.
    """
    face, S2, d2 = chart_direction(T, x, theta, sectors)
    if length <= 0.0:
        return x.canonical()
    end = (S2[0] + length * d2[0], S2[1] + length * d2[1])
    bary = _bary_in_triangle(T.face_frames[face], end)
    if min(bary) < -1e-9:
        face, bary = _walk_ray(T, x, face, S2, end)
    # min(max(t, 0.0), 1.0) for each weight t, written out
    b = tuple([0.0 if t < 0.0 else 1.0 if t > 1.0 else t for t in bary])
    s = sum(b)
    b = (b[0] / s, b[1] / s, b[2] / s)
    if math.isnan(s):
        return SurfacePoint(face, b)  # which rejects the weights
    # clamped and normalized, the weights pass SurfacePoint's checks
    return _trusted_point(*_canonical_form(face, b))


def _walk_ray(T, x, face, S2, end):
    """(face, bary) of the face where the planar ray S2 -> end from x ends,
    unfolding face by face across the edges it leaves through."""
    images = dict(zip(FACES[face], T.face_frames[face]))
    # as in the search, a ray never leaves through an edge holding its
    # source: from there it would meet that edge again at s ~ 0
    entry = set(x.support())
    for _ in range(64):
        # does the endpoint lie in the current triangle?
        bary = _bary_in_triangle(tuple(images[gi] for gi in FACES[face]),
                                 end)
        if min(bary) >= -1e-9:
            return face, bary
        # otherwise find the exit edge and unfold across it
        best = None
        fvc = FACES[face]
        for i in range(3):
            xv, yv = fvc[i], fvc[(i + 1) % 3]
            if entry <= {xv, yv}:
                continue
            hit = _seg_cross_param(S2, end, images[xv], images[yv])
            if hit is None:
                continue
            t, s = hit
            if -1e-9 <= t <= 1.0 + 1e-9 and s > 1e-12:
                if best is None or s < best[0]:
                    best = (s, xv, yv)
        if best is None:
            raise SearchExhausted("ray tracing lost the surface")
        _, xv, yv = best
        nf = neighbor_face(face, xv, yv)
        cnew = apex_vertex(nf, xv, yv)
        u, h = T.apex_table[(nf, xv, yv)]
        P2 = images[apex_vertex(face, xv, yv)]
        C2 = _place_apex(images[xv], images[yv], P2, u, h)
        images = {xv: images[xv], yv: images[yv], cnew: C2}
        entry = {xv, yv}
        face = nf
    raise SearchExhausted("ray tracing exceeded its face budget")
