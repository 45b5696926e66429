"""Exact point-to-point shortest paths on the tetrahedron surface.

The engine runs best-first branch-and-bound over unfolded face sequences.
Each partial sequence keeps the planar "window" of the last crossed edge --
the sub-segment still visible from the unfolded source through all earlier
windows -- which makes the enumeration exact for straight-line candidates.
A partial sequence is pruned when (planar distance from the source image to
the window) + (3D chord from the window's sub-edge to the target) reaches
the incumbent; everything is capped by the global bound 2/sqrt(3) times the
longest edge, which no surface distance exceeds.  A shortest path meets
each face in one segment (Sharir & Schorr, SIAM J. Comput. 1986), so only
chains that visit each face once are developed: at most three crossings,
and 3 + 6 + 6 = 15 chain states from each start face.

Also provides an independent graph oracle on edge-lattice nodes, angle
charts around a surface point, and geodesic ray tracing (used to map planar
constructions back to the surface).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .errors import SearchExhausted
from .geometry import (DEFAULT_CFG, EDGE_INDEX, EDGES, FACES, TRIM,
                       SurfacePoint, _bary_in_triangle, _lerp2, _place_apex,
                       apex_vertex, dist3, faces_containing, neighbor_face,
                       vertex_fan)

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

    def signature(self, rounding=1e-7):
        """Deduplication key: edge ids plus rounded crossing parameters."""
        return tuple((EDGE_INDEX[e], round(t / rounding)) for e, t in self.crossings)


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


def _pt_seg3(P, A, B):
    vx, vy, vz = B[0] - A[0], B[1] - A[1], B[2] - A[2]
    wx, wy, wz = P[0] - A[0], P[1] - A[1], P[2] - A[2]
    vv = vx * vx + vy * vy + vz * vz
    t = 0.0 if vv == 0.0 else max(0.0, min(1.0, (wx * vx + wy * vy + wz * vz) / vv))
    dx, dy, dz = wx - t * vx, wy - t * vy, wz - t * vz
    return math.sqrt(dx * dx + dy * dy + dz * dz)


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


def _joint_bound(S2, N1, N2, qxyz, A3, B3):
    """Lower bound of min over the window of (chart run + 3D exit chord).

    Any path through the window crosses it at one parameter t, so its
    length is at least d2(t) + d3(t); both terms are convex, and a coarse
    grid minimum with a Lipschitz correction underbounds the true minimum.
    This couples the two legs at a common window point, which prunes far
    tighter than adding the two independent minima on thin instances.
    """
    ex, ey = N2[0] - N1[0], N2[1] - N1[1]
    fx, fy, fz = B3[0] - A3[0], B3[1] - A3[1], B3[2] - A3[2]
    lip = math.hypot(ex, ey) + math.sqrt(fx * fx + fy * fy + fz * fz)
    best = math.inf
    K = 8
    for k in range(K + 1):
        t = k / K
        d2 = math.hypot(N1[0] + t * ex - S2[0], N1[1] + t * ey - S2[1])
        gx = A3[0] + t * fx - qxyz[0]
        gy = A3[1] + t * fy - qxyz[1]
        gz = A3[2] + t * fz - qxyz[2]
        val = d2 + math.sqrt(gx * gx + gy * gy + gz * gz)
        if val < best:
            best = val
    return best - 0.5 * lip / K


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

def _solve(T, p, q, cfg, slack):
    """Collect straight-line path candidates; returns (best, candidates).

    Candidates are (length, signature, crossings) tuples.  Everything within
    (1+slack) of the incumbent at discovery time survives; with slack 0 only
    minimizers and their exact ties are kept.  A heap state carries a bitmask
    of the faces its chain visited, so a chain visits each face at most once
    and crosses at most 3 edges; one that has crossed cfg.max_faces edges
    stops growing, and SearchExhausted is raised if it could still matter.
    """
    p = p.canonical()
    q = q.canonical()
    psupp = p.support()
    qsupp = q.support()
    # vertex-to-vertex is closed form: every path is at least the 3D chord,
    # and the chord between two vertices is an edge of the surface, so the
    # edge is the unique minimizer.  Searching instead would spiral around
    # the target cone point on thin instances without ever certifying.
    if len(psupp) == 1 and len(qsupp) == 1:
        if psupp == qsupp:
            return 0.0, [(0.0, (), ())]
        d = T.elen[(psupp[0], qsupp[0])]
        return d, [(d, (), ())]
    pfaces = faces_containing(psupp)
    qfaces = frozenset(faces_containing(qsupp))
    # a straight development that ends at a vertex image meets the line of
    # any edge through that vertex only there, so a path to a vertex target
    # never crosses an edge incident to it; skipping those edges also cuts
    # off the window spirals around thin cone points that no distance bound
    # can close out.
    qvert = qsupp[0] if len(qsupp) == 1 else None
    pxyz = T.xyz(p)
    qxyz = T.xyz(q)
    scale = T.diam
    eps = 1e-14 * scale
    cap = CAP_RATIO * scale * (1.0 + 1e-9) * (1.0 + slack) + eps
    verts3 = T.vertices
    apex_tab = T.apex_table
    frames = T.face_frames

    qbary = {f: T.bary_on_face(q, f) for f in qfaces}

    candidates = []
    incumbent = math.inf

    # points sharing a face are joined inside it: the chord is the distance
    direct = [f for f in pfaces if f in qfaces]
    if direct:
        d = dist3(pxyz, qxyz)
        candidates.append((d, (), ()))
        incumbent = d

    def threshold():
        if incumbent is math.inf:
            return cap
        return min(cap, incumbent * (1.0 + slack) + eps)

    heap = []
    count = 0
    for f0 in pfaces:
        b0 = T.bary_on_face(p, f0)
        S2 = T.frame2(f0, b0)
        fv = FACES[f0]
        corners = frames[f0]
        for i in range(3):
            x, y = fv[i], fv[(i + 1) % 3]
            if x > y:
                x, y = y, x
            if set(psupp) <= {x, y}:
                continue  # paths out through the supporting edge start in the other face
            if qvert == x or qvert == y:
                continue  # no path to a vertex crosses an edge through it
            X2 = corners[fv.index(x)]
            Y2 = corners[fv.index(y)]
            W1 = _lerp2(X2, Y2, TRIM)
            W2 = _lerp2(X2, Y2, 1.0 - TRIM)
            # the joint bound pairs the 2D and 3D windows pointwise, so a
            # reorientation of one must be mirrored on the other
            A3, B3 = verts3[x], verts3[y]
            if (W1[0] - S2[0]) * (W2[1] - S2[1]) - (W1[1] - S2[1]) * (W2[0] - S2[0]) < 0.0:
                W1, W2 = W2, W1
                A3, B3 = B3, A3
            lb = _pt_seg2(S2, W1, W2) + _pt_seg3(qxyz, A3, B3)
            if lb > cap:
                continue
            lb = max(lb, _joint_bound(S2, W1, W2, qxyz, A3, B3))
            if lb > cap:
                continue
            g = neighbor_face(f0, x, y)
            P2 = corners[fv.index(apex_vertex(f0, x, y))]
            count += 1
            heapq.heappush(heap, (lb, count, g, x, y, X2, Y2, P2, W1, W2,
                                  S2, None, 1, (1 << f0) | (1 << g)))

    killed = math.inf
    while heap:
        state = heapq.heappop(heap)
        lb = state[0]
        if lb > threshold():
            break
        (_, _, g, a, b, A2, B2, P2, W1, W2, S2, chain, depth, seen) = state
        c = apex_vertex(g, a, b)
        u, h = apex_tab[(g, a, b)]
        C2 = _place_apex(A2, B2, P2, u, h)
        chain2 = (chain, a, b, A2, B2)

        # a path ending on its own supporting edge is the parent's candidate
        if g in qfaces and qsupp != (a, b):
            bq = qbary[g]
            fv = FACES[g]
            images = {a: A2, b: B2, c: C2}
            Q2 = (sum(bq[k] * images[fv[k]][0] for k in range(3)),
                  sum(bq[k] * images[fv[k]][1] for k in range(3)))
            ex, ey = B2[0] - A2[0], B2[1] - A2[1]
            side_q = ex * (Q2[1] - A2[1]) - ey * (Q2[0] - A2[0])
            side_c = ex * (C2[1] - A2[1]) - ey * (C2[0] - A2[0])
            if side_q * side_c > 0.0:  # strictly past the entry edge, else the parent found it
                inside = ((W1[0] - S2[0]) * (Q2[1] - S2[1])
                          - (W1[1] - S2[1]) * (Q2[0] - S2[0]) >= 0.0
                          and (Q2[0] - S2[0]) * (W2[1] - S2[1])
                          - (Q2[1] - S2[1]) * (W2[0] - S2[0]) >= 0.0)
                if inside:
                    d = math.hypot(Q2[0] - S2[0], Q2[1] - S2[1])
                    if d <= threshold():
                        crossings = _chain_crossings(chain2, S2, Q2)
                        if crossings is not None:
                            sig = tuple((EDGE_INDEX[(i, j)], round(t / cfg.dedup_tol))
                                        for (i, j), t in crossings)
                            candidates.append((d, sig, crossings))
                            if d < incumbent:
                                incumbent = d

        if depth >= cfg.max_faces:
            killed = min(killed, lb)
            continue
        for x, y, X2, Y2, P2n in ((a, c, A2, C2, B2), (b, c, B2, C2, A2)):
            if x > y:
                x, y, X2, Y2 = y, x, Y2, X2
            if qvert == x or qvert == y:
                continue  # no path to a vertex crosses an edge through it
            gn = neighbor_face(g, x, y)
            if seen >> gn & 1:
                continue  # a shortest path meets each face only once
            clip = _cone_clip(S2, W1, W2, X2, Y2, TRIM, 1.0 - TRIM)
            if clip is None:
                continue
            s1, s2 = clip
            N1 = _lerp2(X2, Y2, s1)
            N2 = _lerp2(X2, Y2, s2)
            v3a, v3b = verts3[x], verts3[y]
            sub_a = (v3a[0] + s1 * (v3b[0] - v3a[0]), v3a[1] + s1 * (v3b[1] - v3a[1]),
                     v3a[2] + s1 * (v3b[2] - v3a[2]))
            sub_b = (v3a[0] + s2 * (v3b[0] - v3a[0]), v3a[1] + s2 * (v3b[1] - v3a[1]),
                     v3a[2] + s2 * (v3b[2] - v3a[2]))
            # keep the 3D window aligned with the reoriented 2D window so the
            # joint bound couples matching surface points
            if (N1[0] - S2[0]) * (N2[1] - S2[1]) - (N1[1] - S2[1]) * (N2[0] - S2[0]) < 0.0:
                N1, N2 = N2, N1
                sub_a, sub_b = sub_b, sub_a
            lb2 = _pt_seg2(S2, N1, N2) + _pt_seg3(qxyz, sub_a, sub_b)
            if lb2 < lb:
                lb2 = lb  # lower bounds are monotone along a branch
            if lb2 > threshold():
                continue
            lb2 = max(lb2, _joint_bound(S2, N1, N2, qxyz, sub_a, sub_b), lb)
            if lb2 > threshold():
                continue
            count += 1
            heapq.heappush(heap, (lb2, count, gn, x, y, X2, Y2, P2n, N1, N2,
                                  S2, chain2, depth + 1, seen | (1 << gn)))

    if not candidates:
        raise SearchExhausted("no geodesic found within the face budget")
    best = min(d for d, _, _ in candidates)
    if killed <= best * (1.0 + slack) + eps:
        raise SearchExhausted("face budget cut a branch that could still matter")
    return best, candidates


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


def _finish(T, p, q, d, crossings):
    return GeodesicPath(source=p.canonical(), target=q.canonical(),
                        crossings=crossings, length=d)


def geodesic_distance(T, p, q, cfg=None):
    """Globally minimal surface distance and a path realizing it.

    Among equal-length minimizers (within 1e-12 relative) the path with the
    lexicographically smallest crossing signature is reported.
    """
    cfg = cfg or DEFAULT_CFG
    best, candidates = _solve(T, p, q, cfg, 0.0)
    tie = best * (1.0 + 1e-12) + 1e-15 * T.diam
    pool = sorted(((sig, d, cr) for d, sig, cr in candidates if d <= tie))
    sig, d, crossings = pool[0]
    return best, _finish(T, p, q, best, crossings)


def all_geodesic_segments(T, p, q, slack=1e-7, cfg=None):
    """All combinatorially distinct near-minimal paths, sorted by length.

    Keeps every candidate within (1+slack) of the minimum, deduplicated by
    crossing signature.
    """
    cfg = cfg or DEFAULT_CFG
    if slack < 0:
        raise ValueError("slack must be nonnegative")
    best, candidates = _solve(T, p, q, cfg, slack)
    keep = {}
    limit = best * (1.0 + slack) + 1e-15 * T.diam
    for d, sig, crossings in candidates:
        if d <= limit and (sig not in keep or d < keep[sig][0]):
            keep[sig] = (d, crossings)
    out = [(d, sig, crossings) for sig, (d, crossings) in keep.items()]
    out.sort(key=lambda item: (item[0], item[1]))
    return [_finish(T, p, q, d, crossings) for d, sig, crossings in out]


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
    """Angle chart around x: (total angle, sectors).

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
        return 2.0 * math.pi, [(f, 0.0, 2.0 * math.pi, base, (1.0, 0.0), 1.0)]
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
            # rotate from the edge ray into the wedge holding the apex
            cr = ref[0] * (C2[1] - base[1]) - ref[1] * (C2[0] - base[0])
            sign = 1.0 if cr > 0.0 else -1.0
            sectors.append((face, th0, th0 + math.pi, base, ref, sign))
        return 2.0 * math.pi, sectors
    v = supp[0]
    sectors = []
    th = 0.0
    for face, entry, exit_v in vertex_fan(T, v):
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
    return th, sectors


def chart_angle(T, x, face, d2, sectors=None):
    """Chart angle at x of frame direction d2 within `face`."""
    omega, secs = sectors if sectors is not None else chart_sectors(T, x)
    for f, th0, th1, base, ref, sign in secs:
        if f != face:
            continue
        sa = sign * _signed_angle(ref, _unit2(d2))
        if sa < -1e-9:
            sa += 2.0 * math.pi
        sa = min(max(sa, 0.0), th1 - th0)
        return (th0 + sa) % omega
    raise ValueError("face %d is not part of the chart at this point" % face)


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

    Walks the ray through an on-the-fly unfolding; face crossings never
    count against path optimality here, so the budget is generous.
    """
    face, S2, d2 = chart_direction(T, x, theta, sectors)
    if length <= 0.0:
        return x.canonical()
    fv = FACES[face]
    images = dict(zip(fv, T.face_frames[face]))
    end = (S2[0] + length * d2[0], S2[1] + length * d2[1])
    entry = None
    for _ in range(64):
        # does the endpoint lie in the current triangle?
        corners = tuple(images[gi] for gi in FACES[face])
        bary = _bary_in_triangle(corners, end)
        if min(bary) >= -1e-9:
            b = tuple(min(max(t, 0.0), 1.0) for t in bary)
            s = sum(b)
            return SurfacePoint(face, tuple(t / s for t in b)).canonical()
        # otherwise find the exit edge and unfold across it
        best = None
        fvc = FACES[face]
        for i in range(3):
            xv, yv = fvc[i], fvc[(i + 1) % 3]
            if entry is not None and {xv, yv} == entry:
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
