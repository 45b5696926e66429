"""An upper bound on surface distance from an edge-lattice graph, kept as
the reference.

tetrametric reads every shortest path off the star unfolding of its
source.  This module bounds the distance another way: the dyadic points of
the six edges, joined by their 3D chords within each face, make a graph of
genuine surface paths, and the best graph path, shortened by sliding its
crossing points along their edges, is the exact length of the best
crossing sequence the lattice discovered.  It shares nothing with the star
but the face table and the vertex coordinates, so the tests hold the
package's distances and farthest points to it from above.
"""

import math

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from tetrametric.geometry import EDGES, dist3, faces_containing

# the lattice graphs of the most recent shape, by (T.vertices, n): the
# tests query one shape at several pairs and resolutions before the next,
# and a lattice at n = 6 holds some 73,000 chords
_LATTICES = {}


def _oracle_base(T, n):
    key = (tuple(T.vertices), n)
    if key in _LATTICES:
        return _LATTICES[key]
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
    if any(held != key[0] for held, _ in _LATTICES):
        _LATTICES.clear()
    _LATTICES[key] = base
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
