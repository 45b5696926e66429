"""Shortest paths between two surface points, and an independent oracle.

The query layer above the star unfolding: geodesic_distance and
all_geodesic_segments read their paths off the star of the source
(intrinsic._shortest_paths), where every surface point develops and its
distance is the distance to the nearest source image.  Each path carries
the edges it crosses, found by walking its ray from the source face by
face.  Also provides an independent graph oracle on edge-lattice nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import (DEDUP_TOL, EDGE_INDEX, EDGES, SurfacePoint, dist3,
                       faces_containing)
from .intrinsic import _shortest_paths


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


def _signature(crossings):
    """A path's crossed edges, each with its parameter in steps of
    DEDUP_TOL: the order in which tied paths are reported."""
    return tuple((EDGE_INDEX[(i, j)], round(t / DEDUP_TOL))
                 for (i, j), t in crossings)


def geodesic_distance(T, p, q):
    """Globally minimal surface distance and a path realizing it.

    Among equal-length minimizers (within 1e-12 relative) the path with the
    lexicographically smallest crossing signature is reported.
    """
    p = p.canonical()
    q = q.canonical()
    paths = _shortest_paths(T, p, q, 1e-12)
    best = min(d for d, _ in paths)
    crossings = (paths[0][1] if len(paths) == 1 else
                 min(paths, key=lambda path: _signature(path[1]))[1])
    return best, GeodesicPath(source=p, target=q, crossings=crossings,
                              length=best)


def all_geodesic_segments(T, p, q):
    """Every shortest path, within a relative DEDUP_TOL of the minimum,
    sorted by length and then by crossing signature."""
    p = p.canonical()
    q = q.canonical()
    paths = sorted(_shortest_paths(T, p, q, DEDUP_TOL),
                   key=lambda path: (path[0], _signature(path[1])))
    return [GeodesicPath(source=p, target=q, crossings=crossings, length=d)
            for d, crossings in paths]


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
