"""Shortest paths between two surface points.

The query layer above the star unfolding: geodesic_distance and
all_geodesic_segments read their paths off the star of the source
(intrinsic._shortest_paths), where every surface point develops and its
distance is the distance to the nearest source image.  Each path carries
the edges it crosses, read off the star as the proper crossings of its
segment with the developed edges, which the star builds once.  A pair's
paths are read once per Tetrahedron, every path within DEDUP_TOL of the
star's first: all_geodesic_segments reports them all, and
geodesic_distance chooses among those within 1e-12 of the first.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import DEDUP_TOL, EDGE_INDEX, SurfacePoint
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


def _geodesic_path(source, target, crossings, length):
    """GeodesicPath(...) without the frozen __init__, as intrinsic._cut_node
    builds a node: the same frozen dataclass, fields, equality and repr."""
    path = object.__new__(GeodesicPath)
    d = path.__dict__
    d["source"] = source
    d["target"] = target
    d["crossings"] = crossings
    d["length"] = length
    return path


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
    paths = _shortest_paths(T, p, q)
    # the kept paths within 1e-12 of the star's first, which leads them
    limit = paths[0][0] * (1.0 + 1e-12) + 1e-15 * T.diam
    paths = [path for path in paths if path[0] <= limit]
    best = min(d for d, _ in paths)
    crossings = (paths[0][1] if len(paths) == 1 else
                 min(paths, key=lambda path: _signature(path[1]))[1])
    return best, _geodesic_path(p, q, crossings, best)


def all_geodesic_segments(T, p, q):
    """Every shortest path, within a relative DEDUP_TOL of the minimum,
    sorted by length and then by crossing signature."""
    p = p.canonical()
    q = q.canonical()
    paths = sorted(_shortest_paths(T, p, q),
                   key=lambda path: (path[0], _signature(path[1])))
    return [_geodesic_path(p, q, crossings, d) for d, crossings in paths]

