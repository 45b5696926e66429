"""Constructions of special tetrahedra and seeded random sampling.

Provides the regular tetrahedron, the opposite-edges-equal family built from
an acute triangle, thin tetrahedra whose short edge sits in a small ball
around the midpoint of the longest edge, uniform random instances, and a
similarity-canonical normal form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, GenerationFailed, NotAcute
from .geometry import (DEFAULT_CFG, EDGES, Tetrahedron, ToleranceConfig,
                       _check_diam, _cross3, _dot3, _norm3,
                       validate_tetrahedron)

_MAX_ATTEMPTS = 10 ** 4
_WORD = (1 << 64) - 1


def _rng(seed):
    """Philox-backed generator; accepts an int seed or a ready Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.Philox(key=int(seed)))


def instance_stream(seed, index):
    """Independent, order-insensitive stream for campaign instance `index`.

    The stream of `Philox(key=seed).jumped(index)`, bit for bit, opened at
    the counter that jump reaches: index mod 2**128 in the counter's words
    2 and 3, the two high words of its 256 bits.
    """
    step = int(index) % (1 << 128)
    counter = np.array((0, 0, step & _WORD, step >> 64), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=int(seed),
                                                counter=counter))


def make_regular(edge, cfg=None):
    """Regular tetrahedron with the given edge length."""
    if edge <= 0:
        raise ValueError("edge length must be positive")
    s = edge / (2.0 * math.sqrt(2.0))
    verts = [(s, s, s), (s, -s, -s), (-s, s, -s), (-s, -s, s)]
    return validate_tetrahedron(verts, cfg)


def make_isosceles(p, q, r, cfg=None):
    """Tetrahedron with opposite edge pairs of lengths p, q, r.

    Realized as alternating corners of a rectangular box; the construction
    solves exactly when the triangle (p, q, r) is strictly acute.  Edge pair
    (01)/(23) gets length p, (02)/(13) gets q, (03)/(12) gets r.
    """
    if min(p, q, r) <= 0:
        raise ValueError("side lengths must be positive")
    # the longest side is the longest edge; refused before its square overflows
    _check_diam(max(p, q, r))
    x2 = (q * q + r * r - p * p) / 8.0
    y2 = (p * p + r * r - q * q) / 8.0
    z2 = (p * p + q * q - r * r) / 8.0
    if x2 <= 0 or y2 <= 0 or z2 <= 0:
        raise NotAcute("triangle (%g, %g, %g) is not strictly acute" % (p, q, r))
    x, y, z = math.sqrt(x2), math.sqrt(y2), math.sqrt(z2)
    # this labeling is positively oriented, so validation keeps it verbatim
    # and the documented edge-pair assignment holds literally
    verts = [(x, y, -z), (x, -y, z), (-x, y, z), (-x, -y, -z)]
    return validate_tetrahedron(verts, cfg)


def make_normal_eps_thick(eps, long_edge=1.0, cfg=None):
    """Thin tetrahedron with the short edge normal to the long one.

    Vertices: a, b at the ends of the long edge on the x-axis; c, d symmetric
    about the xz-plane at height h with spread s, s = h = eps*L/(2*sqrt(2)),
    so the short edge lies inside the ball of radius eps*L about the long
    edge's midpoint and both edges are normal to the line joining their
    midpoints.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if long_edge <= 0:
        raise ValueError("long_edge must be positive")
    L = float(long_edge)
    s = eps * L / (2.0 * math.sqrt(2.0))
    verts = [(-L / 2.0, 0.0, 0.0), (L / 2.0, 0.0, 0.0),
             (0.0, s, s), (0.0, -s, s)]
    return validate_tetrahedron(verts, cfg)


def make_eps_thick(eps, seed, long_edge=1.0, cfg=None):
    """Thin tetrahedron with a seeded generic short-edge placement.

    The two remaining vertices are drawn uniformly from the ball of radius
    eps*L centered at the midpoint of the long edge, rejection-sampled until
    the quality floor holds.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if long_edge <= 0:
        raise ValueError("long_edge must be positive")
    cfg = cfg or DEFAULT_CFG
    L = float(long_edge)
    # edge (0,1) must stay the longest, so no attempt passes outside the range
    _check_diam(L)
    rng = _rng(seed)
    a = (-L / 2.0, 0.0, 0.0)
    b = (L / 2.0, 0.0, 0.0)
    for _ in range(_MAX_ATTEMPTS):
        c = _uniform_ball(rng, eps * L)
        d = _uniform_ball(rng, eps * L)
        try:
            T = validate_tetrahedron([a, b, c, d], cfg)
        except DegenerateInput:
            continue
        if T.longest_edge == 0:  # edge (0,1) must stay the longest
            return T
    raise GenerationFailed("no quality eps-thick instance in %d attempts" % _MAX_ATTEMPTS)


def _uniform_ball(rng, radius):
    """A uniform point of the ball about the origin, as a tuple: a normal
    draw's direction, then one uniform draw for the distance."""
    g = rng.normal(size=3).tolist()
    n = _norm3(g)
    while n == 0.0:
        g = rng.normal(size=3).tolist()
        n = _norm3(g)
    s = rng.random() ** (1.0 / 3.0)
    return (g[0] / n * radius * s, g[1] / n * radius * s,
            g[2] / n * radius * s)


def random_tetrahedron(seed, cfg=None):
    """Four i.i.d. uniform points in the unit cube, resampled to quality."""
    cfg = cfg or DEFAULT_CFG
    rng = _rng(seed)
    for _ in range(_MAX_ATTEMPTS):
        pts = rng.random((4, 3)).tolist()
        try:
            return validate_tetrahedron(pts, cfg)
        except DegenerateInput:
            continue
    raise GenerationFailed("no quality random instance in %d attempts" % _MAX_ATTEMPTS)


def normalize(T):
    """Similarity-canonical form.

    Scales the longest edge to 1 and centers it on the x-axis; the smaller
    original index of its endpoints goes to -x.  Of the two remaining
    vertices, the smaller original index becomes vertex 2, placed in the
    xz-plane with z > 0; the reflection ambiguity is fixed by giving vertex 3
    negative y, which keeps the labeling positively oriented.  All six metric
    ratios are invariant under this map, and the map is idempotent.

    The frame is built in plain float sums in a fixed order (`_dot3`,
    `_norm3`, `_cross3`), so the canonical vertices are the same bits on
    any machine and under any BLAS kernel.
    """
    a, b = EDGES[T.longest_edge]
    c, d = [v for v in range(4) if v != a and v != b]
    verts = T.vertices
    (ax, ay, az), (bx, by, bz) = verts[a], verts[b]
    origin = ((ax + bx) / 2.0, (ay + by) / 2.0, (az + bz) / 2.0)
    L = _norm3((bx - ax, by - ay, bz - az))
    if not L > 0.0:
        raise DegenerateInput("a flat tetrahedron has no canonical form")
    xhat = ((bx - ax) / L, (by - ay) / L, (bz - az) / L)
    cx, cy, cz = verts[c]
    w = (cx - origin[0], cy - origin[1], cz - origin[2])
    t = _dot3(w, xhat)
    w_perp = (w[0] - t * xhat[0], w[1] - t * xhat[1], w[2] - t * xhat[2])
    n = _norm3(w_perp)
    if not n > 0.0:
        raise DegenerateInput("a flat tetrahedron has no canonical form")
    zhat = (w_perp[0] / n, w_perp[1] / n, w_perp[2] / n)
    yhat = _cross3(zhat, xhat)
    coords = []
    for i in (a, b, c, d):
        px, py, pz = verts[i]
        rel = ((px - origin[0]) / L, (py - origin[1]) / L,
               (pz - origin[2]) / L)
        coords.append([_dot3(rel, xhat), _dot3(rel, yhat), _dot3(rel, zhat)])
    if coords[3][1] > 0.0:
        for p in coords:
            p[1] = -p[1]
    # a similarity map keeps volume / diam^3, so the shape keeps the quality
    # it was validated with and is not held to the default floor again.
    # With vertex 2 at z > 0 in the xz-plane and vertex 3 at y < 0 the
    # labeling is positively oriented; y = 0 there means a flat input.
    if not coords[3][1] < 0.0:
        raise DegenerateInput("a flat tetrahedron has no canonical form")
    return Tetrahedron(tuple(tuple(p) for p in coords))


def shape_distance(T1, T2):
    """Max vertexwise distance between the two canonical forms."""
    A = normalize(T1)
    B = normalize(T2)
    return max(math.dist(u, v) for u, v in zip(A.vertices, B.vertices))


# ---------------------------------------------------------------------------
# generator specs (mirrors the CLI flags)

_KINDS = ("regular", "isosceles", "eps-thick", "normal-eps-thick", "random")


@dataclass(frozen=True)
class GeneratorSpec:
    """Declarative recipe for one tetrahedron family member."""

    kind: str
    edge: float = 1.0
    sides: tuple = (5.0, 6.0, 7.0)
    eps: float = 0.01
    seed: int = 0
    quality_floor: float = 1e-6

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError("unknown generator kind %r" % (self.kind,))
        # the floor is refused here as generate's ToleranceConfig refuses it
        ToleranceConfig(quality_floor=self.quality_floor)


def generate(spec, seed=None):
    """Build the tetrahedron described by a GeneratorSpec.

    `seed` overrides the spec's seed, which lets campaigns hand each
    instance its own stream.  Every kind is held to spec.quality_floor.
    """
    cfg = ToleranceConfig(quality_floor=spec.quality_floor)
    use_seed = spec.seed if seed is None else seed
    if spec.kind == "regular":
        return make_regular(spec.edge, cfg)
    if spec.kind == "isosceles":
        p, q, r = spec.sides
        return make_isosceles(p, q, r, cfg)
    if spec.kind == "normal-eps-thick":
        return make_normal_eps_thick(spec.eps, spec.edge, cfg)
    if spec.kind == "eps-thick":
        return make_eps_thick(spec.eps, use_seed, spec.edge, cfg)
    return random_tetrahedron(use_seed, cfg)


def spec_to_json(spec):
    return {"kind": spec.kind, "edge": spec.edge, "sides": list(spec.sides),
            "eps": spec.eps, "seed": spec.seed,
            "quality_floor": spec.quality_floor}


def spec_from_json(obj):
    return GeneratorSpec(kind=obj["kind"], edge=obj.get("edge", 1.0),
                         sides=tuple(obj.get("sides", (5.0, 6.0, 7.0))),
                         eps=obj.get("eps", 0.01), seed=obj.get("seed", 0),
                         quality_floor=obj.get("quality_floor", 1e-6))
