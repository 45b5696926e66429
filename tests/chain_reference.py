"""The face-chain search for shortest paths, kept as the reference.

tetrametric reads every shortest path off the star unfolding of its
source (intrinsic._shortest_paths).  This module finds them another way,
by the search the package used before: a shortest path meets each face in
one segment (Sharir & Schorr, SIAM J. Comput. 1986), so it crosses at most
three edges and develops along one of 3 + 6 + 6 = 15 face chains from each
start face.  The walk goes depth first and stops a chain once every face
holding the target is behind it.  Each chain keeps the planar "window" of
its last crossed edge, the sub-segment still visible from the unfolded
source through all earlier windows, which makes the enumeration exact for
straight-line candidates; the shortest candidate is the distance.  No
surface distance exceeds 2/sqrt(3) times the longest edge, which caps the
candidates (intrinsic._cap, here widened by a slack).

The tests hold the package to it, and

    PYTHONPATH=src python tests/chain_reference.py [N]

prints the agreement table: on N surface-query bundles (random, eps-thick
and isosceles shapes; vertex, edge and face points) and on the Diam pairs
of the report corpus, the largest |d - d_ref| / diam, the largest gap
between the crossing parameters of the two reported paths, and how many
pairs differ in path count or in crossed-edge sequences, with each
difference listed.
"""

import math
import sys

from tetrametric import (GeneratorSpec, GeodesicPath, TetraError,
                         all_geodesic_segments, edge_point, face_point,
                         generate, geodesic_distance, instance_stream,
                         intrinsic_diameter, make_eps_thick, make_isosceles,
                         make_normal_eps_thick, make_regular, normalize,
                         vertex_point)
from tetrametric.errors import SearchExhausted
from tetrametric.geometry import (DEDUP_TOL, EDGE_INDEX, FACES, TRIM,
                                  _lerp2, _orient, apex_vertex, dist3,
                                  faces_containing, neighbor_face)
from tetrametric.intrinsic import CAP_RATIO

from face_strip import _place_apex, apex_offset


def _cap(scale, slack):
    """intrinsic._cap widened by a relative slack: the longest straight
    development kept as a candidate.  At slack 0 it is intrinsic._cap to
    the bit."""
    return CAP_RATIO * scale * (1.0 + 1e-9) * (1.0 + slack) + 1e-14 * scale


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
# both the next state's and its apex_offset key.
_STATE = {(g, a, b): _chain_state(g, a, b)
          for g in range(4) for a in FACES[g] for b in FACES[g] if a < b}


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


def _walk_chains(T, p, q, slack):
    """Straight-line path candidates from canonical p to canonical q, as a
    tuple of (length, signature, crossings) in the order the walk finds
    them, or SearchExhausted when no development reaches q.

    A depth-first walk develops the face chains that visit each face at
    most once -- up to 3 + 6 + 6 = 15 chain states from each start face --
    and keeps every straight development that reaches q inside its windows
    and within the CAP_RATIO bound widened by slack.  Only a state in a
    face of q adds a candidate, and a chain never re-enters a face it
    visited, so a chain stops once every face of q is behind it: a state
    whose visited faces hold them all pushes no exits, and a start face
    that is q's only face starts no chain.
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
            u, h = apex_offset(T, nxt)
            stack.append((nxt, X2, Y2, _place_apex(X2, Y2, P2n, u, h),
                          N1, N2, S2, chain2, seen | (1 << gn)))

    if not candidates:
        raise SearchExhausted("no straight development reaches the target")
    return tuple(candidates)


def reference_distance(T, p, q):
    """geodesic_distance by the chain search: the shortest candidate, and
    among those within 1e-12 relative of it the path of least signature."""
    p = p.canonical()
    q = q.canonical()
    candidates = _walk_chains(T, p, q, 0.0)
    best = min(d for d, _, _ in candidates)
    tie = best * (1.0 + 1e-12) + 1e-15 * T.diam
    _, _, crossings = min((sig, d, cr) for d, sig, cr in candidates
                          if d <= tie)
    return best, GeodesicPath(source=p, target=q, crossings=crossings,
                              length=best)


def reference_segments(T, p, q, slack=DEDUP_TOL):
    """all_geodesic_segments by the chain search: every candidate within
    (1 + slack) of the shortest, one per signature, sorted by length and
    signature."""
    p = p.canonical()
    q = q.canonical()
    candidates = _walk_chains(T, p, q, slack)
    best = min(d for d, _, _ in candidates)
    keep = {}
    limit = best * (1.0 + slack) + 1e-15 * T.diam
    for d, sig, crossings in candidates:
        if d <= limit and (sig not in keep or d < keep[sig][0]):
            keep[sig] = (d, crossings)
    out = sorted((d, sig, crossings) for sig, (d, crossings) in keep.items())
    return [GeodesicPath(source=p, target=q, crossings=crossings, length=d)
            for d, _, crossings in out]


# ---------------------------------------------------------------------------
# the agreement table

def _isosceles(rng):
    """A normalized isosceles shape of acute sides drawn from [0.5, 1)."""
    while True:
        a, b, c = (float(s) for s in rng.uniform(0.5, 1.0, 3))
        if a * a + b * b > c * c and a * a + c * c > b * b \
                and b * b + c * c > a * a:
            return normalize(make_isosceles(a, b, c))


def _point(rng):
    """A vertex (one in six), an edge point (two in six) or a face point."""
    kind = int(rng.integers(6))
    if kind == 0:
        return vertex_point(int(rng.integers(4)))
    if kind < 3:
        a, b = (int(v) for v in rng.permutation(4)[:2])
        return edge_point(a, b, float(rng.uniform(0.0, 1.0)))
    u, v = rng.random(2)
    if u + v > 1.0:
        u, v = 1.0 - u, 1.0 - v
    return face_point(int(rng.integers(4)),
                      (1.0 - float(u) - float(v), float(u), float(v)))


def bundle(seed, i):
    """(kind, T, p, q) of surface-query pair i: a random, eps-thick or
    isosceles shape as i is 0, 1 or 2 mod 3, and two points of it."""
    rng = instance_stream(seed, i)
    if i % 3 == 0:
        kind, T = "random", normalize(generate(GeneratorSpec(kind="random"),
                                               seed=rng))
    elif i % 3 == 1:
        kind, T = "eps-thick", make_eps_thick(float(rng.uniform(0.003, 0.03)),
                                              rng)
    else:
        kind, T = "isosceles", _isosceles(rng)
    return kind, T, _point(rng), _point(rng)


def bundles(seed, n):
    """The first n surface-query pairs of the seed."""
    return (bundle(seed, i) for i in range(n))


def _thin(seed, i):
    """Shape i of a report_thin pool: eps-thick and normal eps-thick."""
    rng = instance_stream(seed, i)
    if i % 2 == 0:
        return make_eps_thick(float(rng.uniform(0.003, 0.03)), rng)
    return make_normal_eps_thick(float(rng.uniform(0.01, 0.03)))


def corpus():
    """(name, T) of the report corpus: instances 0-199 of seeds 42, 15 and
    66, the 128-shape thin pools of seeds 1 and 2, and the regular shape."""
    spec = GeneratorSpec(kind="random")
    for seed in (42, 15, 66):
        for i in range(200):
            yield "random/%d/%d" % (seed, i), normalize(
                generate(spec, seed=instance_stream(seed, i)))
    for seed in (1, 2):
        for i in range(128):
            yield "thin/%d/%d" % (seed, i), _thin(seed, i)
    yield "regular", normalize(make_regular(1.0))


def _read(fn, *args):
    try:
        return fn(*args)
    except TetraError as exc:
        return type(exc).__name__


def _edges(path):
    return tuple(edge for edge, _ in path.crossings)


def compare(T, p, q):
    """How the package and the reference differ on one pair: (|dd| / diam,
    the largest gap between the crossing parameters of the reported paths,
    the differences as strings), with None for the gaps where a side
    raised a TetraError, which gives its class name."""
    got = _read(geodesic_distance, T, p, q)
    want = _read(reference_distance, T, p, q)
    segs = _read(all_geodesic_segments, T, p, q)
    ref = _read(reference_segments, T, p, q)
    if isinstance(got, str) or isinstance(want, str):
        return None, None, [] if got == want else ["raised %s / %s" % (
            got if isinstance(got, str) else "-",
            want if isinstance(want, str) else "-")]
    diffs = []
    gap = abs(got[0] - want[0]) / T.diam
    dt = 0.0
    if _edges(got[1]) != _edges(want[1]):
        diffs.append("path %s / %s" % (_edges(got[1]), _edges(want[1])))
    else:
        dt = max([abs(a[1] - b[1]) for a, b in zip(got[1].crossings,
                                                   want[1].crossings)],
                 default=0.0)
    if isinstance(segs, str) or isinstance(ref, str):
        if segs != ref:
            diffs.append("segments raised %s / %s" % (segs, ref))
    elif len(segs) != len(ref):
        diffs.append("count %d / %d" % (len(segs), len(ref)))
    elif sorted(map(_edges, segs)) != sorted(map(_edges, ref)):
        diffs.append("segments %s / %s" % (sorted(map(_edges, segs)),
                                           sorted(map(_edges, ref))))
    return gap, dt, diffs


def _table(rows):
    """Print one line per group of (group, name, gap, dt, diffs) rows,
    then every difference."""
    groups = {}
    for group, name, gap, dt, diffs in rows:
        g = groups.setdefault(group, [0, 0, 0.0, 0.0, 0, 0])
        g[0] += 1
        g[1] += gap is None
        g[2] = max(g[2], gap or 0.0)
        g[3] = max(g[3], dt or 0.0)
        g[4] += any(d.startswith("count") for d in diffs)
        g[5] += any(d.startswith(("path", "segments")) for d in diffs)
    print("%-10s %6s %6s %12s %9s %6s %8s" % (
        "group", "pairs", "raised", "max|dd|/diam", "max|dt|", "count",
        "crossing"))
    for group, (n, raised, gap, dt, count, cross) in groups.items():
        print("%-10s %6d %6d %12.2e %9.2e %6d %8d" % (group, n, raised, gap,
                                                      dt, count, cross))
    for group, name, gap, dt, diffs in rows:
        if diffs:
            print("%s %s: %s" % (group, name, "; ".join(diffs)))


def agreement(n, seed=1):
    """The rows of the agreement table: n bundles of the seed, then the
    Diam pair of every corpus shape."""
    rows = []
    for i, (kind, T, p, q) in enumerate(bundles(seed, n)):
        rows.append((kind, "%d/%d %s %s" % (seed, i, p, q))
                    + compare(T, p, q))
    for name, T in corpus():
        res = _read(intrinsic_diameter, T)
        if isinstance(res, str):
            rows.append(("Diam", name, None, None, []))
            continue
        gap, dt, diffs = compare(T, *res.pair)
        ref = len(reference_segments(T, *res.pair))
        if res.multiplicity != ref:
            diffs.append("count %d / %d (multiplicity)"
                         % (res.multiplicity, ref))
        rows.append(("Diam", name, gap, dt, diffs))
    return rows


if __name__ == "__main__":
    _table(agreement(int(sys.argv[1]) if len(sys.argv) > 1 else 3000))
