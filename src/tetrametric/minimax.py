"""The model and the step of the radius search's minimax descents.

F, the farthest-point distance, is the max over the cut-locus nodes of
their distances from the source.  Each step of a descent
(intrinsic._descend, which intrinsic_radius drives) models F over a trust
region, a box in the star chart of its current point, and minimizes the
model.  _node_models gives each node its pieces q(d) = v + g.d + d^T H
d / 2, as (v, gx, gy, hxx, hxy, hyy): the node's exact value, gradient
and Hessian, the junctions' Hessians built only once a descent turns
curved (_with_hessians).  _step minimizes the max over the nodes of the
min over their pieces on the box.  It solves each choice of pieces on
their affine parts first (_breakline_walk), the LP step of Madsen's
minimax method, and, once the descent is curved, starts the quadratic
solve from that step (_curved_minimum): the trust-region subproblem of a
second-order minimax method (Hald & Madsen, "Combined LP and quasi-Newton
methods for minimax optimization", Math. Programming 20, 1981).  That
solve solves the optimality conditions of its active sets only, and looks
for the minimum on the box's sides where the model is flat along a
piece's descent direction.  The search policy (seeds, budgets, trust-region
updates, when a descent turns curved) stays in intrinsic.py.
"""

from __future__ import annotations

import itertools
import math

from .geometry import DEDUP_TOL, _bary_in_triangle, _orient
from .planar import _group_junctions


def _node_models(star, nodes, floor=-math.inf, curved=True):
    """Curved pieces of each farthest-distance candidate.

    A node's distance from the source moves, to first order, by g.d when
    the source moves by d in its star chart (StarUnfolding): at a
    face-interior source, the face's frame.  A vertex at distance r has
    g = -e, e the unit start direction of a shortest path to it; a vertex
    with tied paths keeps one piece per distinct path, and its model is
    the min over them.  A junction, the circumcenter c of source images
    i, j, l, has g = -sum(lam * e) over its three paths, lam the
    barycentric coordinates of c in the images' triangle (the weights that
    balance the three arriving directions).  Junctions whose circumcenters
    coincide within DEDUP_TOL * diam are one node of higher degree, whose
    model is the min over its triples with lam >= 0 (to rounding).  A junction
    with a negative weight is no local maximum of the distance along the cut
    locus (it grows along one of its arcs), so it never sets F and gets no
    model.  Returns one (top, pieces) pair per modelled node, in node order:
    pieces lists its (value, gx, gy, hxx, hxy, hyy) pieces and top is the
    largest of their values.  A node whose top is below floor is left out; a
    junction node is skipped unbuilt when its largest member is.

    Each piece carries, after its first-order part (value, gx, gy), its
    Hessian (hxx, hxy, hyy) in the chart.  With curved unset, a junction
    piece carries instead what its Hessian is built from, (tri, lam, es):
    the first-order step reads no Hessian, and a descent that turns curved
    builds them on the models it holds (_with_hessians).  Image t moves
    rigidly with the source, by L_t^T d, L_t the map from the plane at
    image t to the chart: the reflection R_t of the image's turn
    (StarUnfolding), which is its own transpose, so both read off
    star.turns in closed form.  The node is a fixed
    plane point (vertex) or the moving images' circumcenter (junction).  A
    vertex at distance r thus has Hessian (I - e e^T) / r.  A junction of
    circumradius R, whose circumcenter moves by C d, has Hessian
    (sum(lam * A_t^T A_t) - g g^T) / R with A_t = C - L_t^T: differentiate
    |c - image_t|^2 = R^2 twice and sum with the weights lam, which cancel
    the circumcenter's second derivative since sum(lam * (c - image_t)) = 0.
    C itself solves (image_t - image_i) . C_j = R * (e_i - e_t)_j, the
    first derivative of the same equations.
    """
    images, turns = star.images, star.turns
    m = len(images)
    snap = DEDUP_TOL * star.tetra.diam

    def unit(k, pt):
        """Unit direction in the chart at which the path through image k
        leaves the source toward pt: R_k (pt - images[k]), normalized."""
        (ax, ay), (c, s) = images[k], turns[k]
        dx, dy = pt[0] - ax, pt[1] - ay
        vx, vy = c * dx + s * dy, s * dx - c * dy
        r = math.hypot(vx, vy)
        return vx / r, vy / r

    models = []
    for val, pt, k, tri in nodes:
        # every piece of a vertex node has the vertex's value
        if tri is not None or val < floor:
            continue
        dists = [math.hypot(pt[0] - a[0], pt[1] - a[1]) for a in images]
        near = [j for j in range(m) if dists[j] <= val + snap]
        if k in near and (k + 1) % m in near:
            near.remove((k + 1) % m)  # both flanks develop cut k
        pieces = []
        for j in near:
            ex, ey = unit(j, pt)
            r = dists[j]
            pieces.append((val, -ex, -ey, (1.0 - ex * ex) / r,
                           -ex * ey / r, (1.0 - ey * ey) / r))
        models.append((val, pieces))
    juncs = [node for node in nodes if node[3] is not None]
    for _, members in _group_junctions(juncs, snap):
        if max([node[0] for node in members]) < floor:
            continue
        pieces = []
        for val, cc, _, tri in members:
            i, j, l = tri
            lam = _bary_in_triangle((images[i], images[j], images[l]), cc)
            # a circumcenter on a side of its triangle (a diagonal of a
            # degree-four node) gets weights of either sign by rounding
            if min(lam) < -1e-9:
                continue
            gx = gy = 0.0
            es = []
            for w, t in zip(lam, tri):
                ex, ey = unit(t, cc)
                gx -= w * ex
                gy -= w * ey
                es.append((ex, ey))
            pieces.append((val, gx, gy, tri, lam, es))
        if pieces:
            top = max([pc[0] for pc in pieces])
            if top >= floor:
                models.append((top, pieces))
    return _with_hessians(star, models) if curved else models


def _with_hessians(star, models):
    """The models of star that _node_models built with curved unset, each
    junction piece's (tri, lam, es) replaced by its Hessian
    (_junction_hessian): the models it builds with curved set, to the
    bit."""
    images, turns = star.images, star.turns
    return [(top, [pc[:3] + _junction_hessian(images, *pc[3:], pc[0],
                                              pc[1:3], turns)
                   if isinstance(pc[3], tuple) else pc for pc in pieces])
            for top, pieces in models]


def _junction_hessian(images, tri, lam, es, R, g, turns):
    """(hxx, hxy, hyy) of a junction piece, as _node_models derives it.

    es are the unit chart directions of the three paths, R the
    circumradius, g the piece's gradient and turns the star's: L_k is the
    reflection R_k = [[c, s], [s, -c]] of (c, s) = turns[k], which is its
    own transpose.
    """
    i, j, l = tri
    (ax, ay), (bx, by), (cx, cy) = images[i], images[j], images[l]
    ux, uy, vx, vy = bx - ax, by - ay, cx - ax, cy - ay
    det = ux * vy - uy * vx
    (e0x, e0y), (e1x, e1y), (e2x, e2y) = es
    # C's columns: the plane velocity of the circumcenter per chart axis
    cols = []
    for r1, r2 in ((R * (e0x - e1x), R * (e0x - e2x)),
                   (R * (e0y - e1y), R * (e0y - e2y))):
        cols.append(((r1 * vy - uy * r2) / det, (ux * r2 - vx * r1) / det))
    (c00, c10), (c01, c11) = cols
    sxx = sxy = syy = 0.0
    for w, t in zip(lam, tri):
        # A_t = C - L_t^T, and L_t^T = R_t
        c, s = turns[t]
        a00, a01, a10, a11 = c00 - c, c01 - s, c10 - s, c11 + c
        sxx += w * (a00 * a00 + a10 * a10)
        sxy += w * (a00 * a01 + a10 * a11)
        syy += w * (a01 * a01 + a11 * a11)
    gx, gy = g
    return (sxx - gx * gx) / R, (sxy - gx * gy) / R, (syy - gy * gy) / R


def _max_below(pieces, x, y, top):
    """max(v + gx * x + gy * y) over the pieces, or None once it reaches top."""
    m = -math.inf
    for v, gx, gy in pieces:
        t = v + gx * x + gy * y
        if t > m:
            if t >= top:
                return None
            m = t
    return m


def _breakline_walk(pieces, poly, best):
    """Minimize max(v + g.d) over d in the convex polygon poly, from best,
    its first lowest corner as (value, corner).

    A convex piecewise-linear function is smallest at a vertex of its
    arrangement over the polygon: a polygon corner, a breakline (two pieces
    equal) meeting an edge, or two breaklines meeting (three pieces equal).
    After the corners the candidates are walked in that order and the
    first lowest wins.  pieces is a nonempty list of finite (v, gx, gy).
    A candidate is dropped as soon as one piece reaches the incumbent's
    value, as it can then no longer be lower; a breakline's first piece
    is tried alone first, since it is among the highest where the
    candidate lies.  Two breaklines' meeting point is tested for lying in
    the polygon (_orient, written out) only when it would win.
    """
    n = len(pieces)
    ring = poly[1:] + poly[:1]
    top = best[0]
    for a in range(n):
        va, gax, gay = pieces[a]
        for b in range(a + 1, n):
            vb, gbx, gby = pieces[b]
            dv, dx, dy = va - vb, gax - gbx, gay - gby
            # the breakline's value at each corner, carried from one
            # side to the next
            px, py = poly[0]
            fp = dv + dx * px + dy * py
            for qx, qy in ring:
                fq = dv + dx * qx + dy * qy
                if (fp < 0.0 < fq) or (fq < 0.0 < fp):
                    t = fp / (fp - fq)
                    x = px + t * (qx - px)
                    y = py + t * (qy - py)
                    if va + gax * x + gay * y < top:
                        val = _max_below(pieces, x, y, top)
                        if val is not None:
                            best, top = (val, (x, y)), val
                px, py, fp = qx, qy, fq
            for c in range(b + 1, n):
                vc, gcx, gcy = pieces[c]
                ex, ey = gax - gcx, gay - gcy
                det = dx * ey - dy * ex
                if det == 0.0:
                    continue
                r1, r2 = -dv, vc - va
                x = (r1 * ey - dy * r2) / det
                y = (dx * r2 - ex * r1) / det
                if va + gax * x + gay * y >= top:
                    continue
                val = _max_below(pieces, x, y, top)
                if val is None:
                    continue
                for (ux, uy), (wx, wy) in zip(poly, ring):
                    # `not ... >= 0.0`, like _orient's test, rejects a NaN
                    if not (wx - ux) * (y - uy) - (wy - uy) * (x - ux) >= 0.0:
                        break
                else:
                    best, top = (val, (x, y)), val
    return best


def _quad_value(pc, x, y):
    """A curved piece (v, gx, gy, hxx, hxy, hyy) at the step (x, y)."""
    v, gx, gy, hxx, hxy, hyy = pc
    return (v + gx * x + gy * y
            + 0.5 * (hxx * x * x + 2.0 * hxy * x * y + hyy * y * y))


def _line_minimum(pieces, start, end, top=math.inf):
    """The point start + t * (end - start), 0 < t <= 1, lowest on the max
    of the curved pieces, or None where that max is not below top, widened
    by rounding, at any point the search lists.

    Along the segment each piece is a quadratic in t, so their max is
    lowest at t = 1, at a piece's own minimum, or where two pieces cross.
    The largest of the pieces' own minima over 0 <= t <= 1 bounds that
    max from below: the segment is skipped when the bound is above top,
    and a piece whose largest value there is below the bound never sets
    the max, so its crossings are not listed.  Each t is dropped as soon
    as one piece reaches the lowest max so far.
    """
    ax, ay = start
    ux, uy = end[0] - ax, end[1] - ay
    coefs = []
    low = -math.inf
    for v, gx, gy, hxx, hxy, hyy in pieces:
        # the piece along the segment: a + b * t + c * t^2
        a = (v + gx * ax + gy * ay
             + 0.5 * (hxx * ax * ax + 2.0 * hxy * ax * ay + hyy * ay * ay))
        b = ((gx + hxx * ax + hxy * ay) * ux
             + (gy + hxy * ax + hyy * ay) * uy)
        c = 0.5 * (hxx * ux * ux + 2.0 * hxy * ux * uy + hyy * uy * uy)
        # its lowest and highest value on 0 <= t <= 1
        lo = hi = a + b + c
        if a < lo:
            lo = a
        else:
            hi = a
        if 0.0 < -b < 2.0 * c:
            lo = a - 0.25 * b * b / c
        elif 0.0 < b < -2.0 * c:
            hi = a - 0.25 * b * b / c
        coefs.append((a, b, c, hi))
        if lo > low:
            low = lo
    # top, widened by rounding, is the lowest max a point must beat
    cut = top + 1e-12 * abs(top)
    if low > cut:
        return None
    # a piece that stays below that bound is below the max everywhere
    coefs = [(a, b, c) for a, b, c, hi in coefs
             if hi >= low - 1e-12 * abs(low)]
    ts = [1.0]
    for a, b, c in coefs:
        if c > 0.0:
            ts.append(-0.5 * b / c)
    for i, (a, b, c) in enumerate(coefs):
        for a2, b2, c2 in coefs[i + 1:]:
            # the crossings: roots of da + db * t + dc * t^2
            da, db, dc = a - a2, b - b2, c - c2
            if dc == 0.0:
                if db != 0.0:
                    ts.append(-da / db)
                continue
            disc = db * db - 4.0 * da * dc
            if disc >= 0.0:
                # the two roots without cancellation
                q = -0.5 * (db + math.copysign(math.sqrt(disc), db))
                ts.append(q / dc)
                if q != 0.0:
                    ts.append(da / q)
    best_t = None
    for t in ts:
        if 0.0 < t <= 1.0:
            m = -math.inf
            for a, b, c in coefs:
                val = a + t * (b + t * c)
                if val > m:
                    if val >= cut:
                        break
                    m = val
            else:
                best_t, cut = t, m
    if best_t is None:
        return None
    return ax + best_t * ux, ay + best_t * uy


_KKT_ITERATIONS = 8


def _piece_gradient(pc, x, y):
    """The gradient of a curved piece at the step (x, y)."""
    _, gx, gy, hxx, hxy, hyy = pc
    return gx + hxx * x + hxy * y, gy + hxy * x + hyy * y


def _kkt_point(pieces):
    """Where the max of one to three curved pieces is stationary, all equal.

    The optimality conditions of minimizing max(q_i) with every q_i active
    are sum(lam * grad q_i) = 0, sum(lam) = 1 and q_1 = q_i.  One piece:
    its minimum, which exists only for a positive definite Hessian.  Two
    pieces: Newton's method on the three conditions in (d, lam_2), from
    d = 0 and the lam_2 whose weighted gradient is shortest.  Three pieces:
    Newton's method on the two equalities in d alone, from d = 0, then
    lam from the linear conditions.  Newton stops once d moves by at most
    1e-15 of the first piece's value, after at most _KKT_ITERATIONS steps.
    Returns (d, lam), or None when a system is singular or the iterations
    run out; the caller checks lam >= 0.
    """
    if len(pieces) == 1:
        _, gx, gy, a, h, e = pieces[0]
        det = a * e - h * h
        if a <= 0.0 or det <= 0.0:
            return None
        return ((h * gy - e * gx) / det, (h * gx - a * gy) / det), [1.0]
    tol = 1e-15 * abs(pieces[0][0])
    x = y = 0.0
    if len(pieces) == 2:
        p, q = pieces
        bx, by = q[1] - p[1], q[2] - p[2]
        bb = bx * bx + by * by
        mu = min(max(-(p[1] * bx + p[2] * by) / bb, 0.0), 1.0) if bb else 0.5
        for _ in range(_KKT_ITERATIONS):
            px, py = _piece_gradient(p, x, y)
            qx, qy = _piece_gradient(q, x, y)
            bx, by = qx - px, qy - py
            # [[W, b], [b^T, 0]] (dx, dy, dmu) = -(grad, q_2 - q_1), W the
            # weighted Hessian; W alone is singular across a valley
            a = p[3] + mu * (q[3] - p[3])
            h = p[4] + mu * (q[4] - p[4])
            e = p[5] + mu * (q[5] - p[5])
            r0, r1 = -(px + mu * bx), -(py + mu * by)
            r2 = _quad_value(p, x, y) - _quad_value(q, x, y)
            det = 2.0 * h * bx * by - a * by * by - e * bx * bx
            if det == 0.0:
                return None
            sx = (by * (h * r2 + bx * r1 - by * r0) - e * bx * r2) / det
            sy = (bx * (h * r2 + by * r0 - bx * r1) - a * by * r2) / det
            smu = (a * (e * r2 - by * r1) - h * (h * r2 - bx * r1)
                   + r0 * (h * by - e * bx)) / det
            x += sx
            y += sy
            mu += smu
            if abs(sx) + abs(sy) <= tol:
                return (x, y), [1.0 - mu, mu]
        return None
    p, q, r = pieces
    for _ in range(_KKT_ITERATIONS):
        px, py = _piece_gradient(p, x, y)
        qx, qy = _piece_gradient(q, x, y)
        rx, ry = _piece_gradient(r, x, y)
        first = _quad_value(p, x, y)
        # q_1 - q_2 = 0 and q_1 - q_3 = 0, linearized
        ux, uy, vx, vy = px - qx, py - qy, px - rx, py - ry
        f1, f2 = first - _quad_value(q, x, y), first - _quad_value(r, x, y)
        det = ux * vy - uy * vx
        if det == 0.0:
            return None
        sx = (uy * f2 - vy * f1) / det
        sy = (vx * f1 - ux * f2) / det
        x += sx
        y += sy
        if abs(sx) + abs(sy) <= tol:
            break
    else:
        return None
    # lam_2 (q - p) + lam_3 (r - p) = -p over the gradients at d
    px, py = _piece_gradient(p, x, y)
    qx, qy = _piece_gradient(q, x, y)
    rx, ry = _piece_gradient(r, x, y)
    ax, ay, bx, by = qx - px, qy - py, rx - px, ry - py
    det = ax * by - ay * bx
    if det == 0.0:
        return None
    l2 = (bx * py - by * px) / det
    l3 = (ay * px - ax * py) / det
    return (x, y), [1.0 - l2 - l3, l2, l3]


def _kkt_candidate(pieces, poly):
    """_kkt_point of one to three pieces, or None unless its weights are
    >= 0 and it lies in poly."""
    res = _kkt_point(pieces)
    E = len(poly)
    if res is not None and min(res[1]) >= 0.0 and all(
            _orient(poly[e], poly[(e + 1) % E], res[0]) >= 0.0
            for e in range(E)):
        return res[0]
    return None


def _corner_sides(poly, d):
    """The two sides of poly that meet at the corner nearest d, each as
    (far corner, that corner).

    A vertex piece is flat along its own descent direction (its Hessian
    (I - e e^T) / r is zero along e), so where it alone is active the
    model is lowest on poly's boundary, past the first-order step d; the
    sides at d's corner hold that minimum.
    """
    E = len(poly)
    k = min(range(E), key=lambda e: ((poly[e][0] - d[0]) ** 2
                                     + (poly[e][1] - d[1]) ** 2))
    return (poly[(k + 1) % E], poly[k]), (poly[k - 1], poly[k])


def _values(pieces, x, y):
    """Every curved piece at the step (x, y), as _quad_value has it."""
    return [v + gx * x + gy * y
            + 0.5 * (hxx * x * x + 2.0 * hxy * x * y + hyy * y * y)
            for v, gx, gy, hxx, hxy, hyy in pieces]


# a piece is tied with the model's max where it is within _TIE of it,
# relative to the first-order model's value at its step; the active-set
# rounds are at most _ACTIVE_ROUNDS
_TIE = 1e-12
_ACTIVE_ROUNDS = 3


def _tied(values, tol):
    top = max(values)
    return {i for i, val in enumerate(values) if val >= top - tol}


def _set_points(pieces, active, poly, solved):
    """The _kkt_candidate points of the active set, or, where it has more
    than three pieces or its own point fails, of its subsets of one to
    three pieces; sets already in solved are skipped and the rest added."""
    tries = [[active]] if len(active) <= 3 else []
    tries.append([sub for k in range(min(len(active) - 1, 3), 0, -1)
                  for sub in itertools.combinations(active, k)])
    points = []
    for sets in tries:
        for sub in sets:
            if sub not in solved:
                solved.add(sub)
                point = _kkt_candidate([pieces[i] for i in sub], poly)
                if point is not None:
                    points.append(point)
        if points:
            break
    return points


def _curved_minimum(pieces, poly, d):
    """The lowest of the candidate steps on the max of the curved pieces.

    The candidates are d, the first-order step of the same pieces, the
    points where the max of an active set of one to three pieces is
    stationary with all of them equal (_kkt_point), kept only when its
    weights are >= 0 and it lies in poly, and the lowest points of the
    model on the segment from 0 to d and on the two sides of poly at d's
    corner (_line_minimum, _corner_sides).  The first active set is the
    pieces whose affine parts are tied at d; only when its own point fails
    are its subsets solved (_set_points).  Then, where a piece outside the
    set is tied with the max at a point just solved or at the lowest
    candidate so far, it joins the set and the set is solved again, in at
    most _ACTIVE_ROUNDS rounds.  The segments come last, each skipped
    where its lower bound shows it holds no lower point.  Every candidate
    is scored on the model, and the first lowest wins.
    tests/curved_reference.py solves every set of one to three pieces
    instead, and each active set is one of those, so the value is never
    below that enumeration's.  Returns (value, step).
    """
    dx, dy = d
    first = [pc[0] + pc[1] * dx + pc[2] * dy for pc in pieces]
    tol = _TIE * abs(max(first))
    values = _values(pieces, dx, dy)
    best, best_tied = (max(values), d), _tied(values, tol)
    active = tuple(sorted(_tied(first, tol)))
    solved = set()
    for _ in range(_ACTIVE_ROUNDS):
        tied = set(active)
        for x, y in _set_points(pieces, active, poly, solved):
            values = _values(pieces, x, y)
            here = _tied(values, tol)
            tied |= here
            if max(values) < best[0]:
                best, best_tied = (max(values), (x, y)), here
        tied |= best_tied
        if len(tied) == len(active):
            break
        active = tuple(sorted(tied))
    for start, end in ((0.0, 0.0), d), *_corner_sides(poly, d):
        point = _line_minimum(pieces, start, end, best[0])
        if point is not None:
            val = max(_values(pieces, *point))
            if val < best[0]:
                best = (val, point)
    return best


def _step(models, poly, curved):
    """Minimize the max over nodes of the min over their pieces on the box.

    poly is the box's four corners.  max-of-min equals the min, over one
    chosen piece per node, of the max of the chosen pieces, so each choice
    is one problem; the first lowest choice wins.  Each choice is first
    solved on its pieces' affine parts (v, gx, gy), the first-order step.
    A piece that another piece of the choice exceeds strictly at all four
    corners is, in exact arithmetic, below it on the whole box, so it is
    dropped before the breaklines are walked (_breakline_walk): the model
    on the box and its lowest value are unchanged, while the walk visits
    fewer candidates.  Two equal pieces are both kept.  The result may
    differ from the walk on all pieces in two ways.  Where several
    candidates attain the lowest value, it may return another of them.
    And in floating point, where a dropped piece is within rounding of the
    piece above it at the corners, its rounded value at an interior
    candidate can exceed the kept pieces' maximum, or a candidate the walk
    skips can round lower, so the value may differ in its last bits.
    With curved set, the first-order step starts the quadratic solve of
    the choice (_curved_minimum), which solves the optimality
    conditions of the pieces tied there and of the pieces that tie at its
    candidates, not of every set of one to three pieces, and also scores
    the model's lowest points on the box's two sides at the first-order
    step's corner, where a lone vertex piece has its minimum.
    tests/curved_reference.py keeps the solve of every set.  Returns
    (value, d).
    """
    (x0, y0), (x1, y1), (x2, y2), (x3, y3) = poly
    best = None
    for choice in itertools.product(*models):
        rows = [(v + gx * x0 + gy * y0, v + gx * x1 + gy * y1,
                 v + gx * x2 + gy * y2, v + gx * x3 + gy * y3)
                for v, gx, gy, _, _, _ in choice]
        kept = []
        for pc, (a, b, c, d) in zip(choice, rows):
            for p, q, r, s in rows:
                if p > a and q > b and r > c and s > d:
                    break
            else:
                kept.append(pc[:3])
        # a corner's highest piece is never dropped, so the model's value
        # at each corner is its highest piece's
        tops = list(map(max, zip(*rows)))
        top = min(tops)
        res = _breakline_walk(kept, poly, (top, poly[tops.index(top)]))
        if curved:
            res = _curved_minimum(choice, poly, res[1])
        if best is None or res[0] < best[0]:
            best = res
    return best
