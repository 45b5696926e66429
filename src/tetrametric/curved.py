"""The curved step of the radius search's descents.

Minimize the max of quadratic pieces q(d) = v + g.d + d^T H d / 2, given
as (v, gx, gy, hxx, hxy, hyy), over a convex polygon around d = 0: the
trust-region subproblem of a second-order minimax method (Hald & Madsen,
"Combined LP and quasi-Newton methods for minimax optimization", Math.
Programming 20, 1981).  intrinsic._node_models supplies the pieces and
intrinsic._descend the box, its trust region in the source's chart, and
intrinsic._step solves each choice of pieces on their first-order parts
first, then, once the descent is curved, starts this solve from that
step: every exploring descent is curved from its first step that gains
less than a quarter of its prediction, and the polish from its start.
The step solves the optimality conditions of its active sets only, and
looks for the minimum on the box's sides where the model is flat along
a piece's descent direction (_curved_minimum).
"""

from __future__ import annotations

import itertools
import math

from .geometry import _orient


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
