"""The curved step of the radius search's polish.

Minimize the max of quadratic pieces q(d) = v + g.d + d^T H d / 2, given
as (v, gx, gy, hxx, hxy, hyy), over a convex polygon around d = 0: the
trust-region subproblem of a second-order minimax method (Hald & Madsen,
"Combined LP and quasi-Newton methods for minimax optimization", Math.
Programming 20, 1981).  intrinsic._node_models supplies the pieces and
intrinsic._descend the box, its trust region in the source's chart.
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


def _line_minimum(pieces, d):
    """The point t * d, 0 < t <= 1, lowest on the max of the curved pieces.

    Along the line each piece is a quadratic in t, so their max is lowest
    at t = 1, at a piece's own minimum, or where two pieces cross.
    """
    dx, dy = d
    coefs = [(v, gx * dx + gy * dy,
              0.5 * (hxx * dx * dx + 2.0 * hxy * dx * dy + hyy * dy * dy))
             for v, gx, gy, hxx, hxy, hyy in pieces]
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
    best = None
    for t in ts:
        if 0.0 < t <= 1.0:
            val = max(a + t * (b + t * c) for a, b, c in coefs)
            if best is None or val < best[0]:
                best = (val, t)
    return best[1] * dx, best[1] * dy


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


def _curved_minimum(pieces, poly, d):
    """The lowest of the candidate steps on the max of the curved pieces.

    The candidates are d, the first-order step of the same pieces, the
    lowest point of the quadratic model on the segment to it
    (_line_minimum), and for each set of one to three pieces the point
    where their max is stationary with all of them equal (_kkt_point),
    kept only when its weights are >= 0 and it lies in poly.  Every
    candidate is scored on the model, and the first lowest wins.
    Returns (value, step).
    """
    E = len(poly)
    cands = [d, _line_minimum(pieces, d)]
    for k in (1, 2, 3):
        for sub in itertools.combinations(pieces, k):
            res = _kkt_point(sub)
            if res is not None and min(res[1]) >= 0.0 and all(
                    _orient(poly[e], poly[(e + 1) % E], res[0]) >= 0.0
                    for e in range(E)):
                cands.append(res[0])
    best = None
    for x, y in cands:
        val = max(_quad_value(pc, x, y) for pc in pieces)
        if best is None or val < best[0]:
            best = (val, (x, y))
    return best
