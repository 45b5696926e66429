"""The star's point maps and path crossings as plain loops.

tetrametric.intrinsic writes three reads of a star out as straight passes:
the edge crossings of a path (_path_crossings), the position of a surface
point (_star_position) and the surface point at a star point
(StarUnfolding.to_surface).  Each takes the same floats from the same
expressions as these loops, which build the support sets, call
geometry._orient for each orientation test and choose a piece through one
shared helper (_holding), so the tests hold the passes equal to the loops,
to the bit.  path_crossings also counts the crossings it reads through a
crossing's copy, which a path along a face source's opposite cut takes.
"""

from tetrametric.errors import SearchExhausted
from tetrametric.geometry import (DEDUP_TOL, _canonical_form, _orient,
                                  _trusted_point)
from tetrametric.intrinsic import _edge_pieces, _piece_weights, _slack
from tetrametric.planar import _point_in_star


def path_crossings(star, k, y2, qsupp):
    """(crossings, through): _path_crossings's crossings, and how many of
    them were read through the copy that ends an edge piece."""
    K = star.images[k]
    hits = []
    through = 0
    for edge, p, q, t0, t1 in _edge_pieces(star):
        if set(qsupp) <= set(edge):
            continue
        a, b = _orient(K, y2, p), _orient(K, y2, q)
        if a * b < 0.0:
            t = t0 + (t1 - t0) * a / (a - b)
            copy = False
        elif t1 < 1.0 and abs(b) <= 1e-9 * abs(a - b):
            t, copy = t1, True  # through the copy at q
        elif t0 > 0.0 and abs(a) <= 1e-9 * abs(a - b):
            t, copy = t0, True  # through the copy at p
        else:
            continue
        c, e = _orient(p, q, K), _orient(p, q, y2)
        if c * e < 0.0:
            hits.append((c / (c - e), edge, t))
            through += copy
    hits.sort()
    return tuple([(edge, t) for _, edge, t in hits]), through


def _holding(star, pieces, weigh):
    """(slack, piece, weights) for the first of pieces whose clip holds
    the weights weigh(piece) on its face, or, where none does, for the one
    they miss least."""
    best = None
    for piece in pieces:
        b = weigh(piece)
        s = _slack(star, piece, b)
        if s >= 0.0:
            return s, piece, b
        if best is None or s > best[0]:
            best = (s, piece, b)
    return best


def star_position(star, q):
    """_star_position: q's weights summed on the copy of its face that
    _holding chooses."""
    f, qb = q.face, q.bary
    _, piece, _ = _holding(star, [piece for piece in star.pieces
                                  if piece[0] == f], lambda piece: qb)
    (ax, ay), (bx, by), (cx, cy) = piece[1]
    return (qb[0] * ax + qb[1] * bx + qb[2] * cx,
            qb[0] * ay + qb[1] * by + qb[2] * cy)


def to_surface(star, k, y2):
    """StarUnfolding.to_surface: y2's weights on the piece that _holding
    chooses from image k's petal on, clamped and made canonical."""
    pieces = star.pieces
    s, piece, b = _holding(star, pieces[k:] + pieces[:k],
                           lambda piece: _piece_weights(piece[1], y2))
    if s < 0.0 and not _point_in_star(y2, star.poly,
                                      DEDUP_TOL * star.tetra.diam):
        raise SearchExhausted("the point lies outside the star")
    b = [0.0 if t < 0.0 else 1.0 if t > 1.0 else t for t in b]
    s = b[0] + b[1] + b[2]
    return _trusted_point(*_canonical_form(piece[0], (b[0] / s, b[1] / s,
                                                      b[2] / s)))
