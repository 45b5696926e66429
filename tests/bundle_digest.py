"""Surface-query bundles to the bit, and the bundles two runs differ in.

    PYTHONPATH=src python tests/bundle_digest.py run OUT SEED [-n N]
    python tests/bundle_digest.py compare A B
    PYTHONPATH=src python tests/bundle_digest.py --check

`run` rebuilds bundles 0..N-1 (N = 6000) of SEED as perfbench's
surface_queries workload draws them, without importing it: bundle k is
shape k % 1500 of instance_stream(SEED, .), every third one random
(normalized), eps-thick or isosceles (normalized), with a pair of face
points p and q drawn from instance_stream(SEED, 1500).  On a fresh
Tetrahedron it reads, as float.hex, each call's result: geodesic_distance
and all_geodesic_segments from p to q, star_unfold at p, cut_locus at p
(its nodes, its arcs and each junction's surface point),
intrinsic_radius_at and extrinsic_radius_at at p.  A call that raises is
recorded by its class and message.  It writes {"seed", "n", "rows"}, one
row per bundle, [k, {call: the first 16 hex digits of the sha256 of its
record}], one row a line.
`compare`, which needs no tetrametric on the path, prints for each call
how many bundles differ between the two files and the first of them, then
how many differ in any call.  Run the same `run` command once with each
tree's src on PYTHONPATH, then compare the two files: a change meant to be
bit for bit shows 0 bundles that differ.  `--check` reruns the bundles of
tests/data/bundle_digest.json, bundles 0..299 of seed 7, and exits 1 if
any moved; `run tests/data/bundle_digest.json 7 -n 300` re-pins it.
"""

import argparse
import hashlib
import json
import pathlib
import sys

PIN = pathlib.Path(__file__).resolve().parent / "data" / "bundle_digest.json"
SHAPE_POOL = 1500
CALLS = ("d", "segments", "star", "cut", "radius_at", "chord")


def _bits(value):
    """value as JSON: every float as its float.hex, every tuple a list and
    every surface point [face, bary]."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return [_bits(v) for v in value]
    if hasattr(value, "bary"):
        return [value.face, _bits(value.bary)]
    return value


def _error(exc):
    return "%s: %s" % (type(exc).__name__, exc)


def _star(star):
    """A star's record: its cuts' vertices, lengths and crossings, and its
    layout; the cuts carry no angle and the star no total angle, so none
    is recorded."""
    return [[(cut.vertex, cut.length, cut.crossings) for cut in star.cuts],
            star.images, star.corners, star.near, star.poly, star.turns,
            star.junctions, star.pieces]


def _locus(locus):
    nodes = []
    for node in locus.nodes:
        try:
            surface = node.surface
        except Exception as exc:  # recorded, as the bundle records a call
            surface = _error(exc)
        nodes.append([node.point, node.distance, node.images, node.vertex,
                      node.spread, surface])
    return [nodes, [[a.images, a.nodes, a.p0, a.p1] for a in locus.arcs]]


def _records(tm, T, p, q):
    """{call: its record} for the bundle (T, p, q)."""
    reads = {
        "d": lambda: [(d, path.crossings, path.length)
                      for d, path in [tm.geodesic_distance(T, p, q)]],
        "segments": lambda: [[s.crossings, s.length]
                             for s in tm.all_geodesic_segments(T, p, q)],
        "star": lambda: _star(tm.star_unfold(T, p)),
        "cut": lambda: _locus(tm.cut_locus(T, p)),
        "radius_at": lambda: [
            (r.value, r.points, r.distances, r.continuum)
            for r in [tm.intrinsic_radius_at(T, p)]],
        "chord": lambda: [
            (c.distance, c.vertices) for c in [tm.extrinsic_radius_at(T, p)]],
    }
    out = {}
    for call in CALLS:
        try:
            out[call] = _bits(reads[call]())
        except Exception as exc:  # every call runs, as in the bundle
            out[call] = _error(exc)
    return out


def _surface_point(tm, rng):
    face = int(rng.integers(4))
    a, b = rng.random(2)
    if a + b > 1.0:
        a, b = 1.0 - a, 1.0 - b
    return tm.face_point(face, (1.0 - a - b, float(a), float(b)))


def _shape(tm, seed, i):
    rng = tm.instance_stream(seed, i)
    if i % 3 == 0:
        return tm.normalize(tm.generate(tm.GeneratorSpec(kind="random"),
                                        seed=rng))
    if i % 3 == 1:
        return tm.make_eps_thick(float(rng.uniform(0.003, 0.03)), rng)
    while True:
        a, b, c = (float(x) for x in rng.uniform(0.5, 1.0, 3))
        if a * a + b * b > c * c and a * a + c * c > b * b and \
                b * b + c * c > a * a:
            return tm.normalize(tm.make_isosceles(a, b, c))


def digest(seed, n):
    """[[k, {call: the digest of its record}], ...] for bundles 0..n-1."""
    import tetrametric as tm

    shapes = {}
    rng = tm.instance_stream(seed, SHAPE_POOL)
    rows = []
    for k in range(n):
        p, q = _surface_point(tm, rng), _surface_point(tm, rng)
        i = k % SHAPE_POOL
        if i not in shapes:
            shapes[i] = _shape(tm, seed, i).vertices
        records = _records(tm, tm.Tetrahedron(shapes[i]), p, q)
        rows.append([k, {call: hashlib.sha256(
            json.dumps(record).encode()).hexdigest()[:16]
            for call, record in records.items()}])
    return rows


def run(out, seed, n):
    rows = digest(seed, n)
    with open(out, "w") as fh:
        fh.write('{"seed": %d, "n": %d, "rows": [\n' % (seed, n))
        fh.write(",\n".join("  " + json.dumps(row) for row in rows))
        fh.write("\n]}\n")
    print("%d bundles of seed %d written to %s" % (n, seed, out))


def _differ(old_rows, new_rows):
    """{call: the bundles whose record differs}, and the bundles that differ
    in any call, over the bundles both hold."""
    old = dict(old_rows)
    moved = {call: [] for call in CALLS}
    for k, calls in new_rows:
        if k in old:
            for call in CALLS:
                if calls[call] != old[k][call]:
                    moved[call].append(k)
    return moved, sorted({k for ks in moved.values() for k in ks})


def compare(a, b):
    old, new = json.load(open(a)), json.load(open(b))
    moved, anywhere = _differ(old["rows"], new["rows"])
    for call in CALLS:
        print("%-9s %d differ%s" % (call, len(moved[call]),
                                    " (first %s)" % moved[call][:5]
                                    if moved[call] else ""))
    print("%d of %d bundles differ in any call"
          % (len(anywhere), min(len(old["rows"]), len(new["rows"]))))


def check():
    """The pinned bundles that moved in any call, once each call's are
    printed."""
    pin = json.load(open(PIN))
    moved, anywhere = _differ(pin["rows"], digest(pin["seed"], pin["n"]))
    for call in CALLS:
        if moved[call]:
            print("%s moved in bundles %s" % (call, moved[call]))
    return anywhere


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv == ["--check"]:
        return 1 if check() else 0
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("out")
    r.add_argument("seed", type=int)
    r.add_argument("-n", type=int, default=6000)
    c = sub.add_parser("compare")
    c.add_argument("a")
    c.add_argument("b")
    args = ap.parse_args(argv)
    if args.cmd == "run":
        run(args.out, args.seed, args.n)
    else:
        compare(args.a, args.b)
    return 0


if __name__ == "__main__":
    sys.exit(main())
