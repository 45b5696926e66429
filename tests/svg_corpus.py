"""SVG drawings of a fixed corpus, and the layers two corpora differ in.

    PYTHONPATH=src python tests/svg_corpus.py run OUT
    python tests/svg_corpus.py compare A B

`run` writes export_unfolding(T, source, mode) to OUT/SHAPE-SOURCE-MODE.svg
for 51 shapes: normalize(random_tetrahedron(i)) for i = 0..44, the
normalized regular shape, make_isosceles(5, 6, 7) and make_eps_thick(eps,
seed) for eps 0.1 and 0.03 and seeds 0 and 1.  Each is drawn from 11
sources (the 4 vertices, 3 edge points and a point inside each face) in
both modes: 1,122 drawings.  A drawing that raises a TetraError is written
as that error's class and message.  `compare`, which needs no tetrametric
on the path, prints for each source kind and mode how many drawings are
byte-identical and how many differ only by zero-length lines, then, for
each other drawing that differs, the lines each layer lost and gained (as
-N and +N, the zero-length ones counted apart) and whether the header
(the viewBox) or the metadata changed.  Run `run` once with each tree's src
on PYTHONPATH, then compare the two directories.
"""

import argparse
import os
import re
import sys
from collections import Counter

_MODES = ("star", "source")
_EDGE_SOURCES = ((0, 1, 0.3), (1, 3, 0.5), (2, 3, 0.7))
_FACE_BARY = (0.5, 0.3, 0.2)
_THIN = ((0.1, 0), (0.1, 1), (0.03, 0), (0.03, 1))
_LINE = re.compile(r'<line x1="([^"]*)" y1="([^"]*)" x2="([^"]*)" '
                   r'y2="([^"]*)"')


def _shapes():
    from tetrametric import (make_eps_thick, make_isosceles, make_regular,
                             normalize, random_tetrahedron)

    for i in range(45):
        yield "random%02d" % i, normalize(random_tetrahedron(i))
    yield "regular", normalize(make_regular(1.0))
    yield "iso567", make_isosceles(5.0, 6.0, 7.0)
    for eps, seed in _THIN:
        yield "thin%g_%d" % (eps, seed), make_eps_thick(eps, seed)


def _sources():
    from tetrametric import edge_point, face_point, vertex_point

    for v in range(4):
        yield "vertex%d" % v, vertex_point(v)
    for a, b, t in _EDGE_SOURCES:
        yield "edge%d%d" % (a, b), edge_point(a, b, t)
    for f in range(4):
        yield "face%d" % f, face_point(f, _FACE_BARY)


def run(out):
    from tetrametric import TetraError, export_unfolding

    os.makedirs(out, exist_ok=True)
    count = failed = 0
    for shape, T in _shapes():
        for name, source in _sources():
            for mode in _MODES:
                try:
                    svg = export_unfolding(T, source, mode=mode)
                except TetraError as exc:
                    svg = "%s: %s\n" % (type(exc).__name__, exc)
                    failed += 1
                path = os.path.join(out, "%s-%s-%s.svg" % (shape, name, mode))
                with open(path, "w") as fh:
                    fh.write(svg)
                count += 1
    print("%d drawings written to %s, %d of them errors"
          % (count, out, failed))


def _layers(text):
    """{layer: Counter of its lines}, with the lines outside any layer
    under "header" (the XML and svg lines, which hold the viewBox) and
    "metadata"."""
    layers = {}
    layer = None
    for line in text.splitlines():
        if line.startswith('<g id="'):
            layer = line[7:line.index('"', 7)]
        elif line == "</g>":
            layer = None
        else:
            key = layer or ("metadata" if line.startswith("<metadata>")
                            else "header")
            layers.setdefault(key, Counter())[line] += 1
    return layers


def _zero_length(line):
    """Whether line is an SVG line whose ends print as one point (-0.00
    and 0.00 alike)."""
    m = _LINE.match(line)
    return m is not None and ([float(c) for c in m.group(1, 2)]
                              == [float(c) for c in m.group(3, 4)])


def _diff(a, b):
    """Per layer, (lost, lost zero-length, gained, gained zero-length)."""
    la, lb = _layers(a), _layers(b)
    out = {}
    for key in sorted(set(la) | set(lb)):
        ca, cb = la.get(key, Counter()), lb.get(key, Counter())
        lost, gained = ca - cb, cb - ca
        if lost or gained:
            out[key] = tuple(
                sum(n for line, n in part.items() if zero == _zero_length(line))
                for part in (lost, gained) for zero in (False, True))
    return out


def compare(a, b):
    names = sorted(set(os.listdir(a)) & set(os.listdir(b)))
    tally = {}
    report = []
    for name in names:
        _, source, mode = name[:-4].split("-")
        kind = source.rstrip("0123456789")
        with open(os.path.join(a, name)) as fa, open(os.path.join(b, name)) as fb:
            ta, tb = fa.read(), fb.read()
        row = tally.setdefault((kind, mode), [0, 0, 0])
        if ta == tb:
            row[0] += 1
            continue
        diff = _diff(ta, tb)
        if all(d[0] == d[2] == 0 for d in diff.values()):
            row[1] += 1
            continue
        row[2] += 1
        parts = []
        for key, (lost, lost0, gained, gained0) in diff.items():
            if key in ("header", "metadata"):
                parts.append(key)
                continue
            parts.append("%s -%d +%d" % (key, lost, gained)
                         + (" (zero-length -%d +%d)" % (lost0, gained0)
                            if lost0 or gained0 else ""))
        report.append("%s: %s" % (name, "; ".join(parts)))
    for line in report:
        print(line)
    for (kind, mode), (same, zero, other) in sorted(tally.items()):
        print("%-6s %-6s %4d identical, %4d differ by zero-length lines "
              "only, %4d differ otherwise" % (kind, mode, same, zero, other))
    only = set(os.listdir(a)) ^ set(os.listdir(b))
    if only:
        print("%d drawings in one directory only" % len(only))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("out")
    c = sub.add_parser("compare")
    c.add_argument("a")
    c.add_argument("b")
    args = ap.parse_args(argv)
    if args.cmd == "run":
        run(args.out)
    else:
        compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
