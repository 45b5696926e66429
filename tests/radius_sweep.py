"""Rad on a sweep of random shapes, and the rows two sweeps disagree on.

    PYTHONPATH=src python tests/radius_sweep.py run OUT.json [-n N] STREAM[:I] ...
    python tests/radius_sweep.py compare BEFORE.json AFTER.json

`run` computes intrinsic_radius on normalize(generate(GeneratorSpec(kind=
"random"), seed=instance_stream(stream, i))) for i = 0..N-1 (N = 100) of
each STREAM, or for instance I alone where the argument is STREAM:I, and
writes {"rows": [[stream, i, Rad as float.hex, diam], ...]}, the layout of
tests/data/radius_guard_hard.json.  It prints how many shapes were
searched (not settled by the midpoint certificate) and their mean probes
by stage, the certificate probe left out.  `compare`, which needs no
tetrametric on the path, prints every row whose Rad rises or falls by
more than 1e-9 * diam between the two files, in units of diam, then the
counts, and how many rows' Rad differ in any bit.  Run the same `run`
command once with each tree's src on PYTHONPATH, then compare the two
files: a change to the radius search's budget or steps is checked with
one command each, and a change meant to be bit for bit shows 0 rows that
differ.
"""

import argparse
import json
import sys

_MOVE = 1e-9


def _shapes(specs, n):
    for spec in specs:
        stream, _, i = spec.partition(":")
        for k in ([int(i)] if i else range(n)):
            yield int(stream, 0), k


def run(out, specs, n):
    from tetrametric import (GeneratorSpec, generate, instance_stream,
                             intrinsic_radius, normalize)

    rows = []
    stages = [0, 0, 0]
    searched = 0
    for stream, i in _shapes(specs, n):
        T = normalize(generate(GeneratorSpec(kind="random"),
                               seed=instance_stream(stream, i)))
        res = intrinsic_radius(T)
        rows.append([stream, i, res.value.hex(), T.diam])
        if res.evaluations > 1:
            searched += 1
            pr = res.probes
            for k, count in enumerate((pr.seeds, pr.explore, pr.polish)):
                stages[k] += count
    with open(out, "w") as fh:
        fh.write('{"rows": [\n')
        fh.write(",\n".join("  " + json.dumps(row) for row in rows))
        fh.write("\n]}\n")
    per = [count / max(searched, 1) for count in stages]
    print("%d shapes, %d searched; probes per searched report %.2f "
          "(seed %.2f, explore %.2f, polish %.3f)"
          % (len(rows), searched, sum(per), *per))


def compare(before, after):
    old = {(s, i): rad for s, i, rad, _ in json.load(open(before))["rows"]}
    rose = fell = same = bits = 0
    for s, i, rad, diam in json.load(open(after))["rows"]:
        if (s, i) not in old:
            continue
        bits += rad != old[s, i]
        move = (float.fromhex(rad) - float.fromhex(old[s, i])) / diam
        if move > _MOVE:
            rose += 1
        elif move < -_MOVE:
            fell += 1
        else:
            same += 1
            continue
        print("%d %d %+.3e" % (s, i, move))
    print("%d rose, %d fell by more than %g * diam; %d within it; "
          "%d differ in any bit" % (rose, fell, _MOVE, same, bits))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("out")
    r.add_argument("streams", nargs="+", metavar="STREAM[:I]")
    r.add_argument("-n", type=int, default=100)
    c = sub.add_parser("compare")
    c.add_argument("before")
    c.add_argument("after")
    args = ap.parse_args(argv)
    if args.cmd == "run":
        run(args.out, args.streams, args.n)
    else:
        compare(args.before, args.after)


if __name__ == "__main__":
    sys.exit(main())
