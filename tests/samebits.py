"""Same-bits scan: a fixed seeded set of inputs, run through one source tree.

    python tests/samebits.py run OUT [--src DIR] [--quick]
    python tests/samebits.py compare A B

``run`` imports zerobounds from DIR (this checkout's ``src`` by default), so
one process runs one tree; to scan another commit, export it to a directory
and point --src at its ``src``. For each input it writes one JSON line of
outputs, every float as ``float.hex``:

- roots: find_roots' roots, residuals, iterations and max modulus, or the
  text of its NoConvergenceError (read off an all-methods compare);
- rectangle: hermitian_rectangle's row;
- sweep: numerical_radius_sweep's two ends and the angles it evaluated;
- sweep_row and closed: the radius_sweep row and every other method's row,
  each with value, applicability, verdict, margin, rank, extents and notes.

The families are complex, real and sparse Gaussians at degrees 2-256,
coefficients scaled by 10^U(-300, 300) each (to degree 24) or by 10^U(-5, 5)
per input, one coefficient at +-2^510 or past the float range, double and
triple roots and roots of modulus 10, z^n - e^{i phi}, Wilkinson k = 2-19, the
benchmark's hard roots family and seed-7 blocks of its three workloads, and
general complex matrices for the sweep's dense route. --quick keeps every
third input up to degree 16 (matrix size 8) and the hard family, for a smoke
run of a few seconds.

``compare`` pairs two runs input by input and prints, per family and kind,
how many outputs are identical, how many moved and the largest relative
move of a float; for the sweep, the angles each run took, how many brackets
end wider than 1e-14 (relative) and the largest move of an end among those
narrow in both; and the failures (an oracle error or an exception) that
appeared or vanished. Its exit status is 1 when any output differs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
DEGREES = (2, 3, 4, 5, 6, 8, 11, 12, 16, 24, 32, 33, 47, 48, 64, 96, 128, 256)
KINDS = ("roots", "rectangle", "sweep", "sweep_row", "closed")
NARROW = 1e-14
FLOAT_WORDS = ("inf", "-inf", "nan")  # float.hex of the non-finite floats


def _hex(x) -> str | None:
    return None if x is None else float(x).hex()


def _complex_hex(z) -> list[str]:
    return [float(z.real).hex(), float(z.imag).hex()]


def _gaussian(rng, n, real=False):
    return rng.standard_normal(n) + (0 if real else 1j * rng.standard_normal(n))


def _from_roots(roots):
    """Lower coefficients a_1..a_n of prod (z - r)."""
    return np.poly(roots)[:0:-1]


def families(quick: bool):
    """(family, id, kind, data): kind "lower" holds a_1..a_n, "poly" a Polynomial
    text or descending list, "matrix" a square matrix for the sweep alone."""
    degrees = [d for d in DEGREES if d <= 16] if quick else DEGREES
    out = []
    for d in degrees:
        for s in range(2 if d > 64 else 8):
            rng = np.random.default_rng([d, s])
            out.append(("complex", f"{d}-{s}", "lower", _gaussian(rng, d)))
            out.append(("real", f"{d}-{s}", "lower", _gaussian(rng, d, real=True)))
            sparse = _gaussian(rng, d) * (rng.random(d) < 0.3)
            sparse[0] = sparse[0] or 1.0  # a nonzero constant: no zero root to reduce
            out.append(("sparse", f"{d}-{s}", "lower", sparse))
            out.append(("scaled-input", f"{d}-{s}", "lower",
                        _gaussian(rng, d) * 10.0 ** rng.uniform(-5, 5)))
            if d <= 24:
                out.append(("scaled-each", f"{d}-{s}", "lower",
                            _gaussian(rng, d) * 10.0 ** rng.uniform(-300, 300, d)))
            big = _gaussian(rng, d)
            big[rng.integers(d)] = [2.0**510, -(2.0**510), 1.5e308 + 1.5e308j][s % 3]
            out.append(("past-range" if s % 3 == 2 else "part-2^510", f"{d}-{s}", "lower", big))
            if d >= 4:
                roots = _gaussian(rng, d - 3)
                out.append(("double-root", f"{d}-{s}", "lower",
                            _from_roots([*roots, roots[0], *_gaussian(rng, 2)])))
                out.append(("triple-root", f"{d}-{s}", "lower",
                            _from_roots([*roots, roots[0], roots[0], _gaussian(rng, 1)[0]])))
                out.append(("modulus-10", f"{d}-{s}", "lower", _from_roots(10 * _gaussian(rng, d))))
            out.append(("unitary", f"{d}-{s}", "lower",
                        [-np.exp(1j * rng.uniform(0, 2 * np.pi))] + [0.0] * (d - 1)))
    for n in range(2, 17) if not quick else range(2, 9):
        rng = np.random.default_rng([n, 99])
        out.append(("dense", str(n), "matrix",
                    rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))))
    for k in range(2, 20 if not quick else 8):
        out.append(("wilkinson", str(k), "lower", _from_roots(np.arange(1.0, k + 1))))
    if quick:
        out = [entry for i, entry in enumerate(out) if i % 3 == 0]
    sys.path.insert(0, str(ROOT / "benchmark"))
    import workloads  # the benchmark's inputs; imported after the tree's zerobounds

    for op in workloads.hard_family():
        out.append(("hard", op.label, "poly", op.monic_input or op.text))
    seed_7_blocks = {} if quick else {"compare_ladder": 2, "tables_small": 2, "roots_hard": 1}
    for workload, count in seed_7_blocks.items():
        source = workloads.blocks(workload, 7)
        for b in range(count):
            for i, op in enumerate(next(source)):
                data = (workloads.get_fixture(op.label).coefficients if op.kind == "fixture"
                        else op.monic_input or op.text)
                out.append((workload, f"{b}-{i}", "poly", data))
    return out


def _row(row) -> list:
    rect = row.rectangle
    extents = None if rect is None else [_hex(rect.re_lo), _hex(rect.re_hi),
                                         _hex(rect.im_lo), _hex(rect.im_hi)]
    return [_hex(row.value), row.applicability, row.verdict, _hex(row.margin), row.rank,
            extents, list(row.notes)]


def _record_sweeps(zb) -> list:
    """Make every numerical_radius_sweep call that compare makes append its two ends and
    the angles it evaluated to the returned list; the peak functions count the angles."""
    sweeps, angles = [], []
    linalg, sweep = zb.linalg, zb.report.numerical_radius_sweep
    companion_peaks, dense_peaks = linalg._companion_peaks, linalg._dense_peaks

    def counted(peaks):  # *start: a tree whose sweep still passes Newton starts
        return lambda thetas, *start: angles.append(len(thetas)) or peaks(thetas, *start)

    linalg._companion_peaks = lambda *args: counted(companion_peaks(*args))
    linalg._dense_peaks = lambda m, thetas: counted(lambda t: dense_peaks(m, t))(thetas)

    def recorded(m):
        angles.clear()
        lower, upper = sweep(m)
        sweeps.append([_hex(lower), _hex(upper), sum(angles)])
        return lower, upper

    zb.report.numerical_radius_sweep = recorded
    return sweeps


def record(zb, sweeps, kind, data) -> dict:
    """Every output of one input, by kind; "failed" marks an oracle error or an exception."""
    sweeps.clear()
    try:
        with np.errstate(all="ignore"):
            if kind == "matrix":
                zb.report.numerical_radius_sweep(data)
                return {"sweep": sweeps[0]}
            if kind == "lower":
                p = zb.Polynomial(tuple(map(complex, data)))
            else:
                p = zb.make_monic(data) if isinstance(data, tuple) else zb.parse_polynomial(data)
            report = zb.run_compare(p)
    except Exception as exc:  # noqa: BLE001 - a failure is an output like any other
        return {"roots": f"{type(exc).__name__}: {exc}", "failed": True}
    oracle = report.oracle
    out = {"roots": report.oracle_error if oracle is None else
           [[_complex_hex(z) for z in oracle.roots], [_hex(r) for r in oracle.residuals],
            oracle.iterations, _hex(oracle.max_modulus)],
           "failed": oracle is None}
    group = {"hermitian_rectangle": "rectangle", "radius_sweep": "sweep_row"}
    for row in report.rows:
        out.setdefault(group.get(row.method, "closed"), {})[row.method] = _row(row)
    if sweeps:
        out["sweep"] = sweeps[0]
    return out


def run(out_path: str, src: str, quick: bool) -> None:
    sys.path.insert(0, src)
    import zerobounds as zb

    if Path(zb.__file__).resolve().parents[1] != Path(src).resolve():
        raise SystemExit(f"zerobounds loaded from {zb.__file__}, not from {src}")
    sweeps = _record_sweeps(zb)
    with open(out_path, "w") as handle:
        for family, ident, kind, data in families(quick):
            line = {"family": family, "id": ident, "out": record(zb, sweeps, kind, data)}
            handle.write(json.dumps(line) + "\n")


def _floats(value):
    """The value flattened to tokens, each float-hex string read as a float."""
    if isinstance(value, list):
        return [t for item in value for t in _floats(item)]
    if isinstance(value, dict):
        return [t for key in sorted(value) for t in [key, *_floats(value[key])]]
    if isinstance(value, str) and (value.lstrip("-").startswith("0x") or value in FLOAT_WORDS):
        return [float.fromhex(value)]
    return [value]


def _move(a, b) -> float:
    """Largest relative move between two outputs; inf where they differ in anything but floats."""
    ta, tb = _floats(a), _floats(b)
    if len(ta) != len(tb):
        return math.inf
    worst = 0.0
    for x, y in zip(ta, tb):
        if isinstance(x, float) and isinstance(y, float):
            if x == y or (math.isnan(x) and math.isnan(y)):
                continue
            size = max(abs(x), abs(y))
            worst = max(worst, abs(x - y) / size if math.isfinite(size) and size else math.inf)
        elif x != y:
            return math.inf
    return worst


def _width(sweep) -> float:
    lower, upper = float.fromhex(sweep[0]), float.fromhex(sweep[1])
    return (upper - lower) / lower if lower and math.isfinite(upper) else 0.0


def compare(path_a: str, path_b: str) -> int:
    runs = []
    for path in (path_a, path_b):
        with open(path) as handle:
            runs.append({(r["family"], r["id"]): r["out"] for r in map(json.loads, handle)})
    if runs[0].keys() != runs[1].keys():
        raise SystemExit("the two runs hold different inputs: were they made with the same flags?")
    stats, differs = {}, False
    for (family, ident), a in runs[0].items():
        b = runs[1][family, ident]
        s = stats.setdefault(family, {"inputs": 0, "appeared": 0, "vanished": 0, "angles": [0, 0],
                                      "wide": [0, 0], "narrow_move": 0.0, "kinds": {}})
        s["inputs"] += 1
        s["appeared"] += not a.get("failed") and bool(b.get("failed"))
        s["vanished"] += bool(a.get("failed")) and not b.get("failed")
        for kind in KINDS:
            if kind not in a and kind not in b:
                continue
            move = _move(a.get(kind), b.get(kind))
            k = s["kinds"].setdefault(kind, [0, 0, 0.0])
            moved = a.get(kind) != b.get(kind)
            k[moved] += 1
            k[2] = max(k[2], move)
            differs |= moved
        if "sweep" in a and "sweep" in b:
            widths = _width(a["sweep"]), _width(b["sweep"])
            for side, (sweep, width) in enumerate(zip((a["sweep"], b["sweep"]), widths)):
                s["angles"][side] += sweep[2]
                s["wide"][side] += width > NARROW
            if max(widths) <= NARROW:
                s["narrow_move"] = max(s["narrow_move"], _move(a["sweep"][:2], b["sweep"][:2]))
    print(f"{'family':<15} {'inputs':>6}  {'kind':<10} {'identical':>9} {'moved':>6} "
          f"{'max rel':>9}")
    for family, s in stats.items():
        for i, (kind, (same, moved, worst)) in enumerate(s["kinds"].items()):
            head = f"{family:<15} {s['inputs']:>6}" if i == 0 else " " * 22
            print(f"{head}  {kind:<10} {same:>9} {moved:>6} {worst:>9.2g}")
        if s["angles"] != [0, 0]:
            print(f"{'':22}  sweep angles {s['angles'][0]} -> {s['angles'][1]}, wider than "
                  f"{NARROW:g}: {s['wide'][0]} -> {s['wide'][1]}, largest end move among "
                  f"narrow: {s['narrow_move']:.2g}")
        if s["appeared"] or s["vanished"]:
            print(f"{'':22}  failures appeared {s['appeared']}, vanished {s['vanished']}")
    return int(differs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run_parser = commands.add_parser("run", help="write one tree's outputs to OUT")
    run_parser.add_argument("out")
    run_parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding zerobounds")
    run_parser.add_argument("--quick", action="store_true", help="a small subset, for a smoke run")
    compare_parser = commands.add_parser("compare", help="report what moved between two runs")
    compare_parser.add_argument("a")
    compare_parser.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "run":
        run(args.out, args.src, args.quick)
        return 0
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
