"""`ncf --format json` bytes pinned in ncf_digests.json.

`pinned_files(directory)` writes the scenario files the pins cover and
yields (key, path): white-noise odd n-cycles with exact tables for
n = 3..11 at v = 1, 9/10, 4/5 and 2/3, the tie family v = 1/3 + 2**-40 at
n = 5, 7 and 9, on which the float simplex stops on an exactly infeasible
basis, and the shipped corpus files that carry tables. `digest(path)` is
what is pinned for one file: the SHA-256 of the standard output of
`contextuality ncf <path> --format json`.

Every pinned output is exact: its values are floats of exact fractions, and
its marginals add two table entries, which sum() rounds alike on every
Python version. A float NCF passes through sum(), which compensates its
rounding from Python 3.12 on, so none is pinned.

Regenerate the pins (only when the outputs are meant to change):

    PYTHONPATH=src python tests/ncf_pins.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path

import contextuality
from contextuality.cli import run
from contextuality.logic import cycle_empirical_model
from contextuality.qstate import Distribution
from contextuality.scenario import EmpiricalModel
from contextuality.scnformat import parse_file, serialize_model

PINS = Path(__file__).parent / "ncf_digests.json"

DATA_DIR = Path(contextuality.__file__).parent / "data"

NOISE_LEVELS = (Fraction(1), Fraction(9, 10), Fraction(4, 5), Fraction(2, 3))

TIE = Fraction(1, 3) + Fraction(1, 2**40)


def white_noise_odd_cycle(n: int, v: Fraction) -> EmpiricalModel:
    """The odd n-cycle's PR box at visibility v mixed with uniform noise,
    with exact tables; its NCF is min(1, n(1 - v)/2)."""
    m = cycle_empirical_model(n, "odd")
    tables = {}
    for ctx, dist in m.tables.items():
        exact = {
            tup: v * p + (1 - v) / len(dist.exact)
            for tup, p in dist.exact.items()
        }
        tables[ctx] = Distribution(
            {tup: float(p) for tup, p in exact.items()}, exact
        )
    return EmpiricalModel(m.scenario, tables)


def pinned_files(directory: Path):
    models = [
        (f"odd {n} {v}", white_noise_odd_cycle(n, v))
        for n in range(3, 12)
        for v in NOISE_LEVELS
    ]
    models += [(f"tie {n}", white_noise_odd_cycle(n, TIE)) for n in (5, 7, 9)]
    for key, m in models:
        name = key.replace(" ", "_").replace("/", "_")
        path = directory / f"{name}.scn"
        path.write_text(serialize_model(m, name), encoding="utf-8")
        yield key, path
    for path in sorted(DATA_DIR.glob("*.scn")):
        if parse_file(path.read_text(encoding="utf-8")).model is not None:
            yield f"corpus {path.stem}", path


def digest(path: Path) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(["ncf", str(path), "--format", "json"])
    if code != 0:
        raise RuntimeError(f"ncf exited {code} on {path}")
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        pins = {key: digest(path) for key, path in pinned_files(Path(tmp))}
    with PINS.open("w") as f:
        f.write(json.dumps(pins, indent=0) + "\n")
