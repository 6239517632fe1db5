"""A fuzz net for the CLI: seeded mutants of the shipped corpus and random
valid table models through analyze, ncf and cycles, in text and JSON.

Every run must end with exit 0, 1 or 2 and never raise. A nonzero exit
either prints one `error: ` line on stderr and nothing on stdout, or is a
report whose no-disturbance check failed (exit 1, printed on stdout with an
empty stderr)."""
from __future__ import annotations

import contextlib
import io
import itertools
import random
from fractions import Fraction
from pathlib import Path

import contextuality
from contextuality.cli import run

DATA_DIR = Path(contextuality.__file__).parent / "data"

RUNS = [
    [command, "--format", fmt]
    for command in ("analyze", "ncf", "cycles")
    for fmt in ("text", "json")
]

# tokens a mutation may put in place of another: numbers the format reads,
# malformed and non-finite numbers, keywords and labels out of place
TOKENS = (
    "0", "1", "2", "-1", "1/2", "3/2", "1/0", "0.5", "-0.5", "1e308", "nan",
    "inf", "x", "+", "-", "context", "table", "observable", "outcomes",
    "state", "amp", "measure", "basis", "labels", "vec", "chain", "site",
    "sites", "S1", "A_c", "B_d", "computational", "explicit",
)


def _mutant(rng: random.Random, text: str) -> str:
    """text with one to three seeded line or token edits."""
    lines = text.split("\n")
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        toks = lines[i].split()
        op = rng.randrange(7)
        if op == 0:
            del lines[i]
        elif op == 1:
            lines.insert(i, lines[i])
        elif op == 2 and i + 1 < len(lines):
            lines[i], lines[i + 1] = lines[i + 1], lines[i]
        elif op == 3 and toks:
            toks[rng.randrange(len(toks))] = rng.choice(TOKENS)
            lines[i] = "  " * lines[i].startswith(" ") + " ".join(toks)
        elif op == 4 and toks:
            del toks[rng.randrange(len(toks))]
            lines[i] = "  " * lines[i].startswith(" ") + " ".join(toks)
        elif op == 5:
            toks.insert(rng.randint(0, len(toks)), rng.choice(TOKENS))
            lines[i] = " ".join(toks)
        else:
            del lines[rng.randrange(len(lines)) :]
        if not lines:
            lines = [""]
    return "\n".join(lines)


def _random_model(rng: random.Random, name: str, mixture: bool) -> str:
    """A valid table model: 2-4 observables with 2-3 outcomes, a cycle of
    pair contexts plus a random extra context. A mixture of global
    assignments has non-signalling tables; otherwise each table is drawn on
    its own and usually signals."""
    k = rng.randint(2, 4)
    outcomes = [[f"o{j}" for j in range(rng.randint(2, 3))] for _ in range(k)]
    contexts = [(i, (i + 1) % k) for i in range(k if k > 2 else 1)]
    extra = tuple(sorted(rng.sample(range(k), rng.randint(1, min(3, k)))))
    if set(extra) not in map(set, contexts):
        contexts.append(extra)
    weights: dict[tuple[str, ...], int] = {}
    for _ in range(rng.randint(1, 4)):
        a = tuple(rng.choice(outs) for outs in outcomes)
        weights[a] = weights.get(a, 0) + rng.randint(1, 5)
    total = sum(weights.values())
    lines = [f"scenario {name}"]
    lines += [f"observable X{i} outcomes {' '.join(o)}" for i, o in enumerate(outcomes)]
    lines += ["context " + " ".join(f"X{i}" for i in ctx) for ctx in contexts]
    for ctx in contexts:
        lines.append("table " + " ".join(f"X{i}" for i in ctx))
        tuples = list(itertools.product(*(outcomes[i] for i in ctx)))
        if mixture:
            mass = dict.fromkeys(tuples, 0)
            for a, w in weights.items():
                mass[tuple(a[i] for i in ctx)] += w
            probs = [Fraction(mass[t], total) for t in tuples]
        else:
            draws = [rng.randint(0, 3) for _ in tuples]
            draws[rng.randrange(len(draws))] += 1
            probs = [Fraction(d, sum(draws)) for d in draws]
        lines += [f"  {' '.join(t)} {p}" for t, p in zip(tuples, probs)]
    return "\n".join(lines) + "\n"


def _call(args: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = run(args)
    return rc, out.getvalue(), err.getvalue()


def _check(path: Path) -> list[int]:
    """The exit codes of every run on path, each checked."""
    codes = []
    for args in RUNS:
        argv = [args[0], str(path), *args[1:]]
        try:
            rc, out, err = _call(argv)
        except Exception as e:  # a traceback: report the input
            raise AssertionError(
                f"{argv} raised {e!r} on:\n{path.read_text()}"
            ) from e
        assert rc in (0, 1, 2), (argv, rc)
        if err:
            assert rc != 0 and out == "", (argv, rc, err)
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        elif rc:
            assert rc == 1 and "signalling" in out, (argv, out)
        codes.append(rc)
    return codes


def test_cli_fuzz_ends_with_a_clean_exit(tmp_path):
    rng = random.Random(2013)
    codes = []
    corpus = sorted(DATA_DIR.glob("*.scn"))
    for f in corpus:
        text = f.read_text(encoding="utf-8")
        for i in range(24):
            path = tmp_path / f"{f.stem}_{i}.scn"
            path.write_text(_mutant(rng, text), encoding="utf-8")
            codes += _check(path)
    mixtures = []
    for i in range(24):
        path = tmp_path / f"random_{i}.scn"
        path.write_text(_random_model(rng, f"random_{i}", i % 2 == 0))
        (mixtures if i % 2 == 0 else codes).extend(_check(path))
    # a mixture of global assignments is a valid non-signalling model
    assert set(mixtures) == {0}
    assert codes.count(0) > 0 and codes.count(2) > 0
    assert len(codes) == len(RUNS) * (24 * len(corpus) + 12)
