"""What `parse_file` gives on seeded mutants, pinned in parse_errors.json.

`outcomes()` maps a key `<file>:<i>` to `str(ParseError)`, or to `ok` when
the mutant parses, or to `<exception type>: <message>` for any other
exception. The mutated files are every shipped corpus file, one white-noise
odd 9-cycle with rational tables (the `ncf_exact` workload's shape) and one
chained-Bell 8-cycle realization (the `ncf_quantum` workload's shape), each
through `MUTANTS` edits of `test_cli_fuzz._mutant` from one seeded
generator. The pin fixes the parser's error surface: every message with its
line and column.

Regenerate the pins (only when the messages are meant to change):

    PYTHONPATH=src:. python tests/parse_pins.py
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import contextuality
from contextuality.scnformat import ParseError, parse_file
from test_cli_fuzz import _mutant

PINS = Path(__file__).parent / "parse_errors.json"

DATA_DIR = Path(contextuality.__file__).parent / "data"

MUTANTS = 60


def sources() -> dict[str, str]:
    """File name -> text of every file the pin mutates."""
    from perfbench.workloads import LABEL_PAIRS, chained_bell_scn, noisy_cycle_scn

    texts = {p.name: p.read_text(encoding="utf-8") for p in sorted(DATA_DIR.glob("*.scn"))}
    labels = [LABEL_PAIRS[i % len(LABEL_PAIRS)] for i in range(9)]
    texts["noisy_9.scn"] = noisy_cycle_scn("noisy_9", Fraction(9, 10), labels)
    texts["chained_bell_8.scn"] = chained_bell_scn("chained_bell_8", 0.25, labels[:8])
    return texts


def outcome(text: str) -> str:
    try:
        parse_file(text)
    except ParseError as e:
        return str(e)
    except Exception as e:  # pinned too, so that a new kind shows up
        return f"{type(e).__name__}: {e}"
    return "ok"


def mutants() -> dict[str, str]:
    """Key `<file>:<i>` -> the text of that seeded mutant."""
    rng = random.Random(2020)
    return {
        f"{name}:{i}": _mutant(rng, text)
        for name, text in sources().items()
        for i in range(MUTANTS)
    }


def outcomes() -> dict[str, str]:
    return {key: outcome(text) for key, text in mutants().items()}


if __name__ == "__main__":
    PINS.write_text(json.dumps(outcomes(), indent=1, ensure_ascii=False) + "\n")
