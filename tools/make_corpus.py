"""Regenerate the shipped .scn corpus from the built-in constructions.

Run from the repository root after changing any builder or the serializer:

    python3 tools/make_corpus.py
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from contextuality.builders import fr_realization, hardy_realization
from contextuality.logic import cycle_empirical_model
from contextuality.metacontext import Agent, ObserverChain
from contextuality.qstate import StateVector, computational_basis
from contextuality.scenario import realize, snap_to_rationals
from contextuality.scnformat import (
    serialize_chain,
    serialize_model,
    serialize_realization,
)

DATA = Path(__file__).resolve().parents[1] / "src" / "contextuality" / "data"


def wigner_chain() -> ObserverChain:
    s = 1.0 / np.sqrt(2.0)
    base = StateVector((2,), np.array([s, s]))
    return ObserverChain(base, (Agent("F", computational_basis(2)),))


def corpus() -> dict[str, str]:
    qr, sc = hardy_realization()
    hardy = snap_to_rationals(realize(qr, sc))
    if hardy is None:
        raise RuntimeError("the Hardy tables do not snap to rationals")
    fr = fr_realization()
    files = {
        "hardy.scn": serialize_model(hardy, "hardy"),
        "fr.scn": serialize_realization(fr.realization, fr.scenario, "fr"),
        "wigner.scn": serialize_chain(wigner_chain(), "wigner"),
    }
    for n in (3, 4, 5):
        for parity in ("odd", "even"):
            name = f"cycle_{n}_{parity}"
            files[name + ".scn"] = serialize_model(
                cycle_empirical_model(n, parity), name
            )
    return files


def main() -> None:
    DATA.mkdir(parents=True, exist_ok=True)
    for fname, text in sorted(corpus().items()):
        (DATA / fname).write_text(text, encoding="utf-8")
        print(f"wrote {fname} ({len(text)} bytes)")


if __name__ == "__main__":
    main()
