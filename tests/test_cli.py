"""Command-line behavior: exit codes, output bytes, demo/analyze parity."""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import warnings
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import contextuality
from contextuality import cli
from contextuality.cli import main, run
from contextuality.metacontext import Agent, ObserverChain
from contextuality.qstate import StateVector, computational_basis
from contextuality.report import AnalysisReport, render_text
from contextuality.scnformat import serialize_chain

from conftest import random_chain

DATA_DIR = Path(contextuality.__file__).parent / "data"

DEMO_ARGS = {
    "hardy": ["demo", "hardy"],
    "fr": ["demo", "fr"],
    "wigner": ["demo", "wigner"],
    "cycle_3_odd": ["demo", "cycle", "3", "odd"],
    "cycle_3_even": ["demo", "cycle", "3", "even"],
    "cycle_4_odd": ["demo", "cycle", "4", "odd"],
    "cycle_4_even": ["demo", "cycle", "4", "even"],
    "cycle_5_odd": ["demo", "cycle", "5", "odd"],
    "cycle_5_even": ["demo", "cycle", "5", "even"],
}

SIGNALLING_TEXT = """scenario sig
observable X outcomes 0 1
observable Y outcomes 0 1
observable Z outcomes 0 1
context X Y
context Y Z
table X Y
  0 0 1/2
  0 1 1/2
  1 0 0
  1 1 0
table Y Z
  0 0 0
  0 1 0
  1 0 1/2
  1 1 1/2
"""


def call(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = run(args)
    return rc, out.getvalue(), err.getvalue()


def test_demo_hardy_text():
    rc, out, err = call(["demo", "hardy"])
    assert rc == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == "scenario: hardy"
    assert "classification: LogicallyContextual" in lines
    assert "global sections: 5" in lines
    assert "noncontextual fraction: 5/6 (0.8333333333333334)" in lines
    assert "  seed [A_d B_d] (- -) probability 1/12 (0.08333333333333333)" in lines
    assert "  contradiction: B_d: - established, + forced" in lines


def test_demo_hardy_json():
    rc, out, _ = call(["demo", "hardy", "--format", "json"])
    assert rc == 0
    d = json.loads(out)
    assert d["classification"] == "LogicallyContextual"
    seed = d["liar_cycle"]["seed"]
    assert seed["context"] == ["A_d", "B_d"]
    assert seed["outcome"] == ["-", "-"]
    assert seed["probability"]["value"] == pytest.approx(1 / 12)
    assert seed["probability"]["exact"] == "1/12"
    assert d["fraction"]["ncf"]["exact"] == "5/6"


def test_demo_fr_full_assumptions_contradiction():
    rc, out, _ = call(
        ["demo", "fr", "--assumptions", "Q,NMC,NC,S", "--format", "json"]
    )
    assert rc == 0
    d = json.loads(out)
    verdicts = d["claims"]["verdicts"]
    assert len(verdicts) == 1
    v = verdicts[0]
    assert v["assumptions"] == "Q,NMC,NC,S"
    assert v["outcome"] == "Contradiction"
    assert [t["agent"] for t in v["trace"]] == ["W_A", "F_B", "F_A"]
    assert v["conflict"]["observable"] == "B_meta"


def test_demo_fr_dropping_nmc_is_consistent():
    rc, out, _ = call(["demo", "fr", "--assumptions", "Q,NC,S", "--format", "json"])
    assert rc == 0
    d = json.loads(out)
    assert d["claims"]["verdicts"][0]["outcome"] == "Consistent"


def test_demo_wigner_text():
    rc, out, _ = call(["demo", "wigner"])
    assert rc == 0
    assert "kind: chain" in out
    assert "cuts (agents: F):" in out
    assert "final basis memory-computational:" in out
    assert "final basis coherent:" in out
    assert "tv cut 0 vs cut 1: 0.0\n" in out


def test_demo_cycle_default_parity_is_odd():
    rc1, out1, _ = call(["demo", "cycle", "4"])
    rc2, out2, _ = call(["demo", "cycle", "4", "odd"])
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_demo_cycle_4_odd_json():
    rc, out, _ = call(["demo", "cycle", "4", "--format", "json"])
    assert rc == 0
    d = json.loads(out)
    assert d["classification"] == "StronglyContextual"
    assert d["global_sections"] == 0
    assert d["fraction"]["ncf"]["exact"] == "0"
    assert d["fraction"]["witness"] == []


def test_analyze_matches_demo_bytes():
    for name, args in DEMO_ARGS.items():
        path = str(DATA_DIR / f"{name}.scn")
        for extra in ([], ["--format", "json"]):
            rc_d, out_d, _ = call(args + extra)
            rc_a, out_a, _ = call(["analyze", path] + extra)
            assert rc_d == rc_a == 0
            assert out_d == out_a, name


def test_json_reparse_regenerates_text():
    for name, args in DEMO_ARGS.items():
        rc, text, _ = call(args)
        rc2, j, _ = call(args + ["--format", "json"])
        assert rc == rc2 == 0
        rebuilt = render_text(AnalysisReport.from_dict(json.loads(j)))
        assert rebuilt == text, name


def test_json_output_matches_schema():
    schema = json.loads(
        resources.files("contextuality")
        .joinpath("data", "report.schema.json")
        .read_text(encoding="utf-8")
    )
    validator = jsonschema.Draft202012Validator(schema)
    for args in DEMO_ARGS.values():
        _, out, _ = call(args + ["--format", "json"])
        validator.validate(json.loads(out))


def test_ncf_subcommand():
    rc, out, _ = call(["ncf", str(DATA_DIR / "hardy.scn")])
    assert rc == 0
    assert "noncontextual fraction: 5/6 (0.8333333333333334)" in out
    assert "witness (5 rows):" in out
    assert "sentences" not in out
    assert "classification" not in out


def test_ncf_rejects_chain_input():
    rc, _, err = call(["ncf", str(DATA_DIR / "wigner.scn")])
    assert rc == 2
    assert "needs a model input" in err


def test_cycles_subcommand_default_seed():
    rc, out, _ = call(["cycles", str(DATA_DIR / "hardy.scn")])
    assert rc == 0
    assert "sentences (6):" in out
    assert "  seed [A_d B_d] (- -) probability 1/12 (0.08333333333333333)" in out
    assert "noncontextual fraction" not in out


def test_cycles_subcommand_explicit_seed():
    path = str(DATA_DIR / "hardy.scn")
    rc, out, _ = call(["cycles", path, "--seed", "A_d,B_d", "-,-"])
    assert rc == 0
    assert "  contradiction: B_d: - established, + forced" in out
    rc, out, _ = call(["cycles", path, "--seed", "A_d,B_d", "+,+"])
    assert rc == 0
    assert "  seed [A_d B_d] (+ +) probability 3/4 (0.75)" in out
    assert "  no contradiction: propagation closes" in out


def test_cycles_seed_errors():
    path = str(DATA_DIR / "hardy.scn")
    rc, _, err = call(["cycles", path, "--seed", "A_d,Bogus", "-,-"])
    assert rc == 2
    assert "unknown context" in err
    rc, _, err = call(["cycles", path, "--seed", "A_d,B_d"])
    assert rc == 2
    assert "--seed needs two arguments" in err
    rc, _, err = call(["cycles", path, "--seed", "A_d,B_d", "-,-", "--seed", "A_d,B_d", "+,+"])
    assert rc == 2
    assert "--seed given twice" in err
    rc, _, err = call(["analyze", path, "--seed", "A_d,B_d", "-,-"])
    assert rc == 2
    assert "only applies to the cycles command" in err


def test_usage_errors_exit_2():
    cases = [
        [],
        ["bogus"],
        ["demo"],
        ["demo", "nope"],
        ["demo", "hardy", "extra"],
        ["demo", "cycle"],
        ["demo", "cycle", "x"],
        ["demo", "cycle", "7"],
        ["demo", "cycle", "4", "weird"],
        ["analyze"],
        ["analyze", "/no/such/file.scn"],
        ["demo", "hardy", "--format", "yaml"],
        ["demo", "hardy", "--assumptions", "Q,BOGUS"],
    ]
    for args in cases:
        rc, _, err = call(args)
        assert rc == 2, args
        assert err.startswith("error:"), args


def test_parse_error_exit_2(tmp_path):
    bad = tmp_path / "bad.scn"
    bad.write_text("scenario x\nobservable A outcomes 0 1\ncontext A\ntable A\n  0 0.9\n  1 0.3\n")
    rc, _, err = call(["analyze", str(bad)])
    assert rc == 2
    assert "line 4" in err
    assert "sum to" in err


def test_signalling_input_exits_1(tmp_path):
    sig = tmp_path / "sig.scn"
    sig.write_text(SIGNALLING_TEXT)
    rc, out, _ = call(["analyze", str(sig)])
    assert rc == 1
    assert "no-disturbance: max violation 0.5 (FAIL, tolerance 1e-09)" in out
    assert "signalling" in out
    assert "noncontextual fraction:" not in out
    rc, out, _ = call(["ncf", str(sig)])
    assert rc == 1
    assert "signalling" in out


def test_ncf_engine_failure_exits_1(monkeypatch):
    import contextuality.report as report

    def drift(m):
        raise RuntimeError("exact optimum 1/2 drifts from float optimum 0.4")

    monkeypatch.setattr(report, "contextual_fraction", drift)
    for args in (["ncf", str(DATA_DIR / "hardy.scn")], ["demo", "hardy"]):
        rc, out, err = call(args)
        assert rc == 1
        assert out == ""
        assert err == "error: exact optimum 1/2 drifts from float optimum 0.4\n"
        assert "Traceback" not in err


@pytest.mark.parametrize("failure", ["none", "nan_value", "nan_x", "overflow"])
def test_failed_float_simplex_exits_1(monkeypatch, failure):
    """A float simplex that gives up (None), returns a non-finite optimum or
    solution, or overflows is an error naming the program's size, not a
    traceback, and numpy prints no RuntimeWarning on the way."""
    import contextuality.ncpoly as ncpoly

    real = ncpoly.simplex

    def broken(c, A, rhs):
        if failure == "none":
            return None
        value, x, basis, inverse = real(c, A, rhs)
        if failure == "overflow":
            return np.float64(1e308) * 10, x, basis, inverse
        if failure == "nan_value":
            return float("nan"), x, basis, inverse
        x = x.copy()
        x[0] = float("nan")
        return value, x, basis, inverse

    monkeypatch.setattr(ncpoly, "simplex", broken)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = call(["ncf", str(DATA_DIR / "hardy.scn")])
    assert (rc, out) == (1, "")
    assert err == "error: the float simplex failed on the 12 x 5 fraction program\n"
    assert "Traceback" not in err


def test_ncf_json_computes_no_disturbance_once(monkeypatch):
    import contextuality.scenario as scenario

    models = []
    real = scenario._no_disturbance

    def counted(m):
        models.append(m)
        return real(m)

    monkeypatch.setattr(scenario, "_no_disturbance", counted)
    rc, out, err = call(["ncf", str(DATA_DIR / "hardy.scn"), "--format", "json"])
    assert (rc, err) == (0, "")
    assert json.loads(out)["no_disturbance"]["pass"] is True
    assert len(models) == 1


def test_ncf_solves_the_snapped_tables(tmp_path):
    """White-noise odd 5-cycle at v = 1 - 2/3**20 written with decimal
    floats: its entries (1 - v)/4, about 1.4e-10, snap to 0, so the exact
    tables are the odd 5-cycle with NCF 0. The float LP must pose that
    model too, not the decimal one with NCF 5/3**20."""
    from fractions import Fraction

    n, v = 5, 1 - Fraction(2, 3**20)
    hi, lo = float((1 + v) / 4), float((1 - v) / 4)
    lines = ["scenario snapped"]
    lines += [f"observable S{i} outcomes 0 1" for i in range(1, n + 1)]
    lines += [f"context S{i} S{i % n + 1}" for i in range(1, n + 1)]
    for i in range(1, n + 1):
        equal, unequal = (hi, lo) if i < n else (lo, hi)
        lines.append(f"table S{i} S{i % n + 1}")
        lines += [f"  0 0 {equal!r}", f"  0 1 {unequal!r}"]
        lines += [f"  1 0 {unequal!r}", f"  1 1 {equal!r}"]
    path = tmp_path / "snapped.scn"
    path.write_text("\n".join(lines) + "\n")
    rc, out, err = call(["ncf", str(path), "--format", "json"])
    assert (rc, err) == (0, "")
    fraction = json.loads(out)["fraction"]
    assert fraction["ncf"] == {"exact": "0", "value": 0.0}
    assert fraction["witness"] == []


def test_custom_eps_is_reported():
    rc, out, _ = call(["demo", "hardy", "--eps", "1e-6"])
    assert rc == 0
    assert "support eps: 1e-06" in out


def test_help_exits_0():
    rc, out, err = call(["--help"])
    assert rc == 0
    rc, out, err = call(["demo", "--help"])
    assert rc == 0


def test_support_threshold_defaults_read_eps_support():
    """--eps and the eps= of every report builder default to
    scenario.EPS_SUPPORT, and --help names that value."""
    import inspect

    from contextuality import report
    from contextuality.scenario import EPS_SUPPORT

    assert cli._build_parser().parse_args(["demo", "hardy"]).eps is EPS_SUPPORT
    for build in (report.model_report, report.chain_report, report.scenario_report):
        assert inspect.signature(build).parameters["eps"].default is EPS_SUPPORT
    rc, out, _ = call(["demo", "--help"])
    assert rc == 0
    assert "possibilistic analysis (default 1e-9)" in " ".join(out.split())
    assert float("1e-9") == EPS_SUPPORT


def test_parser_built_once_and_reused_verbatim(monkeypatch):
    """One process reuses a single parser; help, usage errors and exit codes
    match a fresh process's for each call in turn."""
    monkeypatch.setenv("COLUMNS", "80")  # help wraps to the terminal width
    env = dict(os.environ)
    src = str(Path(contextuality.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    cli._build_parser.cache_clear()
    sequence = [
        ["--help"],
        ["demo", "hardy", "--format", "yaml"],
        ["ncf", str(DATA_DIR / "hardy.scn")],
        ["--help"],
    ]
    codes = []
    for args in sequence:
        fresh = subprocess.run(
            [sys.executable, "-m", "contextuality", *args],
            capture_output=True,
            text=True,
            env=env,
        )
        assert call(args) == (fresh.returncode, fresh.stdout, fresh.stderr), args
        codes.append(fresh.returncode)
    assert codes == [0, 2, 0, 0]
    assert cli._build_parser.cache_info().misses == 1


def test_a_closed_pipe_ends_the_run_quietly():
    """A reader that closes standard output before the report is written,
    as `contextuality demo wigner --format json | true` does: exit 1, and
    nothing on standard error, neither a BrokenPipeError traceback from the
    write nor an "Exception ignored" line from the flush at exit."""
    env = dict(os.environ)
    src = str(Path(contextuality.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    for fmt in ("json", "text"):
        proc = subprocess.Popen(
            [sys.executable, "-m", "contextuality", "demo", "wigner", "--format", fmt],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        # closed long before the interpreter has started and written
        proc.stdout.close()
        with proc.stderr:
            err = proc.stderr.read()
        assert (proc.wait(), err) == (1, b""), fmt


def test_main_raises_systemexit(monkeypatch):
    monkeypatch.setattr("sys.argv", ["contextuality", "demo", "hardy"])
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        with pytest.raises(SystemExit) as exc:
            main()
    assert exc.value.code == 0
    assert "scenario: hardy" in buf.getvalue()


@pytest.mark.parametrize("dims", ["65536 65536 65536 65536 65536", "100000 100000 100000 100000"])
def test_oversized_state_is_a_located_parse_error(tmp_path, dims):
    path = tmp_path / "big.scn"
    path.write_text(
        "scenario big\nobservable X outcomes 0 1\ncontext X\n"
        "measure X site 0 basis computational labels 0 1\n\n"
        f"state {dims}\n  amp 0 1.0 0.0\n",
        encoding="utf-8",
    )
    size = 1
    for d in dims.split():
        size *= int(d)
    rc, out, err = call(["ncf", str(path)])
    assert (rc, out) == (2, "")
    assert err == (
        f"error: line 6, column 1: state of {size} amplitudes exceeds the "
        f"2**24 state size guard\n"
    )


NONFINITE_FILES = {
    # a NaN amplitude has a NaN norm, which no comparison rejects
    "amp": (
        "scenario s\nobservable X outcomes 0 1\ncontext X\n"
        "measure X site 0 basis computational labels 0 1\n\n"
        "state 2\n  amp 0 nan 0.0\n  amp 1 1.0 0.0\n",
        "error: line 7, column 9: invalid amplitude component 'nan'\n",
    ),
    "vec": (
        "scenario s\nobservable X outcomes 0 1\ncontext X\n"
        "measure X site 0 basis explicit labels 0 1\n"
        "  vec 1.0 0.0 0.0 0.0\n  vec 0.0 0.0 inf -inf\n\n"
        "state 2\n  amp 0 1.0 0.0\n",
        "error: line 6, column 15: invalid vector component 'inf'\n",
    ),
}


@pytest.mark.parametrize("kind", sorted(NONFINITE_FILES))
@pytest.mark.parametrize("command", ["ncf", "analyze"])
def test_nonfinite_numbers_are_located_parse_errors(tmp_path, kind, command):
    text, err = NONFINITE_FILES[kind]
    path = tmp_path / f"{kind}.scn"
    path.write_text(text, encoding="utf-8")
    assert call([command, str(path)]) == (2, "", err)


def test_support_is_built_only_for_the_sections_that_read_it(monkeypatch):
    import contextuality.report as report

    calls = []
    real = report.support_of

    def counted(m, eps):
        calls.append(eps)
        return real(m, eps)

    monkeypatch.setattr(report, "support_of", counted)
    hardy = str(DATA_DIR / "hardy.scn")
    rc, out, err = call(["ncf", hardy, "--format", "json"])
    assert (rc, err) == (0, "")
    assert json.loads(out)["fraction"] is not None
    assert calls == []
    rc, out, err = call(["analyze", hardy, "--format", "json"])
    assert (rc, err) == (0, "")
    assert calls == [1e-9]
    # a degenerate model is still rejected when no section reads the support;
    # analyze's support_of raises it
    del calls[:]
    for command in ("ncf", "analyze"):
        rc, out, err = call([command, hardy, "--eps", "0.9"])
        assert (rc, out) == (2, "")
        assert err == (
            "error: support of context ('A_d', 'B_c') is empty at eps=0.9; "
            "degenerate model\n"
        )
    assert calls == [0.9]


def test_deep_chain_is_a_located_parse_error(tmp_path):
    """Five computational agents on one qubit: the fourth would make the
    compound dimension 2**16, past the chain guard."""
    path = tmp_path / "deep.scn"
    chains = "".join(f"chain F{k} basis computational\n" for k in range(5))
    path.write_text(f"scenario deep\n\nstate 2\n  amp 0 1.0 0.0\n\n{chains}")
    assert call(["analyze", str(path)]) == (
        2,
        "",
        "error: line 9: chain agent 'F3' makes the compound dimension 65536, "
        "above the 2**10 chain guard\n",
    )


def test_wide_frontier_is_refused_before_it_is_built(tmp_path):
    """20 binary observables with all 190 pairs as uniform contexts: every
    earlier observable stays on the frontier, so layer i of the frontier
    table holds 2**(i + 1) rows, and the layer that takes the table past
    the 2**17 row budget is refused with exit 2, not built until memory
    runs out."""
    pairs = list(itertools.combinations(range(20), 2))
    lines = ["scenario all_pairs"]
    lines += [f"observable X{i} outcomes 0 1" for i in range(20)]
    lines += [f"context X{i} X{j}" for i, j in pairs]
    for i, j in pairs:
        lines += [f"table X{i} X{j}"] + [f"  {a} {b} 1/4" for a in "01" for b in "01"]
    path = tmp_path / "all_pairs.scn"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert call(["analyze", str(path)]) == (
        2,
        "",
        "error: frontier table of 262142 rows exceeds the 2**17 row budget\n",
    )


@pytest.mark.parametrize("eps", ["-1", "nan", "inf", "1"])
@pytest.mark.parametrize("target", ["hardy", "wigner"])
def test_eps_outside_unit_interval_is_a_usage_error(target, eps):
    """A chain report prints eps without reading a support, so the flag
    itself is checked."""
    assert call(["demo", target, "--eps", eps]) == (
        2,
        "",
        f"error: --eps {float(eps)!r} is not in [0, 1)\n",
    )


def test_ncf_past_the_incidence_entry_guard_is_a_usage_error(tmp_path):
    """Every pair of 20 binary observables as a context, uniform tables:
    2**20 columns, 760 rows."""
    labels = [f"X{i}" for i in range(20)]
    pairs = list(itertools.combinations(labels, 2))
    lines = ["scenario pairs"] + [f"observable {l} outcomes 0 1" for l in labels]
    lines += [f"context {a} {b}" for a, b in pairs]
    for a, b in pairs:
        lines += [f"table {a} {b}"] + [f"  {x} {y} 1/4" for x in "01" for y in "01"]
    path = tmp_path / "pairs.scn"
    path.write_text("\n".join(lines) + "\n")
    assert call(["ncf", str(path)]) == (
        2,
        "",
        "error: incidence matrix of 760 rows x 1048576 columns exceeds the "
        "80 * 2**20 entry guard\n",
    )


@pytest.mark.parametrize("eps", [1e-8, 3e-9])
def test_analyze_accepts_a_chain_next_to_an_eigenstate(tmp_path, eps):
    """A qubit with amplitudes (sqrt(1 - eps**2), eps) under one
    computational agent: the coherent basis is written without cancellation,
    so analyze reports it instead of calling it not orthonormal."""
    base = StateVector((2,), np.array([(1 - eps**2) ** 0.5, eps]))
    chain = ObserverChain(base, (Agent("F", computational_basis()),))
    path = tmp_path / "near_eigenstate.scn"
    path.write_text(serialize_chain(chain, "near_eigenstate"))
    for fmt in ("text", "json"):
        rc, out, err = call(["analyze", str(path), "--format", fmt])
        assert (rc, err) == (0, "")
        assert "coherent" in out


def test_chain_report_does_not_depend_on_the_hash_seed(tmp_path):
    """A two-qubit chain with one random-basis agent: each total variation
    sums 16 terms keyed by a set of outcome tuples, whose order follows the
    hash seed."""
    path = tmp_path / "random_basis.scn"
    path.write_text(serialize_chain(random_chain(2, (2, 2), (True,)), "random_basis"))
    env = dict(os.environ)
    src = str(Path(contextuality.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    for fmt in ("text", "json"):
        outputs = []
        for seed in ("0", "2"):
            fresh = subprocess.run(
                [sys.executable, "-m", "contextuality", "analyze", str(path), "--format", fmt],
                capture_output=True,
                env=dict(env, PYTHONHASHSEED=seed),
            )
            assert (fresh.returncode, fresh.stderr) == (0, b"")
            outputs.append(fresh.stdout)
        assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command", ["analyze", "ncf", "cycles"])
def test_byte_order_mark_is_dropped(tmp_path, command):
    """A file saved with a UTF-8 byte order mark reads as the same file."""
    text = (DATA_DIR / "hardy.scn").read_text(encoding="utf-8")
    plain, marked = tmp_path / "hardy.scn", tmp_path / "marked" / "hardy.scn"
    marked.parent.mkdir()
    plain.write_text(text, encoding="utf-8")
    marked.write_text("\ufeff" + text, encoding="utf-8")
    assert marked.read_bytes()[:3] == b"\xef\xbb\xbf"
    got = call([command, str(marked), "--format", "json"])
    assert got[0] == 0 and got == call([command, str(plain), "--format", "json"])
