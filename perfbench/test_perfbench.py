"""Tests of the benchmark itself: seeded generation, the correctness gate and
the tracer. Run with `python3 -m pytest perfbench`."""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from perfbench import gate, tracer, workloads
from perfbench.gate import CliResult, LogicExpectation

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "src" / "contextuality" / "data"


def _files(workdir: Path) -> dict[str, str]:
    return {p.name: p.read_text() for p in sorted(workdir.iterdir())}


@pytest.mark.parametrize("name", ["ncf_exact", "ncf_quantum"])
def test_generator_is_deterministic_per_seed(tmp_path, name):
    dirs = [tmp_path / d for d in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    runs = [
        workloads.build(name, seed, d, DATA)
        for seed, d in zip((7, 7, 8), dirs)
    ]
    names = [[i.name for one in wl.passes for i in one] for wl in runs]
    assert names[0] == names[1]
    assert _files(dirs[0]) == _files(dirs[1])
    assert _files(dirs[0]) != _files(dirs[2])


def test_logic_generator_is_deterministic_per_seed(tmp_path):
    def outputs(seed):
        wl = workloads.build("logic_cycles", seed, tmp_path, DATA)
        small = [i for i in wl.passes[0] if not i.name.startswith("full_support")][:6]
        return [(i.name, i.call()) for i in small]

    assert outputs(3) == outputs(3)
    assert outputs(3) != outputs(4)


def _ncf(path: Path) -> CliResult:
    return workloads.call_cli(["ncf", str(path), "--format", "json"])


def _mixed_labels(n: int) -> list[tuple[str, str]]:
    pairs = workloads.LABEL_PAIRS
    return [pairs[i % len(pairs)] for i in range(n)]


@pytest.mark.parametrize("n,v", [(5, Fraction(9, 10)), (5, Fraction(3, 5)), (6, Fraction(4, 5))])
def test_noisy_cycle_matches_closed_form(tmp_path, n, v):
    for labels in ([("0", "1")] * n, _mixed_labels(n)):
        path = tmp_path / "m.scn"
        path.write_text(workloads.noisy_cycle_scn("m", v, labels))
        assert gate.check_ncf_exact(_ncf(path), gate.noisy_cycle_ncf(n, v)) is None


@pytest.mark.parametrize("n", [4, 6])
def test_chained_bell_matches_closed_form(tmp_path, n):
    path = tmp_path / "q.scn"
    path.write_text(workloads.chained_bell_scn("q", 0.7, _mixed_labels(n)))
    assert gate.check_ncf_quantum(_ncf(path), gate.chained_bell_ncf(n)) is None


def _perturb_ncf(res: CliResult, field: str, value) -> CliResult:
    d = json.loads(res.out)
    d["fraction"]["ncf"][field] = value
    return res._replace(out=json.dumps(d))


def test_gate_flags_perturbed_ncf(tmp_path):
    n, v = 5, Fraction(9, 10)
    path = tmp_path / "m.scn"
    path.write_text(workloads.noisy_cycle_scn("m", v, [("0", "1")] * n))
    res = _ncf(path)
    expected = gate.noisy_cycle_ncf(n, v)
    assert gate.check_ncf_exact(res, expected) is None
    assert gate.check_ncf_exact(_perturb_ncf(res, "exact", str(expected + Fraction(1, 10**6))), expected)
    assert gate.check_ncf_exact(res._replace(code=1), expected)

    q = tmp_path / "q.scn"
    q.write_text(workloads.chained_bell_scn("q", 0.0, [("0", "1")] * 6))
    res = _ncf(q)
    want = gate.chained_bell_ncf(6)
    assert gate.check_ncf_quantum(res, want) is None
    assert gate.check_ncf_quantum(_perturb_ncf(res, "value", want + 1e-6), want)


def test_gate_flags_wrong_classification():
    wl = workloads.build("logic_cycles", 1, Path("."), DATA)
    item = next(i for i in wl.passes[0] if i.name.startswith("hardy_like_9_"))
    out = item.call()
    right = LogicExpectation("LogicallyContextual", 2, 8)
    assert gate.check_logic(out, right) is None
    assert gate.check_logic(out, LogicExpectation("StronglyContextual", 2, 8))
    assert gate.check_logic(out, LogicExpectation("LogicallyContextual", 3, 8))
    assert gate.check_logic(out, LogicExpectation("LogicallyContextual", 2, 7))
    d = json.loads(out)
    d["classification"] = "GloballyExtendable"
    assert gate.check_logic(json.dumps(d), right)


def test_corpus_gate_settles_and_flags_changes(tmp_path):
    wl = workloads.build("corpus_cli", 1, tmp_path, DATA)
    results = {item.name: item.call() for item in wl.warmup}
    assert wl.first_failures(results) == {}
    item = next(i for i in wl.passes[0] if i.name == "demo:hardy")
    res = results["demo:hardy"]
    assert item.check(res) is None
    assert item.check(res._replace(out=res.out.replace("5/6", "4/5")))

    bad = dict(results)
    bad["analyze:hardy"] = res._replace(out=res.out + "\n")
    failures = workloads.build("corpus_cli", 1, tmp_path, DATA).first_failures(bad)
    assert set(failures) == {n for n in results if n.endswith(":hardy")}


def test_tracer_records_layers_and_restores(tmp_path):
    import contextuality.ncpoly as ncpoly
    import contextuality.report as report

    path = tmp_path / "m.scn"
    path.write_text(workloads.noisy_cycle_scn("m", Fraction(9, 10), [("0", "1")] * 5))
    original = ncpoly.incidence
    t = tracer.Tracer()
    t.begin_item()
    t.install()
    try:
        res = _ncf(path)
    finally:
        t.uninstall()
    assert ncpoly.incidence is original
    assert report.contextual_fraction is ncpoly.contextual_fraction
    assert gate.check_ncf_exact(res, Fraction(1, 4)) is None
    layers = t.per_layer()
    assert set(tracer.PER_LAYER_UNITS) - set(layers) <= {"trace.overhead_s", "error_rate"}
    assert layers["ncpoly.incidence.rows"] == 20
    assert layers["ncpoly.incidence.cols"] == 32
    assert layers["ncpoly.incidence.nnz"] == 20 * 32 // 4
    assert layers["ncpoly.witness.size"] > 0
    assert 0 < layers["ncpoly.certificate_s"] < layers["ncpoly.contextual_fraction_s"]
    assert layers["cli.run_s"] >= layers["report.model_report_s"] > 0
    assert layers["logic.classify_s"] == 0.0


def test_benchmark_json_lists_the_metrics_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(tracer.PER_LAYER_UNITS)
    assert [m["unit"] for m in spec["per_layer"]] == list(tracer.PER_LAYER_UNITS.values())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ncf_exact",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_the_listed_metrics(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ncf_quantum",
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec[section]
    }


def test_wrong_and_crashing_items_are_counted():
    from perfbench import run

    ok = workloads.Item("ok", lambda: 1, lambda res: None)
    wrong = workloads.Item("wrong", lambda: 2, lambda res: "wrong answer")
    crash = workloads.Item("crash", lambda: 1 / 0, lambda res: None)
    wl = workloads.Workload("t", [[ok, wrong, crash]], [wrong])
    tally = run.Tally()
    run._warm_up(wl, tally)
    plain, _ = run._timed_loop(wl, 0.001, tally)
    passes = len(plain[0]) // 3
    assert passes >= 1
    assert tally.attempted == 1 + 3 * passes
    assert tally.failed == 1 + 2 * passes
