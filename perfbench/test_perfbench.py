"""Tests of the benchmark's own logic (no timing; one test starts the
operation server)."""

import json
import os
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_argv(workload):
    first = [op.argv for op in workloads.operations(workload, 7)]
    again = [op.argv for op in workloads.operations(workload, 7)]
    assert first == again
    if workload != "golden-oracle":  # its inputs are only an ordering
        assert first != [op.argv for op in workloads.operations(workload, 8)]


def test_draws_stay_in_the_documented_domain():
    for seed in range(50):
        for op in workloads.operations("verdict-sweep", seed):
            argv = dict(zip(op.argv[1::2], op.argv[2::2]))
            assert 0.005 <= float(argv["--a"]) <= 0.05
            assert 0.8 <= float(argv["--k"]) <= 1.25
            if argv["--model"] == "B":
                gamma = float(argv["--gamma"])
                assert 0 <= gamma <= 0.5 or 1.5 <= gamma <= 3


def test_wrappers_are_installed_and_restored(capsys):
    import mwstab.cli
    from mwstab import modulation, waves
    from mwstab.exact.ring import Coeff
    from mwstab.fourier import TrigSeries

    originals = (mwstab.cli.main, mwstab.cli.solve_wave,
                 modulation.solve_wave, TrigSeries.__mul__,
                 vars(Coeff)["__add__"], vars(Coeff)["__radd__"])
    tracer = spans.install(spans.Tracer())
    try:
        assert mwstab.cli.main is not originals[0]
        assert modulation.solve_wave is not originals[2]
        assert vars(Coeff)["__radd__"] is not originals[5]
        assert mwstab.cli.main(["wave", "--modes", "8", "--a", "0.01"]) == 0
    finally:
        tracer.uninstall()
    assert (mwstab.cli.main, mwstab.cli.solve_wave, modulation.solve_wave,
            TrigSeries.__mul__, vars(Coeff)["__add__"],
            vars(Coeff)["__radd__"]) == originals
    assert waves.solve_wave is originals[1]
    summary = spans.summarize(tracer.spans)["spans"]
    assert summary["cli.main"][0] == 1
    assert summary["waves.solve_wave"][0] == 1
    assert tracer.counts["waves.newton_steps"] >= 1
    assert json.loads(capsys.readouterr().out)["a"] == 0.01


def test_self_time_merges_overlapping_pool_children():
    item = spans.ITEM
    tree = [
        ["cli.main", -1, 0.0, 10.0],
        ["bloch.parallel_map", 0, 1.0, 9.0],
        [item, 1, 1.0, 5.0],                     # pool thread 1
        [item, 1, 2.0, 7.0],                     # pool thread 2, overlaps
        ["bloch.spectrum_slice", 2, 1.5, 4.5],
        ["bloch.spectrum_slice", 3, 2.0, 6.0],
        [item, 1, 8.0, 9.5],                     # ends after its parent
    ]
    assert spans.self_times(tree) == pytest.approx(
        [2.0, 8.0 - 7.0, 1.0, 1.0, 3.0, 4.0, 1.5])
    summary = spans.summarize(tree)
    assert summary["spans"]["bloch.spectrum_slice"] == pytest.approx(
        [2, 7.0, 7.0])
    assert summary["edges"][f"bloch.parallel_map>{item}"] == 3


def _fake_output(op, wrong):
    """What a correct mwstab prints for a golden-oracle op, or a bad line."""
    golden = workloads.golden_tables(run.ROOT, op.params["model"])
    if op.kind == "golden":
        diffs = 1 if wrong else 0
        return f"model {op.params['model']}: {diffs} diffs against " \
               f"{len(golden)} transcribed sections\ndisc = 1\n"
    if op.kind == "dump-json":
        return json.dumps(golden)
    rows = []
    for section, entries in golden.items():
        rows.append(f"[{section}]")
        rows.extend(f"  {key} -> {val}" for key, val in entries.items())
    return "\n".join(rows + ["disc = 1"]) + "\n"


@pytest.mark.parametrize("wrong", [0, 1])
def test_a_wrong_output_counts_as_failed(monkeypatch, wrong):
    ops = workloads.operations("golden-oracle", 3)
    bad = next(op for op in ops if op.kind == "golden")

    class FakeServer:
        setup = {"error": None, "setup_s": 0.5}

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            pass

        def run(self, argv):
            op = next(o for o in ops if o.argv == tuple(argv))
            return {"error": None, "exit": 0, "op_s": 0.1,
                    "stdout": _fake_output(op, wrong and op is bad),
                    "peak_rss_mb": 50.0}

    monkeypatch.setattr(run, "launch", lambda mode: FakeServer.setup)
    monkeypatch.setattr(run, "Server", FakeServer)
    monkeypatch.setattr(workloads, "operations", lambda *_: ops)
    metrics, _, attempted, failed = run.measure("golden-oracle", 3, 0.0,
                                                trace=False)
    checks = sum(op.argv == bad.argv for op in ops)
    assert (attempted, failed) == (len(ops), wrong * checks)
    assert metrics["work_s"] == pytest.approx(0.1 * len(ops))


def test_server_answers_each_operation_from_its_own_fork():
    with run.Server() as server:
        assert server.setup["setup_s"] > 0
        first = server.run(["wave", "--modes", "8", "--a", "0.01"])
        bad = server.run(["wave", "--modes", "8", "--a", "oops"])
        again = server.run(["wave", "--modes", "8", "--a", "0.02"])
        pid = server.proc.pid
    assert (first["error"], first["exit"]) == (None, 0)
    assert json.loads(first["stdout"])["a"] == 0.01
    assert bad["exit"] == 4
    assert json.loads(again["stdout"])["a"] == 0.02
    assert first["op_s"] > 0 and first["peak_rss_mb"] > 0
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)


def _spectrum_csv(shift=0.0):
    lines = ["mu,re_lambda,im_lambda,branch_id"]
    n = workloads.N_MODES
    start, stop, count = workloads.SPECTRUM_GRID
    for i in range(count):
        mu = start + (stop - start) * i / (count - 1)
        for mode in range(-n, n + 1):
            if mode + mu != 0:
                lines.append(f"{mu!r},0.0,{mode + mu!r},{mode}")
    lines[1] = lines[1].replace(",0.0,", f",{shift!r},", 1)
    return "\n".join(lines) + "\n"


def test_spectrum_check_catches_a_broken_symmetry():
    op = workloads.operations("spectrum-sweep", 1)[0]
    assert workloads.check(op, 0, _spectrum_csv(), run.ROOT) is None
    assert "reflection" in workloads.check(op, 0, _spectrum_csv(1e-3),
                                           run.ROOT)
    assert workloads.check(op, 2, _spectrum_csv(), run.ROOT) == "exit code 2"


def test_index_check_requires_strict_json_and_the_rule():
    op = workloads.operations("verdict-sweep", 1)[0]
    samples = [[mu, 1e-3] for mu in op.params["grid"]]
    good = {"verdict": op.params["verdict"], "disc_samples": samples,
            "threshold_estimate": None}
    assert workloads.check(op, 0, json.dumps(good), run.ROOT) is None
    flipped = dict(good, verdict="indeterminate")
    assert "verdict" in workloads.check(op, 0, json.dumps(flipped), run.ROOT)
    nan = json.dumps(dict(good, max_growth=float("nan")))
    assert "strict JSON" in workloads.check(op, 0, nan, run.ROOT)


def test_benchmark_json_lists_what_the_benchmark_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in spec["workloads"]) == workloads.WORKLOADS
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.per_layer_units()
