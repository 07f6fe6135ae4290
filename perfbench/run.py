#!/usr/bin/env python3
"""Benchmark of the ``mwstab`` command line, run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of ``workloads.WORKLOADS`` or ``all``.  Every operation is one
``mwstab`` invocation, run by this process one at a time, that starts from
a fresh interpreter which has just imported ``mwstab.cli`` (``child.py``), so
no cache survives between operations.  Set-up is the time from starting the
interpreter to ``mwstab.cli`` imported; the operation is the
``mwstab.cli.main(argv)`` call.  Each operation's output is checked
(``workloads.check``).

``--trace 0`` runs passes over the seeded operation list for about S seconds
and prints the end-to-end metrics.  Each pass starts one interpreter, which
imports ``mwstab.cli`` and then forks one copy of itself per operation, so
an operation costs its own time plus a fork rather than another 0.6 s
import, and short operations get many samples.  ``--trace 1`` runs the list
once untraced and once traced, plus a ``spectrum_slice`` size probe, and
prints the per-layer metrics.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment.  Neither ``MWSTAB_THREADS`` nor any BLAS thread
variable is set here; both are recorded as found.
"""

import argparse
import json
import os
import platform
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

import workloads
from child import PROBE_SIZES
from spans import EXACT_STAGES, ITEM

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
WORK_DIR = ROOT / ".bench_build" / "perfbench"

#: dedicated set-up launches per run, after one discarded warm-up launch;
#: every pass's launch adds one more set-up sample
SETUP_LAUNCHES = 5
OP_TIMEOUT_S = 150

END_TO_END = {"op_s_p50": "s", "work_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}

TIMED_LAYERS = (
    "bloch.spectrum_slice", "bloch.assemble_pencil", "waves.solve_wave",
    "waves.branch_derivative", "fourier.trig_mul",
    "modulation.critical_basis", "modulation.critical_growth",
    "modulation.projected_det",
) + tuple(f"exact.{stage}" for stage in EXACT_STAGES)

COUNTERS = ("bloch.spectrum_slice.dim3_sum", "bloch.parallel_map.items",
            "waves.newton_steps", "modulation.projected_det.limit_calls",
            "exact.ring.coeff_new.calls", "exact.ring.coeff_add.calls",
            "exact.ring.coeff_mul.calls")


def per_layer_units():
    """Every per-layer metric in print order, with its unit."""
    units = {}
    for layer in TIMED_LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units.update({name: "count" for name in COUNTERS})
    units.update({
        "bloch.parallel_map.calls": "count",
        "bloch.parallel_map.wall_s": "s",
        "bloch.parallel_map.busy_s": "s",
        "bloch.parallel_map.overlap": "ratio",
        "modulation.threshold_bisect.evals": "count",
        "cli.main.self_s": "s",
        "trace.overhead_s": "s",
    })
    for n in PROBE_SIZES:
        units[f"bloch.spectrum_slice.s_N{n}"] = "s"
        units[f"bloch.spectrum_slice.dim3_N{n}"] = "count"
    return units


class BenchError(RuntimeError):
    """The benchmark cannot measure this checkout."""


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def _child_command(scratch, mode):
    """Command line and environment of ``child.py`` in ``scratch``."""
    path = [str(SOURCE)] + [p for p in
                            os.environ.get("PYTHONPATH", "").split(os.pathsep)
                            if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path),
               TMPDIR=str(scratch), XDG_CACHE_HOME=str(scratch))
    cmd = [sys.executable, str(HERE / "child.py"),
           str(scratch / "report.json"), mode]
    return cmd, env


def _read_report(path, started):
    report = json.loads(path.read_text(encoding="utf-8"))
    if not str(Path(report["module"]).resolve()).startswith(str(SOURCE)):
        raise BenchError(f"mwstab was imported from {report['module']}, "
                         f"not from {SOURCE}")
    report["setup_s"] = report["imported_at"] - started
    report["error"] = None
    return report


def launch(mode):
    """Run ``child.py`` once in ``mode`` (``setup`` or ``probe``); returns
    its report, or only an ``error`` when it wrote none."""
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{mode}-", dir=WORK_DIR))
    cmd, env = _child_command(scratch, mode)
    started = time.perf_counter()
    try:
        proc = subprocess.Popen(cmd, cwd=scratch, env=env, text=True,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE)
        try:
            _, stderr = proc.communicate(timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return {"error": f"no exit within {OP_TIMEOUT_S} s"}
        try:
            return _read_report(scratch / "report.json", started)
        except (OSError, ValueError):
            tail = stderr.strip().splitlines()[-1:] or [""]
            return {"error": f"exit {proc.returncode} without a report: "
                             f"{tail[0]}"}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


class Server:
    """``child.py serve``: one interpreter that imports ``mwstab.cli`` and
    forks a copy of itself for each operation.  ``setup`` is its set-up
    report; ``run(argv)`` runs one operation (``argv`` may start with
    ``--trace``) and returns its report with ``stdout`` and ``error``."""

    def __init__(self):
        WORK_DIR.mkdir(parents=True, exist_ok=True)
        self.scratch = Path(tempfile.mkdtemp(prefix="serve-", dir=WORK_DIR))
        cmd, env = _child_command(self.scratch, "serve")
        self.stderr = open(self.scratch / "stderr.txt", "w+b")
        started = time.perf_counter()
        # a session of its own, so that a timeout kills the forked copy too
        self.proc = subprocess.Popen(cmd, cwd=self.scratch, env=env,
                                     bufsize=0, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE,
                                     stderr=self.stderr,
                                     start_new_session=True)
        try:
            if self._answer() != "ready":
                raise BenchError(f"importing mwstab.cli failed: "
                                 f"{self._stderr_tail()}")
            self.setup = _read_report(self.scratch / "report.json", started)
        except BaseException:
            self.close()
            raise

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _stderr_tail(self):
        self.stderr.seek(0)
        text = self.stderr.read().decode(errors="replace").strip()
        return (text.splitlines()[-1:] or [""])[0]

    def _answer(self):
        """The server's next line, or None if it ended or fell silent."""
        ready, _, _ = select.select([self.proc.stdout], [], [], OP_TIMEOUT_S)
        if not ready:
            os.killpg(self.proc.pid, signal.SIGKILL)
            return None
        return self.proc.stdout.readline().decode().strip() or None

    def run(self, argv):
        report_path = self.scratch / "op.json"
        stdout_path = self.scratch / "stdout.txt"
        for path in (report_path, stdout_path):
            path.unlink(missing_ok=True)
        request = {"argv": list(argv), "report": str(report_path),
                   "stdout": str(stdout_path)}
        try:
            self.proc.stdin.write(json.dumps(request).encode() + b"\n")
        except BrokenPipeError:
            return {"error": "the operation server has ended", "stdout": ""}
        answer = self._answer()
        stdout = stdout_path.read_text(encoding="utf-8") \
            if stdout_path.exists() else ""
        if answer is None:
            return {"error": f"no answer within {OP_TIMEOUT_S} s: "
                             f"{self._stderr_tail()}", "stdout": stdout}
        try:
            report = json.loads(report_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return {"error": f"exit {answer} without a report: "
                             f"{self._stderr_tail()}", "stdout": stdout}
        return report | {"stdout": stdout, "error": None}

    def close(self):
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=OP_TIMEOUT_S)
            except (BrokenPipeError, subprocess.TimeoutExpired):
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait()
        self.proc.stdout.close()
        self.stderr.close()
        shutil.rmtree(self.scratch, ignore_errors=True)


def run_op(op, position, runner):
    """One checked operation; ``error`` is None when it succeeded."""
    result = runner(op.argv)
    if result["error"] is None:
        result["error"] = workloads.check(op, result["exit"],
                                          result["stdout"], ROOT)
    del result["stdout"]
    print(f"op {position} {result.get('op_s', float('nan')):.3f} s: mwstab "
          f"{' '.join(op.argv)}", file=sys.stderr, flush=True)
    return result | {"op": op, "position": position}


def setup_samples():
    launch("setup")  # warm-up: bytecode caches, page cache
    samples = []
    for _ in range(SETUP_LAUNCHES):
        report = launch("setup")
        if report["error"] is not None:
            raise BenchError(f"importing mwstab.cli failed: "
                             f"{report['error']}")
        samples.append(report["setup_s"])
    return samples


def run_passes(ops, seconds):
    """Whole passes over ``ops``, each from its own server, while another
    pass fits in ``seconds``; returns the results and set-up samples."""
    results, setups = [], []
    begin = time.perf_counter()
    while True:
        pass_begin = time.perf_counter()
        with Server() as server:
            setups.append(server.setup["setup_s"])
            results += [run_op(op, i, server.run) for i, op in enumerate(ops)]
        now = time.perf_counter()
        if now - begin + (now - pass_begin) > seconds:
            return results, setups


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(results, setups):
    timed = [r for r in results if "op_s" in r]
    if not timed:
        raise BenchError("no operation ran to completion")
    by_position = {}
    for r in timed:
        by_position.setdefault(r["position"], []).append(r["op_s"])
    # each operation's median across passes; pooling all samples instead
    # puts the median of a list of fast and slow operations in the gap
    # between them, where it jumps from run to run
    op_medians = [median(times) for times in by_position.values()]
    return {
        "op_s_p50": median(op_medians),
        "work_s": sum(op_medians),
        "setup_s": median(setups),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results
                           if "peak_rss_mb" in r),
    }


def merge_traces(traces):
    """Sum span, edge and counter totals over traced operations."""
    merged = {"spans": {}, "edges": {}, "counts": {}}
    for trace in traces:
        for name, (calls, self_s, total_s) in trace["spans"].items():
            old = merged["spans"].get(name, [0, 0.0, 0.0])
            merged["spans"][name] = [old[0] + calls, old[1] + self_s,
                                     old[2] + total_s]
        for key in ("edges", "counts"):
            for name, value in trace[key].items():
                merged[key][name] = merged[key].get(name, 0) + value
    return merged


def per_layer(merged, probe, overhead_s):
    spans, counts = merged["spans"], merged["counts"]

    def span(name):
        return spans.get(name, [0, 0.0, 0.0])

    metrics = {}
    for layer in TIMED_LAYERS:
        metrics[f"{layer}.calls"], metrics[f"{layer}.self_s"], _ = \
            span(layer)
    for name in COUNTERS:
        metrics[name] = counts.get(name, 0)
    wall_s, busy_s = span("bloch.parallel_map")[2], span(ITEM)[2]
    metrics.update({
        "bloch.parallel_map.calls": span("bloch.parallel_map")[0],
        "bloch.parallel_map.wall_s": wall_s,
        "bloch.parallel_map.busy_s": busy_s,
        "bloch.parallel_map.overlap": busy_s / wall_s if wall_s else 0.0,
        "modulation.threshold_bisect.evals": merged["edges"].get(
            "modulation.threshold_bisect>modulation.projected_det", 0),
        "cli.main.self_s": span("cli.main")[1],
        "trace.overhead_s": overhead_s,
    })
    for n in PROBE_SIZES:
        metrics[f"bloch.spectrum_slice.s_N{n}"] = probe[str(n)]
        metrics[f"bloch.spectrum_slice.dim3_N{n}"] = (2 * n + 1) ** 3
    return metrics


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

THREAD_VARIABLES = ("MWSTAB_THREADS", "OMP_NUM_THREADS",
                    "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {key: blas.get(key) for key in
                 ("name", "version", "openblas configuration")},
        "thread_variables": {name: os.environ.get(name)
                             for name in THREAD_VARIABLES},
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def _report_failures(workload, results):
    for r in results:
        if r["error"] is not None:
            print(f"FAIL {workload}: mwstab {' '.join(r['op'].argv)}: "
                  f"{r['error']}")


def measure(workload, seed, seconds, trace):
    """Returns (metrics, units, attempted, failed) for one workload."""
    ops = workloads.operations(workload, seed)
    if not trace:
        setups = setup_samples()
        results, pass_setups = run_passes(ops, seconds)
        metrics = end_to_end(results, setups + pass_setups)
        units = END_TO_END
    else:
        with Server() as server:
            def traced_op(argv):
                return server.run(("--trace", *argv))

            plain = [run_op(op, i, server.run) for i, op in enumerate(ops)]
            traced = [run_op(op, i, traced_op) for i, op in enumerate(ops)]
        probe = launch("probe")
        results = plain + traced
        if probe["error"] is not None:
            raise BenchError(f"spectrum_slice probe failed: "
                             f"{probe['error']}")
        overhead = sum(r.get("op_s", 0.0) for r in traced) \
            - sum(r.get("op_s", 0.0) for r in plain)
        merged = merge_traces(r["trace"] for r in traced if "trace" in r)
        metrics = per_layer(merged, probe["probe"], overhead)
        units = per_layer_units()
    failed = sum(r["error"] is not None for r in results)
    _report_failures(workload, results)
    for name, unit in units.items():
        print(f"{workload} {name} = {metrics[name]!r} {unit}")
    if not trace:
        print(f"{workload} ops = {len(results)} "
              f"(op_s_p50 over {sum('op_s' in r for r in results)} samples)")
    print(f"{workload} fail_ratio = {failed / len(results)!r} "
          f"({failed} of {len(results)} operations)")
    return metrics, units, len(results), failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCE / "mwstab" / "cli.py").is_file():
        print(f"no mwstab source under {SOURCE}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" \
        else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    try:
        for name in names:
            values, units, n, bad = measure(name, args.seed, args.seconds,
                                            bool(args.trace))
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + key: {"value": values[key],
                                           "unit": unit}
                            for key, unit in units.items()})
            attempted += n
            failed += bad
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    print(json.dumps({"environment": environment()}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
