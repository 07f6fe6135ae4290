"""Benchmark operations in a fresh interpreter.

    python3 child.py REPORT {setup | serve | probe}

Every mode first imports ``mwstab.cli``.  ``setup`` stops there; ``probe``
times ``spectrum_slice`` on model-A pencils of growing size.  ``serve``
then, for each request line on stdin (a JSON object with ``argv``,
``report`` and ``stdout`` paths), forks a copy of itself that runs
``mwstab.cli.main(argv)`` with stdout going to the ``stdout`` file, waits
for it and answers with its exit code on a line of its own.  ``argv`` may
start with ``--trace``.  Every forked copy starts from the same
just-imported state, so nothing one operation leaves behind reaches the
next.

Each mode writes a JSON report to the file REPORT (``serve`` once, after
the import; each forked operation to its ``report`` path): the
``perf_counter`` reading right after the import (the parent subtracts its
own reading taken before it started this process), the operation's time,
its exit code, the peak resident memory and, under ``--trace``, the
summarized spans and counters.
"""

import json
import os
import resource
import sys
import time
import traceback


#: pencil sizes N of the ``spectrum_slice`` probe
PROBE_SIZES = (16, 32, 64, 128, 256)


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def probe(budget_s=0.5, max_calls=5):
    """Median ``spectrum_slice`` time per N on one model-A branch point.

    The branch is solved once at N = 64 and its profile padded to each N;
    each size repeats until ``budget_s`` is spent or ``max_calls`` is
    reached, so N = 256 runs once.
    """
    from statistics import median
    from mwstab.bloch import assemble_pencil, spectrum_slice
    from mwstab.waves import Model, solve_wave

    model = Model("A")
    branch = solve_wave(model, 0.05, 1.0)
    out = {}
    for n in PROBE_SIZES:
        pencil = assemble_pencil(model, branch, 0.1, n_modes=n)
        times, spent = [], 0.0
        while spent < budget_s and len(times) < max_calls:
            start = time.perf_counter()
            sample = spectrum_slice(pencil)
            times.append(time.perf_counter() - start)
            spent += times[-1]
            if sample.eigenvalues.size != 2 * n + 1:
                raise ArithmeticError(
                    f"{sample.eigenvalues.size} eigenvalues at N={n}")
        out[str(n)] = median(times)
    return out


def run_op(report, argv):
    """Times ``mwstab.cli.main(argv)``; ``argv`` may start with --trace."""
    import mwstab.cli
    tracer = None
    if argv and argv[0] == "--trace":
        import spans
        tracer = spans.install(spans.Tracer())
        argv = argv[1:]
    start = time.perf_counter()
    code = mwstab.cli.main(argv)
    sys.stdout.flush()
    report["op_s"] = time.perf_counter() - start
    report["exit"] = code
    if tracer is not None:
        tracer.uninstall()
        report["trace"] = spans.summarize(tracer.spans)
        report["trace"]["counts"] = dict(tracer.counts)


def write_report(report, path):
    report["peak_rss_mb"] = _peak_rss_mb()
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)


def _forked_op(request):
    """The body of one forked copy; never returns."""
    code = 70
    try:
        fd = os.open(request["stdout"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
        os.dup2(fd, 1)
        os.close(fd)
        report = {}
        run_op(report, request["argv"])
        write_report(report, request["report"])
        code = report["exit"]
    except BaseException:
        traceback.print_exc()
    finally:
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(code)


def serve():
    """Answers request lines on stdin until it closes."""
    print("ready", flush=True)
    for line in sys.stdin:
        pid = os.fork()
        if pid == 0:
            _forked_op(json.loads(line))
        _, status = os.waitpid(pid, 0)
        print(os.waitstatus_to_exitcode(status), flush=True)


def main(argv):
    report_path, mode = argv
    import mwstab.cli
    report = {"imported_at": time.perf_counter(),
              "module": mwstab.cli.__file__, "exit": 0}
    if mode == "probe":
        report["probe"] = probe()
    write_report(report, report_path)
    if mode == "serve":
        serve()
    return report["exit"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
