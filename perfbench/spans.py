"""Spans and counters for the traced (per-layer) benchmark run.

The tracer wraps chosen mwstab functions and methods wherever they are
looked up: every ``mwstab`` module namespace and class attribute that holds
the original object is replaced by the wrapper, so ``mwstab.cli.solve_wave``
and ``mwstab.modulation.solve_wave`` are both traced.  ``uninstall`` puts
every original back.  Each wrapped call records one span (name, parent,
start, end) in memory; ``summarize`` folds the spans into calls and self
time per name when the child process ends.

Self time is a span's duration minus the union of the intervals covered by
its children.  Work handed to ``parallel_map`` runs on pool threads, so each
item gets its own span whose parent is the ``parallel_map`` span; the item
intervals overlap and are merged before they are subtracted.
"""

import functools
import sys
import threading
import time
from collections import Counter, defaultdict

#: span name of one ``parallel_map`` item, run on a pool thread
ITEM = "bloch.parallel_map.item"

#: ``projected_det`` takes its mu -> 0 limit path below this |mu|
LIMIT_MU = 1e-4


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans = []          # [name, parent index or -1, start, end]
        self.counts = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches = []       # (owner, attribute, original)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name, parent=None):
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else -1
        span = [name, parent, time.perf_counter(), None]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def close(self, index):
        self.spans[index][3] = time.perf_counter()
        self._stack().pop()

    def add(self, counter, amount=1):
        with self._lock:
            self.counts[counter] += amount

    def span(self, name, fn, before=None, after=None):
        """Wrap ``fn`` so each call records a span called ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(self, result)
            return result

        return wrapper

    def counter(self, name, fn):
        """Wrap ``fn`` so each call only increments ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.add(name)
            return fn(*args, **kwargs)

        return wrapper

    def parallel_map(self, fn):
        """Wrap ``parallel_map`` so each item is a span on its pool thread."""

        @functools.wraps(fn)
        def wrapper(work, items):
            items = list(items)
            self.add("bloch.parallel_map.items", len(items))
            index = self.open("bloch.parallel_map")

            def item(value):
                sub = self.open(ITEM, parent=index)
                try:
                    return work(value)
                finally:
                    self.close(sub)

            try:
                return fn(item, items)
            finally:
                self.close(index)

        return wrapper

    def patch(self, owners, original, wrapper):
        """Replace ``original`` by ``wrapper`` in every owner that holds it."""
        found = False
        for owner in owners:
            for attribute, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, attribute, wrapper)
                    self._patches.append((owner, attribute, original))
                    found = True
        if not found:
            raise LookupError(f"{original!r} is not referenced by any owner")

    def uninstall(self):
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)


#: stages of the exact engine, each a function in ``mwstab.exact.expansions``
EXACT_STAGES = ("stokes_series", "build_T0a", "bch_assemble",
                "projected_matrix_series", "det_and_discriminant",
                "build_dump", "check_against_golden")


def _count_newton_steps(tracer, branch):
    tracer.add("waves.newton_steps", len(branch.newton_residuals))


def _count_dim3(tracer, args, kwargs):
    pencil = args[0] if args else kwargs["pencil"]
    tracer.add("bloch.spectrum_slice.dim3_sum", (2 * pencil.n_modes + 1) ** 3)


def _count_limit_calls(tracer, args, kwargs):
    mu = args[3] if len(args) > 3 else kwargs["mu"]
    if abs(mu) < LIMIT_MU:
        tracer.add("modulation.projected_det.limit_calls")


def install(tracer):
    """Wrap the traced layers of an imported ``mwstab``; returns ``tracer``."""
    import mwstab.cli
    from mwstab import bloch, fourier, modulation, waves
    from mwstab.exact import expansions, ring

    modules = [module for name, module in sorted(sys.modules.items())
               if name == "mwstab" or name.startswith("mwstab.")]
    spans = [
        ("cli.main", mwstab.cli.main, None, None),
        ("waves.solve_wave", waves.solve_wave, None, _count_newton_steps),
        ("waves.branch_derivative", waves.branch_derivative, None, None),
        ("bloch.assemble_pencil", bloch.assemble_pencil, None, None),
        ("bloch.spectrum_slice", bloch.spectrum_slice, _count_dim3, None),
        ("modulation.critical_basis", modulation.critical_basis, None, None),
        ("modulation.critical_growth", modulation.critical_growth, None,
         None),
        ("modulation.projected_det", modulation.projected_det,
         _count_limit_calls, None),
        ("modulation.threshold_bisect", modulation.threshold_bisect, None,
         None),
    ]
    spans += [(f"exact.{name}", getattr(expansions, name), None, None)
              for name in EXACT_STAGES]
    for name, fn, before, after in spans:
        tracer.patch(modules, fn, tracer.span(name, fn, before, after))
    tracer.patch(modules, bloch.parallel_map,
                 tracer.parallel_map(bloch.parallel_map))
    tracer.patch([fourier.TrigSeries], fourier.TrigSeries.__mul__,
                 tracer.span("fourier.trig_mul", fourier.TrigSeries.__mul__))
    for method, name in (("__init__", "new"), ("__add__", "add"),
                         ("__mul__", "mul")):
        fn = vars(ring.Coeff)[method]
        tracer.patch([ring.Coeff], fn,
                     tracer.counter(f"exact.ring.coeff_{name}.calls", fn))
    return tracer


def covered(start, end, intervals):
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    run_start = run_end = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if run_end is None or lo > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = lo, hi
        else:
            run_end = max(run_end, hi)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans):
    """Self time of every span, in the order of ``spans``."""
    children = defaultdict(list)
    for _, parent, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [(end - start) - covered(start, end, children.get(index, ()))
            for index, (_, _, start, end) in enumerate(spans)]


def summarize(spans):
    """Per name ``[calls, self_s, total_s]`` and calls per parent->child."""
    still_open = sum(span[3] is None for span in spans)
    if still_open:
        raise ValueError(f"{still_open} spans never closed")
    per_name = {}
    edges = Counter()
    for (name, parent, start, end), own in zip(spans, self_times(spans)):
        calls, self_s, total_s = per_name.get(name, (0, 0.0, 0.0))
        per_name[name] = [calls + 1, self_s + own, total_s + (end - start)]
        if parent >= 0:
            edges[f"{spans[parent][0]}>{name}"] += 1
    return {"spans": per_name, "edges": dict(edges)}
