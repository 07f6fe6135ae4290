"""Seeded operation lists for the four workloads and the output checks.

An operation is one ``mwstab`` command line.  Parameters are drawn from
the documented small-amplitude domain: a in [0.005, 0.05], k in
[0.8, 1.25] and, for model B, gamma in [0, 0.5] (stable) or [1.5, 3]
(unstable).  A list of n operations cuts both ranges into n equal slices
and draws the i-th operation's a and k from the i-th slice of each, in
shuffled order.  The Newton step count, and with it most of the cost of an
``index`` operation, rises by one where a k^2 passes about 0.03-0.04;
drawing from matching slices gives every seed's list the same spread of
a k^2, so per-run totals stay comparable across seeds.

Every check compares numbers by tolerance; only the exact engine's
canonical strings are compared for equality.
"""

import json
import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

A_RANGE = (0.005, 0.05)
K_RANGE = (0.8, 1.25)
GAMMA_STABLE = (0.0, 0.5)
GAMMA_UNSTABLE = (1.5, 3.0)
GRID_STARTS = (0.0, 0.001, 0.005)
GRID_STOP = 0.05
GRID_COUNT = 11
N_MODES = 64
#: the default mu range on every fourth point of the default 201-point grid
SPECTRUM_GRID = (0.0, 0.5, 51)
BRACKET_LO = (0.0, 0.5)
BRACKET_WIDTH = 1.5

#: largest real part allowed in a spectrum expected to be stable
GROWTH_TOLERANCE = 1e-6
#: reflection-symmetry defect allowed, relative to max(1, max |lambda|)
SYMMETRY_TOLERANCE = 1e-9
#: the bisected model-B threshold must lie this close to gamma = 1
THRESHOLD_TOLERANCE = 1e-2
#: a grid point whose leading-order discriminant lies within this share of
#: a^2 k^4 |1 - gamma| of zero has a sign the leading order cannot decide
AMBIGUOUS_SHARE = 0.25

WORKLOADS = ("spectrum-sweep", "verdict-sweep", "threshold-bisect",
             "golden-oracle")


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its output must satisfy."""

    argv: tuple
    kind: str
    params: dict = field(default_factory=dict, compare=False)


def _num(value):
    """Round a draw to 5 significant digits, as it is passed on the CLI."""
    return float(f"{value:.5g}")


def _wave_draws(rng, n):
    """n (a, k) pairs, the i-th from the i-th slice of both ranges."""
    slots = list(range(n))
    rng.shuffle(slots)
    return [tuple(_num(lo + (hi - lo) * (slot + rng.random()) / n)
                  for lo, hi in (A_RANGE, K_RANGE))
            for slot in slots]


def _gammas(rng, n):
    """n model-B gammas, half from each side of the threshold (the odd one
    from a random side), shuffled."""
    sides = [GAMMA_STABLE, GAMMA_UNSTABLE] * (n // 2)
    sides += [rng.choice((GAMMA_STABLE, GAMMA_UNSTABLE))] * (n % 2)
    rng.shuffle(sides)
    return [_num(rng.uniform(*side)) for side in sides]


def _grid(start):
    step = (GRID_STOP - start) / (GRID_COUNT - 1)
    return [start + i * step for i in range(GRID_COUNT)]


def leading_disc(model, gamma, a, k, mu):
    """Leading-order discriminant of the projected determinant (README)."""
    if model == "A":
        return 16.0 * mu**2 / (3.0 * k**2) + 16.0 * a**2 * k**2 / 3.0
    return 4.0 * mu**2 + a**2 * k**4 * (1.0 - gamma)


def expected_verdict(model, gamma, a, k, grid):
    """The verdict the sweep rule gives on this grid at leading order.

    A grid that misses the model-B instability band (mu below
    a k^2 sqrt(gamma - 1) / 2) samples only positive discriminants, and
    the documented rule then says stable.  Returns None when the verdict
    hinges on grid points too close to the band edge for the leading order
    to decide their sign.
    """
    share = AMBIGUOUS_SHARE * a**2 * k**4 * abs(1.0 - gamma) \
        if model == "B" else 0.0
    discs = [leading_disc(model, gamma, a, k, mu) for mu in grid]
    if min(discs) < -share:
        return "unstable"
    if min(discs) > share:
        return "stable"
    return None


def _index_params(rng, model, gamma, a, k):
    """Grid start from GRID_STARTS; gamma redrawn while ambiguous."""
    start = rng.choice(GRID_STARTS)
    for _ in range(100):
        expected = expected_verdict(model, gamma, a, k, _grid(start))
        if expected is not None:
            return start, gamma, expected
        gamma = _num(rng.uniform(*GAMMA_UNSTABLE))
    raise RuntimeError(f"no decidable gamma for a={a}, k={k}")


def _wave_args(model, gamma, a, k):
    argv = ["--model", model, "--a", repr(a), "--k", repr(k)]
    if model == "B":
        argv += ["--gamma", repr(gamma)]
    return argv


def _spectrum_ops(rng, models="AB"):
    gammas = iter(_gammas(rng, models.count("B")))
    start, stop, count = SPECTRUM_GRID
    ops = []
    for model, (a, k) in zip(models, _wave_draws(rng, len(models))):
        g = next(gammas) if model == "B" else 0.0
        ops.append(Op(("spectrum", *_wave_args(model, g, a, k),
                       f"--mu-grid={start!r}:{stop!r}:{count}"), "spectrum",
                      {"stable": model == "A" or g < 1.0}))
    return ops


def _index_op(rng, model, gamma, a, k, bisect):
    start, gamma, expected = _index_params(rng, model, gamma, a, k)
    argv = ["index", *_wave_args(model, gamma, a, k),
            f"--mu-grid={start!r}:{GRID_STOP!r}:{GRID_COUNT}"]
    if bisect:
        # The discriminant vanishes to rounding at gamma = 1, so a bracket
        # whose midpoint is 1 (such as [0, 2]) lets the sign of rounding
        # noise decide the bisection path and its length (3 or 13
        # evaluations).  A drawn bracket of fixed width keeps every
        # operation at 13 evaluations.
        lo = _num(rng.uniform(*BRACKET_LO))
        argv += ["--gamma-lo", repr(lo),
                 "--gamma-hi", repr(_num(lo + BRACKET_WIDTH))]
    return Op(tuple(argv), "index",
              {"model": model, "verdict": expected, "grid": _grid(start),
               "bisect": bisect})


def _verdict_ops(rng, n=4):
    gammas = iter(_gammas(rng, n // 2))
    return [_index_op(rng, model, next(gammas) if model == "B" else 0.0,
                      a, k, bisect=False)
            for model, (a, k) in zip("AB" * (n // 2), _wave_draws(rng, n))]


def _threshold_ops(rng, n=5):
    return [_index_op(rng, "B", gamma, a, k, bisect=True)
            for gamma, (a, k) in zip(_gammas(rng, n), _wave_draws(rng, n))]


def _golden_ops(rng, rounds=2):
    """Each model's golden check, each followed by two of the four dumps;
    ``rounds`` times over, every round in its own order."""
    ops = []
    for _ in range(rounds):
        checks = ["A", "B"]
        dumps = [("A", "json"), ("A", "csv"), ("B", "json"), ("B", "csv")]
        rng.shuffle(checks)
        rng.shuffle(dumps)
        for i, model in enumerate(checks):
            ops.append(Op(("expand", "--model", model, "--check-golden"),
                          "golden", {"model": model}))
            ops += [Op(("expand", "--model", dump_model, "--format", fmt),
                       f"dump-{fmt}", {"model": dump_model})
                    for dump_model, fmt in dumps[2 * i:2 * i + 2]]
    return ops


_OPERATION_LISTS = {
    "spectrum-sweep": _spectrum_ops,
    "verdict-sweep": _verdict_ops,
    "threshold-bisect": _threshold_ops,
    "golden-oracle": _golden_ops,
}


def operations(workload, seed):
    """The seeded operation list of one workload."""
    return _OPERATION_LISTS[workload](random.Random(f"{workload}:{seed}"))


# ---------------------------------------------------------------------------
# output checks: each returns None when the output is right, else a reason
# ---------------------------------------------------------------------------

def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-finite number {token} in JSON output")
    return json.loads(text, parse_constant=reject)


def check_spectrum(op, stdout):
    import numpy as np

    lines = stdout.splitlines()
    if not lines or lines[0] != "mu,re_lambda,im_lambda,branch_id":
        return "missing CSV header"
    try:
        rows = np.array([[float(x) for x in line.split(",")]
                         for line in lines[1:]])
    except ValueError as exc:
        return f"unparsable row: {exc}"
    if rows.ndim != 2 or rows.shape[1] != 4:
        return "rows do not have four columns"
    rows = rows[np.argsort(rows[:, 0], kind="stable")]
    mus, starts, counts = np.unique(rows[:, 0], return_index=True,
                                    return_counts=True)
    grid = np.linspace(*SPECTRUM_GRID[:2], SPECTRUM_GRID[2])
    if mus.size != grid.size or np.max(np.abs(mus - grid)) > 1e-12:
        return f"{mus.size} Floquet exponents, expected {grid.size}"
    # one infinite eigenvalue (the n + mu = 0 row of L1) is dropped at mu = 0
    expected = np.full(grid.size, 2 * N_MODES + 1)
    expected[0] -= 1
    if not np.array_equal(counts, expected):
        bad = int(np.argmax(counts != expected))
        return f"{counts[bad]} eigenvalues at mu={mus[bad]!r}, " \
               f"expected {expected[bad]}"
    for mu, first, count in zip(mus, starts, counts):
        lam = rows[first:first + count, 1] + 1j * rows[first:first + count, 2]
        if not np.all(np.isfinite(lam)):
            return f"non-finite eigenvalue at mu={mu!r}"
        dist = np.abs(lam[:, None] + np.conj(lam)[None, :])
        defect = max(dist.min(axis=0).max(), dist.min(axis=1).max())
        limit = SYMMETRY_TOLERANCE * max(1.0, np.abs(lam).max())
        if defect > limit:
            return f"reflection defect {defect:.3e} > {limit:.3e} " \
                   f"at mu={mu!r}"
    if op.params["stable"] and rows[:, 1].max() > GROWTH_TOLERANCE:
        return f"max Re lambda {rows[:, 1].max():.3e} on a stable wave"
    return None


def check_index(op, stdout):
    try:
        out = _strict_json(stdout)
    except ValueError as exc:
        return f"not strict JSON: {exc}"
    params = op.params
    if out.get("verdict") != params["verdict"]:
        return f"verdict {out.get('verdict')!r}, rule gives " \
               f"{params['verdict']!r}"
    samples = out.get("disc_samples") or []
    if len(samples) != len(params["grid"]) or any(
            not math.isclose(mu, want, rel_tol=1e-12, abs_tol=1e-15)
            for (mu, _), want in zip(samples, params["grid"])):
        return "disc_samples do not match the mu grid"
    discs = [disc for _, disc in samples]
    if params["verdict"] == "stable" and min(discs) <= 0:
        return "stable verdict with a non-positive discriminant"
    if params["verdict"] == "unstable" and min(discs) >= 0:
        return "unstable verdict without a negative discriminant"
    threshold = out.get("threshold_estimate")
    if params["bisect"]:
        if not isinstance(threshold, float) or \
                abs(threshold - 1.0) > THRESHOLD_TOLERANCE:
            return f"threshold_estimate {threshold!r} not within " \
                   f"{THRESHOLD_TOLERANCE} of 1"
    elif threshold is not None:
        return "threshold_estimate set without a bisection"
    return None


def golden_tables(root, model):
    path = Path(root) / "src" / "mwstab" / "exact" / "golden" / \
        f"model_{model.lower()}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def _diff_golden(dump, golden):
    for section, expected in golden.items():
        if dump.get(section) != expected:
            return f"section {section} differs from the golden table"
    return None


def check_golden(op, stdout, golden):
    lines = stdout.splitlines()
    want = f"model {op.params['model']}: 0 diffs against {len(golden)} " \
           f"transcribed sections"
    if not lines or lines[0] != want:
        return f"first line {lines[0] if lines else ''!r}, expected {want!r}"
    if not lines[-1].startswith("disc = "):
        return "missing leading discriminant line"
    return None


def check_dump_json(op, stdout, golden):
    try:
        dump = _strict_json(stdout)
    except ValueError as exc:
        return f"dump is not strict JSON: {exc}"
    return _diff_golden(dump, golden)


_SECTION = re.compile(r"^\[(\w+)\]$")
_ENTRY = re.compile(r"^  (.+) -> (.+)$")


def check_dump_csv(op, stdout, golden):
    dump, section = {}, None
    lines = stdout.splitlines()
    if not lines or not lines[-1].startswith("disc = "):
        return "missing leading discriminant line"
    for line in lines[:-1]:
        header = _SECTION.match(line)
        entry = _ENTRY.match(line)
        if header:
            section = dump.setdefault(header.group(1), {})
        elif entry and section is not None:
            section[entry.group(1)] = entry.group(2)
        else:
            return f"unparsable dump line {line!r}"
    return _diff_golden(dump, golden)


def check(op, returncode, stdout, root):
    """None if the operation's exit code and output are right."""
    if returncode != 0:
        return f"exit code {returncode}"
    if op.kind == "spectrum":
        return check_spectrum(op, stdout)
    if op.kind == "index":
        return check_index(op, stdout)
    golden = golden_tables(root, op.params["model"])
    return {"golden": check_golden, "dump-json": check_dump_json,
            "dump-csv": check_dump_csv}[op.kind](op, stdout, golden)
