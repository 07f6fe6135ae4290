"""Command-line front door: wave solving, spectrum sweeps, stability
verdicts, collision tables, and exact-series dumps.

Output is bit-stable: floats are printed as their shortest round-trip
decimal and rows carry deterministic sort keys, so identical configs give
byte-identical files.  Exit codes: 0 success, 1 golden diffs
(``expand --check-golden``), 2 indeterminate verdict, 3 solver failure,
4 configuration error.

Each setting a run is resolved from (``RunConfig``) is stated once, in
``_SETTINGS``: its config-file key, from which its flag is spelled, and
the converter that reads its value from either source; a command takes
the flags and keys of the settings it reads alone (``_COMMANDS``).
"""

import json
import sys
from dataclasses import dataclass, fields
from types import SimpleNamespace

import numpy as np

from .waves import (Model, solve_wave, ConvergenceError, ValidityError,
                    DEFAULT_N_MODES, DEFAULT_TOL)
from .bloch import (find_collisions, in_floquet_domain, one_blas_thread,
                    sweep_mus)
from .modulation import discriminant_sweep, threshold_bisect
from .exact import (build_dump, load_golden, check_against_golden,
                    det_and_discriminant)

EXIT_OK = 0
EXIT_GOLDEN_DIFF = 1
EXIT_INDETERMINATE = 2
EXIT_SOLVER = 3
EXIT_CONFIG = 4

#: largest ``--modes``: a spectrum sweep's pencils are dense real
#: (2N+1)^2 matrices, 34 MB each at N = 1024, and it holds four of them
#: (``index`` gathers none, and peaks at 115 MB there); also the deepest
#: ``--n-min``, since no pencil has a mode below -MAX_MODES
MAX_MODES = 1024
#: largest ``--mu-grid`` count, 50 times the default 201-point spectrum
#: grid (the benchmark's grids have 11 and 51 points): ``spectrum`` keeps
#: each point's 2N+1 eigenvalues until it prints, and a count of 1e12
#: failed to allocate its grid
MAX_MU_POINTS = 10_000


class ConfigError(ValueError):
    """Bad flag, config-file entry, or parameter combination."""


@dataclass(frozen=True)
class RunConfig:
    """Resolved run parameters; flags override config-file entries."""

    model: str = "A"
    gamma: float = 0.0
    k: float = 1.0
    a: float = 0.02
    n_modes: int = DEFAULT_N_MODES
    mu_grid: tuple | None = None
    tol: float = DEFAULT_TOL
    out: str | None = None
    format: str | None = None

    def model_tag(self):
        return Model(self.model, gamma=self.gamma)


def finite_float(text):
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def parse_mu_grid(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"mu grid must be start:stop:count, got {text!r}")
    try:
        start, stop = finite_float(parts[0]), finite_float(parts[1])
        count = int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"bad mu grid {text!r}: {exc}") from None
    if count < 2:
        raise ConfigError("mu grid count must be >= 2")
    if count > MAX_MU_POINTS:
        raise ConfigError(f"mu grid count must be at most {MAX_MU_POINTS}")
    if not start < stop:
        raise ConfigError("mu grid start must be below stop")
    return (start, stop, count)


#: every setting: config-file key -> converter of its value, in
#: ``RunConfig``'s field order.  The flag is the key with ``-`` for ``_``
#: (``--mu-grid``), and ``resolve_config`` checks the ranges of values
#: from both sources; defaults are ``RunConfig``'s
_SETTINGS = {"model": str, "gamma": finite_float, "k": finite_float,
             "a": finite_float, "modes": int, "mu_grid": parse_mu_grid,
             "tol": finite_float, "out": str, "format": str}


def _convert(convert, text, source):
    """``convert(text)``; a ``ValueError`` becomes a ``ConfigError`` that
    names the ``source``, a flag or a config-file entry."""
    try:
        return convert(text)
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from None


def parse_config_file(path, keys):
    """Flat ``key = value`` manifest of the settings ``keys``; '#' comments."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in keys:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        entries[key] = value.strip()
    return entries


def resolve_config(args):
    """Merge built-in defaults, config file, and explicit flags; the file
    may set only the settings ``args`` has (``parse_args``), and neither
    source a setting the run would not read: ``gamma`` with model A,
    ``format`` with ``--check-golden``."""
    path = getattr(args, "config", None)
    entries = parse_config_file(path, [key for key in _SETTINGS
                                       if hasattr(args, key)]) if path else {}
    values = {}
    for field, (key, convert) in zip(fields(RunConfig), _SETTINGS.items()):
        value = getattr(args, key, None)
        if value is None and key in entries:
            value = _convert(convert, entries[key],
                             f"bad config value for {key}")
        if value is not None:
            values[field.name] = value
    config = RunConfig(**values)
    if config.model not in ("A", "B"):
        raise ConfigError(f"model must be A or B, got {config.model!r}")
    if "gamma" in values and config.model == "A":
        raise ConfigError("gamma is a setting of model B only")
    if "format" in values and getattr(args, "check_golden", False):
        raise ConfigError("--check-golden prints its diff as text and takes "
                          "no format")
    if config.k <= 0:
        raise ConfigError("k must be positive")
    if config.n_modes < 8:
        raise ConfigError("modes must be at least 8")
    if config.n_modes > MAX_MODES:
        raise ConfigError(f"modes must be at most {MAX_MODES}")
    if config.tol <= 0:
        raise ConfigError("tol must be positive")
    if config.format not in (None, "csv", "json"):
        raise ConfigError(f"format must be csv or json, got {config.format!r}")
    return config


def _emit(text, out_path):
    _emit_chunks((text,), out_path)


def _emit_chunks(chunks, out_path):
    """Write the strings ``chunks`` yields, in turn, to stdout or to
    ``out_path``, opened only now: a run that failed before it has left no
    file."""
    if not out_path:
        sys.stdout.writelines(chunks)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(chunks)
    except OSError as exc:
        raise ConfigError(f"cannot write output file: {exc}") from None


def _float(x):
    return repr(float(x))


def _json(payload, **kwargs):
    return json.dumps(payload, allow_nan=False, **kwargs) + "\n"


def _run_keys(config):
    """The wave a JSON result is about, in the units of the run."""
    return {"model": config.model, "gamma": config.gamma, "k": config.k,
            "a": config.a}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

@one_blas_thread()
def cmd_wave(args):
    config = resolve_config(args)
    branch = solve_wave(config.model_tag(), config.a, config.k,
                        n_modes=config.n_modes, tol=config.tol)
    payload = {
        **_run_keys(config),
        "c": branch.c,
        "cos_coeffs": list(branch.eta.cos),
        "residual_norm": branch.residual_norm,
    }
    _emit(_json(payload), config.out)
    return EXIT_OK


@one_blas_thread()
def cmd_spectrum(args):
    config = resolve_config(args)
    start, stop, count = config.mu_grid or (0.0, 0.5, 201)
    if not (in_floquet_domain(start) and in_floquet_domain(stop)):
        raise ConfigError(f"mu grid must lie in the Floquet domain "
                          f"(-1/2, 1/2], got {start!r}:{stop!r}")
    mus = np.linspace(start, stop, count)
    branch = solve_wave(config.model_tag(), config.a, config.k,
                        n_modes=config.n_modes, tol=config.tol)
    samples = sweep_mus(config.model_tag(), branch, mus)
    _emit_chunks(_spectrum_rows(samples, branch.units.frequency), config.out)
    return EXIT_OK


def _spectrum_rows(samples, frequency):
    """The spectrum CSV, one chunk per sample: rows ordered by the
    ``k = 1`` values, printed at ``k``."""
    yield "mu,re_lambda,im_lambda,branch_id\n"
    for sample in samples:
        lam = sample.eigenvalues
        order = np.lexsort((lam.real, lam.imag, sample.branch_ids))
        mu = _float(sample.mu)
        yield "".join(
            f"{mu},{re!r},{im!r},{branch_id}\n" for branch_id, re, im in zip(
                sample.branch_ids[order].tolist(),
                frequency(lam.real[order]).tolist(),
                frequency(lam.imag[order]).tolist()))


@one_blas_thread()
def cmd_index(args):
    config = resolve_config(args)
    bisect = args.gamma_lo is not None or args.gamma_hi is not None
    if bisect:
        if args.gamma_lo is None or args.gamma_hi is None:
            raise ConfigError("--gamma-lo and --gamma-hi go together")
        if config.model != "B":
            raise ConfigError("the gamma threshold exists for model B only")
    mus = np.linspace(*config.mu_grid or (0.005, 0.05, 10))
    report = discriminant_sweep(config.model_tag(), config.a, config.k,
                                mus, n_modes=config.n_modes, tol=config.tol)
    threshold = None
    if bisect:
        threshold = threshold_bisect(config.k, config.a, args.gamma_lo,
                                     args.gamma_hi, n_modes=config.n_modes,
                                     tol=config.tol)
    payload = {
        **_run_keys(config),
        "verdict": report.verdict,
        "max_growth": report.max_growth,
        "disc_samples": [[mu, disc] for mu, disc in report.disc_samples],
        "disc_at_zero": report.disc_at_zero,
        "band_edge": report.band_edge,
        "threshold_estimate": threshold,
    }
    _emit(_json(payload), config.out)
    return EXIT_INDETERMINATE if report.verdict == "indeterminate" \
        else EXIT_OK


def cmd_collisions(args):
    config = resolve_config(args)
    bound = min(max(args.n_min, -MAX_MODES), -3)  # -2 never collides
    if args.n_min != bound:
        side = "least" if args.n_min < bound else "most"
        raise ConfigError(f"n-min must be at {side} {bound}")
    records = find_collisions(n_min=args.n_min, k=config.k)
    lines = ["n,m,mu0,omega"]
    for rec in records:
        lines.append(f"{rec.n},{rec.m},{_float(rec.mu0)},{_float(rec.omega)}")
    _emit("\n".join(lines) + "\n", config.out)
    return EXIT_OK


def _disc_leading_text(exact):
    pieces = []
    for (p, q, _, _), val in sorted(exact.disc_leading().terms.items(),
                                    key=lambda item: (-item[0][1],
                                                      item[0][0])):
        factors = [val.factored()]
        if q:
            factors.append(f"mu^{q}")
        if p:
            factors.append(f"a^{p}")
        pieces.append("*".join(factors))
    return " + ".join(pieces) + " + higher order"


def cmd_expand(args):
    config = resolve_config(args)
    exact = det_and_discriminant(config.model)
    if args.check_golden:
        golden = load_golden(config.model)
        diffs = check_against_golden(exact, golden)
        lines = [f"model {config.model}: {len(diffs)} diffs against "
                 f"{len(golden)} transcribed sections"]
        lines.extend(diffs)
        lines.append("disc = " + _disc_leading_text(exact))
        _emit("\n".join(lines) + "\n", config.out)
        return EXIT_GOLDEN_DIFF if diffs else EXIT_OK
    dump = build_dump(exact)
    if config.format == "json" or config.format is None:
        text = _json(dump, indent=2, sort_keys=True)
    else:
        rows = []
        for section in sorted(dump):
            rows.append(f"[{section}]")
            rows.extend(f"  {key} -> {val}"
                        for key, val in sorted(dump[section].items()))
        rows.append("disc = " + _disc_leading_text(exact))
        text = "\n".join(rows) + "\n"
    _emit(text, config.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

USAGE = """\
usage: mwstab COMMAND [--flag value | --flag=value]...

periodic traveling waves of two extended Hunter-Saxton models and their
modulational stability

commands, and the flags each takes besides --config PATH:
  wave        solve one branch point, emit JSON
              --model {A,B} --gamma G --k K --a A --modes N --tol T --out P
  spectrum    Floquet sweep of the pencil spectra (CSV)
              the flags of wave and --mu-grid START:STOP:COUNT
  index       discriminant sweep and verdict (JSON)
              the flags of spectrum and --gamma-lo G --gamma-hi G (model B)
  collisions  zero-amplitude collision table (CSV)
              --k K --out P --n-min N (default -3, in [-1024, -3])
  expand      exact-series canonical dump (or --check-golden: its diff)
              --model {A,B} --out P --format {csv,json} --check-golden

A config file holds `key = value` lines, one key per setting flag above
(mu_grid for --mu-grid).  A flag or key the command does not read is a
configuration error: so are gamma with model A and format with
--check-golden.  Flags are spelled in full; -h, --help prints this.
"""


#: command -> (function, the settings it reads, its own flags and their
#: defaults); a None converter marks a switch: no value, default False
_COMMANDS = {
    "wave": (cmd_wave, "model gamma k a modes tol out", {}, {}),
    "spectrum": (cmd_spectrum, "model gamma k a modes mu_grid tol out", {},
                 {}),
    "index": (cmd_index, "model gamma k a modes mu_grid tol out",
              {"--gamma-lo": finite_float, "--gamma-hi": finite_float}, {}),
    "collisions": (cmd_collisions, "k out", {"--n-min": int}, {"n_min": -3}),
    "expand": (cmd_expand, "model out format", {"--check-golden": None}, {}),
}

_HELP = ("-h", "--help")


def _attribute(flag):
    return flag[2:].replace("-", "_")


def _print_usage(args):
    sys.stdout.write(USAGE)
    return EXIT_OK


def parse_args(argv):
    """The command's flags as attributes, ``func`` the function to call.

    ``argv[0]`` is the command; each flag is ``--flag value`` (the value
    taken as it is, a leading ``-`` included) or ``--flag=value``, spelled
    in full.  ``-h`` or ``--help`` in place of the command or a flag gives
    a ``func`` that prints the usage text.
    """
    argv = list(argv)
    if not argv:
        raise ConfigError(f"a command is required: {', '.join(_COMMANDS)}")
    command, rest = argv[0], argv[1:]
    if command in _HELP:
        return SimpleNamespace(func=_print_usage)
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r} (choose from "
                          f"{', '.join(_COMMANDS)})")
    func, reads, own, defaults = _COMMANDS[command]
    flags = {"--" + key.replace("_", "-"): _SETTINGS[key]
             for key in reads.split()} | {"--config": str, **own}
    values = {_attribute(flag): None if convert else False
              for flag, convert in flags.items()}
    values.update(defaults, func=func)
    tokens = iter(rest)
    for token in tokens:
        if token in _HELP:
            return SimpleNamespace(func=_print_usage)
        flag, eq, text = token.partition("=")
        if flag not in flags:
            raise ConfigError(f"unrecognized argument {token!r} for "
                              f"{command}")
        convert = flags[flag]
        if convert is None:
            if eq:
                raise ConfigError(f"argument {flag}: takes no value")
            values[_attribute(flag)] = True
            continue
        if not eq:
            text = next(tokens, None)
            if text is None:
                raise ConfigError(f"argument {flag}: expected a value")
        values[_attribute(flag)] = _convert(convert, text, f"argument {flag}")
    return SimpleNamespace(**values)


def _report(error, exc, **extra):
    sys.stderr.write(_json({"error": error, "message": str(exc), **extra}))


def main(argv=None):
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        return args.func(args)
    except ValidityError as exc:
        _report("validity", exc)
        return EXIT_CONFIG
    except ConvergenceError as exc:
        residual = exc.residual_norm
        _report("convergence", exc, residual_norm=float(residual)
                if np.isfinite(residual) else None)
        return EXIT_SOLVER
    except ValueError as exc:  # a ConfigError among them
        _report("config", exc)
        return EXIT_CONFIG
    except ArithmeticError as exc:
        _report("numeric", exc)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
