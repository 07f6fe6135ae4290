"""Command-line front door: wave solving, spectrum sweeps, stability
verdicts, collision tables, and exact-series dumps.

Output is bit-stable: floats are printed as their shortest round-trip
decimal and rows carry deterministic sort keys, so identical configs give
byte-identical files.  Exit codes: 0 success, 1 golden diffs
(``expand --check-golden``), 2 indeterminate verdict, 3 solver failure,
4 configuration error.

Each setting a run is resolved from (``RunConfig``) is stated once, in
``_SETTINGS``: its config-file key, from which its flag is spelled, and
the converter that reads its value from either source.
"""

import functools
import json
import sys
from dataclasses import astuple, dataclass, fields
from types import SimpleNamespace

import numpy as np

from .waves import (Model, solve_wave, ConvergenceError, ValidityError,
                    DEFAULT_N_MODES, DEFAULT_TOL)
from .bloch import find_collisions, one_blas_thread, sweep_mus
from .modulation import discriminant_sweep, threshold_bisect
from .exact import (build_dump, load_golden, check_against_golden,
                    det_and_discriminant)

EXIT_OK = 0
EXIT_GOLDEN_DIFF = 1
EXIT_INDETERMINATE = 2
EXIT_SOLVER = 3
EXIT_CONFIG = 4

#: largest ``--modes``: the pencils are dense real (2N+1)^2 matrices,
#: 34 MB each at N = 1024, and a branch holds four of them; also the
#: deepest ``--n-min``, since no pencil has a mode below -MAX_MODES
MAX_MODES = 1024
#: largest ``--mu-grid`` count, 50 times the default 201-point spectrum
#: grid (the benchmark's grids have 11 and 51 points): ``spectrum`` keeps
#: each point's 2N+1 eigenvalues and CSV rows until it prints, and a count
#: of 1e12 failed to allocate its grid
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

    def serialize(self):
        """The config file that resolves to this configuration."""
        return "".join(f"{key} = {_text(value)}\n" for key, value
                       in zip(_SETTINGS, astuple(self)) if value is not None)


def _text(value):
    """A setting's value as a config file spells it."""
    if isinstance(value, tuple):
        return ":".join(map(_text, value))
    return value if isinstance(value, str) else repr(value)


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


def parse_config_file(path):
    """Flat ``key = value`` manifest; '#' starts a comment."""
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
        if key not in _SETTINGS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        entries[key] = value.strip()
    return entries


def resolve_config(args):
    """Merge built-in defaults, config file, and explicit flags."""
    path = getattr(args, "config", None)
    entries = parse_config_file(path) if path else {}
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
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
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

def _on_one_blas_thread(command):
    """The command run on one OpenBLAS thread (``bloch.one_blas_thread``),
    so that none of its bytes depend on the host's thread count."""
    @functools.wraps(command)
    def run(args):
        with one_blas_thread():
            return command(args)
    return run


@_on_one_blas_thread
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


@_on_one_blas_thread
def cmd_spectrum(args):
    config = resolve_config(args)
    grid_spec = config.mu_grid or (0.0, 0.5, 201)
    mus = np.linspace(*grid_spec[:2], grid_spec[2])
    branch = solve_wave(config.model_tag(), config.a, config.k,
                        n_modes=config.n_modes, tol=config.tol)
    samples = sweep_mus(config.model_tag(), branch, mus)
    frequency = branch.units.frequency
    del branch  # and its linearization, before the rows are formatted
    lines = ["mu,re_lambda,im_lambda,branch_id"]
    for sample in samples:
        lam = sample.eigenvalues
        # ordered by the k = 1 values, printed at k
        order = np.lexsort((lam.real, lam.imag, sample.branch_ids))
        mu = _float(sample.mu)
        lines.extend(
            f"{mu},{re!r},{im!r},{branch_id}" for branch_id, re, im in zip(
                sample.branch_ids[order].tolist(),
                frequency(lam.real[order]).tolist(),
                frequency(lam.imag[order]).tolist()))
    _emit("\n".join(lines) + "\n", config.out)
    return EXIT_OK


@_on_one_blas_thread
def cmd_index(args):
    config = resolve_config(args)
    bisect = args.gamma_lo is not None or args.gamma_hi is not None
    if bisect:
        if args.gamma_lo is None or args.gamma_hi is None:
            raise ConfigError("--gamma-lo and --gamma-hi go together")
        if config.model != "B":
            raise ConfigError("the gamma threshold exists for model B only")
    grid_spec = config.mu_grid or (0.005, 0.05, 10)
    mus = np.linspace(*grid_spec[:2], grid_spec[2])
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
    if args.n_min < -MAX_MODES:
        raise ConfigError(f"n-min must be at least -{MAX_MODES}")
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

commands:
  wave        solve one branch point, emit JSON
  spectrum    Floquet sweep of the pencil spectra (CSV)
  index       discriminant sweep and verdict (JSON)
  collisions  zero-amplitude collision table (CSV)
  expand      exact-series canonical dump

common flags:
  --model {A,B}  --k K  --a A  --gamma GAMMA  --modes N
  --mu-grid START:STOP:COUNT  --tol TOL  --out PATH  --format {csv,json}
  --config PATH

command flags:
  index       --gamma-lo G --gamma-hi G  (model-B threshold bracket)
  collisions  --n-min N  (default -3, at least -1024)
  expand      --check-golden  (diff the dump against the transcribed tables)

Flags are spelled in full.  -h, --help prints this text.
"""


#: flag -> converter of its value; ``--mu-grid`` sets ``args.mu_grid``
_COMMON_FLAGS = {"--" + key.replace("_", "-"): convert
                 for key, convert in _SETTINGS.items()} | {"--config": str}

#: command -> (function, its own flags, their defaults); a converter of
#: None marks a switch, which takes no value and defaults to False
_COMMANDS = {
    "wave": (cmd_wave, {}, {}),
    "spectrum": (cmd_spectrum, {}, {}),
    "index": (cmd_index, {"--gamma-lo": finite_float,
                          "--gamma-hi": finite_float}, {}),
    "collisions": (cmd_collisions, {"--n-min": int}, {"n_min": -3}),
    "expand": (cmd_expand, {"--check-golden": None}, {}),
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
    func, own, defaults = _COMMANDS[command]
    flags = {**_COMMON_FLAGS, **own}
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
    except ConfigError as exc:
        _report("config", exc)
        return EXIT_CONFIG
    except ValidityError as exc:
        _report("validity", exc)
        return EXIT_CONFIG
    except ConvergenceError as exc:
        residual = exc.residual_norm
        _report("convergence", exc, residual_norm=float(residual)
                if np.isfinite(residual) else None)
        return EXIT_SOLVER
    except ValueError as exc:
        _report("config", exc)
        return EXIT_CONFIG
    except ArithmeticError as exc:
        _report("numeric", exc)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
