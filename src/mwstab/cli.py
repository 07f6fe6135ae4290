"""Command-line front door: wave solving, spectrum sweeps, stability
verdicts, collision tables, and exact-series dumps.

Output is bit-stable: floats are printed as their shortest round-trip
decimal and rows carry deterministic sort keys, so identical configs give
byte-identical files.  Exit codes: 0 success, 2 indeterminate verdict,
3 solver failure, 4 configuration error.
"""

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from .waves import Model, solve_wave, ConvergenceError, ValidityError
from .bloch import find_collisions, sweep_mus
from .modulation import discriminant_sweep, threshold_bisect
from .exact import build_dump, load_golden, check_against_golden
from .exact.expansions import det_and_discriminant

EXIT_OK = 0
EXIT_INDETERMINATE = 2
EXIT_SOLVER = 3
EXIT_CONFIG = 4


class ConfigError(ValueError):
    """Bad flag, config-file entry, or parameter combination."""


@dataclass(frozen=True)
class RunConfig:
    """Resolved run parameters; flags override config-file entries."""

    model: str = "A"
    gamma: float = 0.0
    k: float = 1.0
    a: float = 0.02
    n_modes: int = 64
    mu_grid: tuple | None = None
    tol: float = 1e-12
    out: str | None = None
    format: str | None = None

    def model_tag(self):
        try:
            return Model(self.model, gamma=self.gamma)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def serialize(self):
        lines = [
            f"model = {self.model}",
            f"gamma = {self.gamma!r}",
            f"k = {self.k!r}",
            f"a = {self.a!r}",
            f"modes = {self.n_modes}",
            f"tol = {self.tol!r}",
        ]
        if self.mu_grid is not None:
            start, stop, count = self.mu_grid
            lines.append(f"mu_grid = {start!r}:{stop!r}:{count}")
        if self.out is not None:
            lines.append(f"out = {self.out}")
        if self.format is not None:
            lines.append(f"format = {self.format}")
        return "\n".join(lines) + "\n"


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
    if not start < stop:
        raise ConfigError("mu grid start must be below stop")
    return (start, stop, count)


_FILE_KEYS = ("model", "gamma", "k", "a", "modes", "mu_grid", "tol", "out",
              "format")


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
        if key not in _FILE_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        entries[key] = value.strip()
    return entries


def resolve_config(args):
    """Merge built-in defaults, config file, and explicit flags."""
    file_entries = {}
    if getattr(args, "config", None):
        file_entries = parse_config_file(args.config)

    def pick(flag_value, file_key, convert, default):
        if flag_value is not None:
            return flag_value
        if file_key in file_entries:
            try:
                return convert(file_entries[file_key])
            except ConfigError:
                raise
            except ValueError as exc:
                raise ConfigError(
                    f"bad config value for {file_key}: {exc}") from None
        return default

    config = RunConfig(
        model=pick(args.model, "model", str, "A"),
        gamma=pick(args.gamma, "gamma", finite_float, 0.0),
        k=pick(args.k, "k", finite_float, 1.0),
        a=pick(args.a, "a", finite_float, 0.02),
        n_modes=pick(args.modes, "modes", int, 64),
        mu_grid=pick(getattr(args, "mu_grid", None), "mu_grid",
                     parse_mu_grid, None),
        tol=pick(args.tol, "tol", finite_float, 1e-12),
        out=pick(getattr(args, "out", None), "out", str, None),
        format=pick(getattr(args, "format", None), "format", str, None),
    )
    if config.model not in ("A", "B"):
        raise ConfigError(f"model must be A or B, got {config.model!r}")
    if config.k <= 0:
        raise ConfigError("k must be positive")
    if config.n_modes < 8:
        raise ConfigError("modes must be at least 8")
    if config.tol <= 0:
        raise ConfigError("tol must be positive")
    if config.format not in (None, "csv", "json"):
        raise ConfigError("format must be csv or json")
    return config


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _float(x):
    return repr(float(x))


def _json(payload, **kwargs):
    return json.dumps(payload, allow_nan=False, **kwargs) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_wave(args):
    config = resolve_config(args)
    branch = solve_wave(config.model_tag(), config.a, config.k,
                        n_modes=config.n_modes, tol=config.tol)
    payload = {
        "model": config.model,
        "gamma": config.gamma,
        "k": config.k,
        "a": config.a,
        "c": branch.c,
        "cos_coeffs": list(branch.eta.cos),
        "residual_norm": branch.residual_norm,
    }
    _emit(_json(payload), config.out)
    return EXIT_OK


def cmd_spectrum(args):
    config = resolve_config(args)
    grid_spec = config.mu_grid or (0.0, 0.5, 201)
    mus = np.linspace(*grid_spec[:2], grid_spec[2])
    branch = solve_wave(config.model_tag(), config.a, config.k,
                        n_modes=config.n_modes, tol=config.tol)
    samples = sweep_mus(config.model_tag(), branch, mus)
    lines = ["mu,re_lambda,im_lambda,branch_id"]
    for sample in samples:
        rows = sorted(zip(sample.branch_ids, sample.eigenvalues),
                      key=lambda row: (row[0], row[1].imag, row[1].real))
        for branch_id, lam in rows:
            lines.append(f"{_float(sample.mu)},{_float(lam.real)},"
                         f"{_float(lam.imag)},{branch_id}")
    _emit("\n".join(lines) + "\n", config.out)
    return EXIT_OK


def cmd_index(args):
    config = resolve_config(args)
    grid_spec = config.mu_grid or (0.005, 0.05, 10)
    mus = np.linspace(*grid_spec[:2], grid_spec[2])
    report = discriminant_sweep(config.model_tag(), config.a, config.k,
                                mus, n_modes=config.n_modes, tol=config.tol)
    threshold = None
    if args.gamma_lo is not None or args.gamma_hi is not None:
        if args.gamma_lo is None or args.gamma_hi is None:
            raise ConfigError("--gamma-lo and --gamma-hi go together")
        if config.model != "B":
            raise ConfigError("the gamma threshold exists for model B only")
        threshold = threshold_bisect(config.k, config.a, args.gamma_lo,
                                     args.gamma_hi, n_modes=config.n_modes,
                                     tol=config.tol)
    payload = {
        "model": config.model,
        "gamma": config.gamma,
        "k": config.k,
        "a": config.a,
        "verdict": report.verdict,
        "max_growth": report.max_growth,
        "disc_samples": [[mu, disc] for mu, disc in report.disc_samples],
        "threshold_estimate": threshold,
    }
    _emit(_json(payload), config.out)
    return EXIT_INDETERMINATE if report.verdict == "indeterminate" \
        else EXIT_OK


def cmd_collisions(args):
    config = resolve_config(args)
    records = find_collisions(n_min=args.n_min, k=config.k)
    lines = ["n,m,mu0,omega"]
    for rec in records:
        lines.append(f"{rec.n},{rec.m},{_float(rec.mu0)},{_float(rec.omega)}")
    _emit("\n".join(lines) + "\n", config.out)
    return EXIT_OK


def _disc_leading_text(variant):
    exact = det_and_discriminant(variant)
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
    if args.check_golden:
        diffs = check_against_golden(config.model)
        golden = load_golden(config.model)
        lines = [f"model {config.model}: {len(diffs)} diffs against "
                 f"{len(golden)} transcribed sections"]
        lines.extend(diffs)
        lines.append("disc = " + _disc_leading_text(config.model))
        _emit("\n".join(lines) + "\n", config.out)
        return EXIT_OK if not diffs else 1
    dump = build_dump(config.model)
    if config.format == "json" or config.format is None:
        text = _json(dump, indent=2, sort_keys=True)
    else:
        rows = []
        for section in sorted(dump):
            rows.append(f"[{section}]")
            rows.extend(f"  {key} -> {val}"
                        for key, val in sorted(dump[section].items()))
        rows.append("disc = " + _disc_leading_text(config.model))
        text = "\n".join(rows) + "\n"
    _emit(text, config.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser plumbing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def build_parser():
    common = _Parser(add_help=False)
    common.add_argument("--model", choices=("A", "B"))
    common.add_argument("--k", type=finite_float)
    common.add_argument("--a", type=finite_float)
    common.add_argument("--gamma", type=finite_float)
    common.add_argument("--modes", type=int)
    common.add_argument("--mu-grid", dest="mu_grid", type=parse_mu_grid,
                        metavar="START:STOP:COUNT")
    common.add_argument("--tol", type=finite_float)
    common.add_argument("--out")
    common.add_argument("--format", choices=("csv", "json"))
    common.add_argument("--config", metavar="PATH")

    parser = _Parser(prog="mwstab",
                     description="periodic traveling waves of two extended "
                                 "Hunter-Saxton models and their "
                                 "modulational stability")
    sub = parser.add_subparsers(dest="command", required=True)

    p_wave = sub.add_parser("wave", parents=[common],
                            help="solve one branch point, emit JSON")
    p_wave.set_defaults(func=cmd_wave)

    p_spec = sub.add_parser("spectrum", parents=[common],
                            help="Floquet sweep of the pencil spectra (CSV)")
    p_spec.set_defaults(func=cmd_spectrum)

    p_index = sub.add_parser("index", parents=[common],
                             help="discriminant sweep and verdict (JSON)")
    p_index.add_argument("--gamma-lo", dest="gamma_lo", type=finite_float)
    p_index.add_argument("--gamma-hi", dest="gamma_hi", type=finite_float)
    p_index.set_defaults(func=cmd_index)

    p_coll = sub.add_parser("collisions", parents=[common],
                            help="zero-amplitude collision table (CSV)")
    p_coll.add_argument("--n-min", dest="n_min", type=int, default=-3)
    p_coll.set_defaults(func=cmd_collisions)

    p_exp = sub.add_parser("expand", parents=[common],
                           help="exact-series canonical dump")
    p_exp.add_argument("--check-golden", dest="check_golden",
                       action="store_true",
                       help="diff the dump against the transcribed tables")
    p_exp.set_defaults(func=cmd_expand)
    return parser


def _report(error, exc, **extra):
    sys.stderr.write(_json({"error": error, "message": str(exc), **extra}))


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
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
