"""Command-line surface: comparison tables, frequency reports, spectra CSV.

Four subcommands:

  table1   classical relativistic action from four schemes vs quadrature
  table2   quantum level corrections from four schemes vs diagonalization
  freq     weak-relativistic frequency from formula, dJ/dE, and trajectory
  levels   spectrum of one scheme as CSV, with an oracle column

Configuration comes from defaults, then an optional flat key=value config
file, then command-line flags (later wins).  The ACTIONVAR_TOL environment
variable overrides the relative tolerance used to flag deviations.
Exit codes: 0 success, 1 usage/config error, 2 oracle convergence failure,
3 I/O error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Callable

from .classical import (
    action_fullrel,
    action_quadrature,
    action_wr_pdx,
    action_wr_xdp_first_order,
    frequency_from_action,
    frequency_wr_closed,
)
from .core import (
    ActionVarError,
    BasisNotConverged,
    ConfigInvalid,
    EigensolverStalled,
    EnergyDriftExceeded,
    IoFailure,
    NoPeriodFound,
    OscillatorParams,
    QuadratureNotConverged,
    SchemeTag,
    SpectrumEntry,
    UnknownScheme,
    energy_point,
    make_params,
)
from .oracles import (
    HamiltonianKind,
    HamiltonianSpec,
    diagonalize,
    jwkb_levels_wr,
    rk4_period,
    rs_shift_p4,
)
from .quantum import eigenvalues_aho, eigenvalues_wr_pdx, eigenvalues_wr_xdp

__all__ = ["RunConfig", "main", "cmd_table1", "cmd_table2", "cmd_frequency", "cmd_levels"]

_CONVERGENCE_ERRORS = (
    QuadratureNotConverged,
    EnergyDriftExceeded,
    NoPeriodFound,
    BasisNotConverged,
    EigensolverStalled,
)

_DEFAULT_TOL = 1e-3


@dataclass(frozen=True)
class _Scheme:
    """One printed scheme and the oracle kind that checks it.

    fn is an action function (params, ep) -> ActionResult when the oracle
    is FULL_REL quadrature, else a level function
    (spec, n) -> (energy, correction) on the Hamiltonian the oracle solves.
    """

    fn: Callable
    tag: SchemeTag
    oracle: HamiltonianKind
    note: str


def _pair(ev: SpectrumEntry) -> tuple[float, float]:
    return ev.energy, ev.correction


def _hw(spec: HamiltonianSpec) -> float:
    return spec.params.hbar * spec.params.omega0


def _rs_level(spec: HamiltonianSpec, n: int) -> tuple[float, float]:
    shift = rs_shift_p4(spec.params, n)
    return (n + 0.5) * _hw(spec) + shift, shift


# table1 prints the FULL_REL schemes, table2 the WEAK_REL ones, and levels
# takes any scheme that is not FULL_REL.
_SCHEMES = {
    "fullrel_pdx": _Scheme(
        lambda p, ep: action_fullrel(p, ep, SchemeTag.CLASSICAL_FULLREL_PDX),
        SchemeTag.CLASSICAL_FULLREL_PDX, HamiltonianKind.FULL_REL,
        "tabulated series in eps/(2+eps), coordinate contour",
    ),
    "fullrel_xdp": _Scheme(
        lambda p, ep: action_fullrel(p, ep, SchemeTag.CLASSICAL_FULLREL_XDP),
        SchemeTag.CLASSICAL_FULLREL_XDP, HamiltonianKind.FULL_REL,
        "tabulated series in eps, momentum contour",
    ),
    "weakrel_pdx": _Scheme(
        action_wr_pdx,
        SchemeTag.CLASSICAL_WR_PDX, HamiltonianKind.FULL_REL,
        "(e/omega0)(1 + 3 eps/16)",
    ),
    "weakrel_xdp": _Scheme(
        action_wr_xdp_first_order,
        SchemeTag.CLASSICAL_WR_XDP, HamiltonianKind.FULL_REL,
        "momentum form truncated at order eps, (e/omega0)(1 + 3 eps/16)",
    ),
    "sho": _Scheme(
        lambda spec, n: ((n + 0.5) * _hw(spec), 0.0),
        SchemeTag.QUANTUM_SHO_PDX, HamiltonianKind.SHO,
        "harmonic spectrum (n + 1/2) hbar omega0",
    ),
    "wr-pdx": _Scheme(
        lambda spec, n: _pair(eigenvalues_wr_pdx(spec.params, n)),
        SchemeTag.QUANTUM_WR_PDX, HamiltonianKind.WEAK_REL,
        "coordinate-form first-order spectrum",
    ),
    "wr-xdp": _Scheme(
        lambda spec, n: _pair(eigenvalues_wr_xdp(spec.params, n)),
        SchemeTag.QUANTUM_WR_XDP, HamiltonianKind.WEAK_REL,
        "momentum-form first-order spectrum",
    ),
    "jwkb": _Scheme(
        lambda spec, n: _pair(jwkb_levels_wr(spec.params, n)),
        SchemeTag.JWKB_WR, HamiltonianKind.WEAK_REL,
        "semiclassical discretization of the classical action",
    ),
    "rs": _Scheme(
        _rs_level,
        SchemeTag.RAYLEIGH_SCHRODINGER, HamiltonianKind.WEAK_REL,
        "first-order expectation value of the p^4 term",
    ),
    "aho": _Scheme(
        lambda spec, n: _pair(eigenvalues_aho(spec.params, spec.delta, n)),
        SchemeTag.QUANTUM_AHO_PDX, HamiltonianKind.QUARTIC_AHO,
        "quartic-anharmonic first-order spectrum",
    ),
}

_LEVEL_SCHEMES = [n for n, s in _SCHEMES.items() if s.oracle is not HamiltonianKind.FULL_REL]

# Per oracle kind: its name in the output and how it solves that Hamiltonian.
_ORACLES = {
    HamiltonianKind.FULL_REL: ("quadrature", "Gauss-Legendre contour integral oracle"),
    HamiltonianKind.WEAK_REL: ("diag", "ladder-basis diagonalization oracle"),
    HamiltonianKind.QUARTIC_AHO: ("diag", "ladder-basis diagonalization oracle"),
    HamiltonianKind.SHO: ("exact", "closed-form harmonic levels (n + 1/2) hbar omega0"),
}


# levels flags that only some oracle Hamiltonians read: --ratio sets c,
# which only the weak-relativistic kinetic term contains, and --delta is
# the quartic strength.
_LEVELS_FLAG_KINDS = {"ratio": HamiltonianKind.WEAK_REL, "delta": HamiltonianKind.QUARTIC_AHO}


def _checked_by(kind: HamiltonianKind) -> list[str]:
    return [name for name, s in _SCHEMES.items() if s.oracle is kind]


@dataclass
class RunConfig:
    """Resolved settings for one CLI run."""

    params: OscillatorParams
    epsilon_list: list[float] = field(default_factory=lambda: [0.01, 0.05, 0.1])
    level_ratio: float = 0.01
    n_max: int = 10
    delta: float = 0.0
    output_path: str | None = None
    show_scheme: bool = False
    tolerance: float = _DEFAULT_TOL

    def __post_init__(self) -> None:
        for eps in self.epsilon_list:
            if not 0.0 <= eps < 0.5:
                raise ConfigInvalid(f"eps values must lie in [0, 1/2), got {eps}")
        if self.n_max < 0:
            raise ConfigInvalid(f"nmax must be >= 0, got {self.n_max}")
        if self.level_ratio < 0:
            raise ConfigInvalid(f"ratio must be >= 0, got {self.level_ratio}")

    def ratio_params(self) -> OscillatorParams:
        """Params whose hbar*omega0/mc^2 equals level_ratio (c adjusted)."""
        p = self.params
        if self.level_ratio == 0:
            return make_params(p.m, p.k, 1e9, p.hbar)
        c = math.sqrt(p.hbar * p.omega0 / (self.level_ratio * p.m))
        return make_params(p.m, p.k, c, p.hbar)


def _emit(rows: list[list], header: list[str], config: RunConfig) -> None:
    """Print rows as an aligned table, and write them as CSV if asked."""
    lines = [header] + [
        [v if isinstance(v, str) else format(float(v), ".12g") for v in row] for row in rows
    ]
    if config.output_path:
        try:
            with open(config.output_path, "w", encoding="ascii") as fh:
                fh.write("\n".join(",".join(line) for line in lines) + "\n")
        except OSError as exc:
            raise IoFailure(f"cannot write {config.output_path}: {exc}") from exc
    widths = [max(len(h), 14) for h in header]
    for line in lines:
        print("  ".join(c.ljust(w) for c, w in zip(line, widths)))


def _print_scheme_notes(names: list[str]) -> None:
    """One line per scheme, then one naming what their shared oracle solves."""
    print("# column schemes:")
    for name in names:
        print(f"#   {name}: {_SCHEMES[name].tag.value} -- {_SCHEMES[name].note}")
    kind = _SCHEMES[names[0]].oracle
    oracle_name, note = _ORACLES[kind]
    print(f"#   {oracle_name}: {kind.value} -- {note}")
    print()


def cmd_table1(config: RunConfig) -> int:
    """Classical relativistic action, four schemes plus quadrature oracle."""
    columns = _checked_by(HamiltonianKind.FULL_REL)
    header = ["eps", *columns, "quadrature", "max_pairwise_dev"]
    if config.show_scheme:
        _print_scheme_notes(columns)
    p = config.params
    rows = []
    for eps in config.epsilon_list:
        if eps == 0.0:
            rows.append([eps, *[1.0] * (len(columns) + 1), 0.0])
            continue
        e = eps * p.rest_energy
        ep = energy_point(p, e)
        unit = e / p.omega0
        vals = [_SCHEMES[name].fn(p, ep).j_value / unit for name in columns]
        oracle = action_quadrature(HamiltonianSpec(HamiltonianKind.FULL_REL, p), e) / unit
        spread = max(vals + [oracle]) - min(vals + [oracle])
        rows.append([eps, *vals, oracle, spread])
    _emit(rows, header, config)
    return 0


def cmd_table2(config: RunConfig) -> int:
    """Quantum level corrections, four schemes plus diagonalization oracle.

    All correction columns are in units of hbar*omega0.
    """
    columns = _checked_by(HamiltonianKind.WEAK_REL)
    header = ["n", *columns, "diag", "max_dev_from_diag"]
    if config.show_scheme:
        _print_scheme_notes(columns)
    spec = _oracle_spec(HamiltonianKind.WEAK_REL, config)
    hw = _hw(spec)
    diag_shift = _oracle_shifts(spec, config.n_max)
    rows = []
    for n in range(config.n_max + 1):
        vals = [_SCHEMES[name].fn(spec, n)[1] / hw for name in columns]
        oracle = diag_shift[n]
        rows.append([n, *vals, oracle, max(abs(v - oracle) for v in vals)])
    _emit(rows, header, config)
    return 0


def _oracle_spec(kind: HamiltonianKind, config: RunConfig) -> HamiltonianSpec:
    # c does not enter the quartic oscillator, so every kind can share
    # ratio_params; only the quartic one takes delta.
    delta = config.delta if kind is HamiltonianKind.QUARTIC_AHO else 0.0
    return HamiltonianSpec(kind, config.ratio_params(), delta=delta)


def _oracle_shifts(spec: HamiltonianSpec, n_max: int) -> list[float]:
    """Oracle shifts from (n + 1/2) hbar omega0 in units of hbar omega0."""
    if spec.kind is HamiltonianKind.SHO:
        return [0.0] * (n_max + 1)
    hw = _hw(spec)
    basis = 32
    while basis < 4 * (n_max + 1):
        basis *= 2
    eigs = diagonalize(spec, basis, n_levels=n_max + 1)
    return [(eigs[n] - (n + 0.5) * hw) / hw for n in range(n_max + 1)]


def cmd_frequency(config: RunConfig) -> int:
    """Weak-relativistic frequency: closed form, dJ/dE, and trajectory."""
    header = ["eps", "omega_closed", "omega_djde", "omega_rk4", "shift_over_eps"]
    p = config.params
    w0 = p.omega0
    rows = []
    for eps in config.epsilon_list:
        if eps == 0.0:
            rows.append([eps, w0, w0, w0, 3.0 / 8.0])
            continue
        e = eps * p.rest_energy
        ep = energy_point(p, e)
        spec = HamiltonianSpec(HamiltonianKind.WEAK_REL, p)
        closed = frequency_wr_closed(p, ep)
        djde = frequency_from_action(lambda en: action_quadrature(spec, en), e)
        rk4 = 2.0 * math.pi / rk4_period(spec, e)
        shift = (w0 / rk4 - 1.0) / eps
        rows.append([eps, closed, djde, rk4, shift])
    _emit(rows, header, config)
    return 0


def cmd_levels(scheme: str, config: RunConfig) -> int:
    """Spectrum of one scheme with its oracle's energy beside each level."""
    if scheme not in _LEVEL_SCHEMES:
        raise UnknownScheme(f"no spectrum scheme named {scheme!r}")
    if config.show_scheme:
        _print_scheme_notes([scheme])
    entry = _SCHEMES[scheme]
    spec = _oracle_spec(entry.oracle, config)
    hw = _hw(spec)
    levels = [entry.fn(spec, n) for n in range(config.n_max + 1)]
    shifts = _oracle_shifts(spec, config.n_max)
    rows = []
    for n, (energy, correction) in enumerate(levels):
        oe = (n + 0.5) * hw + shifts[n] * hw
        rel = abs(energy - oe) / max(abs(oe), 1e-300)
        rows.append([n, energy, correction, oe, rel, str(rel <= config.tolerance)])
    header = ["n", "energy", "correction", "oracle_energy", "rel_diff", "ok"]
    _emit(rows, header, config)
    return 0


def _warn_ignored_flags(args: argparse.Namespace) -> None:
    """One stderr warning per levels flag the chosen scheme does not read."""
    kind = _SCHEMES[args.scheme].oracle
    for flag, used_by in _LEVELS_FLAG_KINDS.items():
        if getattr(args, flag) is not None and kind is not used_by:
            print(
                f"actionvar: warning: --{flag} does not apply to scheme "
                f"{args.scheme!r} and is ignored",
                file=sys.stderr,
            )


# -- configuration plumbing ---------------------------------------------------


def _parse_units(text: str) -> dict[str, float]:
    out = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ConfigInvalid(f"units entry {item!r} is not key=value")
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in ("m", "k", "hbar", "c"):
            raise ConfigInvalid(f"unknown unit key {key!r}")
        try:
            out[key] = float(value)
        except ValueError as exc:
            raise ConfigInvalid(f"bad unit value in {item!r}") from exc
    return out


def _read_config_file(path: str) -> dict[str, str]:
    out = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigInvalid(f"{path}:{line_no}: expected key = value")
                key, _, value = line.partition("=")
                out[key.strip()] = value.strip()
    except OSError as exc:
        raise IoFailure(f"cannot read config {path}: {exc}") from exc
    return out


def _build_config(args: argparse.Namespace) -> RunConfig:
    settings: dict[str, str] = {}
    if args.config:
        settings = _read_config_file(args.config)

    def pick(name: str, flag_value):
        if flag_value is not None:
            return flag_value
        return settings.get(name)

    units = {"m": 1.0, "k": 1.0, "hbar": 1.0, "c": 10.0}
    units_text = pick("units", args.units)
    if units_text:
        units.update(_parse_units(units_text))
    params = make_params(units["m"], units["k"], units["c"], units["hbar"])

    eps_text = pick("eps", getattr(args, "eps", None))
    if eps_text:
        try:
            eps_list = [float(v) for v in str(eps_text).split(",") if v.strip()]
        except ValueError as exc:
            raise ConfigInvalid(f"bad eps list {eps_text!r}") from exc
    else:
        eps_list = [0.01, 0.05, 0.1]

    def pick_float(name: str, flag_value, default: float) -> float:
        raw = pick(name, flag_value)
        if raw is None:
            return default
        try:
            return float(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigInvalid(f"bad value for {name}: {raw!r}") from exc

    def pick_int(name: str, flag_value, default: int) -> int:
        raw = pick(name, flag_value)
        if raw is None:
            return default
        try:
            return int(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigInvalid(f"bad value for {name}: {raw!r}") from exc

    tol = _DEFAULT_TOL
    env_tol = os.environ.get("ACTIONVAR_TOL")
    if env_tol:
        try:
            tol = float(env_tol)
        except ValueError as exc:
            raise ConfigInvalid(f"bad ACTIONVAR_TOL {env_tol!r}") from exc

    return RunConfig(
        params=params,
        epsilon_list=eps_list,
        level_ratio=pick_float("ratio", getattr(args, "ratio", None), 0.01),
        n_max=pick_int("nmax", getattr(args, "nmax", None), 10),
        delta=pick_float("delta", getattr(args, "delta", None), 0.0),
        output_path=pick("csv", args.csv),
        show_scheme=bool(args.show_scheme),
        tolerance=tol,
    )


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1 on usage errors, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def _make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="actionvar", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="flat key = value config file")
        sp.add_argument("--units", help="comma list like m=1,k=1,hbar=1,c=10")
        sp.add_argument("--csv", help="write CSV to this path")
        sp.add_argument("--show-scheme", action="store_true", help="print per-column scheme tags")

    sp = sub.add_parser("table1", parents=[], help="classical action comparison")
    sp.add_argument("--eps", help="comma list of eps values")
    common(sp)

    sp = sub.add_parser("table2", help="quantum correction comparison")
    sp.add_argument("--ratio", type=float, help="hbar*omega0 / m c^2")
    sp.add_argument("--nmax", type=int, help="highest quantum number")
    common(sp)

    sp = sub.add_parser("freq", help="weak-relativistic frequency report")
    sp.add_argument("--eps", help="comma list of eps values")
    common(sp)

    sp = sub.add_parser("levels", help="spectrum CSV for one scheme")
    sp.add_argument("--scheme", required=True, choices=_LEVEL_SCHEMES)
    sp.add_argument("--ratio", type=float, help="hbar*omega0 / m c^2")
    sp.add_argument("--nmax", type=int, help="highest quantum number")
    sp.add_argument("--delta", type=float, help="quartic strength (aho scheme)")
    common(sp)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _make_parser()
    args = parser.parse_args(argv)
    try:
        config = _build_config(args)
        if args.command == "table1":
            return cmd_table1(config)
        if args.command == "table2":
            return cmd_table2(config)
        if args.command == "freq":
            return cmd_frequency(config)
        if args.command == "levels":
            _warn_ignored_flags(args)
            return cmd_levels(args.scheme, config)
        raise ConfigInvalid(f"unknown command {args.command!r}")
    except (ConfigInvalid, UnknownScheme) as exc:
        print(f"actionvar: config error: {exc}", file=sys.stderr)
        return 1
    except _CONVERGENCE_ERRORS as exc:
        print(f"actionvar: oracle convergence failure: {exc}", file=sys.stderr)
        return 2
    except IoFailure as exc:
        print(f"actionvar: I/O error: {exc}", file=sys.stderr)
        return 3
    except ActionVarError as exc:
        print(f"actionvar: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
