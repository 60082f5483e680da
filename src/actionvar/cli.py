"""Command-line surface: comparison tables, frequency reports, spectra CSV.

Four subcommands:

  table1   classical relativistic action from four schemes vs quadrature
  table2   quantum level corrections from four schemes vs diagonalization
  freq     weak-relativistic frequency from formula, dJ/dE, and trajectory
  levels   spectrum of one scheme as CSV, with an oracle column

Each setting is resolved once: the command-line flag, else the optional
flat key = value config file, else the default.  A config-file key that
names no setting is refused.  The ACTIONVAR_TOL environment variable
overrides the relative tolerance used to flag deviations.
Exit codes: 0 success, 1 usage/config error, 2 oracle convergence failure,
3 I/O error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass
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
    energy_point,
    make_params,
    natural_params,
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


def _checked_by(kind: HamiltonianKind) -> list[str]:
    return [name for name, s in _SCHEMES.items() if s.oracle is kind]


@dataclass
class RunConfig:
    """Resolved settings for a run: each _SETTINGS row, --scheme, --show-scheme, ACTIONVAR_TOL."""

    units: OscillatorParams
    eps: tuple[float, ...]
    ratio: float
    nmax: int
    delta: float
    csv: str | None
    scheme: str | None
    show_scheme: bool
    tolerance: float

    def __post_init__(self) -> None:
        for eps in self.eps:
            if not 0.0 <= eps < 0.5:
                raise ConfigInvalid(f"eps values must lie in [0, 1/2), got {eps}")
        if self.nmax < 0:
            raise ConfigInvalid(f"nmax must be >= 0, got {self.nmax}")
        if self.ratio < 0:
            raise ConfigInvalid(f"ratio must be >= 0, got {self.ratio}")

    def ratio_params(self) -> OscillatorParams:
        """Params whose hbar*omega0/mc^2 equals ratio (c adjusted)."""
        p = self.units
        if self.ratio == 0:
            return make_params(p.m, p.k, 1e9, p.hbar)
        c = math.sqrt(p.hbar * p.omega0 / (self.ratio * p.m))
        return make_params(p.m, p.k, c, p.hbar)


def _emit(rows: list[list], header: list[str], config: RunConfig) -> None:
    """Print rows as an aligned table, and write them as CSV if asked."""
    lines = [header] + [
        [v if isinstance(v, str) else format(float(v), ".12g") for v in row] for row in rows
    ]
    if config.csv:
        try:
            with open(config.csv, "w", encoding="ascii") as fh:
                fh.write("\n".join(",".join(line) for line in lines) + "\n")
        except OSError as exc:
            raise IoFailure(f"cannot write {config.csv}: {exc}") from exc
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
    p = config.units
    rows = []
    for eps in config.eps:
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
    diag_shift = _oracle_shifts(spec, config.nmax)
    rows = []
    for n in range(config.nmax + 1):
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
    p = config.units
    w0 = p.omega0
    rows = []
    for eps in config.eps:
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


def cmd_levels(config: RunConfig) -> int:
    """Spectrum of one scheme with its oracle's energy beside each level."""
    scheme = config.scheme
    if scheme not in _LEVEL_SCHEMES:
        raise ConfigInvalid(f"no spectrum scheme named {scheme!r}")
    if config.show_scheme:
        _print_scheme_notes([scheme])
    entry = _SCHEMES[scheme]
    spec = _oracle_spec(entry.oracle, config)
    hw = _hw(spec)
    levels = [entry.fn(spec, n) for n in range(config.nmax + 1)]
    shifts = _oracle_shifts(spec, config.nmax)
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
    scheme = getattr(args, "scheme", None)
    if scheme is None:
        return
    kind = _SCHEMES[scheme].oracle
    for name, setting in _SETTINGS.items():
        if setting.kind not in (None, kind) and getattr(args, name, None) is not None:
            warning = f"--{name} does not apply to scheme {scheme!r} and is ignored"
            print(f"actionvar: warning: {warning}", file=sys.stderr)


# -- configuration plumbing ---------------------------------------------------


def _units(text: str) -> OscillatorParams:
    """Units from a comma list like k=4,c=20; the ones not named keep their defaults."""
    units = {key: getattr(_SETTINGS["units"].default, key) for key in ("m", "k", "c", "hbar")}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ConfigInvalid(f"units entry {item!r} is not key=value")
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in units:
            raise ConfigInvalid(f"unknown unit key {key!r}")
        try:
            units[key] = float(value)
        except ValueError as exc:
            raise ConfigInvalid(f"bad unit value in {item!r}") from exc
    return make_params(**units)


def _eps_list(text: str) -> tuple[float, ...]:
    """Comma list of eps values; blank text keeps the default."""
    if not text:
        return _SETTINGS["eps"].default
    return tuple(float(v) for v in text.split(",") if v.strip())


@dataclass(frozen=True)
class _Setting:
    """A flag and config-file key: help text, text converter and default.

    kind is the one oracle Hamiltonian that reads the setting, where only
    one does: levels warns when its scheme's oracle is another kind.
    """

    help: str
    convert: Callable[[str], object]
    default: object
    kind: HamiltonianKind | None = None


# --ratio sets c, which only the weak-relativistic kinetic term contains,
# and --delta is the quartic strength.
_SETTINGS = {
    "units": _Setting("comma list like m=1,k=1,hbar=1,c=10", _units, natural_params(c=10.0)),
    "eps": _Setting("comma list of eps values", _eps_list, (0.01, 0.05, 0.1)),
    "ratio": _Setting("hbar*omega0 / m c^2", float, 0.01, HamiltonianKind.WEAK_REL),
    "nmax": _Setting("highest quantum number", int, 10),
    "delta": _Setting("quartic strength (aho scheme)", float, 0.0, HamiltonianKind.QUARTIC_AHO),
    "csv": _Setting("write CSV to this path", str, None),
}


@dataclass(frozen=True)
class _Command:
    """A subcommand; takes_scheme adds the required --scheme flag, which no config key sets."""

    run: Callable[[RunConfig], int]
    help: str
    settings: tuple[str, ...]
    takes_scheme: bool = False


_COMMANDS = {
    "table1": _Command(cmd_table1, "classical action comparison", ("eps",)),
    "table2": _Command(cmd_table2, "quantum correction comparison", ("ratio", "nmax")),
    "freq": _Command(cmd_frequency, "weak-relativistic frequency report", ("eps",)),
    "levels": _Command(
        cmd_levels, "spectrum CSV for one scheme", ("ratio", "nmax", "delta"), takes_scheme=True
    ),
}


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
                key = key.strip()
                if key not in _SETTINGS:
                    raise ConfigInvalid(f"{path}:{line_no}: unknown key {key!r}")
                out[key] = value.strip()
    except OSError as exc:
        raise IoFailure(f"cannot read config {path}: {exc}") from exc
    return out


def _resolve(name: str, flag: str | None, file_values: dict[str, str]) -> object:
    """The flag, else the config-file value, else the default, converted."""
    setting = _SETTINGS[name]
    raw = flag if flag is not None else file_values.get(name)
    if raw is None:
        return setting.default
    try:
        return setting.convert(raw)
    except ValueError as exc:
        raise ConfigInvalid(f"bad value for {name}: {raw!r}") from exc


def _tolerance() -> float:
    text = os.environ.get("ACTIONVAR_TOL")
    if not text:
        return _DEFAULT_TOL
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigInvalid(f"bad ACTIONVAR_TOL {text!r}") from exc


def _build_config(args: argparse.Namespace) -> RunConfig:
    # every setting is resolved, so a config file is checked whole even
    # where this subcommand reads only part of it
    file_values = _read_config_file(args.config) if args.config else {}
    values = {name: _resolve(name, getattr(args, name, None), file_values) for name in _SETTINGS}
    scheme = getattr(args, "scheme", None)
    return RunConfig(**values, scheme=scheme, show_scheme=args.show_scheme, tolerance=_tolerance())


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1 on usage errors, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def _make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="actionvar", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for command_name, command in _COMMANDS.items():
        sp = sub.add_parser(command_name, help=command.help)
        if command.takes_scheme:
            sp.add_argument("--scheme", required=True, choices=_LEVEL_SCHEMES)
        for name in command.settings:
            sp.add_argument(f"--{name}", help=_SETTINGS[name].help)
        sp.add_argument("--config", help="flat key = value config file")
        for name in ("units", "csv"):  # the settings every subcommand takes
            sp.add_argument(f"--{name}", help=_SETTINGS[name].help)
        sp.add_argument("--show-scheme", action="store_true", help="print per-column scheme tags")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _make_parser().parse_args(argv)
    try:
        config = _build_config(args)
        _warn_ignored_flags(args)
        return _COMMANDS[args.command].run(config)
    except ConfigInvalid as exc:
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
