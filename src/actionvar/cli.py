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
import warnings
from dataclasses import dataclass
from typing import Callable

from .classical import (
    action_fullrel,
    action_quadrature,
    action_wr_pdx,
    frequency_from_action,
    frequency_wr_closed,
)
from .core import (
    EPSILON_HARD_LIMIT,
    ActionVarError,
    ConfigInvalid,
    IoFailure,
    NotConverged,
    OscillatorParams,
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

_DEFAULT_TOL = 1e-3


@dataclass(frozen=True)
class _Scheme:
    """One printed scheme: the tag --show-scheme prints, its note, and fn.

    fn is (params, ep) -> ActionResult for a FULL_REL scheme, else
    (spec, n) -> SpectrumEntry on the Hamiltonian its oracle solves.
    """

    tag: str
    note: str
    fn: Callable


@dataclass(frozen=True)
class _Oracle:
    """An oracle Hamiltonian: its column, note, flags, solver and schemes in print order.

    solve is (spec, e) -> J for FULL_REL, else (spec, n_max) -> the shifts of
    levels 0..n_max from (n + 1/2) hbar omega0, in units of hbar omega0.
    """

    column: str
    note: str
    flags: tuple[str, ...]
    solve: Callable
    schemes: dict[str, _Scheme]


def _hw(spec: HamiltonianSpec) -> float:
    return spec.params.hbar * spec.params.omega0


def _rs_level(spec: HamiltonianSpec, n: int) -> SpectrumEntry:
    shift = rs_shift_p4(spec.params, n)
    return SpectrumEntry((n + 0.5) * _hw(spec) + shift, shift)


def _diag_shifts(spec: HamiltonianSpec, n_max: int) -> list[float]:
    hw = _hw(spec)
    basis = 32
    while basis < 4 * (n_max + 1):
        basis *= 2
    eigs = diagonalize(spec, basis, n_levels=n_max + 1)
    return [(eigs[n] - (n + 0.5) * hw) / hw for n in range(n_max + 1)]


# Only the weak-relativistic kinetic term contains c, which --ratio sets.
_ORACLES = {
    HamiltonianKind.FULL_REL: _Oracle(
        "quadrature", "midpoint-rule contour integral oracle", (), action_quadrature, {
            "fullrel_pdx": _Scheme(
                "classical-fullrel-pdx", "tabulated series in eps/(2+eps), coordinate contour",
                lambda p, ep: action_fullrel(p, ep, SchemeTag.CLASSICAL_FULLREL_PDX)),
            "fullrel_xdp": _Scheme(
                "classical-fullrel-xdp", "tabulated series in eps, momentum contour",
                lambda p, ep: action_fullrel(p, ep, SchemeTag.CLASSICAL_FULLREL_XDP)),
            "weakrel_pdx": _Scheme("classical-wr-pdx", "(e/omega0)(1 + 3 eps/16)", action_wr_pdx),
            "weakrel_xdp": _Scheme(
                "classical-wr-xdp",
                "momentum form truncated at order eps, (e/omega0)(1 + 3 eps/16)", action_wr_pdx),
        }),
    HamiltonianKind.SHO: _Oracle(
        "exact", "closed-form harmonic levels (n + 1/2) hbar omega0", (),
        lambda spec, n_max: [0.0] * (n_max + 1), {
            "sho": _Scheme(
                "quantum-sho-pdx", "harmonic spectrum (n + 1/2) hbar omega0",
                lambda spec, n: SpectrumEntry((n + 0.5) * _hw(spec), 0.0)),
        }),
    HamiltonianKind.WEAK_REL: _Oracle(
        "diag", "ladder-basis diagonalization oracle", ("ratio",), _diag_shifts, {
            "wr-pdx": _Scheme(
                "quantum-wr-pdx", "coordinate-form first-order spectrum",
                lambda spec, n: eigenvalues_wr_pdx(spec.params, n)),
            "wr-xdp": _Scheme(
                "quantum-wr-xdp", "momentum-form first-order spectrum",
                lambda spec, n: eigenvalues_wr_xdp(spec.params, n)),
            "jwkb": _Scheme(
                "jwkb-wr", "semiclassical discretization of the classical action",
                lambda spec, n: jwkb_levels_wr(spec.params, n)),
            "rs": _Scheme(
                "rayleigh-schrodinger", "first-order expectation value of the p^4 term",
                _rs_level),
        }),
    HamiltonianKind.QUARTIC_AHO: _Oracle(
        "diag", "ladder-basis diagonalization oracle", ("delta",), _diag_shifts, {
            "aho": _Scheme(
                "quantum-aho-pdx", "quartic-anharmonic first-order spectrum",
                lambda spec, n: eigenvalues_aho(spec.params, spec.delta, n)),
        }),
}


def _scheme_kinds(kinds: tuple[HamiltonianKind, ...]) -> dict[str, HamiltonianKind]:
    """Each scheme the oracles of kinds check, with its kind, in print order."""
    return {name: kind for kind in kinds for name in _ORACLES[kind].schemes}


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
            if not 0.0 <= eps < EPSILON_HARD_LIMIT:
                raise ConfigInvalid(f"eps values must lie in [0, 1/2), got {eps}")
        if self.nmax < 0:
            raise ConfigInvalid(f"nmax must be >= 0, got {self.nmax}")
        if self.ratio < 0:
            raise ConfigInvalid(f"ratio must be >= 0, got {self.ratio}")
        if not math.isfinite(self.ratio):
            raise ConfigInvalid(f"ratio must be finite, got {self.ratio}")


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


def _print_scheme_notes(config: RunConfig, kind: HamiltonianKind, names: list[str]) -> None:
    """With --show-scheme, one line per scheme, then one naming what their oracle solves."""
    if not config.show_scheme:
        return
    oracle = _ORACLES[kind]
    print("# column schemes:")
    for name in names:
        print(f"#   {name}: {oracle.schemes[name].tag} -- {oracle.schemes[name].note}")
    print(f"#   {oracle.column}: {kind.value} -- {oracle.note}")
    print()


def cmd_table1(config: RunConfig) -> int:
    """Classical relativistic action, four schemes plus quadrature oracle."""
    kind = HamiltonianKind.FULL_REL
    oracle = _ORACLES[kind]
    header = ["eps", *oracle.schemes, oracle.column, "max_pairwise_dev"]
    _print_scheme_notes(config, kind, list(oracle.schemes))
    p = config.units
    rows = []
    for eps in config.eps:
        if eps == 0.0:
            rows.append([eps, *[1.0] * (len(oracle.schemes) + 1), 0.0])
            continue
        e = eps * p.rest_energy
        ep = energy_point(p, e)
        unit = e / p.omega0
        vals = [scheme.fn(p, ep).j_value / unit for scheme in oracle.schemes.values()]
        exact = oracle.solve(HamiltonianSpec(kind, p), e) / unit
        spread = max(vals + [exact]) - min(vals + [exact])
        rows.append([eps, *vals, exact, spread])
    _emit(rows, header, config)
    return 0


def cmd_table2(config: RunConfig) -> int:
    """Quantum level corrections, four schemes plus diagonalization oracle.

    All correction columns are in units of hbar*omega0.
    """
    kind = HamiltonianKind.WEAK_REL
    oracle = _ORACLES[kind]
    header = ["n", *oracle.schemes, oracle.column, "max_dev_from_diag"]
    _print_scheme_notes(config, kind, list(oracle.schemes))
    spec = _oracle_spec(kind, config)
    hw = _hw(spec)
    shifts = oracle.solve(spec, config.nmax)
    rows = []
    for n in range(config.nmax + 1):
        vals = [scheme.fn(spec, n).correction / hw for scheme in oracle.schemes.values()]
        rows.append([n, *vals, shifts[n], max(abs(v - shifts[n]) for v in vals)])
    _emit(rows, header, config)
    return 0


def _oracle_spec(kind: HamiltonianKind, config: RunConfig) -> HamiltonianSpec:
    """The Hamiltonian kind's oracle solves, built from the flags its row names.

    --ratio sets c so that hbar omega0 / m c^2 equals it; ratio 0 sets c = 1e9.
    """
    p = config.units
    if p.hbar == 0:
        raise ConfigInvalid("hbar = 0 has no level spacing; table2 and levels need hbar > 0")
    flags = _ORACLES[kind].flags
    if "ratio" in flags:
        rm = config.ratio * p.m
        c = math.sqrt(p.hbar * p.omega0 / rm) if rm else (math.inf if config.ratio else 1e9)
        if not 0 < c < math.inf:
            raise ConfigInvalid(f"ratio = {config.ratio} gives no finite c > 0 at these units")
        p = make_params(p.m, p.k, c, p.hbar)
    return HamiltonianSpec(kind, p, delta=config.delta if "delta" in flags else 0.0)


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
    kind = _scheme_kinds(_COMMANDS["levels"].kinds).get(scheme)
    if kind is None:
        raise ConfigInvalid(f"no spectrum scheme named {scheme!r}")
    _print_scheme_notes(config, kind, [scheme])
    oracle = _ORACLES[kind]
    spec = _oracle_spec(kind, config)
    hw = _hw(spec)
    levels = [oracle.schemes[scheme].fn(spec, n) for n in range(config.nmax + 1)]
    shifts = oracle.solve(spec, config.nmax)
    rows = []
    for n, level in enumerate(levels):
        oe = n + 0.5 + shifts[n]  # in units of hbar omega0, which no small hbar underflows
        rel = abs(level.energy / hw - oe) / abs(oe)
        ok = str(rel <= config.tolerance)
        rows.append([n, level.energy, level.correction, oe * hw, rel, ok])
    header = ["n", "energy", "correction", "oracle_energy", "rel_diff", "ok"]
    _emit(rows, header, config)
    return 0


def _warn_ignored_flags(args: argparse.Namespace) -> None:
    """One stderr warning per oracle flag given that the scheme's Hamiltonian does not read."""
    scheme = getattr(args, "scheme", None)
    if scheme is None:
        return
    command = _COMMANDS[args.command]
    reads = _ORACLES[_scheme_kinds(command.kinds)[scheme]].flags
    for name in command.settings():
        if name not in (*command.own, *reads) and getattr(args, name) is not None:
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
    """Comma list of eps values; blank text keeps the default, an empty list is refused."""
    if not text.strip():
        return _SETTINGS["eps"].default
    values = tuple(float(v) for v in text.split(",") if v.strip())
    if not values:
        raise ValueError("no eps values")
    return values


@dataclass(frozen=True)
class _Setting:
    """A flag and config-file key: help text, text converter and default."""

    help: str
    convert: Callable[[str], object]
    default: object


_SETTINGS = {
    "units": _Setting("comma list like m=1,k=1,hbar=1,c=10", _units, natural_params(c=10.0)),
    "eps": _Setting("comma list of eps values", _eps_list, (0.01, 0.05, 0.1)),
    "ratio": _Setting("hbar*omega0 / m c^2", float, 0.01),
    "nmax": _Setting("highest quantum number", int, 10),
    "delta": _Setting(
        "quartic strength (aho scheme); give a negative one as --delta=-1e-4 or --delta -0.0001",
        float, 0.0),
    "csv": _Setting("write CSV to this path", str, None),
}


@dataclass(frozen=True)
class _Command:
    """A subcommand; takes_scheme adds the required --scheme flag, which no config key sets."""

    run: Callable[[RunConfig], int]
    help: str
    own: tuple[str, ...]
    kinds: tuple[HamiltonianKind, ...] = ()
    takes_scheme: bool = False

    def settings(self) -> list[str]:
        """Its own settings and the flags of the oracle kinds it solves, in _SETTINGS order."""
        names = {*self.own, *(flag for kind in self.kinds for flag in _ORACLES[kind].flags)}
        return [name for name in _SETTINGS if name in names]


_COMMANDS = {
    "table1": _Command(
        cmd_table1, "classical action comparison", ("eps",), (HamiltonianKind.FULL_REL,)
    ),
    "table2": _Command(
        cmd_table2, "quantum correction comparison", ("nmax",), (HamiltonianKind.WEAK_REL,)
    ),
    "freq": _Command(cmd_frequency, "weak-relativistic frequency report", ("eps",)),
    "levels": _Command(
        cmd_levels, "spectrum CSV for one scheme", ("nmax",),
        (HamiltonianKind.SHO, HamiltonianKind.WEAK_REL, HamiltonianKind.QUARTIC_AHO),
        takes_scheme=True,
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
            sp.add_argument("--scheme", required=True, choices=list(_scheme_kinds(command.kinds)))
        for name in command.settings():
            sp.add_argument(f"--{name}", help=_SETTINGS[name].help)
        sp.add_argument("--config", help="flat key = value config file")
        for name in ("units", "csv"):  # the settings every subcommand takes
            sp.add_argument(f"--{name}", help=_SETTINGS[name].help)
        sp.add_argument("--show-scheme", action="store_true", help="print per-column scheme tags")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _make_parser().parse_args(argv)
    # a warning prints as one stderr line; Python's filters still decide which print
    python_format = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: f"actionvar: warning: {message}\n"
    try:
        config = _build_config(args)
        _warn_ignored_flags(args)
        return _COMMANDS[args.command].run(config)
    except ConfigInvalid as exc:
        print(f"actionvar: config error: {exc}", file=sys.stderr)
        return 1
    except NotConverged as exc:
        print(f"actionvar: oracle convergence failure: {exc}", file=sys.stderr)
        return 2
    except IoFailure as exc:
        print(f"actionvar: I/O error: {exc}", file=sys.stderr)
        return 3
    except ActionVarError as exc:
        print(f"actionvar: error: {exc}", file=sys.stderr)
        return 1
    finally:
        warnings.formatwarning = python_format


if __name__ == "__main__":
    sys.exit(main())
