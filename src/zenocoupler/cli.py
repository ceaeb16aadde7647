"""Command-line front end: coefficient tables, Zeno scans, figure sweeps,
oracle propagation, and the self-validation suite.

Exit codes: 0 success, 1 validation failure, 2 invalid input,
4 oracle failure.

Complex values are accepted as "re", "re+imI" (e.g. 0.1-0.25I), Python's
"re+imj", or polar "mag@phase_rad" (e.g. 2@1.5708).  Config files are
flat key=value text with '#' comments; a key is a flag of the subcommand
without its leading dashes and with underscores for hyphens, and any
other key is an error.  Each subcommand's --help lists its CSV columns.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import math
import re
import sys
from typing import Callable, Iterable, NamedTuple

import numpy as np

from . import observables
from .coefficients import compute_coefficients, compute_h2_prime
from .errors import ExcessiveTruncationLoss, NonConvergence
from .fock import TruncationSpec, propagate
from .observables import mode_means, zeno_parameter, zeno_sample
from .params import CoherentInputs, CouplerParams
from .sweep import (
    _CLASSIFICATIONS,
    SECONDARY_AXES,
    AxisSpec,
    SweepSpec,
    preset_sweep,
    run_sweep,
    validate_against_oracle,
    z_from_gamma_z,
)

EXIT_OK = 0
EXIT_VALIDATION_FAILED = 1
EXIT_INVALID_INPUT = 2
EXIT_ORACLE_FAILURE = 4

_POLAR_RE = re.compile(r"^([^@]+)@([^@]+)$")


def parse_complex(text: str) -> complex:
    """Parse "re", "re+imI", Python's "re+imj" or polar "mag@phase_rad"."""
    t = text.strip().replace(" ", "")
    m = _POLAR_RE.match(t)
    if m:
        return float(m.group(1)) * cmath.exp(1j * float(m.group(2)))
    if t[-1:] in ("I", "i"):
        t = t[:-1] + "j"
    return complex(t)


def parse_range(text: str) -> tuple[float, float, int]:
    """"min:max:count" or a single value (count 1)."""
    parts = text.split(":")
    if len(parts) == 1:
        v = float(parts[0])
        return v, v, 1
    if len(parts) != 3:
        raise ValueError(f"range must be 'min:max:count', got {text!r}")
    return float(parts[0]), float(parts[1]), int(parts[2])


def parse_axis(text: str) -> tuple[str, AxisSpec]:
    parts = text.split(":")
    if len(parts) != 4:
        raise ValueError(f"axis must be 'name:min:max:count', got {text!r}")
    return parts[0], AxisSpec(float(parts[1]), float(parts[2]), int(parts[3]))


def parse_cutoffs(text: str) -> TruncationSpec:
    parts = [int(p) for p in text.split(",")]
    if len(parts) != 3:
        raise ValueError(f"cutoffs must be 'na,nb1,nb2', got {text!r}")
    return TruncationSpec(*parts)


def read_config(path: str) -> dict[str, str]:
    cfg = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            cfg[key.strip()] = value.strip()
    return cfg


class _Setting(NamedTuple):
    """How a setting is parsed from its text, its default text (one for
    every subcommand, or one per subcommand), its help, and the
    subcommands that read it."""

    parse: Callable[[str], object]
    default: str | dict[str, str] | None
    help: str
    commands: tuple[str, ...]

    def default_for(self, command: str) -> str | None:
        if isinstance(self.default, dict):
            return self.default[command]
        return self.default


_EVERY = ("coeffs", "zeno", "sweep", "oracle", "validate")
_DRIVEN = ("zeno", "sweep", "oracle", "validate")  # read the input amplitudes
_ALONG_Z = ("coeffs", "zeno", "sweep", "oracle")
_RANGE = "min:max:count or value"

# Every setting once: its name is the config key, and "--" plus the name
# with hyphens for underscores is its flag on each subcommand that reads it.
_SETTINGS = {
    "k": _Setting(parse_complex, "0.1", "linear coupling (complex)", _EVERY),
    "gamma_nl": _Setting(parse_complex, "0.001", "nonlinear coupling (complex)", _EVERY),
    "delta_k": _Setting(float, "0.0001", "phase mismatch (real)", _EVERY),
    # oracle's own amplitudes pass the truncation guard at its default cutoffs
    "alpha": _Setting(parse_complex, {**dict.fromkeys(_DRIVEN, "5"), "oracle": "1"},
                      "probe-mode amplitude (complex)", _DRIVEN),
    "beta": _Setting(parse_complex, {**dict.fromkeys(_DRIVEN, "2"), "oracle": "1"},
                     "fundamental-mode amplitude (complex)", _DRIVEN),
    "gamma": _Setting(parse_complex, {**dict.fromkeys(_DRIVEN, "1"), "oracle": "0.5"},
                      "second-harmonic amplitude (complex)", _DRIVEN),
    "z": _Setting(parse_range, None, f"propagation distance(s), {_RANGE}", _ALONG_Z),
    "gamma_z": _Setting(parse_range, None, f"rescaled length(s) gamma_nl*z, {_RANGE}",
                        _ALONG_Z),
    "tol": _Setting(float, repr(observables.DEFAULT_CLASSIFICATION_TOL),
                    "classification tolerance on |delta_n_z|", ("zeno", "sweep")),
    "axis": _Setting(parse_axis, None, "secondary axis: name:min:max:count "
                     f"(name in {', '.join(SECONDARY_AXES)})", ("sweep",)),
    "preset": _Setting(str, None, "figure preset: fig2, fig3 or fig4", ("sweep",)),
    "cutoffs": _Setting(parse_cutoffs, "12,12,8", "Fock cutoffs na,nb1,nb2", ("oracle",)),
    "out": _Setting(str, None, "output CSV path (default stdout)", _EVERY),
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


class RunConfig:
    """Resolved settings of one subcommand: flags > config file > defaults.

    Each setting the subcommand reads becomes an attribute of the same
    name, parsed, or None when it is unset and has no default; `given`
    maps each setting the user set to where it was set.
    """

    def __init__(self, args: argparse.Namespace):
        names = [n for n, s in _SETTINGS.items() if args.command in s.commands]
        cfg = read_config(args.config) if args.config else {}
        unread = sorted(set(cfg) - set(names))
        if unread:
            raise ValueError(f"config keys not read by {args.command}: {unread}")
        self.given: dict[str, str] = {}
        for name in names:
            text = getattr(args, name)
            if text is not None:
                self.given[name] = _flag(name)
            elif name in cfg:
                text = cfg[name]
                self.given[name] = f"{name} (in {args.config})"
            else:
                text = _SETTINGS[name].default_for(args.command)
            setattr(self, name, None if text is None else _SETTINGS[name].parse(text))
        if "z" in self.given and "gamma_z" in self.given:
            raise ValueError("--z and --gamma-z are mutually exclusive")

    def params(self) -> CouplerParams:
        return CouplerParams(k=self.k, gamma_nl=self.gamma_nl, delta_k=self.delta_k)

    def inputs(self) -> CoherentInputs:
        return CoherentInputs(alpha=self.alpha, beta=self.beta, gamma=self.gamma)

    def z_values(self, default_gamma_z="0:0.1:11") -> np.ndarray:
        """Requested z grid (plain length units)."""
        if self.z is not None:
            return AxisSpec(*self.z).values()
        gamma_z = AxisSpec(*(self.gamma_z or parse_range(default_gamma_z)))
        return z_from_gamma_z(gamma_z.values(), self.gamma_nl)


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.15g}"
    return str(v)


def _csv_line(row) -> str:
    return ",".join(map(_fmt, row))


def _along_z(cfg: RunConfig, values: Callable[[float], Iterable],
             default_gamma_z="0:0.1:11") -> tuple[list[str], bool]:
    """One line per requested z: z, gamma_z, the command's values(z), then
    ok."""
    g = abs(cfg.gamma_nl)
    lines = [_csv_line((z, g * z, *values(z), "ok"))
             for z in cfg.z_values(default_gamma_z).tolist()]
    return lines, True


def cmd_coeffs(cfg: RunConfig) -> tuple[list[str], bool]:
    params = cfg.params()

    def values(z):
        c = compute_coefficients(params, z)
        return [part for v in (*c.f, *c.g, *c.h) for part in (v.real, v.imag)]

    return _along_z(cfg, values)


def cmd_zeno(cfg: RunConfig) -> tuple[list[str], bool]:
    params, inputs = cfg.params(), cfg.inputs()

    def values(z):
        s = zeno_sample(params, inputs, z, cfg.tol)
        return s.n_b2, s.n_b2_uncoupled, s.delta_n_z, s.classification.value

    return _along_z(cfg, values)


# classification column of each sign code; a sign indexes it directly
_LABELS = tuple(c.value for c in _CLASSIFICATIONS)


def cmd_sweep(cfg: RunConfig) -> tuple[list[str], bool]:
    if cfg.preset:
        # A preset fixes every sweep setting but the output path.
        ignored = [where for name, where in cfg.given.items()
                   if name not in ("preset", "out")]
        if ignored:
            raise ValueError(
                f"--preset fixes every sweep setting; remove {', '.join(ignored)}"
            )
        spec = preset_sweep(cfg.preset)
    else:
        rng = cfg.gamma_z
        if rng is None and cfg.z is not None:
            g = abs(cfg.gamma_nl)
            rng = (cfg.z[0] * g, cfg.z[1] * g, cfg.z[2])
        if rng is None:
            rng = (0.0, 0.1, 51)
        name, axis = cfg.axis if cfg.axis else (None, None)
        spec = SweepSpec(
            params=cfg.params(),
            inputs=cfg.inputs(),
            z_axis=AxisSpec(*rng),
            secondary_name=name,
            secondary_axis=axis,
            classification_tol=cfg.tol,
        )
    result = run_sweep(spec)
    lines = []
    axis_name = spec.secondary_name or ""
    gamma_z = result.gamma_z.tolist()
    columns = (result.z, result.n_b2, result.n_b2_uncoupled, result.delta_n_z, result.sign)
    for sv, status, message, z, n_b2, n_ref, dnz, signs in zip(
            result.secondary_values, result.row_status, result.row_message,
            *(column.tolist() for column in columns)):
        axis_value = "" if sv is None else _fmt(sv)
        if status != "ok":
            template = f"{axis_name},{axis_value},,%.15g,,,,,{status}"
            lines.extend(template % gz for gz in gamma_z)
            # the reason goes to stderr: the CSV's columns are fixed
            where = f"{axis_name}={axis_value}, " if axis_name else ""
            for gz in gamma_z:
                print(f"{status} cell {where}gamma_z={_fmt(gz)}: {message}", file=sys.stderr)
            continue
        # one template per row: '%.15g' % v is f"{v:.15g}" for every float
        template = f"{axis_name},{axis_value},%.15g,%.15g,%.15g,%.15g,%.15g,%s,ok"
        labels = map(_LABELS.__getitem__, signs)
        lines.extend(map(template.__mod__, zip(z, gamma_z, n_b2, n_ref, dnz, labels)))
    return lines, True


def cmd_oracle(cfg: RunConfig) -> tuple[list[str], bool]:
    params, inputs = cfg.params(), cfg.inputs()

    def values(z):
        report = propagate(params, inputs, z, cfg.cutoffs)
        return (*report.expectations, report.conservation_drift, report.norm_drift,
                report.steps_used)

    return _along_z(cfg, values, default_gamma_z="0.05")


def _validation_checks(cfg):
    """Yield (name, measured, threshold_text, passed)."""
    rng = np.random.default_rng(20240815)

    def random_params():
        k_mag = rng.uniform(0.05, 1.0)
        k = k_mag * np.exp(1j * rng.uniform(0, 2 * np.pi))
        g = k_mag * rng.uniform(1e-4, 0.05) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        dk = rng.uniform(0.0, 1.5 * k_mag)
        return CouplerParams(k=complex(k), gamma_nl=complex(g), delta_k=float(dk))

    # coefficient identities
    worst = 0.0
    for _ in range(300):
        p = random_params()
        z = rng.uniform(0.0, 200.0)
        c = compute_coefficients(p, z)
        f1, f2, _, _ = c.f
        g1, g2, _, _ = c.g
        worst = max(
            worst,
            abs(c.h[0] - 1.0),
            abs(f1 - g2),
            abs(f2 + g1.conjugate()),
            abs(abs(f1) ** 2 + abs(f2) ** 2 - 1.0),
        )
    yield ("coefficient_identities", worst, "<=1e-12", worst <= 1e-12)

    # gamma linearity of the seven first-order coefficients
    worst = 0.0
    for _ in range(100):
        p = random_params()
        z = rng.uniform(0.0, 200.0)
        p2 = CouplerParams(k=p.k, gamma_nl=2 * complex(p.gamma_nl), delta_k=p.delta_k)
        c1, c2 = compute_coefficients(p, z), compute_coefficients(p2, z)
        for a, b in zip(
            (*c1.f[2:], *c1.g[2:], *c1.h[1:]), (*c2.f[2:], *c2.g[2:], *c2.h[1:])
        ):
            scale = max(abs(b), 1e-300)
            worst = max(worst, abs(b - 2 * a) / scale)
    yield ("gamma_linearity", worst, "<=1e-13", worst <= 1e-13)

    # k -> 0 consistency of h2
    h2 = compute_coefficients(
        CouplerParams(k=1e-8, gamma_nl=0.001, delta_k=1e-4), 100.0
    ).h[1]
    h2p = compute_h2_prime(0.001, 1e-4, 100.0)
    rel = abs(h2 - h2p) / abs(h2p)
    yield ("k_to_zero_h2_consistency", rel, "<=1e-6", rel <= 1e-6)

    # spontaneous nullity
    p = cfg.params()
    worst = max(
        abs(zeno_parameter(p, CoherentInputs(cfg.alpha, cfg.beta, 0.0), z))
        for z in (0.0, 10.0, 50.0)
    )
    yield ("spontaneous_nullity", worst, "==0", worst == 0.0)

    # phase structure: pi switching and two-basis sinusoid
    inputs = cfg.inputs()
    z = 50.0
    d0 = zeno_parameter(p, inputs.with_phi(0.0), z)
    d90 = zeno_parameter(p, inputs.with_phi(math.pi / 2), z)
    worst_pi, worst_sin = 0.0, 0.0
    for phi in rng.uniform(0, 2 * np.pi, size=100):
        d = zeno_parameter(p, inputs.with_phi(float(phi)), z)
        dpi = zeno_parameter(p, inputs.with_phi(float(phi) + math.pi), z)
        worst_pi = max(worst_pi, abs(d + dpi))
        worst_sin = max(worst_sin, abs(d - (d0 * math.cos(phi) + d90 * math.sin(phi))))
    yield ("pi_switching", worst_pi, "<=1e-13", worst_pi <= 1e-13)
    yield ("phase_sinusoid", worst_sin, "<=1e-12", worst_sin <= 1e-12)

    # homogeneity in |gamma|
    d1 = zeno_parameter(p, inputs, z)
    d3 = zeno_parameter(
        p, CoherentInputs(inputs.alpha, inputs.beta, 3.0 * complex(inputs.gamma)), z
    )
    rel = abs(d3 - 3 * d1) / max(abs(d3), 1e-300)
    yield ("gamma_homogeneity", rel, "<=1e-13", rel <= 1e-13)

    # zeno == difference of means
    worst = 0.0
    for _ in range(50):
        pp = random_params()
        zz = rng.uniform(0.0, 100.0)
        ii = CoherentInputs(
            complex(rng.normal(), rng.normal()),
            complex(rng.normal(), rng.normal()),
            complex(rng.normal(), rng.normal()),
        )
        lhs = zeno_parameter(pp, ii, zz)
        rhs = observables.mean_photon_b2(pp, ii, zz) - observables.mean_photon_b2_uncoupled(
            pp.gamma_nl, pp.delta_k, ii, zz
        )
        worst = max(worst, abs(lhs - rhs))
    yield ("zeno_consistency", worst, "<=1e-12", worst <= 1e-12)

    # first-order conservation of <N_a> + <N_b1> + 2 <N_b2>
    na, n1, n2 = mode_means(p, inputs, z)
    total0 = abs(cfg.alpha) ** 2 + abs(cfg.beta) ** 2 + 2 * abs(cfg.gamma) ** 2
    resid = abs(na + n1 + 2 * n2 - total0)
    yield ("perturbative_conservation", resid, "<=1e-10", resid <= 1e-10)

    # oracle: unitarity, conservation, and gamma^2 contraction at z = 50
    spec = SweepSpec(
        params=CouplerParams(k=0.1, gamma_nl=1e-3, delta_k=1e-4),
        inputs=CoherentInputs(alpha=1.0, beta=1.0, gamma=0.5),
        z_axis=AxisSpec(0.05, 0.05, 1),
    )
    report = validate_against_oracle(spec, TruncationSpec(10, 10, 6), sample_count=0)
    norm, conservation = report.max_norm_drift, report.max_conservation_drift
    yield ("oracle_norm_drift", norm, "<=1e-10", norm <= 1e-10)
    yield ("oracle_conservation_drift", conservation, "<=1e-8", conservation <= 1e-8)
    ratio = report.contraction_ratio
    yield ("oracle_gamma2_contraction", ratio, "in [3..5]", 3.0 <= ratio <= 5.0)


def cmd_validate(cfg: RunConfig) -> tuple[list[str], bool]:
    lines, all_ok = [], True
    for name, measured, threshold, ok in _validation_checks(cfg):
        lines.append(_csv_line((name, float(measured), threshold, "pass" if ok else "FAIL")))
        all_ok &= ok
    return lines, all_ok


class _Command(NamedTuple):
    """A subcommand: its handler, which returns the CSV lines below the
    header and whether every check passed, its help, and its columns."""

    run: Callable[[RunConfig], tuple[list[str], bool]]
    help: str
    columns: tuple[str, ...]


_COMMANDS = {
    "coeffs": _Command(
        cmd_coeffs, "emit the twelve perturbative coefficients",
        ("z", "gamma_z",
         *(f"{name}{i}_{part}" for name in "fgh" for i in range(1, 5) for part in ("re", "im")),
         "status")),
    "zeno": _Command(
        cmd_zeno, "emit Zeno-parameter samples along z",
        ("z", "gamma_z", "n_b2", "n_b2_uncoupled", "delta_n_z", "classification", "status")),
    "sweep": _Command(
        cmd_sweep, "emit a 1-D or 2-D Zeno-parameter grid",
        ("axis_name", "axis_value", "z", "gamma_z", "n_b2", "n_b2_uncoupled", "delta_n_z",
         "classification", "status")),
    "oracle": _Command(
        cmd_oracle, "run the exact Fock-space propagation",
        ("z", "gamma_z", "n_a", "n_b1", "n_b2", "conservation_drift", "norm_drift",
         "steps_used", "status")),
    "validate": _Command(
        cmd_validate, "run the full invariant suite (exit 0 iff all checks pass)",
        ("check", "measured", "threshold", "status")),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every
    caller, `main` included: parsing leaves it unchanged, and no caller may
    modify it."""
    parser = argparse.ArgumentParser(
        prog="zenocoupler",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, columns) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text,
                           description=f"Columns: {', '.join(columns)}.")
        for name, setting in _SETTINGS.items():
            if command in setting.commands:
                text = setting.default_for(command)
                default = f" (default {text})" if text else ""
                p.add_argument(_flag(name), dest=name, help=setting.help + default)
        p.add_argument("--config", help="key=value config file")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = _COMMANDS[args.command]
    try:
        cfg = RunConfig(args)
        lines, passed = command.run(cfg)
        text = "\n".join([",".join(command.columns), *lines]) + "\n"
        if cfg.out:
            with open(cfg.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (NonConvergence, ExcessiveTruncationLoss) as exc:
        print(f"error: oracle failure: {exc}", file=sys.stderr)
        return EXIT_ORACLE_FAILURE
    except (ValueError, OSError) as exc:  # InvalidParameters is a ValueError
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    return EXIT_OK if passed else EXIT_VALIDATION_FAILED


if __name__ == "__main__":
    sys.exit(main())
