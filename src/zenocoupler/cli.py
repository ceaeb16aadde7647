"""Command-line front end: coefficient tables, Zeno scans, figure sweeps,
oracle propagation, and the self-validation suite.

Exit codes: 0 success, 1 validation failure, 2 invalid input,
3 degenerate parameters, 4 oracle failure.

Complex values are accepted as "re", "re+imI" (e.g. 0.1-0.25I) or polar
"mag@phase_rad" (e.g. 2@1.5708).  Config files are flat key=value text
with '#' comments; a key is a flag of the subcommand without its leading
dashes and with underscores for hyphens, and any other key is an error.
"""

from __future__ import annotations

import argparse
import cmath
import math
import re
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import observables
from .coefficients import compute_coefficients, compute_h2_prime
from .errors import DegenerateParameters, ExcessiveTruncationLoss, NonConvergence
from .fock import TruncationSpec, oracle_zeno_parameter, propagate
from .observables import mode_means, zeno_parameter, zeno_sample
from .params import CoherentInputs, CouplerParams
from .sweep import (
    SECONDARY_AXES,
    AxisSpec,
    SweepSpec,
    preset_sweep,
    run_sweep,
    z_from_gamma_z,
)

EXIT_OK = 0
EXIT_VALIDATION_FAILED = 1
EXIT_INVALID_INPUT = 2
EXIT_DEGENERATE = 3
EXIT_ORACLE_FAILURE = 4

_POLAR_RE = re.compile(r"^([^@]+)@([^@]+)$")


def parse_complex(text: str) -> complex:
    """Parse "re", "re+imI" or polar "mag@phase_rad"."""
    t = text.strip().replace(" ", "")
    if not t:
        raise ValueError("empty complex literal")
    m = _POLAR_RE.match(t)
    if m:
        return float(m.group(1)) * cmath.exp(1j * float(m.group(2)))
    if t[-1] in "Ii":
        body = t[:-1]
        split = None
        for pos in range(len(body) - 1, 0, -1):
            if body[pos] in "+-" and body[pos - 1] not in "eE":
                split = pos
                break
        if split is None:
            re_part, im_part = "0", body
        else:
            re_part, im_part = body[:split], body[split:]
        if im_part in ("", "+"):
            im_part = "1"
        elif im_part == "-":
            im_part = "-1"
        return complex(float(re_part), float(im_part))
    return complex(float(t), 0.0)


def format_complex(x: complex) -> str:
    """Canonical rectangular encoding; parse(format(x)) == x."""
    x = complex(x)
    if x.imag == 0:
        return repr(x.real)
    sign = "+" if x.imag >= 0 else "-"
    return f"{repr(x.real)}{sign}{repr(abs(x.imag))}I"


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
    """How a setting is parsed from its text, its default text, its help,
    and the subcommands that read it."""

    parse: Callable[[str], object]
    default: str | None
    help: str
    commands: tuple[str, ...]


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
    "alpha": _Setting(parse_complex, "5", "probe-mode amplitude (complex)", _DRIVEN),
    "beta": _Setting(parse_complex, "2", "fundamental-mode amplitude (complex)", _DRIVEN),
    "gamma": _Setting(parse_complex, "1", "second-harmonic amplitude (complex)", _DRIVEN),
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
                text = _SETTINGS[name].default
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


def write_table(header: list[str], rows: list[list], out_path: str | None) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(c) for c in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_coeffs(args) -> int:
    cfg = RunConfig(args)
    params = cfg.params()
    g = abs(cfg.gamma_nl)
    header = ["z", "gamma_z"]
    names = ["f1", "f2", "f3", "f4", "g1", "g2", "g3", "g4", "h1", "h2", "h3", "h4"]
    for n in names:
        header += [f"{n}_re", f"{n}_im"]
    header.append("status")
    rows = []
    for z in cfg.z_values():
        c = compute_coefficients(params, float(z))
        row = [float(z), g * float(z)]
        for v in (*c.f, *c.g, *c.h):
            row += [v.real, v.imag]
        row.append("ok")
        rows.append(row)
    write_table(header, rows, cfg.out)
    return EXIT_OK


def cmd_zeno(args) -> int:
    cfg = RunConfig(args)
    params = cfg.params()
    inputs = cfg.inputs()
    g = abs(cfg.gamma_nl)
    header = ["z", "gamma_z", "n_b2", "n_b2_uncoupled", "delta_n_z",
              "classification", "status"]
    rows = []
    for z in cfg.z_values():
        s = zeno_sample(params, inputs, float(z), cfg.tol)
        rows.append([s.z, g * s.z, s.n_b2, s.n_b2_uncoupled, s.delta_n_z,
                     s.classification.value, "ok"])
    write_table(header, rows, cfg.out)
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = RunConfig(args)
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
    header = ["axis_name", "axis_value", "z", "gamma_z", "n_b2",
              "n_b2_uncoupled", "delta_n_z", "classification", "status"]
    rows = []
    axis_name = spec.secondary_name or ""
    for c in result.cells:
        if c.sample is None:
            rows.append([axis_name, c.secondary_value if c.secondary_value is not None else "",
                         "", c.gamma_z, "", "", "", "", c.status])
            # the reason goes to stderr: the CSV's columns are fixed
            where = f"{axis_name}={_fmt(c.secondary_value)}, " if axis_name else ""
            print(f"{c.status} cell {where}gamma_z={_fmt(c.gamma_z)}: {c.message}",
                  file=sys.stderr)
        else:
            s = c.sample
            rows.append([axis_name, c.secondary_value if c.secondary_value is not None else "",
                         s.z, c.gamma_z, s.n_b2, s.n_b2_uncoupled, s.delta_n_z,
                         s.classification.value, c.status])
    write_table(header, rows, cfg.out)
    return EXIT_OK


def cmd_oracle(args) -> int:
    cfg = RunConfig(args)
    params = cfg.params()
    inputs = cfg.inputs()
    g = abs(cfg.gamma_nl)
    header = ["z", "gamma_z", "n_a", "n_b1", "n_b2", "conservation_drift",
              "norm_drift", "steps_used", "status"]
    rows = []
    for z in cfg.z_values(default_gamma_z="0.05"):
        report = propagate(params, inputs, float(z), cfg.cutoffs)
        na, n1, n2 = report.expectations
        rows.append([float(z), g * float(z), na, n1, n2,
                     report.conservation_drift, report.norm_drift,
                     report.steps_used, "ok"])
    write_table(header, rows, cfg.out)
    return EXIT_OK


def _validation_checks(cfg, break_gamma_linearity: bool):
    """Yield (name, measured, threshold_text, passed)."""
    rng = np.random.default_rng(20240815)

    def random_params():
        k_mag = rng.uniform(0.05, 1.0)
        k = k_mag * np.exp(1j * rng.uniform(0, 2 * np.pi))
        g = k_mag * rng.uniform(1e-4, 0.05) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        dk = rng.uniform(0.0, 1.5 * k_mag)
        if abs(dk - 2 * k_mag) < 0.1 * k_mag:
            dk = 2.3 * k_mag
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
    if break_gamma_linearity:
        worst += 1e-6
    yield ("gamma_linearity", worst, "<=1e-13", worst <= 1e-13)

    # continuity across the series switch
    k, z = 1.0, 1.0
    below = compute_coefficients(
        CouplerParams(k=k, gamma_nl=0.01, delta_k=0.999e-6), z
    )
    above = compute_coefficients(
        CouplerParams(k=k, gamma_nl=0.01, delta_k=1.001e-6), z
    )
    worst = 0.0
    for a, b in zip((*below.f, *below.g, *below.h), (*above.f, *above.g, *above.h)):
        if abs(b) > 1e-300:
            worst = max(worst, abs(a - b) / abs(b))
    # the closed form just above the switch carries ~eps/|dk z| cancellation
    # error, so continuity is only meaningful to ~1e-8 relative
    yield ("series_switch_continuity", worst, "<=1e-8", worst <= 1e-8)

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

    # oracle: unitarity, conservation, and gamma^2 contraction at fixed z
    small = CoherentInputs(alpha=1.0, beta=1.0, gamma=0.5)
    trunc = TruncationSpec(10, 10, 6)
    z_fix = 50.0
    diffs = []
    for g_nl in (1e-3, 5e-4):
        pg = CouplerParams(k=0.1, gamma_nl=g_nl, delta_k=1e-4)
        report = propagate(pg, small, z_fix, trunc)
        if g_nl == 1e-3:
            yield ("oracle_norm_drift", report.norm_drift, "<=1e-10",
                   report.norm_drift <= 1e-10)
            yield ("oracle_conservation_drift", report.conservation_drift,
                   "<=1e-8", report.conservation_drift <= 1e-8)
        exact = oracle_zeno_parameter(pg, small, z_fix, trunc)
        diffs.append(abs(exact - zeno_parameter(pg, small, z_fix)))
    ratio = diffs[0] / diffs[1] if diffs[1] > 0 else math.inf
    yield ("oracle_gamma2_contraction", ratio, "in [3..5]", 3.0 <= ratio <= 5.0)


def cmd_validate(args) -> int:
    cfg = RunConfig(args)
    header = ["check", "measured", "threshold", "status"]
    rows = []
    all_ok = True
    for name, measured, threshold, ok in _validation_checks(
        cfg, args.debug_break_gamma_linearity
    ):
        rows.append([name, float(measured), threshold, "pass" if ok else "FAIL"])
        all_ok &= ok
    write_table(header, rows, cfg.out)
    return EXIT_OK if all_ok else EXIT_VALIDATION_FAILED


# subcommand -> (handler, help, output columns)
_COMMANDS = {
    "coeffs": (cmd_coeffs, "emit the twelve perturbative coefficients",
               "z, gamma_z, then (re, im) pairs for f1..f4, g1..g4, h1..h4, then status"),
    "zeno": (cmd_zeno, "emit Zeno-parameter samples along z",
             "z, gamma_z, n_b2, n_b2_uncoupled, delta_n_z, classification, status"),
    "sweep": (cmd_sweep, "emit a 1-D or 2-D Zeno-parameter grid",
              "axis_name, axis_value, z, gamma_z, n_b2, n_b2_uncoupled, delta_n_z, "
              "classification, status"),
    "oracle": (cmd_oracle, "run the exact Fock-space propagation",
               "z, gamma_z, n_a, n_b1, n_b2, conservation_drift, norm_drift, "
               "steps_used, status"),
    "validate": (cmd_validate, "run the full invariant suite (exit 0 iff all checks pass)",
                 "check, measured, threshold, status"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zenocoupler",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, help_text, columns) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text, description=f"Columns: {columns}.")
        for name, setting in _SETTINGS.items():
            if command in setting.commands:
                default = f" (default {setting.default})" if setting.default else ""
                p.add_argument(_flag(name), dest=name, help=setting.help + default)
        p.add_argument("--config", help="key=value config file")
        p.set_defaults(func=func)
        if command == "validate":
            p.add_argument("--debug-break-gamma-linearity", action="store_true",
                           help="inject a perturbation into the gamma-linearity "
                           "check (forces a failure; for testing the harness)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DegenerateParameters as exc:
        print(f"error: degenerate parameters: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (NonConvergence, ExcessiveTruncationLoss) as exc:
        print(f"error: oracle failure: {exc}", file=sys.stderr)
        return EXIT_ORACLE_FAILURE
    except (ValueError, OSError) as exc:  # InvalidParameters is a ValueError
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
