"""Experiment harness: config loading, subcommands, deterministic CSV output.

Determinism contract: given the same config, seed, and inputs, every run
writes byte-identical output.  Timing is only recorded when explicitly
requested, since wall times are never reproducible.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import __version__, balance, counting, coprime
from . import amplifier as amp_mod
from .arith import factorize
from .errors import (
    ConstructionFailed,
    ContainmentError,
    SearchExhausted,
    TheoremViolation,
    UsageError,
)
from .lattice import Lattice4, MaximalOrder, default_maximal_order
from .quat import QuatAlg, UpperHalfPoint, ZBox, box_constant

log = logging.getLogger("quatlat")

DEFAULT_Z_BOX = (-0.5, 0.5, 0.8, 1.2)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _to_fraction(v) -> Fraction:
    if isinstance(v, bool):
        raise UsageError("expected a rational, got a boolean")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, (float, str)):
        try:
            return Fraction(str(v) if isinstance(v, float) else v)
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"cannot read {v!r} as a rational") from None
    raise UsageError(f"cannot read {v!r} as a rational")


def _to_float(v) -> float:
    try:
        return float(_to_fraction(v))
    except OverflowError:
        raise UsageError(f"{v!r} does not fit in a float") from None


def _to_int(v, what: str) -> int:
    """An integer from a config value or the environment."""
    if isinstance(v, float) and v.is_integer():
        return int(v)
    if isinstance(v, str):
        try:
            return int(v)
        except ValueError:
            pass
    elif isinstance(v, int) and not isinstance(v, bool):
        return v
    raise UsageError(f"{what} must be an integer, got {v!r}")


def _algebra(raw) -> QuatAlg:
    """The algebra from a config value: [p, q] or {"p": p, "q": q}."""
    if isinstance(raw, dict) and "p" in raw and "q" in raw:
        p, q = raw["p"], raw["q"]
    elif isinstance(raw, list) and len(raw) == 2:
        p, q = raw
    else:
        raise UsageError('algebra must be [p, q] or {"p": p, "q": q}')
    return QuatAlg(_to_int(p, "algebra p"), _to_int(q, "algebra q"))


def parse_factored(text: str) -> dict[int, int]:
    """Parse 'p1^e1*p2^e2' (or '1') into an exponent map of a level <= 2^800."""
    text = text.strip()
    if text in ("", "1"):
        return {}
    out: dict[int, int] = {}
    for part in text.split("*"):
        if "^" in part:
            p_s, e_s = part.split("^", 1)
        else:
            p_s, e_s = part, "1"
        try:
            p, e = int(p_s), int(e_s)
        except ValueError:
            raise UsageError(f"bad factored chunk {part!r}") from None
        if p < 2 or e < 0:
            raise UsageError(f"bad factored chunk {part!r}")
        out[p] = out.get(p, 0) + e
    level = 1
    for p, e in out.items():
        # exponent prints value^24, at most level^16, which past 2^800 would
        # overrun Python's 4,300-digit int printing; p^e >= 2^(e (bits - 1))
        if e * (p.bit_length() - 1) > 800 or (level := level * p**e) > 2**800:
            raise UsageError(f"level {text!r} exceeds the cap 2^800")
    return out


def _format_factored(fac) -> str:
    items = sorted(dict(fac).items())
    if not items:
        return "1"
    return "*".join(f"{p}^{e}" for p, e in items)


@dataclass(frozen=True)
class ExperimentConfig:
    alg: QuatAlg
    mo: MaximalOrder | None
    order_lat: Lattice4 | None
    delta: float
    z_box: ZBox
    l_max: int
    squares_only: bool
    samples: int
    seed: int


def _lattice_rows(obj, what: str) -> tuple[list[list[int]], int]:
    """Integer (1, I, J, IJ) rows and their denominator from {"mat", "den"}."""
    if not isinstance(obj, dict) or "mat" not in obj:
        raise UsageError(f"{what} must be an object with 'mat' (16 integers) and 'den'")
    mat = obj["mat"]
    den = obj.get("den", 1)
    # JSON true and false load as bool, a subclass of int
    if not isinstance(mat, list) or len(mat) != 16 or not all(type(v) is int for v in mat):
        raise UsageError(f"{what}.mat must hold exactly 16 integers")
    if type(den) is not int or den < 1:
        raise UsageError(f"{what}.den must be a positive integer")
    return [mat[4 * i:4 * i + 4] for i in range(4)], den


def _order_lattice(mo: MaximalOrder, obj) -> Lattice4:
    """The order given as {"mat", "den"}, refused unless it lies in mo.

    Every command on an order measures it inside the maximal order (level,
    invariant factors, balance), so one outside it is a usage error here.
    """
    lat = mo.lattice_from_ijk(*_lattice_rows(obj, "order"))
    if not lat.is_sublattice_of(mo.lattice):
        raise ContainmentError("order is not contained in the maximal order")
    return lat


def _read_json(path: str, what: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise UsageError(f"cannot read {what}: {e}") from None
    except ValueError as e:  # a JSONDecodeError, or an int past 4,300 digits
        raise UsageError(f"{what} is not valid JSON: {e}") from None


def load_config(args, need_lattice: bool = True) -> ExperimentConfig:
    """The config file named by --config, with count's flags laid over it.

    A subcommand's args hold only the flags it offers: without --config
    the defaults apply, and only count can override the sweep settings.
    """
    raw = {}
    path = getattr(args, "config", None)
    if path is not None:
        raw = _read_json(path, "config")
    if not isinstance(raw, dict):
        raise UsageError("config must be a JSON object")
    alg = _algebra(raw.get("algebra", {"p": 3, "q": -1}))
    mo = order_lat = None
    if need_lattice:
        if "maximal_order" in raw:
            rows, den = _lattice_rows(raw["maximal_order"], "maximal_order")
            mo = MaximalOrder(alg, [[Fraction(v, den) for v in row] for row in rows])
        else:
            mo = default_maximal_order(alg)
            log.info(
                "maximal order not given; saturated from the standard basis to "
                "level-1 order with reduced discriminant %s",
                mo.discriminant,
            )
        if "order" in raw:
            order_lat = _order_lattice(mo, raw["order"])
        else:
            order_lat = mo.lattice
    delta = _to_float(raw.get("delta", 1))
    if getattr(args, "delta", None) is not None:
        delta = args.delta
    zb = raw.get("z_box", list(DEFAULT_Z_BOX))
    if not isinstance(zb, list) or len(zb) != 4:
        raise UsageError("z_box must hold 4 reals")
    z_box = ZBox(*(_to_float(v) for v in zb))
    sweep = raw.get("sweep", {})
    if not isinstance(sweep, dict):
        raise UsageError("sweep must be a JSON object")
    l_max = _to_int(sweep.get("l_max", 10), "sweep.l_max")
    squares_only = sweep.get("squares_only", False)
    if not isinstance(squares_only, bool):
        raise UsageError(f"sweep.squares_only must be true or false, got {squares_only!r}")
    samples = _to_int(sweep.get("samples", 4), "sweep.samples")
    seed = _to_int(sweep.get("seed", 0), "sweep.seed")
    if getattr(args, "lmax", None) is not None:
        l_max = args.lmax
    if getattr(args, "squares", False):
        squares_only = True
    if getattr(args, "seed", None) is not None:
        seed = args.seed
    if l_max < 1 or samples < 1:
        raise UsageError("l_max and samples must be positive")
    return ExperimentConfig(
        alg=alg,
        mo=mo,
        order_lat=order_lat,
        delta=delta,
        z_box=z_box,
        l_max=l_max,
        squares_only=squares_only,
        samples=samples,
        seed=seed,
    )


def _van_der_corput(i: int, base: int) -> float:
    v, denom = 0.0, 1.0
    n = i
    while n:
        denom *= base
        n, rem = divmod(n, base)
        v += rem / denom
    return v


def sample_points(box: ZBox, samples: int, seed: int) -> list[UpperHalfPoint]:
    """Low-discrepancy points in the box: van der Corput grid plus jitter.

    The jitter stream is drawn up front in sample order, so the list is a
    pure function of (box, samples, seed).
    """
    rng = random.Random(seed)
    wx = box.x_max - box.x_min
    wy = box.y_max - box.y_min
    pts = []
    for i in range(samples):
        jx = rng.uniform(-0.5, 0.5) / max(4 * samples, 8)
        jy = rng.uniform(-0.5, 0.5) / max(4 * samples, 8)
        fx = min(max(_van_der_corput(i + 1, 2) + jx, 0.0), 1.0)
        fy = min(max(_van_der_corput(i + 1, 3) + jy, 0.0), 1.0)
        pts.append(UpperHalfPoint(box.x_min + wx * fx, box.y_min + wy * fy))
    return pts


def _atomic_write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    tmp = path + ".tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as e:
        raise UsageError(f"cannot write {path}: {e}") from None


def _cmd_algebra(cfg: ExperimentConfig, args) -> str:
    alg, mo = cfg.alg, cfg.mo
    lines = [
        f"algebra: ({alg.p}, {alg.q})",
        f"ramified: {sorted(alg.ramified_set())}",
        f"discriminant: {alg.discriminant}",
        f"maximal order rows (den {mo.lattice.den}): {mo.lattice.mat}",
        f"trace-zero gram: {mo.gram0}",
        f"maximal order shape: {mo.lattice.shape().tuple3()}",
    ]
    return "\n".join(lines) + "\n"


def _cmd_order(cfg: ExperimentConfig, args) -> str:
    lat = cfg.order_lat
    sh = lat.shape()
    inv = lat.invariant_factors
    lines = [
        f"level: {lat.level()}",
        f"shape: {sh.tuple3()} (split index co-factor {sh.e})",
        f"invariant factors: {inv.factors} (t1 {inv.t1})",
        f"is_order: {lat.is_order()}",
        f"is_balanced: {lat.is_balanced()}",
        f"smith_condition: {balance.smith_condition(lat)}",
        f"reduced discriminant: {lat.reduced_discriminant()}",
    ]
    return "\n".join(lines) + "\n"


def _cmd_count(cfg: ExperimentConfig, args) -> str:
    lat = cfg.order_lat
    t = box_constant(cfg.delta, cfg.z_box, cfg.alg, frame_inv=cfg.mo._from_ijk)
    witness = counting.build_injection(lat)
    sh = lat.shape()
    rows = []
    for idx, z in enumerate(sample_points(cfg.z_box, cfg.samples, cfg.seed)):
        q = counting.CountQuery(lat, z, cfg.delta, cfg.l_max, cfg.squares_only)
        rep = counting.sweep_counts(q, witness, t)
        wall = rep.wall_ms if args.timing else 0.0
        rows.append(
            f"{cfg.seed}-{idx},{sh.level},{sh.m1},{sh.m2},{sh.m3},{sh.e},"
            f"{cfg.l_max},{int(cfg.squares_only)},{cfg.delta!r},"
            f"{z.x!r},{z.y!r},{t.t!r},{rep.total},{rep.explicit_bound},"
            f"{rep.ratio!r},{wall!r}"
        )
    header = [
        f"# quatlat {__version__}",
        f"# seed={cfg.seed} delta={cfg.delta!r} box_t={t.t!r}",
        f"# u_slack={counting.U_SLACK!r} prefilter_margin={counting.PREFILTER_SLACK!r}",
        f"# z_box=({cfg.z_box.x_min!r},{cfg.z_box.x_max!r},"
        f"{cfg.z_box.y_min!r},{cfg.z_box.y_max!r})",
        "run_id,N,M1,M2,M3,e,lmax,squares_only,delta,z_x,z_y,t,total,"
        "explicit_bound,ratio,wall_ms",
    ]
    return "\n".join(header + rows) + "\n"


def _cmd_balance(cfg: ExperimentConfig, args) -> str:
    if args.order:
        lat = _order_lattice(cfg.mo, _read_json(args.order, "order file"))
    else:
        lat = cfg.order_lat
    primes = frozenset(factorize(lat.level())) or frozenset({2})
    spec = balance.BalanceSearchSpec(lat, primes, args.kmax, args.height)
    res = balance.balanced_search(spec)
    if res is None:
        raise SearchExhausted(
            f"no balanced conjugate found (kmax {args.kmax}, height {args.height})"
        )
    gamma, conj = res
    before = lat.invariant_factors
    after = conj.invariant_factors
    coord_text = ",".join(str(v) for v in gamma.coords())
    lines = [
        f"conjugator: ({coord_text}) (nrd {gamma.nrd()})",
        f"before: {before.factors}",
        f"after: {after.factors}",
        f"balanced: {conj.is_balanced()} smith: {balance.smith_condition(conj)}",
    ]
    return "\n".join(lines) + "\n"


def _cmd_coprime(cfg: ExperimentConfig, args) -> str:
    if args.infile:
        try:
            with open(args.infile) as fh:
                lines = fh.read().splitlines()
        except OSError as e:
            raise UsageError(f"cannot read problem file: {e}") from None
    else:
        lines = sys.stdin.read().splitlines()
    out = []
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(";")
        if len(parts) < 2:
            raise UsageError(f"bad problem line {line!r}: want 'a0,...,an;N[;c[;bound]]'")
        try:
            a = tuple(int(v) for v in parts[0].split(","))
            big_n = int(parts[1])
            c = int(parts[2]) if len(parts) > 2 and parts[2] else 2
            bound = int(parts[3]) if len(parts) > 3 and parts[3] else None
        except ValueError:
            raise UsageError(f"bad problem line {line!r}: entries must be integers") from None
        prob = coprime.CombinationProblem(a, big_n, c, bound)
        sols = coprime.solve(prob)
        out.append(" ".join(",".join(str(v) for v in s) for s in sols))
    return "\n".join(out) + "\n"


def _cmd_amp(cfg: ExperimentConfig, args) -> str:
    bad = frozenset(cfg.alg.ramified_set())
    sample = None
    if args.satake:
        raw = _read_json(args.satake, "satake file")
        if not isinstance(raw, dict):
            raise UsageError("satake file must map primes to rationals")
        sample = amp_mod.SatakeSample(
            tuple((_to_int(p, "satake prime"), _to_fraction(v)) for p, v in raw.items())
        )
    spec = amp_mod.amplifier_spec(_to_fraction(args.lam), bad, sample=sample)
    combo = amp_mod.build_amplifier(spec)
    lines = [f"primes: {spec.prime_set}"]
    for l, c in combo.coeffs:
        if c.is_real():
            lines.append(f"y[{l}] = {c.re}")
        else:
            lines.append(f"y[{l}] = {c.re} + {c.im}i")
    if sample is not None:
        val = amp_mod.eigenvalue_lower_bound(spec, sample)
        lines.append(f"eigenvalue: {val} >= |P|^2/8 = {Fraction(len(spec.prime_set)**2, 8)}")
    return "\n".join(lines) + "\n"


def _cmd_exponent(cfg: ExperimentConfig, args) -> str:
    n_fac = parse_factored(args.n)
    mode = args.mode
    if mode == "maingen":
        rep = amp_mod.exponent_bound(n_fac)
    elif mode == "minimal":
        rep = amp_mod.minimal_type_profile(n_fac)
    elif mode == "microlocal":
        rep = amp_mod.microlocal_profile(n_fac)
    elif mode == "newform":
        rep = amp_mod.newform_bound(n_fac, parse_factored(args.m or "1"))
    else:
        raise UsageError(f"unknown mode {mode!r}")
    lines = [f"branch: {rep.branch}"]
    if rep.exponent is not None:
        lines.append(f"exponent: {rep.exponent}")
    if rep.n_level is not None:
        lines.append(f"level: {_format_factored(dict(rep.n_level))}")
    if rep.n1 is not None:
        lines.append(f"N1: {rep.n1}")
    if rep.c1 is not None:
        lines.append(f"C1: {rep.c1}")
    if rep.dim != 1:
        lines.append(f"dim: {rep.dim}")
    for p, ex in rep.extras:
        lines.append(f"extra: {p}^{ex}")
    lines.append(f"value^24: {rep.value_pow24}")
    lines.append(f"lambda choices: {', '.join(rep.lambda_choices)}")
    return "\n".join(lines) + "\n"


def _positive_int(text: str) -> int:
    try:
        v = int(text)
    except ValueError:
        v = 0
    if v < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return v


def _build_parser() -> _Parser:
    """Each subcommand offers --out, and only the other flags it reads.

    --config goes to the subcommands that read the config.  --threads is
    accepted by count and balance for compatibility and changes nothing:
    the work is pure-Python arithmetic, which threads cannot run in parallel.
    """
    parser = _Parser(prog="quatlat", description="quaternion lattice experiments")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add(name, config=True):
        p = sub.add_parser(name)
        if config:
            p.add_argument("--config", default=None)
        p.add_argument("--out", default=None)
        return p

    add("algebra")
    add("order")
    p_count = add("count")
    p_count.add_argument("--seed", type=int, default=None)
    p_count.add_argument("--threads", type=_positive_int, default=None)
    p_count.add_argument("--delta", type=float, default=None)
    p_count.add_argument("--lmax", type=int, default=None)
    p_count.add_argument("--squares", action="store_true")
    p_count.add_argument("--timing", action="store_true")
    p_bal = add("balance")
    p_bal.add_argument("--threads", type=_positive_int, default=None)
    p_bal.add_argument(
        "--order", default=None,
        help='order file, JSON {"den": d, "mat": [16 ints]} of (1, I, J, IJ) '
        "coordinates times d (default: the configured order)")
    p_bal.add_argument(
        "--kmax", type=int, default=3,
        help="largest total exponent of a candidate conjugator norm (default 3)")
    p_bal.add_argument(
        "--height", type=int, default=64,
        help="coordinate cap; the search runs at heights 2, 4, 8, ... and "
        "finally at the cap (default 64, at most 85: a box of 10^7 slices)")
    p_cop = add("coprime", config=False)
    p_cop.add_argument("--in", dest="infile", default=None)
    p_amp = add("amp")
    p_amp.add_argument("--lambda", dest="lam", required=True)
    p_amp.add_argument("--satake", default=None)
    p_exp = add("exponent", config=False)
    p_exp.add_argument("--n", required=True)
    p_exp.add_argument(
        "--mode",
        default="maingen",
        choices=("maingen", "minimal", "microlocal", "newform"),
    )
    p_exp.add_argument("--m", default=None)
    return parser


# built once: parsing never mutates the parser, and rebuilding it per call
# left a cyclic structure of some 500 objects for the collector each time
_PARSER = _build_parser()

_DISPATCH = {
    "algebra": (_cmd_algebra, True),
    "order": (_cmd_order, True),
    "count": (_cmd_count, True),
    "balance": (_cmd_balance, True),
    "coprime": (_cmd_coprime, False),
    "amp": (_cmd_amp, False),
    "exponent": (_cmd_exponent, False),
}


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    try:
        args = _PARSER.parse_args(argv)
        handler, need_lattice = _DISPATCH[args.cmd]
        cfg = load_config(args, need_lattice=need_lattice)
        text = handler(cfg, args)
        _atomic_write(args.out, text)
        return 0
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except TheoremViolation as e:
        print(f"theorem violation (implementation bug): {e}", file=sys.stderr)
        return 2
    except ConstructionFailed as e:
        print(f"construction failed: {e}", file=sys.stderr)
        return 3
    except SearchExhausted as e:
        print(f"search exhausted: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
