"""Workload generator, op mixes and output checks for the quatlat benchmark.

Each workload is built from the workload seed alone.  Its constructor is the
set-up phase: the maximal order, the orders under test, witnesses, box
constants, and the input files (configs and order JSON) that the ``quatlat``
CLI reads.  The program only ever sees those generated inputs and the points
the seed selects through ``cli.sample_points``.

A workload exposes ``cycle``, a fixed list of ops run in a fixed order by one
closed-loop client, and ``check``, which compares every op's output with its
expected output once the timed pass is over.  Expected outputs come from
``references.json`` (recorded for the default and the held-out seed) and, for
every seed, from checks that hold whatever the seed is:

* ``count``: each CSV row is rebuilt from the seed-free columns of the
  default-seed reference, the sampled points, and a total recounted norm by
  norm with ``enumerate_norm_ball``; rows are identical at ``--threads 1``
  and ``--threads 2``, and ``total <= explicit_bound``;
* ``certify``: the per-norm counts must equal those of ``sweep_counts`` for
  the same query, the bound must equal the reference bound, every doubled
  element satisfies the congruences, the projection is injective, and the
  small-norm report keeps its certified range;
* ``balance``: the inputs do not depend on the seed, so stdout must equal
  the reference; each conjugate is also rebuilt and must lie in the maximal
  order, keep the level and be balanced.

Module attributes (``cli.main``, ``counting.enumerate_norm_ball``, ...) are
looked up at call time so the tracer's wrappers see every call.
"""

from __future__ import annotations

import io
import json
import logging
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable

from quatlat import cli, counting, intmat, lattice, quat
from quatlat.arith import factorize

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")
DEFAULT_SEED = 1
HELD_OUT_SEED = 2

ALGEBRA = (3, -1)
BOX = cli.DEFAULT_Z_BOX
SMALL_BOX = (-0.25, 0.25, 0.9, 1.15)
DELTA = 1.0
SMALL_DELTA = 0.05
MIN_OPS = 100


@dataclass(frozen=True)
class Op:
    """One request of the closed loop: ``run`` returns (exit code, stdout, stderr)."""

    label: str  # input and thread count, e.g. "e5-L6@t2"
    key: str  # expected-output key shared by ops that must agree
    cls: str  # op class of similar cost, e.g. "e5-L6" or "zf3-L16"
    run: Callable[[], tuple[int, str, str]]


_LOG = logging.StreamHandler()


def install_log_capture() -> None:
    """Route the CLI's log records to a per-op buffer.

    ``cli.main`` calls ``logging.basicConfig(stream=sys.stderr, ...)``, which
    does nothing once the root logger has a handler; this handler keeps the
    same level and format, and ``run_cli`` points it at each op's buffer.
    """
    _LOG.setFormatter(logging.Formatter("%(message)s"))
    root = logging.getLogger()
    if _LOG not in root.handlers:
        root.addHandler(_LOG)
    root.setLevel(logging.INFO)


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    _LOG.setStream(err)
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def load_references() -> dict:
    """Recorded outputs; empty before the first recording, so every op fails."""
    if not os.path.exists(REFERENCES):
        return {}
    with open(REFERENCES) as fh:
        return json.load(fh)


def _order_json(lat) -> dict:
    """An order as the CLI reads it: (1, I, J, IJ) rows over one denominator."""
    rows = [q.coords() for q in lat.basis_quats()]
    den = 1
    for row in rows:
        for v in row:
            den = lcm(den, v.denominator)
    return {"den": den, "mat": [int(v * den) for row in rows for v in row]}


def _write_json(path: str, obj) -> str:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True)
    return path


class _Base:
    name = ""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.alg = quat.QuatAlg(*ALGEBRA)
        self.mo = lattice.default_maximal_order(self.alg)
        self.i1 = self.alg.quat(0, 1, 0, 0)
        self.frame_inv = intmat.inverse_frac([list(r) for r in self.mo.basis])
        self.box = quat.ZBox(*BOX)
        self.t = quat.box_constant(DELTA, self.box, self.alg, frame_inv=self.frame_inv)
        self.refs = load_references().get(self.name, {})

    @staticmethod
    def canonical(stdout: str) -> str:
        """The part of an op's stdout that must equal the expected output."""
        return stdout


# ---------------------------------------------------------------------------
# count: the user's end-to-end path, one in-process CLI call per op
# ---------------------------------------------------------------------------

# (label, order, l_max, squares_only, weight); weight = repeats per cycle
COUNT_INPUTS = (
    ("max-L2", "max", 2, False, 1),
    ("e5-L6", "e5", 6, False, 1),
    ("e13-L7", "e13", 7, False, 1),
    ("zw7-L16", "zw7", 16, False, 1),
    ("zf3-L12", "zf3", 12, False, 1),
    ("e5-sq2", "e5", 2, True, 1),
    ("zw7-sq4", "zw7", 4, True, 1),
)


class CountWorkload(_Base):
    name = "count"
    samples = 2

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        mo, i1 = self.mo, self.i1
        self.orders = {
            "max": mo.lattice,
            "e5": lattice.eichler_order(mo, 5)[0],
            "e13": lattice.eichler_order(mo, 13)[0],
            "zw7": lattice.z_plus_zw_order(mo, i1, 7),
            "zf3": lattice.z_plus_f_order(mo, 3),
        }
        self.configs = {}
        for key, lat in self.orders.items():
            cfg = {"algebra": {"p": ALGEBRA[0], "q": ALGEBRA[1]},
                   "sweep": {"samples": self.samples}}
            if key != "max":
                cfg["order"] = _order_json(lat)
            self.configs[key] = _write_json(os.path.join(workdir, f"count-{key}.json"), cfg)
        self.points = cli.sample_points(self.box, self.samples, seed)
        self.cycle = []
        for label, key, l_max, squares, weight in COUNT_INPUTS:
            for _ in range(weight):
                for threads in (1, 2):
                    argv = ["count", "--config", self.configs[key], "--seed", str(seed),
                            "--lmax", str(l_max), "--threads", str(threads)]
                    if squares:
                        argv.append("--squares")
                    self.cycle.append(Op(f"{label}@t{threads}", label, label,
                                         lambda a=argv: run_cli(a)))

    def _recount(self, key: str, l_max: int, squares: bool, z) -> int:
        """Ball count for one row, norm by norm through the per-norm enumerator."""
        lat = self.orders[key]
        norms = [l * l for l in range(1, l_max + 1)] if squares else range(1, l_max + 1)
        return sum(len(counting.enumerate_norm_ball(lat, m, z, DELTA, self.t)) for m in norms)

    def expected(self) -> dict[str, tuple[str, list[str]]]:
        """Per input: (expected CSV text without '#' lines, invariant failures)."""
        default = self.refs.get(str(DEFAULT_SEED), {})
        recorded = self.refs.get(str(self.seed))
        out = {}
        for label, key, l_max, squares, _w in COUNT_INPUTS:
            problems = []
            ref_lines = default.get(label)
            if ref_lines is None:
                out[label] = (None, [f"no reference for {label}"])
                continue
            lines = [ref_lines[0]]
            for idx, z in enumerate(self.points):
                fixed = ref_lines[1 + idx].split(",")
                total = self._recount(key, l_max, squares, z)
                bound = int(fixed[13])
                if total > bound:
                    problems.append(f"{label}: total {total} exceeds bound {bound}")
                row = [f"{self.seed}-{idx}"] + fixed[1:9] + [
                    repr(z.x), repr(z.y), fixed[11], str(total), str(bound),
                    repr(total / bound), fixed[15]]
                lines.append(",".join(row))
            if recorded is not None and recorded.get(label) != lines:
                problems.append(f"{label}: recount disagrees with the recorded reference")
            out[label] = ("\n".join(lines), problems)
        return out

    @staticmethod
    def canonical(stdout: str) -> str:
        return "\n".join(l for l in stdout.splitlines() if not l.startswith("#"))


# ---------------------------------------------------------------------------
# certify: per-norm enumeration, explicit bound, congruences, small norms
# ---------------------------------------------------------------------------

CERTIFY_ORDERS = ("e5", "e7", "e11", "e13", "zw5", "zw7", "zf3", "zf5")
CERTIFY_LS = (8, 12, 16)
CERTIFY_POINTS = 4
# ops whose cycle position is 3 mod 4 also run the small-norm check
SMALL_ORDERS = ("ip2", "ip3", "zw25", "zw49")
# (order, L) -> repeats per cycle.  zf3-L16 and e13-L12 cost the same, and
# together they hold the p50 rank well inside their band; e7-L16 holds p90.
CERTIFY_WEIGHTS = {("zf3", 16): 3, ("e13", 12): 3, ("e7", 16): 4}


class CertifyWorkload(_Base):
    name = "certify"

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        mo, i1 = self.mo, self.i1
        self.orders = {}
        for n in (5, 7, 11, 13):
            self.orders[f"e{n}"] = lattice.eichler_order(mo, n)[0]
        for p in (5, 7):
            self.orders[f"zw{p}"] = lattice.z_plus_zw_order(mo, i1, p)
        for f in (3, 5):
            self.orders[f"zf{f}"] = lattice.z_plus_f_order(mo, f)
        self.witness = {k: counting.build_injection(lat) for k, lat in self.orders.items()}
        self.split = {k: lat.shape().e == 2 for k, lat in self.orders.items()}
        self.small = {
            "ip2": lattice.ideal_power_order(mo, 2, 3),
            "ip3": lattice.ideal_power_order(mo, 3, 3),
            "zw25": lattice.z_plus_zw_order(mo, i1, 25),
            "zw49": lattice.z_plus_zw_order(mo, i1, 49),
        }
        small_box = quat.ZBox(*SMALL_BOX)
        self.t_small = quat.box_constant(SMALL_DELTA, small_box, self.alg,
                                         frame_inv=self.frame_inv)
        self.points = cli.sample_points(self.box, CERTIFY_POINTS, seed)
        self.small_points = cli.sample_points(small_box, len(SMALL_ORDERS), seed)
        self.cycle = []
        self.inputs = {}
        for key in CERTIFY_ORDERS:
            for l_max in CERTIFY_LS:
                for _ in range(CERTIFY_WEIGHTS.get((key, l_max), 1)):
                    pos = len(self.cycle)
                    small = SMALL_ORDERS[(pos // 4) % 4] if pos % 4 == 3 else None
                    label = f"{key}-L{l_max}-z{pos % CERTIFY_POINTS}" + (f"+{small}" if small else "")
                    inp = (key, l_max, pos % CERTIFY_POINTS, small)
                    self.inputs[label] = inp
                    self.cycle.append(Op(label, label, f"{key}-L{l_max}",
                                         lambda i=inp: self._op(*i)))

    def certify(self, key: str, l_max: int, point: int, small: str | None) -> dict:
        """One op: per-norm counts, bound, congruences and injectivity, small norms."""
        lat, w, t = self.orders[key], self.witness[key], self.t
        z = self.points[point]
        per_m = []
        elements = []
        for m in range(1, l_max + 1):
            found = counting.enumerate_norm_ball(lat, m, z, DELTA, t)
            per_m.append(len(found))
            elements.extend(found)
        # the sweep's convention: bounds for a non-split lattice use doubled elements
        bound = counting.explicit_bound(w, t, l_max if self.split[key] else 4 * l_max)
        congruent = True
        tuples = set()
        for a in elements:
            doubled = a + a
            congruent = congruent and counting.verify_congruences(w, doubled)
            tuples.add(counting.project_alpha(w, doubled))
        out = {"per_m": per_m, "total": len(elements), "bound": bound,
               "congruences": congruent, "distinct": len(tuples)}
        if small is not None:
            rep = counting.order_small_norm_check(
                self.small[small], self.small_points[SMALL_ORDERS.index(small)],
                SMALL_DELTA, self.t_small, m_cap=6)
            out["small"] = {
                "level": rep.level, "modulus": rep.modulus, "t_prime": repr(rep.t_prime),
                "m_star": rep.m_star, "m_star_certified": rep.m_star_certified,
                "per_m": [list(p) for p in rep.per_m], "pair_count": rep.pair_count,
                "warnings": list(rep.warnings),
            }
        return out

    def _op(self, *inp) -> tuple[int, str, str]:
        return 0, json.dumps(self.certify(*inp), sort_keys=True), ""

    def expected(self) -> dict[str, tuple[str, list[str]]]:
        default = self.refs.get(str(DEFAULT_SEED), {})
        recorded = self.refs.get(str(self.seed))
        out = {}
        for label, (key, l_max, point, small) in self.inputs.items():
            problems = []
            res = self.certify(key, l_max, point, small)
            lat, z = self.orders[key], self.points[point]
            rep = counting.sweep_counts(counting.CountQuery(lat, z, DELTA, l_max),
                                        self.witness[key], self.t)
            sweep = dict(rep.per_m)
            if res["per_m"] != [sweep.get(m, 0) for m in range(1, l_max + 1)]:
                problems.append(f"{label}: per-norm counts disagree with sweep_counts")
            ref_bound = _ref_field(default, key, l_max, "bound")
            if res["bound"] != ref_bound:
                problems.append(f"{label}: bound {res['bound']} != reference {ref_bound}")
            if res["total"] > res["bound"]:
                problems.append(f"{label}: total exceeds the explicit bound")
            if not res["congruences"] or res["distinct"] != res["total"]:
                problems.append(f"{label}: congruences or injectivity fail")
            if small is not None:
                s = res["small"]
                ref_small = _ref_small(default, small)
                n = sum(c for _m, c in s["per_m"])
                if (s["warnings"] or s["m_star_certified"] < s["m_star"]
                        or s["pair_count"] != n * (n - 1) // 2):
                    problems.append(f"{label}: small-norm report inconsistent")
                if ref_small is None or any(s[f] != ref_small[f] for f in
                                            ("level", "modulus", "m_star", "t_prime")):
                    problems.append(f"{label}: small-norm constants differ from the reference")
            if recorded is not None and recorded.get(label) != res:
                problems.append(f"{label}: result differs from the recorded reference")
            out[label] = (json.dumps(res, sort_keys=True), problems)
        return out


def _ref_field(refs: dict, key: str, l_max: int, field: str):
    for label, res in refs.items():
        if label.startswith(f"{key}-L{l_max}-"):
            return res[field]
    return None


def _ref_small(refs: dict, small: str):
    for label, res in refs.items():
        if label.endswith(f"+{small}"):
            return res["small"]
    return None


# ---------------------------------------------------------------------------
# balance: conjugator search, one in-process CLI call per op
# ---------------------------------------------------------------------------

# (label, prime, exponent, weight); exponent 1 is a squarefree Eichler level
BALANCE_INPUTS = (
    ("p5n2", 5, 2, 1), ("p5n3", 5, 3, 1), ("p5n4", 5, 4, 1),
    ("p7n2", 7, 2, 1), ("p7n3", 7, 3, 1), ("p7n4", 7, 4, 1),
    ("p11n2", 11, 2, 1), ("p11n3", 11, 3, 1),
    ("p13n2", 13, 2, 1), ("p13n3", 13, 3, 1),
    ("e5", 5, 1, 10), ("e7", 7, 1, 10), ("e11", 11, 1, 10),
)
BALANCE_ARGS = ("--kmax", "2", "--height", "8", "--threads", "2")


def eichler_power_order(mo, p: int, n: int):
    """Level p^n order cut out by the n-th power of a small norm-p element."""
    h = 2
    while h <= 16:
        cands = sorted(lattice.norm_elements(mo.lattice, p, h),
                       key=lambda q: max(abs(c) for c in q.coords()))
        for g in cands:
            gn = g
            for _ in range(n - 1):
                gn = gn * g
            lat = lattice.intersect(mo.lattice, mo.lattice.conjugate_by(gn.inverse()))
            if lat.level() == p**n:
                return lat
        h *= 2
    raise RuntimeError(f"no generic norm-{p} element below height 16")


class BalanceWorkload(_Base):
    name = "balance"

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.orders = {}
        self.files = {}
        for label, p, n, _w in BALANCE_INPUTS:
            if n == 1:
                lat = lattice.eichler_order(self.mo, p)[0]
            else:
                lat = eichler_power_order(self.mo, p, n)
            self.orders[label] = lat
            self.files[label] = _write_json(os.path.join(workdir, f"order-{label}.json"),
                                            _order_json(lat))
        labels = [label for label, _p, _n, w in BALANCE_INPUTS for _ in range(w)]
        # the seed fixes the order in which one cycle visits the inputs
        random.Random(seed).shuffle(labels)
        self.cycle = [
            Op(label, label, label, lambda f=self.files[label]: run_cli(
                ["balance", "--order", f, *BALANCE_ARGS]))
            for label in labels
        ]

    def expected(self) -> dict[str, tuple[str, list[str]]]:
        out = {}
        for label, lat in self.orders.items():
            ref = self.refs.get(label)
            problems = [] if ref is not None else [f"no reference for {label}"]
            if ref is not None:
                problems += self._check_conjugate(label, lat, ref)
            out[label] = (ref, problems)
        return out

    def _check_conjugate(self, label: str, lat, text: str) -> list[str]:
        """Rebuild the printed conjugate and test its defining properties."""
        first = text.splitlines()[0]
        coords = first[first.index("(") + 1:first.index(")")].split(",")
        gamma = self.alg.quat(*(Fraction(c) for c in coords))
        conj = lat.conjugate_by(gamma)
        if not conj.is_sublattice_of(self.mo.lattice):
            return [f"{label}: conjugate is not in the maximal order"]
        if conj.level() != lat.level():
            return [f"{label}: conjugate changes the level"]
        if not conj.is_balanced():
            return [f"{label}: conjugate is not balanced"]
        # criterion 7: conjugators have norm p^floor(n/2) at each prime power p^n
        want = 1
        for p, e in factorize(lat.level()).items():
            want *= p ** (e // 2)
        if gamma.nrd() != want:
            return [f"{label}: conjugator norm {gamma.nrd()} is not {want}"]
        return []


WORKLOADS = {"count": CountWorkload, "certify": CertifyWorkload, "balance": BalanceWorkload}


def check(workload, results, expected) -> tuple[list[str], list[bool]]:
    """Verdict per op against ``workload.expected()``, plus failure messages.

    An op fails on a non-zero exit code, on an exception, on output that
    differs from the expected output, or when its input's expected output
    itself failed a check.
    """
    messages = [p for _text, problems in expected.values() for p in problems]
    verdicts = []
    for op, rc, out, err, _ms in results:
        want, problems = expected.get(op.key, (None, ["unknown input"]))
        same = rc == 0 and workload.canonical(out) == want
        if rc is None:
            messages.append(f"{op.label}: raised {err.strip().splitlines()[-1]}")
        elif rc != 0:
            messages.append(f"{op.label}: exit code {rc}")
        elif want is not None and not same:
            messages.append(f"{op.label}: output differs from the expected output")
        verdicts.append(same and not problems)
    return messages, verdicts


def record(seeds=(DEFAULT_SEED, HELD_OUT_SEED), workdir: str = ".") -> dict:
    """Reference outputs: one run of every distinct input per recorded seed."""
    install_log_capture()
    refs = {"count": {}, "certify": {}, "balance": {}}
    for seed in seeds:
        wl = CountWorkload(seed, workdir)
        rows = {}
        for op in wl.cycle:
            rc, out, _err = op.run()
            if rc != 0:
                raise RuntimeError(f"{op.label} exited {rc}")
            text = wl.canonical(out)
            if rows.setdefault(op.key, text) != text:
                raise RuntimeError(f"{op.key}: output depends on the thread count")
        refs["count"][str(seed)] = {k: v.split("\n") for k, v in rows.items()}
        wl = CertifyWorkload(seed, workdir)
        refs["certify"][str(seed)] = {
            label: wl.certify(*inp) for label, inp in wl.inputs.items()}
    wl = BalanceWorkload(DEFAULT_SEED, workdir)
    for op in wl.cycle:
        if op.key in refs["balance"]:
            continue
        rc, out, _err = op.run()
        if rc != 0:
            raise RuntimeError(f"{op.label} exited {rc}")
        refs["balance"][op.key] = out
    return refs
