"""Hecke combinations for amplification, and exponent calculators.

Everything here is exact: coefficients are complex numbers with rational
real and imaginary parts, eigenvalue samples are rational, and the branch
decisions of the exponent calculators compare integer powers rather than
floating logarithms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .arith import divisors, factorize, is_squarefree, primes_in_range, smallest_root_multiple
from .errors import TheoremViolation, UsageError

@dataclass(frozen=True)
class Cx:
    """Complex number with exact rational parts."""

    re: Fraction
    im: Fraction = Fraction(0)

    @staticmethod
    def of(v) -> "Cx":
        if isinstance(v, Cx):
            return v
        return Cx(Fraction(v))

    def __add__(self, other: "Cx") -> "Cx":
        return Cx(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "Cx") -> "Cx":
        return Cx(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "Cx") -> "Cx":
        return Cx(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def conj(self) -> "Cx":
        return Cx(self.re, -self.im)

    def abs_sq(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_real(self) -> bool:
        return self.im == 0


CX_ONE = Cx(Fraction(1))


def _norm_coeffs(items) -> tuple[tuple[int, Cx], ...]:
    out = {}
    for l, c in items:
        c = Cx.of(c)
        if c.is_zero():
            continue
        if l in out:
            out[l] = out[l] + c
            if out[l].is_zero():
                del out[l]
        else:
            out[l] = c
    return tuple(sorted(out.items()))


@dataclass(frozen=True)
class HeckeCombo:
    """Finite formal combination of normalized Hecke operators.

    Indices must avoid the declared bad primes; the coefficient map drops
    exact zeros so support comparisons are meaningful.
    """

    coeffs: tuple[tuple[int, Cx], ...]
    bad: frozenset[int] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _norm_coeffs(self.coeffs))
        for l, _ in self.coeffs:
            if l < 1:
                raise UsageError("Hecke indices must be positive")
            if any(l % p == 0 for p in self.bad):
                raise UsageError(f"index {l} meets the bad prime set")

    def support(self) -> tuple[int, ...]:
        return tuple(l for l, _ in self.coeffs)

    def __add__(self, other: "HeckeCombo") -> "HeckeCombo":
        if self.bad != other.bad:
            raise UsageError("combos declare different bad sets")
        return HeckeCombo(self.coeffs + other.coeffs, self.bad)

    def scale(self, c) -> "HeckeCombo":
        c = Cx.of(c)
        return HeckeCombo(tuple((l, v * c) for l, v in self.coeffs), self.bad)

    def adjoint(self) -> "HeckeCombo":
        return HeckeCombo(tuple((l, v.conj()) for l, v in self.coeffs), self.bad)


def kappa(l: int, bad: frozenset[int] = frozenset()) -> HeckeCombo:
    return HeckeCombo(((l, CX_ONE),), bad)


def hecke_mul(a: HeckeCombo, b: HeckeCombo) -> HeckeCombo:
    """Plain product: kappa_m * kappa_n = sum over t | gcd(m, n) of kappa_{mn/t^2}."""
    if a.bad != b.bad:
        raise UsageError("combos declare different bad sets")
    items = []
    for m, am in a.coeffs:
        for n, bn in b.coeffs:
            c = am * bn
            for t in divisors(gcd(m, n)):
                items.append((m * n // (t * t), c))
    return HeckeCombo(tuple(items), a.bad)


def convolve(a: HeckeCombo, b: HeckeCombo) -> HeckeCombo:
    """a convolved with the adjoint of b (coefficients of b conjugated)."""
    return hecke_mul(a, b.adjoint())


@dataclass(frozen=True)
class SatakeSample:
    """Normalized eigenvalues at primes, extended by the Hecke recursion.

    values maps p to lambda(p), a rational in [-2, 2]; prime powers follow
    lambda(p^(k+1)) = lambda(p) lambda(p^k) - lambda(p^(k-1)) and composite
    arguments are multiplicative.  In particular lambda(p^2) equals
    lambda(p)^2 - 1, the trivial-central-character normalization.
    """

    values: tuple[tuple[int, Fraction], ...]

    def __post_init__(self):
        vals = tuple(sorted((int(p), Fraction(v)) for p, v in dict(self.values).items()))
        object.__setattr__(self, "values", vals)
        for p, v in self.values:
            if abs(v) > 2:
                raise UsageError(f"lambda({p}) outside [-2, 2]")

    def lam_p(self, p: int) -> Fraction:
        for q, v in self.values:
            if q == p:
                return v
        raise UsageError(f"no eigenvalue fixed at prime {p}")

    def lam(self, n: int) -> Fraction:
        if n < 1:
            raise UsageError("eigenvalue index must be positive")
        total = Fraction(1)
        for p, e in factorize(n).items():
            lp = self.lam_p(p)
            prev, cur = Fraction(1), lp
            for _ in range(e - 1):
                prev, cur = cur, lp * cur - prev
            total *= cur
        return total


@dataclass(frozen=True)
class AmplifierSpec:
    lambda_param: Fraction
    bad: frozenset[int]
    prime_set: tuple[int, ...]
    signs: tuple[tuple[int, Cx], ...]

    def __post_init__(self):
        lam = Fraction(self.lambda_param)
        object.__setattr__(self, "lambda_param", lam)
        if lam <= 0:
            raise UsageError("lambda must be positive")
        expected = _amplifier_primes(lam, self.bad)
        if tuple(self.prime_set) != expected:
            raise UsageError("prime_set must be the bad-coprime primes in [lambda, 2*lambda]")
        signs = dict(self.signs)
        needed = set(expected) | {r * r for r in expected}
        if set(signs) != needed:
            raise UsageError("signs must cover P and the squares of P exactly")
        for r, c in signs.items():
            if Cx.of(c).abs_sq() != 1:
                raise UsageError(f"sign at {r} is not unimodular")
        object.__setattr__(
            self, "signs", tuple(sorted((r, Cx.of(c)) for r, c in signs.items()))
        )

    def sign(self, r: int) -> Cx:
        for k, c in self.signs:
            if k == r:
                return c
        raise UsageError(f"no sign at {r}")


def _amplifier_primes(lam: Fraction, bad: frozenset[int]) -> tuple[int, ...]:
    lo, hi = lam, 2 * lam
    return tuple(
        p
        for p in primes_in_range(int(lo), int(hi) + 1)
        if lo <= p <= hi and p not in bad
    )


def amplifier_spec(
    lambda_param, bad: frozenset[int] = frozenset(), sample: SatakeSample | None = None
) -> AmplifierSpec:
    """Convenience builder: primes from the window, signs from a sample or all 1.

    Sign convention: c_r = |lambda(r)| / lambda(r) when lambda(r) != 0, else 1.
    """
    lam = Fraction(lambda_param)
    primes = _amplifier_primes(lam, bad)
    if not primes:
        raise UsageError("no primes in the amplifier window")
    signs = {}
    for r in list(primes) + [r * r for r in primes]:
        if sample is None:
            signs[r] = CX_ONE
        else:
            v = sample.lam(r)
            signs[r] = CX_ONE if v == 0 else Cx(abs(v) / v)
    return AmplifierSpec(lam, bad, primes, tuple(signs.items()))


def build_amplifier(spec: AmplifierSpec) -> HeckeCombo:
    """The amplifier combination: delta * delta^adj + gamma * gamma^adj.

    delta carries the signed kappa_r over the prime window, gamma the signed
    kappa_{r^2}.  The output support lies in {1}, products of two window
    primes, and products of two squared window primes; coefficients obey
    y_1 = 2|P| and |y_l| <= 2 elsewhere, asserted exactly.
    """
    bad = spec.bad
    delta = HeckeCombo(tuple((r, spec.sign(r)) for r in spec.prime_set), bad)
    gam = HeckeCombo(
        tuple((r * r, spec.sign(r * r)) for r in spec.prime_set), bad
    )
    out = convolve(delta, delta) + convolve(gam, gam)
    _check_amplifier(out, spec)
    return out


def _check_amplifier(out: HeckeCombo, spec: AmplifierSpec) -> None:
    p_set = set(spec.prime_set)
    num_p = len(p_set)
    cap = 16 * spec.lambda_param ** 4
    for l, c in out.coeffs:
        if l > cap:
            raise TheoremViolation(f"support index {l} beyond 16 lambda^4")
        if l == 1:
            if c.re != 2 * num_p or c.im != 0:
                raise TheoremViolation("y_1 must equal 2|P| exactly")
            continue
        if c.abs_sq() > 4:
            raise TheoremViolation(f"coefficient at {l} exceeds modulus 2")
        if not _allowed_index(l, p_set):
            raise TheoremViolation(f"support index {l} outside the allowed families")


def _allowed_index(l: int, p_set: set[int]) -> bool:
    fac = factorize(l)
    if not all(p in p_set for p in fac):
        return False
    exps = sorted(fac.values())
    if len(fac) == 1:
        return exps in ([2], [4])
    if len(fac) == 2:
        return exps in ([1, 1], [2, 2])
    return False


def eigenvalue_lower_bound(spec: AmplifierSpec, s: SatakeSample) -> Fraction:
    """Exact amplifier eigenvalue, with its unconditional lower bound asserted.

    With signs matched to the sample, the eigenvalue collapses to
    (sum |lambda(r)|)^2 + (sum |lambda(r^2)|)^2 over the prime window.  The
    recursion forces |lambda(r)| + |lambda(r^2)| >= 1/2 at every r, which
    gives the floor |P|^2 / 8.
    """
    for r in list(spec.prime_set) + [r * r for r in spec.prime_set]:
        v = s.lam(r)
        c = spec.sign(r)
        if v != 0 and (not c.is_real() or c.re * v != abs(v)):
            raise UsageError(f"sign at {r} does not match the sample")
    a = sum((abs(s.lam(r)) for r in spec.prime_set), Fraction(0))
    b = sum((abs(s.lam(r * r)) for r in spec.prime_set), Fraction(0))
    val = a * a + b * b
    floor = Fraction(len(spec.prime_set) ** 2, 8)
    if val < floor:
        raise TheoremViolation("amplifier eigenvalue fell below |P|^2/8")
    return val


# ---------------------------------------------------------------------------
# exponent calculators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExponentReport:
    """Outcome of one exponent computation, all quantities exact.

    exponent is the rational exponent on the base named by branch, when the
    winning bound is a pure power of that base; value_pow24 is the 24th
    power of the winning bound as an exact rational, which is always
    available and lets callers compare reports without floats.
    """

    n_level: tuple[tuple[int, int], ...] | None
    n1: int | None
    c: tuple[tuple[int, int], ...] | None
    c1: int | None
    m_char: int | None
    branch: str
    exponent: Fraction | None
    lambda_choices: tuple[str, ...]
    value_pow24: Fraction
    dim: Fraction = Fraction(1)
    extras: tuple[tuple[int, Fraction], ...] = ()


def _value_of(factored) -> int:
    n = 1
    for p, e in factored.items():
        n *= p**e
    return n


def _validate_factored(factored) -> dict[int, int]:
    from .arith import is_prime

    out = {}
    for p, e in dict(factored).items():
        if not is_prime(p) or e < 0:
            raise UsageError(f"bad factored entry {p}^{e}")
        if e > 0:
            out[p] = e
    return out


def smallest_root_cover(factored) -> int:
    """Smallest N1 with N dividing N1^2: exponents rounded up to halves."""
    return smallest_root_multiple(_value_of(factored), factored)


LAMBDA_CHOICES = ("N^(1/3)", "C^(1/4) * N^(1/12) / 2")


def exponent_bound(n_factored) -> ExponentReport:
    """min(max(N^(1/3), N1^(1/2)), N^(11/24)) with exact branch selection."""
    fac = _validate_factored(n_factored)
    n = _value_of(fac)
    n1 = smallest_root_cover(fac)
    if n**2 >= n1**3:
        # max branch is N^(1/3); 1/3 < 11/24 so the min keeps it
        branch, exponent, value_pow24 = "N^(1/3)", Fraction(1, 3), n**8
    elif n1**12 <= n**11:
        branch, exponent, value_pow24 = "N1^(1/2)", Fraction(1, 2), n1**12
    else:
        branch, exponent, value_pow24 = "N^(11/24)", Fraction(11, 24), n**11
    return ExponentReport(
        n_level=tuple(sorted(fac.items())),
        n1=n1,
        c=None,
        c1=None,
        m_char=None,
        branch=branch,
        exponent=exponent,
        lambda_choices=LAMBDA_CHOICES,
        value_pow24=Fraction(value_pow24),
    )


def minimal_type_profile(c_exponents) -> ExponentReport:
    """Per-prime order levels and dimensions for minimal-vector conductors.

    Conductor exponent c at an odd prime yields order level exponent n and
    dimension exponent d: c = 0 mod 4 gives (c/2, 0); c = 2 mod 4 gives
    (c/2 - 1, 1) with the c = 2 case dimension p - 1 instead of p; odd c
    gives ((c+1)/2, 0).  The resulting bound is C1^(1/3) times p^(1/6) for
    each prime with c = 2 mod 4.
    """
    profile = {}
    dim = Fraction(1)
    extras = []
    c_fac = _validate_factored(c_exponents)
    for p, c in sorted(c_fac.items()):
        if p == 2:
            raise UsageError("even prime unsupported in minimal type profile")
        if c < 2:
            raise UsageError("conductor exponent must be at least 2")
        if c % 4 == 0:
            n_p, d_p = c // 2, 0
        elif c % 2 == 0:
            n_p, d_p = c // 2 - 1, 1
        else:
            n_p, d_p = (c + 1) // 2, 0
        profile[p] = n_p
        if c == 2:
            dim *= p - 1
        else:
            dim *= Fraction(p) ** d_p
        if c % 4 == 2:
            extras.append((p, Fraction(1, 6)))
    c1 = smallest_root_cover(c_fac)
    level = {p: n for p, n in profile.items() if n > 0}
    return ExponentReport(
        n_level=tuple(sorted(level.items())),
        n1=None,
        c=tuple(sorted(c_fac.items())),
        c1=c1,
        m_char=None,
        branch="C1^(1/3)",
        exponent=Fraction(1, 3),
        lambda_choices=LAMBDA_CHOICES,
        value_pow24=Fraction(c1**8),
        dim=dim,
        extras=tuple(extras),
    )


def microlocal_profile(n_exponents) -> ExponentReport:
    """Microlocal lift data: conductor p^(4n), order level p^(2n), exponent 1/6."""
    n_fac = _validate_factored(n_exponents)
    for p in n_fac:
        if p == 2:
            raise UsageError("even prime unsupported in microlocal profile")
    c_fac = {p: 4 * n for p, n in n_fac.items()}
    level_fac = {p: 2 * n for p, n in n_fac.items()}
    c = _value_of(c_fac)
    level = _value_of(level_fac)
    if level * level != c:
        raise TheoremViolation("microlocal level must be the square root of C")
    return ExponentReport(
        n_level=tuple(sorted(level_fac.items())),
        n1=None,
        c=tuple(sorted(c_fac.items())),
        c1=level,
        m_char=None,
        branch="C^(1/6)",
        exponent=Fraction(1, 6),
        lambda_choices=LAMBDA_CHOICES,
        value_pow24=Fraction(c**4),
    )


def newform_bound(c_factored, m_char_factored) -> ExponentReport:
    """min(max(C^(1/3), C1^(1/2)), C'^(-1/24) lcm(M, C1)^(1/2)), exactly.

    C' = C1^2 / C is squarefree.  Branches are compared through their 24th
    powers, which are integers over C'.
    """
    c_fac = _validate_factored(c_factored)
    m_fac = _validate_factored(m_char_factored)
    c = _value_of(c_fac)
    m = _value_of(m_fac)
    if c % m:
        raise UsageError("character conductor must divide the conductor")
    c1 = smallest_root_cover(c_fac)
    c_prime = c1 * c1 // c
    if c1 * c1 % c or not is_squarefree(c_prime):
        raise TheoremViolation("C1^2/C must be a squarefree integer")
    l = lcm(m, c1)
    branch1_pow24, branch1 = (
        (Fraction(c**8), "C^(1/3)") if c**2 >= c1**3 else (Fraction(c1**12), "C1^(1/2)")
    )
    branch2_pow24 = Fraction(l**12, c_prime)
    if branch1_pow24 <= branch2_pow24:
        win, win_pow = branch1, branch1_pow24
    else:
        win, win_pow = "C'^(-1/24) * lcm(M,C1)^(1/2)", branch2_pow24
    exponent = None
    if win == "C^(1/3)":
        exponent = Fraction(1, 3)
    elif win == "C1^(1/2)" and c1 == c:
        exponent = Fraction(1, 2)
    elif win.startswith("C'") and m == 1 and is_squarefree(c):
        exponent = Fraction(11, 24)
    return ExponentReport(
        n_level=None,
        n1=None,
        c=tuple(sorted(c_fac.items())),
        c1=c1,
        m_char=m,
        branch=win,
        exponent=exponent,
        lambda_choices=LAMBDA_CHOICES,
        value_pow24=win_pow,
    )


def local_bound_pow24(c_factored) -> Fraction:
    """24th power of the reference local bound C1^(1/2) prod (1 + 1/p)^(1/2)."""
    c_fac = _validate_factored(c_factored)
    c1 = smallest_root_cover(c_fac)
    prod = Fraction(1)
    for p in c_fac:
        prod *= 1 + Fraction(1, p)
    return Fraction(c1**12) * prod**12
