"""Small linear combinations coprime to a modulus, found constructively.

Given integers a0..an and N with gcd(a0, ..., an, N) = 1, produce c^n tuples
(p1..pn) of small nonnegative integers such that a0 + a1 p1 + ... + an pn is
coprime to N, with the projection property: restricted to any nonempty index
subset I, the solution set shows at least c^|I| distinct sub-tuples.

The construction is inductive.  The problem is first normalized (divide the
coefficients by their gcd, replace N by its radical).  The one-variable case
is a direct scan.  For more variables, a sub-problem in the first k
coefficients is solved against the modulus gcd(N, a_{k+1}) -- the primes of N
that the last coefficient cannot influence -- and each sub-solution is then
extended by scanning the last variable against N itself.

The construction fixes its prefixes before it scans the last variable, so
with a small bound it can come up short although solutions exist.  For
c = 1, solve then backtracks through every prefix in [0, bound]^(n-1) in
lexicographic order, so InfeasibleError means that no tuple in the bounded
box works.  For c > 1 with several variables a valid solution set is a
structured family, not one tuple, and solve raises ConstructionFailed: the
construction failed, and a solution set may still exist within the bound.
A one-variable scan is exhaustive for every c.  Inputs the construction
solves keep its tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, gcd, log

from .arith import euler_phi, mobius, omega, radical, squarefree_divisors
from .errors import ConstructionFailed, InfeasibleError, TheoremViolation, UsageError


def auto_bound(big_n: int, c: int) -> int:
    """Default scan cap: generous polylog of the modulus."""
    return max(64, c * 2 ** omega(big_n) * ceil(log(big_n + 2) ** 2))


@dataclass(frozen=True)
class CombinationProblem:
    """Coefficients (a0..an), modulus, multiplicity c, and scan cap."""

    a: tuple[int, ...]
    big_n: int
    c: int
    bound: int | None = None

    def __post_init__(self):
        if len(self.a) < 2:
            raise UsageError("need at least a0 and a1")
        if self.big_n < 1 or self.c < 1:
            raise UsageError("modulus and multiplicity must be positive")
        if self.bound is not None and self.bound < 1:
            raise UsageError("bound must be positive")
        g = self.big_n
        for v in self.a:
            g = gcd(g, v)
        if g != 1:
            raise UsageError(f"coefficients and modulus share the factor {g}")

    @property
    def n(self) -> int:
        return len(self.a) - 1

    def effective_bound(self) -> int:
        return self.bound if self.bound is not None else auto_bound(self.big_n, self.c)


def solve(prob: CombinationProblem) -> list[tuple[int, ...]]:
    """The c^n solution tuples, lexicographically smallest first."""
    bound = prob.effective_bound()
    n_mod = radical(prob.big_n)
    try:
        out = _solve(list(prob.a), n_mod, prob.c, bound)
    except InfeasibleError as e:
        if prob.n == 1:
            raise
        if prob.c > 1:
            raise ConstructionFailed(
                e.subset, f"{e}; a solution set may still exist within the bound"
            ) from None
        first = _first_coprime(prob.a, n_mod, bound)
        if first is None:
            raise InfeasibleError(
                tuple(range(1, prob.n + 1)),
                f"no tuple in [0, {bound}]^{prob.n} is coprime to the modulus",
            ) from None
        out = [first]
    for tup in out:
        val = prob.a[0] + sum(prob.a[i + 1] * tup[i] for i in range(prob.n))
        if gcd(val, prob.big_n) != 1 or any(p < 0 or p > bound for p in tup):
            raise TheoremViolation(f"tuple {tup} fails the original problem")
    out.sort()
    return out


def _solve(a: list[int], n_mod: int, c: int, bound: int) -> list[tuple[int, ...]]:
    d = 0
    for v in a:
        d = gcd(d, v)
    if d == 0:
        # all coefficients zero: combinations are 0, coprime only to 1
        if n_mod != 1:
            raise InfeasibleError(
                tuple(range(1, len(a))), f"all coefficients divisible, modulus {n_mod}"
            )
    else:
        g = gcd(d, n_mod)
        if g != 1:
            raise InfeasibleError(
                tuple(range(1, len(a))), f"coefficients and modulus share {g}"
            )
        if d > 1:
            a = [v // d for v in a]
    if len(a) == 2:
        return [(p,) for p in _scan(a[0], a[1], n_mod, c, bound, position=1)]
    sub_mod = gcd(n_mod, a[-1])
    prefix = _solve(a[:-1], sub_mod, c, bound)
    out = []
    for tup in prefix:
        x = a[0] + sum(a[i + 1] * tup[i] for i in range(len(tup)))
        for p in _scan(x, a[-1], n_mod, c, bound, position=len(a) - 1):
            out.append(tup + (p,))
    return out


def _first_coprime(a, n_mod: int, bound: int) -> tuple[int, ...] | None:
    """The lexicographically first p in [0, bound]^n with a0 + a.p coprime to n_mod.

    Depth-first in lexicographic order.  A prefix (p1..pk) is dropped as
    soon as a prime of n_mod that divides every later coefficient divides
    its partial sum, since no later choice can change it mod that prime.
    """
    n = len(a) - 1
    # fixed[k]: the primes of n_mod dividing a_(k+1), ..., a_n
    fixed = [n_mod] * (n + 1)
    for k in range(n - 1, -1, -1):
        fixed[k] = gcd(fixed[k + 1], a[k + 1])

    def extend(k: int, partial: int) -> tuple[int, ...] | None:
        if gcd(partial, fixed[k]) != 1:
            return None
        if k == n:
            return ()
        for p in range(bound + 1):
            rest = extend(k + 1, partial + a[k + 1] * p)
            if rest is not None:
                return (p,) + rest
        return None

    return extend(0, a[0])


def _scan(a0: int, a1: int, n_mod: int, c: int, bound: int, position: int) -> list[int]:
    found = []
    for p in range(bound + 1):
        if gcd(a0 + p * a1, n_mod) == 1:
            found.append(p)
            if len(found) == c:
                return found
    raise InfeasibleError(
        (position,),
        f"only {len(found)} of {c} values in [0, {bound}] at position {position}",
    )


def sieve_count(a0: int, a1: int, big_q: int, x: int) -> int:
    """Exact number of 1 <= m <= x with gcd(a0 + m*a1, big_q) = 1.

    Inclusion-exclusion over the squarefree divisors of the modulus; each
    divisor contributes the exact count of its residue class, so the result
    is an integer identity, not an estimate.
    """
    if big_q < 1:
        raise UsageError("modulus must be positive")
    if gcd(a1, big_q) != 1:
        raise UsageError("a1 must be coprime to the modulus")
    if x <= 0:
        return 0
    total = 0
    for d in squarefree_divisors(big_q):
        mu = mobius(d)
        if d == 1:
            total += x
            continue
        t = (-a0 * pow(a1, -1, d)) % d
        if t == 0:
            t = d
        cnt = (x - t) // d + 1 if t <= x else 0
        total += mu * cnt
    return total


def sieve_lower_bound(big_q: int, x: int):
    """The guaranteed floor phi(Q)/Q * x - 2^omega(Q) as an exact fraction."""
    from fractions import Fraction

    return Fraction(euler_phi(big_q) * x, big_q) - 2 ** omega(big_q)
