"""Slice walks over the trace-zero projection of a lattice.

Every walk here steps through the projection points w / den of a lattice
inside a coordinate box and yields each with the residue class of the
scalars that complete it and its den-scaled reduced norm (traceless_slices).
Without a form the walk is the box itself, in the slice frame's
lexicographic order; with a positive definite form it walks an ellipsoid in
a basis LLL-reduced under that form (ellipsoid_basis) and cuts it to the
box.  norm_keys and norm_elements complete the box walk to every element of
one reduced norm.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, floor, isqrt, prod, sqrt
from typing import TYPE_CHECKING

from . import intmat
from .errors import UsageError

if TYPE_CHECKING:
    from .lattice import Lattice4
    from .quat import Quat

# relative and absolute widening of every float ellipsoid bound: rounding in
# the completed squares stays far below it, so the pruned walk is a superset
ELLIPSOID_SLACK = 1e-9
# Lovasz constant of the basis reduction, and a cap on its steps: the floats
# only choose each integer step, so a reduction cut short still leaves a
# basis of the same lattice, only a less reduced one
_LOVASZ = 0.99
_LLL_STEPS = 100


def _completed_squares(rows, G) -> tuple[float, ...]:
    """Coefficients of Q = P G P^T as a sum of squares, P the rows' first three columns.

    Returns (a1, a2, a3, m21, m31, m32) with
    Q(c) = a1 c1^2 + a2 (c2 + m21 c1)^2 + a3 (c3 + m31 c1 + m32 c2)^2,
    completing the square in c3 first, then in c2.
    """
    (g00, g01, g02), (g10, g11, g12), (g20, g21, g22) = G
    PG = [(p0 * g00 + p1 * g10 + p2 * g20, p0 * g01 + p1 * g11 + p2 * g21,
           p0 * g02 + p1 * g12 + p2 * g22) for p0, p1, p2, *_ in rows]
    Q = [[u0 * p0 + u1 * p1 + u2 * p2 for p0, p1, p2, *_ in rows] for u0, u1, u2 in PG]
    a3 = Q[2][2]
    if not a3 > 0:
        raise UsageError("ellipsoid form must be positive definite")
    m31, m32 = Q[0][2] / a3, Q[1][2] / a3
    a2 = Q[1][1] - Q[1][2] * m32
    if not a2 > 0:
        raise UsageError("ellipsoid form must be positive definite")
    m21 = (Q[0][1] - Q[0][2] * m32) / a2
    a1 = Q[0][0] - Q[0][2] * m31 - a2 * m21 * m21
    if not a1 > 0:
        raise UsageError("ellipsoid form must be positive definite")
    return a1, a2, a3, m21, m31, m32


def _lll(rows, G) -> list[list[int]]:
    """Integer rows (w0, w1, w2, r) LLL-reduced in (w0, w1, w2) under the float Gram G.

    Textbook LLL (Lenstra-Lenstra-Lovasz, Math. Ann. 261 (1982)) on three
    vectors.  The Gram matrix Q of the rows and its Gram-Schmidt data are
    floats and only choose each step; the steps themselves (subtract an
    integer multiple of one row from another, swap two rows) act on the
    integer rows and carry the scalar column r along, so the result spans
    the same lattice with the same scalar completions whatever the
    rounding.  The first row comes out shortest.  A form that is not
    positive definite stops the reduction.
    """
    b = [list(r) for r in rows]
    Gb = [[u[0] * G[0][l] + u[1] * G[1][l] + u[2] * G[2][l] for l in range(3)] for u in b]
    Q = [[g[0] * v[0] + g[1] * v[1] + g[2] * v[2] for v in b] for g in Gb]
    k = 1
    for _ in range(_LLL_STEPS):
        if k == 3:
            break
        # Gram-Schmidt of rows 0..k: mu[i][j] and squared lengths n[i]
        if not Q[0][0] > 0:
            break
        m10 = Q[1][0] / Q[0][0]
        mu = [[], [m10]]
        n = [Q[0][0], Q[1][1] - m10 * Q[1][0]]
        if k == 2 and n[1] > 0:
            m20 = Q[2][0] / n[0]
            m21 = (Q[2][1] - m20 * Q[1][0]) / n[1]
            mu.append([m20, m21])
            n.append(Q[2][2] - m20 * Q[2][0] - m21 * m21 * n[1])
        if not min(n) > 0:
            break
        mk = mu[k]
        for j in range(k - 1, -1, -1):
            q = round(mk[j])
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                qkk = Q[k][k] - 2 * q * Q[k][j] + q * q * Q[j][j]
                for i in range(3):
                    Q[k][i] = Q[i][k] = Q[k][i] - q * Q[j][i]
                Q[k][k] = qkk
                for l in range(j):
                    mk[l] -= q * mu[j][l]
                mk[j] -= q
        if n[k] >= (_LOVASZ - mk[k - 1] ** 2) * n[k - 1]:
            k += 1
        else:
            b[k - 1], b[k] = b[k], b[k - 1]
            Q[k - 1], Q[k] = Q[k], Q[k - 1]
            for row in Q:
                row[k - 1], row[k] = row[k], row[k - 1]
            k = max(k - 1, 1)
    return b


@dataclass(frozen=True)
class EllipsoidBasis:
    """A basis of a lattice's trace-zero projection fitted to a form G.

    rows are the slice frame's rows (w0, w1, w2, r) after LLL reduction
    under G, r reduced mod den: a unimodular change of basis, so the point
    c1 rows[0] + c2 rows[1] + c3 rows[2] has scalar residue
    c1 r0 + c2 r1 + c3 r2 mod den as before.  The innermost coordinate c3
    steps the shortest row.  squares are the completed squares of G in
    these rows (_completed_squares); reach bounds |c_k| by
    reach[k] * bound // det inside the box |w_i| <= bound, since
    c = w adj(B) / det(B) for the 3x3 block B of the rows.  frame is the
    slice frame the rows came from, which ties the basis to its lattice.
    """

    frame: tuple[tuple[int, int, int, int], ...]
    rows: tuple[tuple[int, int, int, int], ...]
    squares: tuple[float, ...]
    reach: tuple[int, int, int]
    det: int


def ellipsoid_basis(lat: Lattice4, G) -> EllipsoidBasis:
    """The basis traceless_slices walks the ellipsoid w G w^T <= cap in, for any cap."""
    frame = lat.slice_frame
    red = _lll(frame, G)[::-1]
    rows = tuple((w0, w1, w2, r % lat.den) for w0, w1, w2, r in red)
    adj = intmat.adjugate([row[:3] for row in rows])
    reach = tuple(sum(abs(adj[i][k]) for i in range(3)) for k in range(3))
    det = abs(sum(rows[0][i] * adj[i][0] for i in range(3)))
    return EllipsoidBasis(frame, rows, _completed_squares(rows, G), reach, det)


def traceless_slices(lat: Lattice4, height: int, form=None):
    """Iterate the trace-zero projections of lat up to a coordinate height.

    Yields (w, j, qs) where w is the den-scaled integer coordinate triple of
    a projection point v = w / den with |v_k| <= height, j in [0, den) is the
    unique residue such that the scalar parts completing v inside lat are
    exactly (j + den * Z) / den, and qs = den^2 * nrd(v).  Requires a lattice
    whose scalars are exactly Z (every lattice containing 1 inside a maximal
    order), so that the completing set is a full coset of Z; any other
    lattice raises UsageError.

    With no form, the walk is the box itself, in lexicographic order of w.
    form = (G, cap), with G a positive definite 3x3 float Gram on the
    den-scaled coordinates w (or its ellipsoid_basis, to set up once for
    many caps), cuts the walk to the ellipsoid w G w^T <= cap
    (Fincke-Pohst, Math. Comp. 44 (1985)) in a basis LLL-reduced under G:
    each coordinate range is clipped by the completed squares of G, every
    float bound widened by ELLIPSOID_SLACK, and the innermost range then
    exactly, on integers, by the box.  Every slice of the box with
    w G w^T <= cap is yielded once, in the reduced basis's order.
    """
    if form is None:
        return _box_slices(lat, height)
    g, cap = form
    basis = g if isinstance(g, EllipsoidBasis) else ellipsoid_basis(lat, g)
    return _ellipsoid_slices(lat, height, basis, cap)


def _box_slices(lat: Lattice4, height: int):
    """traceless_slices without a form: the box, walked in the slice frame."""
    den = lat.den
    bound = height * den
    frame = lat.slice_frame
    (p00, p01, p02, r0), (_, p11, p12, r1), (_, _, p22, r2) = frame
    # qs = w S w^T / 2 for the trace-zero Gram S, whose diagonal is even
    (s00, s01, s02), (_, s11, s12), (_, _, s22) = lat.order.gram0
    h00, h11, h22 = s00 // 2, s11 // 2, s22 // 2
    c1_max = bound // p00
    for c1 in range(-c1_max, c1_max + 1):
        w0 = c1 * p00
        base1 = c1 * p01
        # second coordinate: base1 + c2 * p11 in [-bound, bound]
        c2_lo = -((bound + base1) // p11)
        c2_hi = (bound - base1) // p11
        q0 = h00 * w0 * w0
        for c2 in range(c2_lo, c2_hi + 1):
            base2 = c1 * p02 + c2 * p12
            c3_lo = -((bound + base2) // p22)
            c3_hi = (bound - base2) // p22
            w1 = base1 + c2 * p11
            q01 = q0 + h11 * w1 * w1 + s01 * w0 * w1
            lin = s02 * w0 + s12 * w1
            # w2 steps by p22 and the residue by r2 < den, so one
            # subtraction keeps j in [0, den)
            j = (c1 * r0 + c2 * r1 + c3_lo * r2) % den
            for w2 in range(base2 + c3_lo * p22, base2 + c3_hi * p22 + 1, p22):
                yield (w0, w1, w2), j, q01 + (h22 * w2 + lin) * w2
                j += r2
                if j >= den:
                    j -= den


def _ellipsoid_slices(lat: Lattice4, height: int, basis: EllipsoidBasis, cap: float):
    """traceless_slices with a form: the ellipsoid in its reduced basis, cut to the box."""
    if basis.frame != lat.slice_frame:
        raise UsageError("ellipsoid basis was built for another lattice")
    den = lat.den
    bound = height * den
    slack = ELLIPSOID_SLACK
    grow = 1.0 + slack
    budget = cap * grow + slack
    if budget < 0:
        return
    a1, a2, a3, m21, m31, m32 = basis.squares
    (b00, b01, b02, r0), (b10, b11, b12, r1), (b20, b21, b22, r2) = basis.rows
    (s00, s01, s02), (_, s11, s12), (_, _, s22) = lat.order.gram0
    h00, h11, h22 = s00 // 2, s11 // 2, s22 // 2
    # along rows[2], qs(w + b) = qs(w) + w S b^T + b S b^T / 2
    sb0 = s00 * b20 + s01 * b21 + s02 * b22
    sb1 = s01 * b20 + s11 * b21 + s12 * b22
    sb2 = s02 * b20 + s12 * b21 + s22 * b22
    bsb = sb0 * b20 + sb1 * b21 + sb2 * b22
    half = bsb // 2
    # a range clipped to a (c - centre)^2 <= t is centre -+ sqrt(t / a),
    # widened by ELLIPSOID_SLACK; the box caps c1 and c2 through reach
    k1 = basis.reach[0] * bound // basis.det
    k2 = basis.reach[1] * bound // basis.det
    r = sqrt(budget / a1) * grow + slack
    for c1 in range(max(-k1, ceil(-r)), min(k1, floor(r)) + 1):
        t1 = budget - a1 * c1 * c1
        if t1 < 0:
            continue
        r = sqrt(t1 / a2) * grow + slack
        centre = -m21 * c1
        x0, x1, x2 = c1 * b00, c1 * b01, c1 * b02
        j1 = c1 * r0
        for c2 in range(max(-k2, ceil(centre - r)), min(k2, floor(centre + r)) + 1):
            d2 = c2 + m21 * c1
            t2 = t1 - a2 * d2 * d2
            if t2 < 0:
                continue
            r = sqrt(t2 / a3) * grow + slack
            centre = -(m31 * c1 + m32 * c2)
            lo = ceil(centre - r)
            hi = floor(centre + r)
            if lo > hi:
                continue
            # |v_k + c3 b2k| <= bound on integers, for each coordinate k
            v = (x0 + c2 * b10, x1 + c2 * b11, x2 + c2 * b12)
            for vk, s in zip(v, (b20, b21, b22)):
                if s < 0:
                    vk, s = -vk, -s
                if s:
                    e = -((bound + vk) // s)
                    if e > lo:
                        lo = e
                    e = (bound - vk) // s
                    if e < hi:
                        hi = e
                elif vk > bound or vk < -bound:
                    hi = lo - 1
            if lo > hi:
                continue
            w0, w1, w2 = v[0] + lo * b20, v[1] + lo * b21, v[2] + lo * b22
            qs = h00 * w0 * w0 + h11 * w1 * w1 + h22 * w2 * w2 + (
                s01 * w0 * w1 + s02 * w0 * w2 + s12 * w1 * w2)
            dq = sb0 * w0 + sb1 * w1 + sb2 * w2 + half
            # r2 < den, so one subtraction keeps j in [0, den)
            j = (j1 + c2 * r1 + lo * r2) % den
            for _ in range(hi - lo + 1):
                yield (w0, w1, w2), j, qs
                qs += dq
                dq += bsb
                w0 += b20
                w1 += b21
                w2 += b22
                j += r2
                if j >= den:
                    j -= den


def box_slice_count(lat: Lattice4, height: int) -> int:
    """An upper bound on the slices traceless_slices(lat, height) yields.

    Coordinate k of the projection steps by the pivot p_kk of the slice
    frame inside a window of width 2 height den, so it takes at most
    2 height den // p_kk + 1 values.
    """
    width = 2 * height * lat.den
    return prod(width // row[k] + 1 for k, row in enumerate(lat.slice_frame))


def norm_keys(lat: Lattice4, m: int, height: int) -> list[tuple[int, ...]]:
    """Den-scaled frame coordinates of the elements norm_elements returns.

    Each key (h, w0, w1, w2) is den times the frame coordinates of one
    element of lat with reduced norm m and frame coords <= height, and the
    keys come sorted, which orders them like the frame coordinates
    themselves.

    The scan walks the trace-zero projection and completes each slice by an
    exact integer square root, so only genuine lattice points are ever
    touched.
    """
    den = lat.den
    dd = den * den
    h_max = height * den
    keys = []
    for w, j, qs in traceless_slices(lat, height):
        rhs = dd * m - qs
        if rhs < 0:
            continue
        h = isqrt(rhs)
        if h * h != rhs or h > h_max:
            continue
        for hh in ((-h, h) if h else (0,)):
            if hh % den == j:
                keys.append((hh, *w))
    keys.sort()
    return keys


def norm_elements(lat: Lattice4, m: int, height: int) -> list[Quat]:
    """All elements of lat with reduced norm m and frame coords <= height.

    Deterministic: the elements of norm_keys(lat, m, height), in its sorted
    coordinate order.
    """
    qf = lat.order.quat_from_frame
    den = lat.den
    return [qf(k, den) for k in norm_keys(lat, m, height)]
