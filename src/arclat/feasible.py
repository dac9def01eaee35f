"""Exact feasibility of small homogeneous linear systems.

Fourier-Motzkin elimination on integer rows, with strict and weak
inequalities and linear equalities.  Rows are fraction-free: denominators
are cleared on input, each row is divided by the gcd of its entries and is
only ever scaled by positive factors, and equalities are eliminated by
integer pivoting.  Equal rows are merged (strict if any copy is).  Bounds
are integer pairs compared by cross-multiplication, and the partial solution
is numerators over one denominator.  Every system is homogeneous, so a
witness is a ray: the primitive integer vector on the ray of the witness
that elimination over ``Fraction`` rows gives, checked against every row.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Optional, Sequence

from .util import InvariantError


def _int_row(coeffs: Sequence) -> tuple:
    """Integer row with the same direction (denominators cleared), gcd 1."""
    if not all(type(c) is int for c in coeffs):
        den = lcm(*(c.denominator for c in coeffs))
        coeffs = [c.numerator * (den // c.denominator) for c in coeffs]
    return _normal(coeffs)


def _normal(row: Sequence[int]) -> tuple:
    g = gcd(*row)
    return tuple(c // g for c in row) if g > 1 else tuple(row)


def _add(rows: dict, row: tuple, strict: bool) -> None:
    rows[row] = strict or rows.get(row, False)


class LinearSystem:
    """Homogeneous constraints a.x = 0, a.x > 0, a.x >= 0 on R^dim."""

    def __init__(self, dim: int):
        self.dim = dim
        self.equalities: list[tuple] = []
        self.inequalities: list[tuple] = []  # (integer coeffs, strict)

    def eq(self, coeffs: Sequence) -> "LinearSystem":
        self.equalities.append(_int_row(coeffs))
        return self

    def ge(self, coeffs: Sequence) -> "LinearSystem":
        self.inequalities.append((_int_row(coeffs), False))
        return self

    def gt(self, coeffs: Sequence) -> "LinearSystem":
        self.inequalities.append((_int_row(coeffs), True))
        return self

    def feasible(self) -> bool:
        return self.witness() is not None

    def witness(self) -> Optional[tuple]:
        """The certified primitive integer vector on the ray of the witness
        that elimination over ``Fraction`` rows gives; None if infeasible."""
        n = self.dim
        # Eliminate equalities by integer pivoting; each pivot entry is positive.
        pivots: list[tuple[int, tuple]] = []  # (var index, row solved for that var)
        for row in self.equalities:
            row = _reduce(row, pivots)
            piv = next((j for j, c in enumerate(row) if c), None)
            if piv is None:
                continue
            pivots.append((piv, row if row[piv] > 0 else tuple(-c for c in row)))
        pivot_vars = {p for p, _ in pivots}
        free = [j for j in range(n) if j not in pivot_vars]
        proj: dict = {}
        for a, strict in self.inequalities:
            a = _reduce(a, pivots)
            _add(proj, _normal([a[j] for j in free]), strict)
        sol_free = _fm_solve(proj, len(free))
        if sol_free is None:
            return None
        x = [0] * n
        for j, v in zip(free, sol_free[0]):  # the denominator is positive: same ray
            x[j] = v
        for piv, row in reversed(pivots):
            # x[piv] (still 0) = -(row . x) / row[piv]: scale x by row[piv] > 0 instead
            s = sum(c * v for c, v in zip(row, x))
            x = [row[piv] * v for v in x]
            x[piv] = -s
        x = _normal(x)
        self._certify(x)
        return x

    def _certify(self, x: Sequence[int]) -> None:
        """Raise InvariantError unless x satisfies every row exactly."""
        for a in self.equalities:
            if sum(c * v for c, v in zip(a, x)):
                raise InvariantError(f"witness {tuple(x)} violates the equality {a}")
        for a, strict in self.inequalities:
            d = sum(c * v for c, v in zip(a, x))
            if d < 0 or (strict and d == 0):
                raise InvariantError(f"witness {tuple(x)} violates {a} {'>' if strict else '>='} 0")


def _reduce(row: tuple, pivots: list) -> tuple:
    """Clear the pivot variables from row, scaling it only by positive factors."""
    for piv, prow in pivots:
        c = row[piv]
        if c:
            p = prow[piv]
            row = _normal([p * r - c * q for r, q in zip(row, prow)])
    return row


def _fm_solve(rows: dict, dim: int) -> Optional[tuple]:
    """The Fourier-Motzkin witness of a {normalised integer row a: strict}
    system of a.x (>|>=) 0, the one elimination over ``Fraction`` rows gives,
    as (numerators, denominator > 0) in lowest terms; None if infeasible."""
    if rows.pop((0,) * dim, False):
        return None  # 0 > 0
    if dim == 0:
        return [], 1
    # eliminate the last variable
    k = dim - 1
    lower: dict = {}
    pos, neg = [], []
    for a, strict in rows.items():
        if a[k] == 0:
            _add(lower, a[:k], strict)
        elif a[k] > 0:
            pos.append((a, strict))  # x_k > -rest/a_k  (lower bounds)
        else:
            neg.append((a, strict))  # x_k < -rest/a_k  (upper bounds)
    for al, sl in pos:
        cl = al[k]
        for au, su in neg:
            cu = -au[k]
            _add(lower, _normal([x * cu + y * cl for x, y in zip(al[:k], au)]), sl or su)
    rest = _fm_solve(lower, k)
    if rest is None:
        return None
    nums, den = rest
    # each bound is a pair (p, q), q > 0, standing for p / q
    lo, lo_strict = None, False
    hi, hi_strict = None, False
    for a, strict in pos:
        p, q = -sum(c * v for c, v in zip(a, nums)), a[k] * den
        if lo is None or p * lo[1] > lo[0] * q or (strict and p * lo[1] == lo[0] * q):
            lo, lo_strict = (p, q), strict
    for a, strict in neg:
        p, q = sum(c * v for c, v in zip(a, nums)), -a[k] * den
        if hi is None or p * hi[1] < hi[0] * q or (strict and p * hi[1] == hi[0] * q):
            hi, hi_strict = (p, q), strict
    if lo is None and hi is None:
        p, q = 0, 1
    elif lo is None:
        p, q = hi[0] - hi[1], hi[1]
    elif hi is None:
        p, q = lo[0] + lo[1], lo[1]
    else:
        gap = hi[0] * lo[1] - lo[0] * hi[1]
        if gap < 0 or (gap == 0 and (lo_strict or hi_strict)):
            return None  # can happen only through rounding of strictness; guard
        p, q = lo[0] * hi[1] + hi[0] * lo[1], 2 * lo[1] * hi[1]
    # rest + [p / q] over lcm(den, q), in lowest terms since both parts are
    g = gcd(p, q)
    p, q = p // g, q // g
    g = gcd(den, q)
    if q != g:
        nums = [v * (q // g) for v in nums]
    return nums + [p * (den // g)], den * (q // g)
