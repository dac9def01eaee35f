"""Exact rational feasibility of small linear systems.

Fourier-Motzkin elimination on integer rows, with strict and weak
inequalities and linear equalities.  Rows are fraction-free: denominators
are cleared on input, each row is divided by the gcd of its entries and is
only ever scaled by positive factors, and equalities are eliminated by
integer pivoting.  Equal rows are merged (strict if any copy is).  Only the
bounds and the back-substitution use ``Fraction``; since positive scaling
moves no bound, each witness is the one elimination over ``Fraction`` rows
gives.  Every witness is checked against every row before it is returned.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

from .util import InvariantError


def _int_row(coeffs: Sequence) -> tuple:
    """Integer row with the same direction (denominators cleared), gcd 1."""
    if not all(type(c) is int for c in coeffs):
        coeffs = [Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in coeffs))
        coeffs = [c.numerator * (den // c.denominator) for c in coeffs]
    return _normal(coeffs)


def _normal(row: Sequence[int]) -> tuple:
    g = gcd(*row)
    return tuple(c // g for c in row) if g > 1 else tuple(row)


def _add(rows: dict, row: tuple, strict: bool) -> None:
    rows[row] = strict or rows.get(row, False)


def _common_denominator(x: Sequence[Fraction]) -> tuple:
    """(numerators, denominator > 0) with x[i] == numerators[i] / denominator."""
    den = lcm(*(v.denominator for v in x))
    return [v.numerator * (den // v.denominator) for v in x], den


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
        """A rational solution, or None if the system is infeasible."""
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
        x = [Fraction(0)] * n
        for j, v in zip(free, sol_free):
            x[j] = v
        for piv, row in reversed(pivots):
            x[piv] = Fraction(-sum(row[j] * x[j] for j in range(n) if j != piv), row[piv])
        self._certify(x)
        return tuple(x)

    def _certify(self, x: Sequence[Fraction]) -> None:
        """Raise InvariantError unless x satisfies every row exactly."""
        nums, _den = _common_denominator(x)  # den > 0: signs of a.x are kept
        for a in self.equalities:
            if sum(c * v for c, v in zip(a, nums)):
                raise InvariantError(f"witness {tuple(x)} violates the equality {a}")
        for a, strict in self.inequalities:
            d = sum(c * v for c, v in zip(a, nums))
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


def _fm_solve(rows: dict, dim: int) -> Optional[list]:
    """Witness for a {normalised integer row a: strict} system of a.x (>|>=) 0
    by Fourier-Motzkin, None if infeasible."""
    if rows.pop((0,) * dim, False):
        return None  # 0 > 0
    if dim == 0:
        return []
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
    nums, den = _common_denominator(rest)
    lo, lo_strict = None, False
    hi, hi_strict = None, False
    for a, strict in pos:
        b = Fraction(-sum(c * v for c, v in zip(a, nums)), a[k] * den)
        if lo is None or b > lo or (b == lo and strict):
            lo, lo_strict = b, strict
    for a, strict in neg:
        b = Fraction(-sum(c * v for c, v in zip(a, nums)), a[k] * den)
        if hi is None or b < hi or (b == hi and strict):
            hi, hi_strict = b, strict
    if lo is None and hi is None:
        val = Fraction(0)
    elif lo is None:
        val = hi - 1
    elif hi is None:
        val = lo + 1
    else:
        if lo > hi or (lo == hi and (lo_strict or hi_strict)):
            return None  # can happen only through rounding of strictness; guard
        val = (lo + hi) / 2
    return rest + [val]
