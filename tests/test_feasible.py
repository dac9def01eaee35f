"""The integer Fourier-Motzkin kernel against the elimination over Fraction
rows that it replaced, kept here as the reference."""

import random
from fractions import Fraction
from math import gcd, lcm
from typing import Optional

import pytest

from arclat import feasible
from arclat.feasible import LinearSystem
from arclat.util import InvariantError


class FractionSystem:
    """Reference: Gaussian substitution and Fourier-Motzkin over Fraction rows."""

    def __init__(self, dim: int):
        self.dim = dim
        self.equalities: list = []
        self.inequalities: list = []  # (coeffs, strict)

    def eq(self, coeffs):
        self.equalities.append(tuple(Fraction(c) for c in coeffs))
        return self

    def ge(self, coeffs):
        self.inequalities.append((tuple(Fraction(c) for c in coeffs), False))
        return self

    def gt(self, coeffs):
        self.inequalities.append((tuple(Fraction(c) for c in coeffs), True))
        return self

    def witness(self) -> Optional[tuple]:
        n = self.dim
        pivots: list = []  # (var index, row solved for that var)
        for row in self.equalities:
            row = _reduce_fraction(list(row), pivots)
            piv = next((j for j, c in enumerate(row) if c != 0), None)
            if piv is None:
                continue
            inv = Fraction(1) / row[piv]
            pivots.append((piv, [c * inv for c in row]))
        free = [j for j in range(n) if all(j != p for p, _ in pivots)]
        proj = []
        for a, strict in self.inequalities:
            a = _reduce_fraction(list(a), pivots)
            proj.append(([a[j] for j in free], strict))
        sol_free = _fm_solve_fraction(proj, len(free))
        if sol_free is None:
            return None
        x = [Fraction(0)] * n
        for j, v in zip(free, sol_free):
            x[j] = v
        for piv, row in reversed(pivots):
            x[piv] = -sum(row[j] * x[j] for j in range(n) if j != piv)
        return tuple(x)


def _reduce_fraction(row: list, pivots: list) -> list:
    for piv, prow in pivots:
        if row[piv] != 0:
            c = row[piv]
            row = [r - c * p for r, p in zip(row, prow)]
    return row


def _fm_solve_fraction(rows: list, dim: int) -> Optional[list]:
    if dim == 0:
        return None if any(strict for _a, strict in rows) else []
    k = dim - 1
    zero, pos, neg = [], [], []
    for a, strict in rows:
        if a[k] == 0:
            zero.append((a[:k], strict))
        elif a[k] > 0:
            pos.append((a, strict))
        else:
            neg.append((a, strict))
    combined = list(zero)
    for al, sl in pos:
        for au, su in neg:
            combined.append(([al[j] * (-au[k]) + au[j] * al[k] for j in range(k)], sl or su))
    rest = _fm_solve_fraction(combined, k)
    if rest is None:
        return None
    lo, lo_strict = None, False
    hi, hi_strict = None, False
    for a, strict in pos:
        b = -sum(c * v for c, v in zip(a[:k], rest)) / a[k]
        if lo is None or b > lo or (b == lo and strict):
            lo, lo_strict = b, strict
    for a, strict in neg:
        b = -sum(c * v for c, v in zip(a[:k], rest)) / a[k]
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
            return None
        val = (lo + hi) / 2
    return rest + [val]


def primitive(w: tuple) -> tuple:
    """The primitive integer vector on the ray of a rational vector (zero stays zero)."""
    den = lcm(*(v.denominator for v in w)) if w else 1
    nums = [v.numerator * (den // v.denominator) for v in w]
    g = gcd(*nums)
    return tuple(v // g for v in nums) if g > 1 else tuple(nums)


def assert_primitive(w: tuple) -> None:
    assert all(type(v) is int for v in w), w
    assert gcd(*w) == (1 if any(w) else 0), w


def _random_coefficient(rng: random.Random):
    if rng.random() < 0.15:
        return Fraction(rng.randint(-3, 3), rng.randint(1, 4))
    return rng.randint(-2, 2)


def _random_systems(seed: int, count: int):
    """Seeded systems: dim <= 4, <= 2 equalities, <= 8 strict/weak rows."""
    rng = random.Random(seed)
    for _ in range(count):
        dim = rng.randint(1, 4)
        rows = [("eq", [_random_coefficient(rng) for _ in range(dim)]) for _ in range(rng.randint(0, 2))]
        rows += [
            (rng.choice(("gt", "ge")), [_random_coefficient(rng) for _ in range(dim)])
            for _ in range(rng.randint(0, 8))
        ]
        yield dim, rows


def _build(cls, dim: int, rows: list):
    sys = cls(dim)
    for kind, coeffs in rows:
        getattr(sys, kind)(coeffs)
    return sys


@pytest.mark.parametrize("seed", range(4))
def test_integer_kernel_matches_fraction_reference(seed):
    feasible_count = 0
    for dim, rows in _random_systems(seed, 1000):
        got = _build(LinearSystem, dim, rows).witness()
        want = _build(FractionSystem, dim, rows).witness()
        assert (got is None) == (want is None), rows
        if got is not None:
            assert got == primitive(want), rows
            assert_primitive(got)
            feasible_count += 1
    assert 100 < feasible_count < 1000  # both outcomes are exercised


def test_fraction_coefficients_are_scaled_positively():
    # x > 1/2 y and y > 0 in R^2, written with and without denominators
    a = LinearSystem(2).gt([1, Fraction(-1, 2)]).gt([0, Fraction(2, 3)]).witness()
    b = LinearSystem(2).gt([2, -1]).gt([0, 1]).witness()
    assert a == b == FractionSystem(2).gt([1, Fraction(-1, 2)]).gt([0, Fraction(2, 3)]).witness()
    assert not LinearSystem(1).gt([Fraction(1, 3)]).gt([Fraction(-1, 7)]).feasible()


def test_equalities_without_strict_rows():
    assert LinearSystem(1).eq([3]).witness() == (0,)
    assert LinearSystem(3).eq([1, 1, 1]).eq([2, 2, 2]).ge([0, 0, 0]).feasible()
    assert not LinearSystem(2).eq([1, -1]).gt([1, -1]).feasible()


def test_witness_is_certified(monkeypatch):
    sys = LinearSystem(2).gt([1, 0]).ge([0, 1])
    got = sys.witness()
    assert got == primitive(FractionSystem(2).gt([1, 0]).ge([0, 1]).witness()) == (1, 1)
    assert_primitive(got)
    monkeypatch.setattr(feasible, "_fm_solve", lambda rows, dim: ([-1] * dim, 1))
    with pytest.raises(InvariantError):
        sys.witness()
    # with the pivots left unreduced, back-substitution misses an equality
    eq_sys = LinearSystem(3).eq([1, 1, 0]).eq([1, 0, 1])
    monkeypatch.setattr(feasible, "_fm_solve", lambda rows, dim: ([-1, 2], 1))
    monkeypatch.setattr(feasible, "_reduce", lambda row, pivots: row)
    with pytest.raises(InvariantError, match="equality"):
        eq_sys.witness()
