"""Permutations and signed permutations with their weak orders.

Signed permutations act on {-n..-1, 1..n} with w(-i) = -w(i); the long
one-line word lists the images of -n..-1,1..n and the short word the images
of 1..n.  Inversions of a signed permutation are computed on the long word
and deduplicated under the antipodal pairing, so one code path serves both
families.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import mul
from typing import Iterable, Iterator, Tuple

from .lattice import FiniteLattice, ScopeExceeded, build_lattice

Word = Tuple[int, ...]


class NotSymmetric(Exception):
    """Raised when folding a word that is not centrally symmetric."""


@dataclass(frozen=True)
class CoxeterType:
    family: str  # "A" or "B"
    n: int

    def __post_init__(self):
        if self.family not in ("A", "B"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.n < 1:
            raise ValueError("rank must be at least 1")


@dataclass(frozen=True, order=True)
class Reflection:
    """A reflection, canonicalized so equal reflections compare equal.

    family "A": the transposition (a b) with a < b.
    family "B": (a b)(-a -b) stored with b > 0 and -b <= a < b, a != 0;
    a == -b encodes the sign change (b -b).
    """

    family: str
    a: int
    b: int


def refl_a(x: int, y: int) -> Reflection:
    a, b = (x, y) if x < y else (y, x)
    return Reflection("A", a, b)


def refl_b(x: int, y: int) -> Reflection:
    """Reflection of the hyperoctahedral group swapping values x and y."""
    if x == -y:
        return Reflection("B", -abs(x), abs(x))
    if max(x, y) >= -min(x, y):
        a, b = min(x, y), max(x, y)
    else:
        a, b = -max(x, y), -min(x, y)
    return Reflection("B", a, b)


def _word_inversion_pairs(word: Word) -> frozenset:
    pos = {v: i for i, v in enumerate(word)}
    values = sorted(word)
    out = set()
    for i, a in enumerate(values):
        for b in values[i + 1:]:
            if pos[b] < pos[a]:
                out.add((a, b))
    return frozenset(out)


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1..n} in one-line notation."""

    word: Word

    def __post_init__(self):
        if sorted(self.word) != list(range(1, len(self.word) + 1)):
            raise ValueError(f"not a permutation of 1..n: {self.word}")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @property
    def n(self) -> int:
        return len(self.word)

    def inversions(self) -> frozenset:
        return frozenset(refl_a(a, b) for a, b in _word_inversion_pairs(self.word))

    def length(self) -> int:
        return len(self.inversions())

    def covers_down(self) -> list:
        """Elements covered by self, each with its cover reflection."""
        out = []
        w = self.word
        for i in range(len(w) - 1):
            if w[i] > w[i + 1]:
                lower = w[:i] + (w[i + 1], w[i]) + w[i + 2:]
                out.append((Permutation(lower), refl_a(w[i], w[i + 1])))
        return out

    def __repr__(self) -> str:
        return "Permutation(" + "".join(str(v) for v in self.word) + ")"


@dataclass(frozen=True)
class SignedPermutation:
    """A signed permutation in short one-line notation."""

    word: Word

    def __post_init__(self):
        if sorted(abs(v) for v in self.word) != list(range(1, len(self.word) + 1)) or 0 in self.word:
            raise ValueError(f"not a signed permutation: {self.word}")

    @classmethod
    def identity(cls, n: int) -> "SignedPermutation":
        return cls(tuple(range(1, n + 1)))

    @property
    def n(self) -> int:
        return len(self.word)

    def long_word(self) -> Word:
        return tuple(-v for v in reversed(self.word)) + self.word

    def __call__(self, i: int) -> int:
        return self.word[i - 1] if i > 0 else -self.word[-i - 1]

    def mul(self, other: "SignedPermutation") -> "SignedPermutation":
        """Composition self o other."""
        return SignedPermutation(tuple(self(other(i)) for i in range(1, self.n + 1)))

    def inversions(self) -> frozenset:
        pairs = _word_inversion_pairs(self.long_word())
        return frozenset(refl_b(a, b) for a, b in pairs)

    def length(self) -> int:
        return len(self.inversions())

    def covers_down(self) -> list:
        """Elements covered by self, each with its cover reflection."""
        out = []
        w = self.word
        if w[0] < 0:
            lower = (-w[0],) + w[1:]
            out.append((SignedPermutation(lower), refl_b(w[0], -w[0])))
        for i in range(len(w) - 1):
            if w[i] > w[i + 1]:
                lower = w[:i] + (w[i + 1], w[i]) + w[i + 2:]
                out.append((SignedPermutation(lower), refl_b(w[i], w[i + 1])))
        return out

    def __repr__(self) -> str:
        return "SignedPermutation(" + ",".join(str(v) for v in self.word) + ")"


def simple_b(i: int, n: int) -> SignedPermutation:
    """Simple generator: index 0 is the sign change on 1."""
    w = list(range(1, n + 1))
    if i == 0:
        w[0] = -1
    else:
        w[i - 1], w[i] = w[i], w[i - 1]
    return SignedPermutation(tuple(w))


def evaluate_word_b(indices: Iterable[int], n: int) -> SignedPermutation:
    """Product of simple generators as function composition, s_a s_b = s_a o s_b."""
    out = SignedPermutation.identity(n)
    for i in indices:
        out = out.mul(simple_b(i, n))
    return out


def weak_order_leq(u, w) -> bool:
    """u <= w in weak order: inclusion of inversion sets."""
    return u.inversions() <= w.inversions()


def all_permutations(n: int) -> Iterator[Permutation]:
    for w in itertools.permutations(range(1, n + 1)):
        yield Permutation(w)


def check_signed_rank(n: int) -> None:
    """Refuse a scan of the signed permutations of rank n before it starts."""
    if n > 6:
        raise ScopeExceeded("signed permutations enumerated up to n = 6")


def signed_words(n: int) -> Iterator[Word]:
    """Short words of the signed permutations of rank n, in a fixed order."""
    check_signed_rank(n)
    for base in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((1, -1), repeat=n):
            yield tuple(map(mul, signs, base))


def all_signed_permutations(n: int) -> Iterator[SignedPermutation]:
    return map(SignedPermutation, signed_words(n))


def weak_order_lattice(cox: CoxeterType) -> FiniteLattice:
    """The weak order as an explicit lattice; labels are the group elements."""
    if cox.family == "A":
        if cox.n > 6:
            raise ScopeExceeded("type A weak order supported up to n = 6")
        elems = list(all_permutations(cox.n))
    else:
        if cox.n > 4:
            raise ScopeExceeded("type B weak order supported up to n = 4")
        elems = list(all_signed_permutations(cox.n))
    covers = [(lower, w) for w in elems for lower, _t in w.covers_down()]
    return build_lattice(covers, elems)


def cjr_weak(w) -> frozenset:
    """Canonical joinands of w: per cover reflection t, the minimal v <= w
    with t inverted, found by greedy descent through the interval."""
    out = []
    for _lower, t in w.covers_down():
        v = w
        while True:
            nxt = None
            for lower, _s in v.covers_down():
                if t in lower.inversions():
                    nxt = lower
                    break
            if nxt is None:
                break
            v = nxt
        out.append(v)
    return frozenset(out)


def w0_conjugate(pi: Permutation) -> Permutation:
    """Conjugation by the longest element: reverse and complement."""
    n = pi.n
    return Permutation(tuple(n + 1 - v for v in reversed(pi.word)))


def word_w0_conjugate(word: Word) -> Word:
    """Conjugation by the longest element on a +/-labeled ground set."""
    return tuple(-v for v in reversed(word))


def unfold(pi: SignedPermutation) -> Word:
    """The long one-line word, a centrally symmetric permutation of +/-1..n."""
    return pi.long_word()


def fold(word: Word) -> SignedPermutation:
    """Inverse of unfold; raises NotSymmetric unless w(-i) = -w(i)."""
    m = len(word)
    if m % 2:
        raise NotSymmetric("odd length word")
    n = m // 2
    if any(word[k] != -word[m - 1 - k] for k in range(n)):
        raise NotSymmetric(f"word {word} is not centrally symmetric")
    return SignedPermutation(word[n:])


def is_join_irreducible_signed(pi: SignedPermutation) -> bool:
    """Shape test: negative first entry with increasing word, or positive
    first entry with exactly one descent."""
    w = pi.word
    descents = sum(1 for i in range(len(w) - 1) if w[i] > w[i + 1])
    if w[0] < 0:
        return descents == 0
    return descents == 1
