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
from functools import lru_cache
from operator import gt, mul
from typing import Iterable, Iterator, Tuple

from .lattice import FiniteLattice
from .util import ScopeExceeded

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


def lower_covers(word: Word) -> Iterator[Tuple[Tuple[int, int], Word]]:
    """Each element covered by the one with this word, as (its cover
    reflection, its word): the centre first, where a signed word starts
    negative, then the descents by position.  The reflection is the value
    pair (a, b) that refl_a and refl_b store: (y, x) for a descent x > y
    with x + y >= 0, else (-x, -y), and (w[0], -w[0]) for the centre.  A
    permutation's word has no negative entry, so this serves both families."""
    if word and word[0] < 0:
        yield (word[0], -word[0]), (-word[0],) + word[1:]
    for i in range(len(word) - 1):
        x, y = word[i], word[i + 1]
        if x > y:
            yield ((y, x) if x + y >= 0 else (-x, -y)), word[:i] + (y, x) + word[i + 2:]


def word_length(word: Word) -> int:
    """The Coxeter length of a permutation's word or a signed permutation's
    short word: its inversions plus -v for each negative entry v, which sum
    to (1 + ... + n - sum(word)) / 2, and to 0 for a permutation."""
    n = len(word)
    return sum(itertools.starmap(gt, itertools.combinations(word, 2))) + (n * (n + 1) // 2 - sum(word)) // 2


def _word_inversion_pairs(word: Word) -> frozenset:
    pos = {v: i for i, v in enumerate(word)}
    values = sorted(word)
    out = set()
    for i, a in enumerate(values):
        for b in values[i + 1:]:
            if pos[b] < pos[a]:
                out.add((a, b))
    return frozenset(out)


@dataclass(frozen=True, slots=True)
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

    def __repr__(self) -> str:
        return "Permutation(" + "".join(str(v) for v in self.word) + ")"


@dataclass(frozen=True, slots=True)
class SignedPermutation:
    """A signed permutation in short one-line notation."""

    word: Word

    def __post_init__(self):
        # 0 in word fails this too: abs(0) = 0 is not among 1..n.
        if sorted(map(abs, self.word)) != list(range(1, len(self.word) + 1)):
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


@lru_cache(maxsize=None)
def weak_order_lattice(cox: CoxeterType) -> FiniteLattice:
    """The weak order as an explicit lattice; labels are the group elements.
    One lattice per type, built on first use and shared by every caller.
    Ids: the words stably sorted by length, build_lattice's ids for this
    graded order."""
    if cox.family == "A":
        if cox.n > 6:
            raise ScopeExceeded("type A weak order supported up to n = 6")
        words, make = list(itertools.permutations(range(1, cox.n + 1))), Permutation
    else:
        if cox.n > 4:
            raise ScopeExceeded("type B weak order supported up to n = 4")
        words, make = list(signed_words(cox.n)), SignedPermutation
    words.sort(key=word_length)
    index = {w: i for i, w in enumerate(words)}
    covers_down = [sorted(index[lower] for _t, lower in lower_covers(w)) for w in words]
    lat = FiniteLattice._on_ids(list(map(make, words)), covers_down)
    lat._check_joins()
    return lat


def cjr_weak(w) -> frozenset:
    """Canonical joinands of w: for each cover reflection t of w, the
    minimal v <= w with t inverted, found by greedy descent.  The rule: walk
    down from w, each step to the first lower cover whose cover reflection
    is not t, and stop where there is none.  A lower cover of v has the
    inversions of v less its own cover reflection and no other, so it still
    inverts t iff its cover reflection is not t.  Words are walked as
    tuples; only the joinands are built."""
    out = []
    for t, _lower in lower_covers(w.word):
        v = w.word
        while (nxt := next((lower for s, lower in lower_covers(v) if s != t), None)) is not None:
            v = nxt
        out.append(type(w)(v))
    return frozenset(out)


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
