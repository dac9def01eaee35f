import dataclasses
import itertools

import pytest

from arclat import lattice as lat
from arclat.permutations import (
    CoxeterType,
    NotSymmetric,
    Permutation,
    Reflection,
    SignedPermutation,
    all_permutations,
    all_signed_permutations,
    cjr_weak,
    evaluate_word_b,
    fold,
    lower_covers,
    refl_a,
    refl_b,
    simple_b,
    unfold,
    weak_order_lattice,
    word_w0_conjugate,
)


def weak_order_leq(u, w) -> bool:
    """u <= w in weak order: inclusion of inversion sets."""
    return u.inversions() <= w.inversions()


def covers_down(w):
    """Elements covered by w, each with its cover reflection, as objects."""
    family = "B" if isinstance(w, SignedPermutation) else "A"
    return [(type(w)(lower), Reflection(family, *t)) for t, lower in lower_covers(w.word)]


def inverts(w, t):
    """Whether t = (a b), a < b, is an inversion of w: b comes before a in
    the word, or in the long word of a signed permutation."""
    word = w.long_word() if isinstance(w, SignedPermutation) else w.word
    return word.index(t.b) < word.index(t.a)


def test_inversions_examples():
    assert Permutation((1, 2, 3)).inversions() == frozenset()
    assert Permutation((3, 2, 1)).inversions() == frozenset(
        [refl_a(1, 2), refl_a(1, 3), refl_a(2, 3)]
    )
    pi = SignedPermutation((-1, 2))
    # length-decrease check over all four reflections of the rank-2 group
    assert pi.inversions() == frozenset([refl_b(1, -1)])


def test_length_counts_inversions():
    for n in (2, 3, 4):
        for pi in all_permutations(n):
            descents = sum(1 for i in range(n - 1) if pi.word[i] > pi.word[i + 1])
            assert pi.length() == len(pi.inversions())
            assert (pi.length() == 0) == (descents == 0)
        for pi in all_signed_permutations(min(n, 3)):
            assert pi.length() == len(pi.inversions())


def test_weak_order_leq_examples():
    ident = Permutation((1, 2, 3))
    for pi in all_permutations(3):
        assert weak_order_leq(ident, pi)
    assert weak_order_leq(Permutation((2, 1, 3)), Permutation((2, 3, 1)))
    assert not weak_order_leq(Permutation((2, 1, 3)), Permutation((1, 3, 2)))


def test_covers_down_examples():
    assert covers_down(Permutation((1, 2, 3))) == []
    assert covers_down(SignedPermutation((1, 2))) == []
    covers = covers_down(SignedPermutation((1, -2)))
    assert len(covers) == 1
    assert covers[0][0] == SignedPermutation((-2, 1))


@pytest.mark.parametrize("n", [2, 3])
def test_cover_reflections_are_length_decreasing(n):
    """t is a cover reflection of w exactly when t w is covered by w."""
    elems = list(all_signed_permutations(n))
    inv = {pi: pi.inversions() for pi in elems}
    for w in elems:
        for lower, t in covers_down(w):
            assert inv[lower] == inv[w] - {t}


def test_weak_order_lattice_sizes():
    assert weak_order_lattice(CoxeterType("A", 3)).n == 6
    assert weak_order_lattice(CoxeterType("B", 2)).n == 8
    assert weak_order_lattice(CoxeterType("B", 3)).n == 48


@pytest.mark.parametrize("family,n", [("B", 3), ("A", 4)])
def test_weak_order_lattice_is_built_once(family, n):
    cox = CoxeterType(family, n)
    W = weak_order_lattice(cox)
    assert weak_order_lattice(CoxeterType(family, n)) is W
    fresh = weak_order_lattice.__wrapped__(cox)
    assert fresh is not W
    assert (W.labels, W.up, W.down) == (fresh.labels, fresh.up, fresh.down)


def test_scope_guard():
    with pytest.raises(lat.ScopeExceeded):
        weak_order_lattice(CoxeterType("B", 5))


def test_cjr_weak_identity_empty():
    assert cjr_weak(Permutation((1, 2, 3))) == frozenset()
    assert cjr_weak(SignedPermutation((1, 2))) == frozenset()


@pytest.mark.parametrize("family,n", [("A", 4), ("B", 3)])
def test_cjr_weak_matches_oracle(family, n):
    W = weak_order_lattice(CoxeterType(family, n))
    for i in range(W.n):
        greedy = {x.word for x in cjr_weak(W.labels[i])}
        oracle = {W.labels[j].word for j in lat.cjr_oracle(W, i)}
        assert greedy == oracle


def cjr_weak_by_inversion_sets(w):
    """The greedy descent as first written: each step tests the cover
    reflection t against the whole inversion set of a lower cover."""
    out = []
    for _lower, t in covers_down(w):
        v = w
        while True:
            nxt = None
            for lower, _s in covers_down(v):
                if t in lower.inversions():
                    nxt = lower
                    break
            if nxt is None:
                break
            v = nxt
        out.append(v)
    return frozenset(out)


@pytest.mark.parametrize("family,n", [("A", 4), ("B", 3)])
def test_cjr_weak_matches_the_inversion_set_descent(family, n):
    W = weak_order_lattice(CoxeterType(family, n))
    for w in W.labels:
        assert cjr_weak(w) == cjr_weak_by_inversion_sets(w), w


def cjr_weak_by_inverts(w):
    """The greedy descent on elements: each step builds the lower covers of
    v and takes the first that inverts t."""
    out = []
    for _lower, t in covers_down(w):
        v = w
        while True:
            nxt = next((lower for lower, _s in covers_down(v) if inverts(lower, t)), None)
            if nxt is None:
                break
            v = nxt
        out.append(v)
    return frozenset(out)


@pytest.mark.parametrize("family,n", [("A", 5), ("A", 6), ("B", 4)])
def test_cjr_weak_matches_the_element_descent(family, n):
    W = weak_order_lattice(CoxeterType(family, n))
    for w in W.labels:
        assert cjr_weak(w) == cjr_weak_by_inverts(w), w


@pytest.mark.parametrize("family,n", [("A", 4), ("B", 3)])
def test_inverts_matches_the_inversion_set(family, n):
    W = weak_order_lattice(CoxeterType(family, n))
    reflections = W.labels[W.top].inversions()
    for w in W.labels:
        assert {t for t in reflections if inverts(w, t)} == w.inversions(), w


@pytest.mark.parametrize("family,n", [("A", n) for n in range(1, 7)] + [("B", n) for n in range(1, 5)])
def test_weak_order_lattice_matches_the_label_pair_build(family, n):
    """The build through the word dict equals the one from covers_down's
    element pairs."""
    W = weak_order_lattice(CoxeterType(family, n))
    elems = list(all_permutations(n) if family == "A" else all_signed_permutations(n))
    ref = lat.build_lattice([(lower, w) for w in elems for lower, _t in covers_down(w)], elems)
    assert (W.labels, W.covers_up, W.up, W.down, W.jis) == (ref.labels, ref.covers_up, ref.up, ref.down, ref.jis)


def test_lower_covers_reflections_are_canonical():
    """Each cover pair is what refl_a or refl_b stores for the swapped values."""
    for n in (1, 2, 3, 4):
        for pi in all_permutations(n):
            for t, lower in lower_covers(pi.word):
                i = next(i for i in range(n) if pi.word[i] != lower[i])
                assert Reflection("A", *t) == refl_a(pi.word[i], pi.word[i + 1])
        for pi in all_signed_permutations(n):
            for t, lower in lower_covers(pi.word):
                i = next(i for i in range(n) if pi.word[i] != lower[i])
                x = pi.word[i]
                y = -x if lower[i] == -x else pi.word[i + 1]
                assert Reflection("B", *t) == refl_b(x, y)


def test_unfold_fold_examples_and_roundtrip():
    assert unfold(SignedPermutation((1, 2))) == (-2, -1, 1, 2)
    assert unfold(SignedPermutation((-4, 3, 5, 2, -1))) == (
        1, -2, -5, -3, 4, -4, 3, 5, 2, -1,
    )
    with pytest.raises(NotSymmetric):
        fold((1, 2, -1, -2))
    for pi in all_signed_permutations(3):
        assert fold(unfold(pi)) == pi


def test_word_w0_conjugate_is_involution():
    word = (1, -2, -5, -3, 4, -4, 3, 5, 2, -1)
    assert word_w0_conjugate(word_w0_conjugate(word)) == word


@pytest.mark.parametrize("n", [2, 3, 4])
def test_join_irreducible_shape(n):
    from arclat.permutations import is_join_irreducible_signed

    W = weak_order_lattice(CoxeterType("B", n))
    from_lattice = {W.labels[j] for j in W.jis}
    by_shape = {pi for pi in all_signed_permutations(n) if is_join_irreducible_signed(pi)}
    assert from_lattice == by_shape


@pytest.mark.parametrize("n", [2, 3])
def test_signed_group_embeds_as_sublattice(n):
    """The rank-n signed weak order is the sublattice of the weak order on
    2n letters induced by the centrally symmetric words."""
    B = weak_order_lattice(CoxeterType("B", n))
    A = weak_order_lattice(CoxeterType("A", 2 * n))
    relabel = {v: v + n + (0 if v > 0 else 1) for v in range(-n, n + 1) if v != 0}

    def embed(pi):
        return Permutation(tuple(relabel[v] for v in unfold(pi)))

    image = {A.index[embed(B.labels[i])]: i for i in range(B.n)}
    # order embedding
    for i, j in itertools.product(range(B.n), repeat=2):
        a, b = embed(B.labels[i]), embed(B.labels[j])
        assert weak_order_leq(B.labels[i], B.labels[j]) == weak_order_leq(a, b)
    # closed under meet and join
    for x, y in itertools.product(image, repeat=2):
        assert A.join(x, y) in image
        assert A.meet(x, y) in image


def test_simple_generators_and_words():
    assert simple_b(0, 3) == SignedPermutation((-1, 2, 3))
    assert simple_b(1, 3) == SignedPermutation((2, 1, 3))
    assert evaluate_word_b((0, 1), 3) == SignedPermutation((2, -1, 3))
    assert evaluate_word_b((0, 1, 0), 3) == SignedPermutation((-2, -1, 3))
    assert evaluate_word_b((1, 0), 3) == SignedPermutation((-2, 1, 3))
    assert evaluate_word_b((1, 0, 1), 3) == SignedPermutation((1, -2, 3))
    assert evaluate_word_b((1, 0, 1, 2), 3) == SignedPermutation((1, 3, -2))
    assert evaluate_word_b((2, 1, 0, 1, 2), 3) == SignedPermutation((1, 2, -3))


@pytest.mark.parametrize("word", [(0, 1), (1, 1), (1, -1), (2,), (1, 3)])
def test_signed_permutation_rejects_words_that_are_not_signed_permutations(word):
    with pytest.raises(ValueError, match="not a signed permutation"):
        SignedPermutation(word)


@pytest.mark.parametrize("cls,word", [(SignedPermutation, (2, -1, 3)), (Permutation, (2, 1, 3))])
def test_permutations_are_slotted_frozen_values(cls, word):
    pi = cls(word)
    assert cls.__slots__ == ("word",) and not hasattr(pi, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        pi.word = word
    assert pi == cls(word) and hash(pi) == hash(cls(word)) and pi != cls(tuple(sorted(map(abs, word))))
    assert repr(pi) == cls.__name__ + "(" + ("," if cls is SignedPermutation else "").join(map(str, word)) + ")"


def test_empty_signed_permutation_is_the_rank_zero_identity():
    pi = SignedPermutation(())
    assert (pi.n, pi.long_word(), pi) == (0, (), SignedPermutation.identity(0))
