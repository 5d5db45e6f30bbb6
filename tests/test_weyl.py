"""Finite Weyl group elements: words, actions, Bruhat order."""

from __future__ import annotations

import dataclasses
import random
from functools import reduce

import pytest

from affweyl.linalg import identity_mat, mat_inverse, mat_mul, mat_vec
from affweyl.rootdata import datum
from affweyl.weyl import (
    bruhat_leq,
    dominant_representative,
    from_perm,
    from_word,
    identity,
    longest_element,
    reflection,
    simple_reflection,
    weyl_group,
)


@pytest.mark.parametrize(
    "typ,rank,order",
    [("A", 1, 2), ("A", 2, 6), ("A", 3, 24), ("B", 2, 8), ("C", 3, 48),
     ("G", 2, 12), ("D", 4, 192)],
)
def test_group_order(typ, rank, order):
    assert len(weyl_group(datum(typ, rank))) == order


def test_simple_reflection_involution():
    d = datum("C", 2)
    for i in range(d.ss_rank):
        s = simple_reflection(d, i)
        assert (s * s).is_identity
        assert s.length == 1


def test_longest_element():
    d = datum("A", 2)
    w0 = longest_element(d)
    assert w0.length == d.n_pos
    assert (w0 * w0).is_identity
    # w0 sends every positive root to a negative one
    assert all(w0.perm[i] >= d.n_pos for i in range(d.n_pos))


def test_length_is_inversion_count():
    d = datum("B", 2)
    for w in weyl_group(d):
        assert w.length == len(w.inversions())
        assert w.length == len(w.word)


def test_word_is_reduced_and_lex_minimal():
    d = datum("A", 2)
    for w in weyl_group(d):
        assert from_word(d, w.word) == w
        # any lexicographically smaller word of the same length differs
        assert list(w.word) == sorted([list(w.word)])[0]


def test_inverse_and_product():
    d = datum("G", 2)
    ws = weyl_group(d)
    for w in ws[:6]:
        assert (w * w.inverse()).is_identity
        assert w.inverse().length == w.length


def test_action_preserves_roots():
    d = datum("B", 2)
    w = from_word(d, (0, 1, 0))
    for i in range(2 * d.n_pos):
        img = w.act(d.roots[i].covec)
        j = w.act_root(i)
        assert img == d.roots[j].covec


def test_descents():
    d = datum("A", 2)
    w = from_word(d, (0, 1))
    assert w.right_descents() == [1]
    assert identity(d).right_descents() == []


def test_reflection_for_non_simple_root():
    d = datum("A", 2)
    i = next(
        k for k in range(d.n_pos) if d.roots[k].height == 2
    )  # the highest root
    t = reflection(d, i)
    assert t.length == 3
    assert (t * t).is_identity


def test_bruhat_order_on_a2():
    d = datum("A", 2)
    e = identity(d)
    s1 = simple_reflection(d, 0)
    s2 = simple_reflection(d, 1)
    w0 = longest_element(d)
    assert bruhat_leq(e, s1) and bruhat_leq(s1, w0)
    assert not bruhat_leq(w0, s1)
    assert not bruhat_leq(s1, s2)
    assert bruhat_leq(s1, s1 * s2)


def test_bruhat_order_counts_b2():
    # number of pairs u <= v equals the rank of the order relation; check
    # antisymmetry and the subword property against a direct count
    d = datum("B", 2)
    ws = weyl_group(d)
    pairs = {(u, v) for u in ws for v in ws if bruhat_leq(u, v)}
    assert all((v, u) not in pairs or u == v for u, v in pairs)
    for u, v in pairs:
        assert u.length <= v.length


def test_dominant_representative():
    d = datum("C", 2)
    for mu in [(0, 0), (1, -3), (-2, 1), (5, 5)]:
        dom, v = dominant_representative(d, mu)
        assert d.is_dominant(dom)
        assert v.act(dom) == mu
    # minimal length: the representative of a dominant vector is e
    dom0 = d.dominant_with_word((1, -3))[0]
    assert dominant_representative(d, dom0)[1].is_identity


def test_twist_by_diagram_flip():
    d = datum("A", 2, perm=(2, 1))
    s1 = simple_reflection(d, 0)
    assert s1.twist() == simple_reflection(d, 1)
    assert s1.twist(2) == s1


def test_supports():
    d = datum("A", 2, perm=(2, 1))
    s1 = simple_reflection(d, 0)
    assert s1.supp() == frozenset({0})
    # sigma-closure joins the flip orbit
    assert s1.supp_sigma() == frozenset({0, 1})


def test_cross_datum_operations_rejected():
    d1 = datum("A", 2)
    d2 = datum("A", 2, "adjoint")
    with pytest.raises(ValueError):
        simple_reflection(d1, 0) * simple_reflection(d2, 0)


# ----------------------------------------------------------------------
# the per-datum table against the matrix routes it replaced
# ----------------------------------------------------------------------

TABLE_DATA = {
    "GL3": lambda: datum("A", 2, "gl"),
    "C2": lambda: datum("C", 2),
    "G2": lambda: datum("G", 2),
    "A2-flip": lambda: datum("A", 2, "adjoint", perm=(2, 1)),
    "A2-twist": lambda: datum(
        "A", 2, "adjoint", twist={"sigma1_word": [1, 2], "mu_sigma": [1, 0]}
    ),
    "B3": lambda: datum("B", 3),
    "D4": lambda: datum("D", 4),
    "F4": lambda: datum("F", 4),
}


@pytest.fixture(scope="module", params=sorted(TABLE_DATA))
def table_datum(request):
    return TABLE_DATA[request.param]()


def _int_mat(m):
    return tuple(tuple(int(x) for x in row) for row in m)


def _greedy_word(d, mat):
    """The lexicographically smallest reduced word, by repeatedly stripping
    the smallest left descent i (w^{-1} alpha_i^vee negative), found by
    inverting the matrix."""
    by_covec = {r.covec: r.index for r in d.roots}
    word = []
    while True:
        inv = mat_inverse(mat)
        i = next(
            (
                i
                for i in range(d.ss_rank)
                if by_covec[
                    tuple(mat_vec(inv, d.roots[d.simple_idx[i]].covec))
                ] >= d.n_pos
            ),
            None,
        )
        if i is None:
            return tuple(word)
        word.append(i)
        mat = mat_mul(d._simple_mat(i), mat)


def test_table_inverse_matches_mat_inverse(table_datum):
    for w in weyl_group(table_datum):
        assert w.inverse().mat == _int_mat(mat_inverse(w.mat))
        assert w.inverse().inverse() is w


def test_table_matrix_is_product_along_word(table_datum):
    d = table_datum
    one = identity_mat(d.rank)
    for w in weyl_group(d):
        assert w.mat == reduce(mat_mul, (d._simple_mat(i) for i in w.word), one)
        assert len(w.word) == w.length


def test_table_word_is_greedy_left_descent_word(table_datum):
    d = table_datum
    ws = weyl_group(d)
    sample = ws if len(ws) <= 200 else random.Random(3).sample(ws, 120)
    for w in sample:
        assert w.word == _greedy_word(d, w.mat)


def test_table_products_and_interning(table_datum):
    d = table_datum
    ws = weyl_group(d)
    assert [w.index for w in ws] == list(range(len(ws)))
    assert identity(d) is ws[0]
    rng = random.Random(7)
    for _ in range(300):
        u, v = rng.choice(ws), rng.choice(ws)
        uv = u * v
        assert uv.mat == mat_mul(u.mat, v.mat)
        assert uv is ws[uv.index]
        assert uv is from_perm(d, tuple(u.perm[p] for p in v.perm))
    for w in ws[: 1 + d.ss_rank]:
        assert from_word(d, w.word) is w
    for i in range(d.ss_rank):
        assert simple_reflection(d, i) is ws[1 + i]
    for a in range(d.n_pos):
        t = reflection(d, a)
        assert t is reflection(d, d.neg_root(a)) and (t * t) is ws[0]


def test_table_twist_matches_conjugation(table_datum):
    d = table_datum
    sigma_inv = _int_mat(mat_inverse(d.sigma_mat))
    for w in weyl_group(d)[:60]:
        tw = w.twist()
        assert tw.mat == mat_mul(d.sigma_mat, mat_mul(w.mat, sigma_inv))
        assert tw is weyl_group(d)[tw.index]
        assert w.twist(d.sigma_order) is w


def test_from_perm_rejects_non_elements():
    d = datum("A", 2)
    bad = list(range(len(d.roots)))
    bad[0], bad[1] = bad[1], bad[0]
    with pytest.raises(ValueError, match="not the root permutation"):
        from_perm(d, bad)


def test_weyl_cap_still_applies():
    capped = dataclasses.replace(datum("A", 3), weyl_cap=10, _caches={})
    with pytest.raises(ValueError, match="larger than the configured cap 10"):
        weyl_group(capped)
