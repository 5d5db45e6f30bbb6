"""Extended affine Weyl group elements: lengths, intervals, LP sets."""

from __future__ import annotations

import pytest

from affweyl import affine as af
from affweyl.rootdata import datum
from affweyl.weyl import from_word, identity, simple_reflection, weyl_group


@pytest.fixture(scope="module")
def gl2():
    return datum("A", 1, "gl")


@pytest.fixture(scope="module")
def gl3():
    return datum("A", 2, "gl")


class TestBasics:
    def test_product_convention(self, gl2):
        # (w eps^mu)(w' eps^mu') = w w' eps^{(w')^{-1} mu + mu'}
        s = simple_reflection(gl2, 0)
        x = af.from_parts(s, (1, 0))
        y = af.from_parts(identity(gl2), (0, 2))
        assert (x * y).mu == (1, 2)
        z = af.from_parts(s, (0, 0)) * af.from_parts(s, (1, 0))
        assert z.w.is_identity and z.mu == (1, 0)

    def test_inverse(self, gl3):
        x = af.from_parts(from_word(gl3, (0, 1)), (2, -1, 0))
        assert (x * x.inverse()).key == af.affine_identity(gl3).key
        assert x.inverse().length == x.length

    def test_translation_length(self, gl3):
        # l(eps^mu) = <mu_dom, 2 rho>
        mu = (3, 1, 0)
        t = af.translation(gl3, mu)
        assert t.length == gl3.pair_2rho(mu)
        assert af.translation(gl3, (1, 1, 1)).length == 0

    def test_length_functional_decomposition(self, gl3):
        x = af.from_parts(from_word(gl3, (0, 1, 0)), (1, 0, -2))
        total = sum(abs(x.length_functional(i)) for i in range(gl3.n_pos))
        # positive-root part plus the translation paired against 2 rho
        assert x.length == total

    def test_central_translations_have_length_zero(self, gl2):
        assert af.translation(gl2, (5, 5)).length == 0


class TestAffineWords:
    def test_simple_reflection_lengths(self, gl3):
        for n in range(gl3.ss_rank + len(gl3.components)):
            assert af.affine_simple_reflection(gl3, n).length == 1

    def test_reduced_word_roundtrip(self, gl3):
        x = af.from_parts(from_word(gl3, (0, 1)), (1, -1, 0))
        omega, word = x.omega_and_word
        assert omega.length == 0
        y = omega
        for n in word:
            y = y * af.affine_simple_reflection(gl3, n)
        assert y.key == x.key
        assert len(word) == x.length

    def test_omega_elements_have_length_zero(self, gl3):
        for cc in gl3.coroot_quotient.scan_coords():
            assert af.omega_element(gl3, cc).length == 0

    def test_from_affine_word(self, gl3):
        x = af.from_affine_word(gl3, (2, 0, 1))
        assert x.length <= 3
        assert x.key == (
            af.affine_simple_reflection(gl3, 2)
            * af.affine_simple_reflection(gl3, 0)
            * af.affine_simple_reflection(gl3, 1)
        ).key


class TestBruhatOrder:
    def test_interval_of_identity(self, gl2):
        xs = af.lower_interval(af.affine_identity(gl2))
        assert [x.key for x in xs] == [af.affine_identity(gl2).key]

    def test_interval_sizes_grow(self, gl2):
        s = simple_reflection(gl2, 0)
        sizes = []
        for k in range(4):
            x = af.from_parts(s, (k + 1, -k))
            sizes.append(len(af.lower_interval(x)))
        assert sizes == sorted(sizes)

    def test_interval_is_downward_closed(self, gl3):
        x = af.from_parts(from_word(gl3, (0, 1)), (1, 0, -1))
        xs = af.lower_interval(x)
        keys = {y.key for y in xs}
        for y in xs:
            for z in af.lower_interval(y):
                assert z.key in keys

    def test_order_is_graded_consistently(self, gl2):
        x = af.from_parts(simple_reflection(gl2, 0), (2, 0))
        for y in af.lower_interval(x):
            assert y.length <= x.length
            assert af.bruhat_leq_affine(y, x)

    def test_budget_error(self, gl2):
        x = af.from_parts(simple_reflection(gl2, 0), (4, -4))
        with pytest.raises(af.BudgetExceeded, match="budget"):
            af.lower_interval(x, max_size=3)

    def test_budget_counts_the_identity_closure(self, gl2):
        # a length-zero element applies no letter; its interval of one
        # element is still over a budget of zero
        with pytest.raises(af.BudgetExceeded, match="budget 0"):
            af.lower_interval(af.affine_identity(gl2), max_size=0)

    def test_kottwitz_class_constant_on_interval(self, gl3):
        x = af.from_parts(from_word(gl3, (1, 0)), (1, 0, 0))
        cc = x.coroot_class_coords()
        for y in af.lower_interval(x):
            assert y.coroot_class_coords() == cc


class TestEnumeration:
    def test_enumerate_counts_a1(self):
        d = datum("A", 1, "sc")
        origin = d.coroot_quotient.coords((0,))
        xs = af.enumerate_length_le(d, 6, origin)
        # affine A1: exactly two elements of each positive length
        by_len = {}
        for x in xs:
            by_len[x.length] = by_len.get(x.length, 0) + 1
        assert by_len == {0: 1, 1: 2, 2: 2, 3: 2, 4: 2, 5: 2, 6: 2}

    def test_enumerate_respects_class(self, gl2):
        cls = gl2.coroot_quotient.coords((1, 0))
        for x in af.enumerate_length_le(gl2, 4, cls):
            assert x.coroot_class_coords() == cls


class TestSignTypeAndLP:
    def test_sign_type_entries(self, gl3):
        x = af.from_parts(from_word(gl3, (0,)), (1, 0, 0))
        st = x.sign_type()
        assert len(st) == gl3.n_pos
        assert set(st) <= {-1, 0, 1}

    def test_dominant_regular_translations_are_shrunken(self, gl3):
        assert af.translation(gl3, (2, 1, 0)).is_shrunken()
        assert not af.affine_identity(gl3).is_shrunken()

    def test_lp_set_nonempty_and_length_positive(self, gl3):
        for word, mu in [((), (0, 0, 0)), ((0,), (1, 0, 0)), ((0, 1), (0, 0, 0))]:
            x = af.from_parts(from_word(gl3, word), mu)
            lp = af.lp_set(x)
            assert lp
            for v in lp:
                assert af.is_length_positive(x, v)

    def test_lp_of_dominant_regular_translation_is_identity(self, gl3):
        # the functional is antisymmetric, so for a regular dominant mu only
        # v = e keeps every positive root nonnegative
        x = af.translation(gl3, (3, 2, 1))
        assert [v.word for v in af.lp_set(x)] == [()]

    def test_lp_of_length_zero_is_whole_group(self, gl3):
        omega = af.omega_element(gl3, gl3.coroot_quotient.coords((1, 0, 0)))
        assert omega.length == 0
        assert set(af.lp_set(omega)) == set(weyl_group(gl3))

    def test_canonical_lp_is_minimal(self, gl3):
        x = af.from_parts(from_word(gl3, (0, 1)), (2, 0, -1))
        lp = af.lp_set(x)
        v0 = af.canonical_lp(x)
        assert v0 in lp
        assert all(
            (v0.length, v0.word) <= (v.length, v.word) for v in lp
        )

    def test_eta_sigma_conjugate(self, gl3):
        x = af.from_parts(from_word(gl3, (0,)), (1, 0, 0))
        v = af.canonical_lp(x)
        assert af.eta_sigma(x) == v.inverse() * (x.w * v).twist()


class TestLengthPositivityExamples:
    def test_spec_gl3_lengths(self, gl3):
        # the three affine simple reflections all have length one; their
        # twisted conjugates eta have lengths 1, 1, 3
        s1 = af.from_affine_word(gl3, (0,))
        s2 = af.from_affine_word(gl3, (1,))
        s0 = af.from_affine_word(gl3, (2,))
        assert s1.length == s2.length == s0.length == 1
        assert af.eta_sigma(s1).length == 1
        assert af.eta_sigma(s2).length == 1
        assert af.eta_sigma(s0).length == 3
