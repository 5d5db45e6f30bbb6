"""Generic sigma-conjugacy class invariants and cordiality.

The expected values below were frozen from the independent Bruhat-interval
oracle (maximize class invariants over the lower interval), then checked
against the closed forms; the two routes are compared wholesale in
tests/test_acceptance.py.  ``cross_check`` runs the redundant routes of
``affweyl.verify`` on the elements tested here.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from affweyl import affine as af
from affweyl.conjclass import class_of
from affweyl.generic import (
    generic_class,
    generic_class_general,
    generic_lambda,
    generic_newton,
    generic_newton_general,
    is_cordial,
    is_cordial_general,
    oracle_generic_class,
    plain_datum,
    twist_gamma,
)
from affweyl.qbg import QBGraph
from affweyl.rootdata import datum
from affweyl.verify import cross_check
from affweyl.weyl import from_perm, from_word, simple_reflection, weyl_group
from affweyl.affine import AffineElement


@pytest.fixture(scope="module")
def sl2():
    return datum("A", 1, "sc")


@pytest.fixture(scope="module")
def gl2():
    return datum("A", 1, "gl")


@pytest.fixture(scope="module")
def gl3():
    return datum("A", 2, "gl")


class TestGenericNewton:
    def test_sl2_translation_times_s(self, sl2):
        # x = s eps^{alpha^vee}: length 3, generic class is regular
        x = af.from_parts(simple_reflection(sl2, 0), (1,))
        cross_check(x)
        res = generic_lambda(x)
        assert res.nu_x == (1,)
        assert res.lambda_x.lift() == (1,)
        assert res.witness_v.is_identity
        assert res.d_min == 1

    def test_gl2_both_readings(self, gl2):
        # (s, (1,0)) = s eps^{(1,0)} has length 2 and its interval contains
        # eps^{(1,0)}, so the generic point is already integral
        s = simple_reflection(gl2, 0)
        x = af.from_parts(s, (1, 0))
        assert x.length == 2
        cross_check(x)
        assert generic_newton(x) == (1, 0)
        assert generic_lambda(x).lambda_x.lift() == (1, 0)

        # (s, (0,1)) = eps^{(1,0)} s has length 0: its own class is generic
        y = af.from_parts(s, (0, 1))
        assert y.length == 0
        cross_check(y)
        assert generic_newton(y) == (
            Fraction(1, 2),
            Fraction(1, 2),
        )
        assert generic_lambda(y).lambda_x.lift() == (0, 1)

    def test_matches_own_class_for_length_zero(self, gl3):
        omega = af.omega_element(gl3, gl3.coroot_quotient.coords((1, 0, 0)))
        cross_check(omega)
        assert generic_class(omega) == class_of(omega)

    def test_oracle_agreement_small_scan(self, sl2, gl2):
        for d, cap in [(sl2, 5), (gl2, 4)]:
            for cc in d.coroot_quotient.scan_coords():
                for x in af.enumerate_length_le(d, cap, cc):
                    cross_check(x)
                    assert generic_class(x) == oracle_generic_class(x), repr(x)

    def test_oracle_respects_budget(self, gl2):
        x = af.translation(gl2, (3, -3))
        with pytest.raises(af.BudgetExceeded, match="budget"):
            oracle_generic_class(x, max_size=5)

    def test_witness_is_length_positive(self, gl3):
        x = af.from_parts(from_word(gl3, (0, 1)), (2, 0, -1))
        res = generic_lambda(x)
        assert res.witness_v in af.lp_set(x)


class TestCordial:
    def test_gl3_affine_simple_reflections(self, gl3):
        # s1 and s2 are cordial; the affine reflection s0 is not, failing
        # the distance-match condition with d = 1 against eta length 3
        s1 = af.from_affine_word(gl3, (0,))
        s2 = af.from_affine_word(gl3, (1,))
        s0 = af.from_affine_word(gl3, (2,))
        for x in (s1, s2, s0):
            cross_check(x)
        assert is_cordial(s1).cordial
        assert is_cordial(s2).cordial
        r = is_cordial(s0)
        assert not r.cordial
        assert r.failed == "(2)"
        assert r.d_min == 1
        assert r.twist_length == 3

    def test_translations_are_cordial(self, gl3):
        for mu in [(2, 1, 0), (1, 1, 0), (0, 0, 0), (3, 0, -1)]:
            x = af.translation(gl3, mu)
            cross_check(x)
            assert is_cordial(x).cordial

    def test_cordial_inequality_failure_mode_one(self):
        # in C2 some elements fail because the distance minimum is attained
        # off the canonical witness; scan for a "(1)" failure to pin the
        # reporting format
        d = datum("C", 2)
        seen = set()
        for cc in d.coroot_quotient.scan_coords():
            for x in af.enumerate_length_le(d, 6, cc):
                r = is_cordial(x)
                if not r.cordial:
                    seen.add(r.failed)
        assert seen <= {"(1)", "(2)"}
        assert "(2)" in seen


@pytest.fixture(scope="module")
def pgl2t():
    return datum(
        "A", 1, "adjoint", twist={"sigma1_word": [1], "mu_sigma": [1]}
    )


@pytest.fixture(scope="module")
def pgl3t():
    return datum(
        "A", 2, "adjoint",
        twist={"sigma1_word": [1, 2], "mu_sigma": [1, 0]},
    )


class TestTwistedForms:
    def test_gamma_is_length_zero(self, pgl2t, pgl3t):
        for d in (pgl2t, pgl3t):
            assert twist_gamma(d).length == 0

    def test_newton_transport(self, pgl2t):
        # nu of the twisted group = nu of x gamma in the plain group,
        # shifted back by the Weyl average of mu_sigma
        # lattice coords: omega^vee = (1), so nu = alpha^vee / 2 reads (1,)
        x = af.from_parts(simple_reflection(pgl2t, 0), (0,))
        cross_check(x)
        nu = generic_newton_general(x)
        assert nu == (1,)
        assert pgl2t.coroot_coords(nu) == (Fraction(1, 2),)

        plain = plain_datum(pgl2t)
        y = x * twist_gamma(pgl2t)
        yp = AffineElement(plain, from_perm(plain, y.w.perm), y.mu)
        shift = pgl2t.avg_J(pgl2t.omega_twist[1], range(pgl2t.ss_rank))
        transported = tuple(
            Fraction(a) - b for a, b in zip(generic_newton(yp), shift)
        )
        assert tuple(nu) == transported

    def test_general_class_kappa(self, pgl2t):
        x = af.translation(pgl2t, (1,))
        b = generic_class_general(x)
        # kappa lives in the quotient by (sigma_1 sigma_2 - 1) X + Z Phi^vee
        assert len(b.kappa) == pgl2t.rank

    def test_quasi_split_entry_points_refused(self, pgl2t):
        x = af.translation(pgl2t, (1,))
        with pytest.raises(ValueError, match="twist"):
            generic_newton(x)
        with pytest.raises(ValueError, match="twist"):
            is_cordial(x)

    def test_cordial_general_against_definition(self, pgl2t, pgl3t):
        # cross_check recomputes cordiality of the transported element with
        # the quasi-split criterion and asserts agreement
        for d, cap in [(pgl2t, 5), (pgl3t, 3)]:
            for cc in d.coroot_quotient.scan_coords():
                for x in af.enumerate_length_le(d, cap, cc):
                    cross_check(x)
                    assert is_cordial_general(x).cordial in (True, False)

    def test_literal_quantifier_range_is_refuted(self):
        # ranging v' over {v' : sigma_1^{-1} v' in LP(x)} instead of LP(x)
        # changes the verdict on some elements: the transported range is
        # the correct unwinding of LP(x gamma) = sigma_1^{-1} LP(x)
        d = datum(
            "A", 2, "adjoint",
            perm=(2, 1),
            twist={"sigma1_word": [1, 2], "mu_sigma": [1, 0]},
        )
        g = QBGraph.of(d)
        s1_inv = from_word(d, d.omega_twist[0]).inverse()

        def literal_cordial(x, r):
            # the direct criterion of r = is_cordial_general(x), with the
            # quantifier of condition (1) read literally
            cond1 = all(
                g.d(s1_inv * vp, (x.w * vp).twist()) >= r.d_min
                for vp in weyl_group(d)
                if af.is_length_positive(x, s1_inv * vp)
            )
            return cond1 and r.d_min == r.twist_length

        disagreements = 0
        for cc in d.coroot_quotient.scan_coords():
            for x in af.enumerate_length_le(d, 4, cc):
                cross_check(x)
                r = is_cordial_general(x)
                if r.cordial != literal_cordial(x, r):
                    disagreements += 1
        assert disagreements > 0
