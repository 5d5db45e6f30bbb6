"""The oracle check's budget handling and the per-element cross-checks."""

from __future__ import annotations

import dataclasses

import pytest

from affweyl import affine as af
from affweyl import verify
from affweyl.rootdata import datum
from affweyl.weyl import from_word, simple_reflection


@pytest.fixture(scope="module")
def gl2():
    return datum("A", 1, "gl")


class TestOracleBudget:
    def test_tiny_budget_is_skipped_not_failed(self, gl2):
        xs = verify.scan_elements(gl2, 3)
        rep, generics = verify.check_oracle_equivalence(
            gl2, xs, interval_budget=2
        )
        assert rep.budget_skips > 0
        assert rep.failed == 0
        assert rep.checked + rep.budget_skips == len(xs)
        assert len(generics) == len(xs)

    def test_zero_budget_skips_every_element(self):
        gl3 = datum("A", 2, "gl")
        xs = verify.scan_elements(gl3, 2)
        rep, _ = verify.check_oracle_equivalence(gl3, xs, interval_budget=0)
        assert (rep.checked, rep.budget_skips) == (0, len(xs)) == (0, 30)

    def test_plain_value_error_is_a_failure(self, gl2, monkeypatch):
        def oracle(*args):
            raise ValueError("over budget")

        monkeypatch.setattr(verify, "oracle_generic_class", oracle)
        xs = verify.scan_elements(gl2, 2)
        rep, _ = verify.check_oracle_equivalence(gl2, xs)
        assert rep.budget_skips == 0
        assert rep.failed == len(xs)
        assert "over budget" in rep.first_failure


def _plain_x():
    gl3 = datum("A", 2, "gl")
    return af.from_parts(from_word(gl3, (0, 1)), (2, 0, -1))


def _twisted_x():
    d = datum(
        "A", 2, "adjoint",
        twist={"sigma1_word": [1, 2], "mu_sigma": [1, 0]},
    )
    return af.from_parts(simple_reflection(d, 0), (1, 0))


def _shift_lambda(res):
    d = res.lambda_x.datum
    covec = d.roots[d.simple_idx[0]].covec
    lifted = tuple(a + b for a, b in zip(res.lambda_x.lift(), covec))
    return dataclasses.replace(res, lambda_x=d.gamma_class(lifted))


def _shift_nu(res):
    return dataclasses.replace(res, nu_x=tuple(c + 1 for c in res.nu_x))


def _flip(r):
    return dataclasses.replace(r, cordial=not r.cordial)


def _shift(vec):
    return tuple(c + 1 for c in vec)


@pytest.mark.parametrize(
    "make_x,check,target,corrupt,message",
    [
        (_plain_x, verify.cross_check_weyl_maximum, "generic_lambda",
         _shift_lambda, "minimizers disagree"),
        (_plain_x, verify.cross_check_j_restricted, "generic_lambda",
         _shift_nu, "J-restricted route disagrees"),
        (_plain_x, verify.cross_check_cordial_bound, "is_cordial",
         _flip, "cordiality routes disagree"),
        (_twisted_x, verify.cross_check_weyl_maximum,
         "generic_newton_general", _shift, "Weyl-maximum route disagrees"),
        (_twisted_x, verify.cross_check_transport,
         "generic_newton_general", _shift, "transport route disagrees"),
        (_twisted_x, verify.cross_check_transport, "is_cordial_general",
         _flip, "direct criterion disagrees with the definition"),
    ],
    ids=[
        "weyl-maximum-plain", "j-restricted", "cordial-bound",
        "weyl-maximum-twisted", "transport-nu", "transport-cordial",
    ],
)
def test_cross_check_detects_a_wrong_production_value(
    monkeypatch, make_x, check, target, corrupt, message
):
    x = make_x()
    check(x)  # the production route passes
    real = getattr(verify, target)
    monkeypatch.setattr(verify, target, lambda y: corrupt(real(y)))
    with pytest.raises(AssertionError, match=message):
        check(x)
