"""Acceptance suite: one test (and one pass/fail line) per criterion.

Criteria 2, 3, 4, 5 and 8 share one scan-and-check battery per root datum
(the same battery the ``verify`` CLI verb runs), executed once per session
at length cap 8.
"""

from __future__ import annotations

import time
from fractions import Fraction

import pytest

from affweyl import affine as af
from affweyl.conjclass import identity_class
from affweyl.generic import (
    generic_newton,
    generic_newton_general,
    is_cordial,
    plain_datum,
    twist_gamma,
)
from affweyl.rootdata import datum
from affweyl.verify import (
    check_length_additivity,
    check_qbg_identities,
    check_sign_type_determination,
    cross_check,
    find_sign_type_collision,
    run_battery,
    scan_elements,
)
from affweyl.weyl import from_perm
from affweyl.affine import AffineElement

CAP = 8

SCAN_DATA = [
    ("A1-sc", datum("A", 1, "sc")),
    ("A1-adjoint", datum("A", 1, "adjoint")),
    ("GL2", datum("A", 1, "gl")),
    ("A2-adjoint", datum("A", 2, "adjoint")),
    ("GL3", datum("A", 2, "gl")),
    ("C2", datum("C", 2)),
    ("G2", datum("G", 2)),
    ("A2-adjoint-flip", datum("A", 2, "adjoint", perm=(2, 1))),
]


def _emit(criterion: int, detail: str) -> None:
    print(f"CRITERION {criterion:02d} PASS: {detail}")


@pytest.fixture(scope="session")
def batteries():
    """{datum name: {check name: CheckReport}} at cap 8, plus the runtime."""
    t0 = time.perf_counter()
    out = {}
    for name, d in SCAN_DATA:
        reports = run_battery(d, CAP)
        out[name] = {r.name: r for r in reports}
    return out, time.perf_counter() - t0


def test_criterion_01_gl3_worked_example():
    t0 = time.perf_counter()
    gl3 = datum("A", 2, "gl")
    s1 = af.from_affine_word(gl3, (0,))
    s2 = af.from_affine_word(gl3, (1,))
    s0 = af.from_affine_word(gl3, (2,))

    assert s1.length == s2.length == s0.length == 1
    assert af.eta_sigma(s1).length == 1
    assert af.eta_sigma(s2).length == 1
    assert af.eta_sigma(s0).length == 3

    one = identity_class(gl3)
    assert af.virtual_dimension(s1, one) == 1
    assert af.virtual_dimension(s2, one) == 1
    assert af.virtual_dimension(s0, one) == 2

    for x in (s1, s2, s0):
        cross_check(x)
    assert is_cordial(s1).cordial
    assert is_cordial(s2).cordial
    r0 = is_cordial(s0)
    assert not r0.cordial and r0.failed == "(2)"

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _emit(1, f"GL3 lengths, dimensions and cordiality in {elapsed:.3f}s")


def test_criterion_02_oracle_equals_closed_form(batteries):
    reports, elapsed = batteries
    total = 0
    for name, _ in SCAN_DATA:
        rep = reports[name]["oracle-equivalence"]
        assert rep.failed == 0, f"{name}: {rep.first_failure}"
        assert rep.budget_skips == 0, f"{name}: oracle hit the budget"
        assert rep.checked > 0
        total += rep.checked
    assert elapsed < 600, f"battery took {elapsed:.0f}s"
    _emit(
        2,
        f"kappa/nu/lambda oracle agreement on {total} elements "
        f"across {len(SCAN_DATA)} data in {elapsed:.0f}s",
    )


def test_criterion_03_defect_formulas_agree(batteries):
    reports, _ = batteries
    total = 0
    for name, _ in SCAN_DATA:
        rep = reports[name]["defect-consistency"]
        assert rep.failed == 0, f"{name}: {rep.first_failure}"
        assert rep.checked > 0
        total += rep.checked
    _emit(3, f"four defect routes agree on {total} classes")


def test_criterion_04_fundamental_elements(batteries):
    reports, _ = batteries
    total = 0
    for name, _ in SCAN_DATA:
        rep = reports[name]["fundamental-consistency"]
        assert rep.failed == 0, f"{name}: {rep.first_failure}"
        total += rep.checked
    _emit(4, f"fundamental-element characterizations agree on {total} elements")


def test_criterion_05_shrunken_criterion(batteries):
    reports, _ = batteries
    total = 0
    for name, _ in SCAN_DATA:
        rep = reports[name]["shrunken-criterion"]
        assert rep.failed == 0, f"{name}: {rep.first_failure}"
        total += rep.checked
    _emit(5, f"shrunken characterizations agree on {total} elements")


def test_criterion_06_sign_type_from_lp():
    # simply laced: the LP set determines the sign type, exhaustively
    checked = 0
    for d in (
        datum("A", 2, "adjoint"),
        datum("A", 1, "sc"),  # rank-one sanity case
    ):
        rep = check_sign_type_determination(d, scan_elements(d, CAP))
        assert rep.failed == 0 and not rep.skipped
        checked += rep.checked
    multi = {
        "components": [{"type": "A", "rank": 1}, {"type": "A", "rank": 1}],
        "lattice": "sc",
    }
    from affweyl.rootdata import RootDatum

    a1a1 = RootDatum.from_config(multi)
    rep = check_sign_type_determination(a1a1, scan_elements(a1a1, CAP))
    assert rep.failed == 0 and not rep.skipped
    checked += rep.checked

    # non simply laced: a collision must exist (B2 and G2)
    collisions = []
    for d in (datum("B", 2), datum("G", 2)):
        pair = find_sign_type_collision(d, box=3)
        assert pair is not None, f"no collision found in {d.type_string()}"
        x, y = pair
        assert set(af.lp_set(x)) == set(af.lp_set(y))
        assert x.sign_type() != y.sign_type()
        collisions.append(pair)
    _emit(
        6,
        f"LP determines sign type on {checked} simply laced elements; "
        f"collisions found in B2 and G2",
    )


def test_criterion_07_qbg_weight_identities():
    total_checked = 0
    for typ, rank in (("A", 2), ("B", 2), ("C", 2), ("G", 2)):
        d = datum(typ, rank)
        rep = check_qbg_identities(d, n_paths=2500, seed=rank * 100)
        assert rep.failed == 0, f"{typ}{rank}: {rep.first_failure}"
        total_checked += rep.checked
    _emit(
        7,
        f"2rho pairing identity, distance bound and weight estimate: "
        f"{total_checked} assertions incl. 10000 random paths",
    )


def test_criterion_08_cordiality_inequality(batteries):
    reports, _ = batteries
    total = 0
    for name, _ in SCAN_DATA:
        rep = reports[name]["cordial-inequality"]
        assert rep.failed == 0, f"{name}: {rep.first_failure}"
        total += rep.checked
    _emit(
        8,
        f"per-witness cordiality bound and equality criterion on "
        f"{total} elements",
    )


def test_criterion_09_length_additivity():
    total = 0
    for name, d in (("GL3", datum("A", 2, "gl")), ("C2", datum("C", 2))):
        xs = scan_elements(d, CAP)
        rep = check_length_additivity(d, xs, n_pairs=5000, seed=17)
        assert rep.failed == 0, f"{name}: {rep.first_failure}"
        total += rep.checked
    _emit(
        9,
        f"additivity iff LP sets meet, with LP(xy) the intersection: "
        f"{total} pairs",
    )


def test_criterion_10_twisted_newton_transport():
    data = [
        datum("A", 1, "adjoint", twist={"sigma1_word": [1], "mu_sigma": [1]}),
        datum(
            "A", 2, "adjoint",
            twist={"sigma1_word": [1, 2], "mu_sigma": [1, 0]},
        ),
    ]
    checked = 0
    for d in data:
        plain = plain_datum(d)
        gamma = twist_gamma(d)
        shift = d.avg_J(d.omega_twist[1], range(d.ss_rank))
        for x in scan_elements(d, 6):
            # internal cross-check: LP maximum == Weyl maximum == transport
            cross_check(x)
            nu = generic_newton_general(x)
            # and the explicit transported computation once more
            y = x * gamma
            yp = AffineElement(plain, from_perm(plain, y.w.perm), y.mu)
            transported = tuple(
                Fraction(a) - b for a, b in zip(generic_newton(yp), shift)
            )
            assert tuple(nu) == transported, repr(x)
            checked += 1
    _emit(
        10,
        f"twisted generic Newton points match the transported quasi-split "
        f"computation on {checked} elements",
    )
