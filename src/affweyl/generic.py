"""Generic twisted conjugacy classes, cordiality, and the interval oracle.

Among the classes [y] over all y <= x in the Bruhat order there is a unique
maximum [b_x], the *generic* class of x.  Its invariants have closed forms:

* lambda_x = v^{-1}mu - wt(v => sigma(wv)) in the coinvariants X_Gamma, for
  any length positive v minimizing the quantum Bruhat graph distance
  d(v => sigma(wv)) (equivalently the maximum of that expression over all
  v in W);
* nu_x = conv(lambda_x);
* the Kottwitz point is that of mu.

``oracle_generic_class`` computes the same maximum by brute force over the
Bruhat interval and is used to keep the closed forms honest; the other
redundant routes are the cross-checks in ``verify``.

x is *cordial* if the codimension of its class in the interval behaves
linearly, which happens iff the canonical length positive element v both
minimizes d(v' => sigma(wv')) over LP(x) and satisfies
d(v => sigma(wv)) = l(v^{-1} sigma(wv)).

Data with an Omega twist gamma = eps^{mu_sigma} sigma_1 (non-quasi-split
forms) reduce to the plain datum: right multiplication by gamma identifies
the twisted classes with the plain ones and shifts all Newton points by the
Weyl average of mu_sigma.  Cordiality of x is *defined* as cordiality of
x gamma on the plain side; the direct criterion is implemented here, and
``verify`` checks it against that definition.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .affine import (
    AffineElement,
    canonical_lp,
    is_length_positive,
    lower_interval,
    lp_set,
)
from .conjclass import (
    SigmaClass,
    class_of,
    kottwitz_point,
    maximal_classes,
)
from .linalg import QVec, qvec, vec_add, vec_sub
from .qbg import QBGraph
from .rootdata import GammaClass, RootDatum, Vec
from .weyl import WeylElement, dominant_representative, from_perm, from_word


def _require_plain(d: RootDatum) -> None:
    if d.omega_twist is not None:
        raise ValueError(
            "datum carries an Omega twist; use the *_general entry points"
        )


def candidate_vector(x: AffineElement, v: WeylElement) -> Vec:
    """v^{-1}mu - wt(v => sigma(wv)), an integer coweight."""
    g = QBGraph.of(x.datum)
    return vec_sub(v.inverse().act(x.mu), g.wt_vec(v, (x.w * v).twist()))


def lp_distances(x: AffineElement) -> list[tuple[WeylElement, int]]:
    """d(v => sigma(wv)) for every length positive v, in LP order."""
    g = QBGraph.of(x.datum)
    return [(v, g.d(v, (x.w * v).twist())) for v in lp_set(x)]


def dominance_maximum(d: RootDatum, vecs: Iterable[QVec]) -> QVec:
    """The unique dominance-maximum of rational coweights."""
    maximal: list[QVec] = []
    for v in vecs:
        if any(d.leq_coroot_cone(v, m) for m in maximal):
            continue
        maximal = [m for m in maximal if not d.leq_coroot_cone(m, v)]
        maximal.append(v)
    if len(maximal) != 1:
        raise ValueError(f"no unique maximum: {maximal}")
    return maximal[0]


@dataclass(frozen=True, eq=False)
class GenericResult:
    """Invariants of the generic class [b_x]."""

    lambda_x: GammaClass
    nu_x: QVec
    witness_v: WeylElement
    d_min: int
    used_j: tuple[int, ...]  # minimal realizing subset of conv


def generic_lambda(x: AffineElement) -> GenericResult:
    """Closed form for the generic lambda invariant.

    The witness is the first length positive v (in breadth-first order from
    the canonical one) minimizing d(v => sigma(wv)).
    """
    d = x.datum
    _require_plain(d)
    dists = lp_distances(x)
    d_min = min(dist for _, dist in dists)
    witness = next(v for v, dist in dists if dist == d_min)
    lam = d.gamma_class(candidate_vector(x, witness))
    nu, j1, _ = d.conv_prime_facts(d.avg_sigma(lam.lift()))
    return GenericResult(lam, nu, witness, d_min, tuple(sorted(j1)))


def generic_newton(x: AffineElement) -> QVec:
    """The generic Newton point nu_x = conv(lambda_x)."""
    return generic_lambda(x).nu_x


def generic_class(x: AffineElement) -> SigmaClass:
    """The generic class [b_x] from the closed forms."""
    return SigmaClass(x.datum, generic_newton(x), kottwitz_point(x))


# ----------------------------------------------------------------------
# brute-force oracle
# ----------------------------------------------------------------------


def oracle_generic_class(
    x: AffineElement, max_size: int = 200_000
) -> SigmaClass:
    """max{[y] : y <= x} by enumerating the Bruhat interval; the maximum is
    asserted to be unique.  Raises ``BudgetExceeded`` over ``max_size``."""
    # distinct classes in first-seen order: a repeat never changes the maximum
    merged = maximal_classes(
        dict.fromkeys(class_of(y) for y in lower_interval(x, max_size))
    )
    if len(merged) != 1:
        raise ValueError(f"no unique maximal class below {x!r}: {merged}")
    return merged[0]


# ----------------------------------------------------------------------
# cordiality
# ----------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CordialResult:
    """Outcome of the two-condition cordiality test."""

    cordial: bool
    failed: Optional[str]  # None, "(1)", "(2)" or "(1),(2)"
    d_min: int  # distance at the canonical length positive element
    twist_length: int  # l(v^{-1} sigma(wv)) there
    witness_v: WeylElement


def _cordial_result(
    cond1: bool, cond2: bool, dv: int, lv: int, v: WeylElement
) -> CordialResult:
    failed = ",".join(
        label for ok, label in ((cond1, "(1)"), (cond2, "(2)")) if not ok
    )
    return CordialResult(cond1 and cond2, failed or None, dv, lv, v)


def is_cordial(x: AffineElement) -> CordialResult:
    """x is cordial iff the canonical length positive v minimizes
    d(v' => sigma(wv')) over LP(x) and satisfies d = l(v^{-1} sigma(wv))."""
    d = x.datum
    _require_plain(d)
    g = QBGraph.of(d)
    v = canonical_lp(x)
    dv = g.d(v, (x.w * v).twist())
    lv = (v.inverse() * (x.w * v).twist()).length
    cond1 = all(dist >= dv for _, dist in lp_distances(x))
    return _cordial_result(cond1, dv == lv, dv, lv, v)


# ----------------------------------------------------------------------
# Omega-twisted (non-quasi-split) forms
# ----------------------------------------------------------------------


def twist_gamma(d: RootDatum) -> AffineElement:
    """gamma = eps^{mu_sigma} sigma_1 as a length-zero element."""
    if d.omega_twist is None:
        raise ValueError("datum has no Omega twist")
    word, mu_sigma = d.omega_twist
    w1 = from_word(d, word)
    return AffineElement(d, w1, w1.inverse().act(mu_sigma))


def weyl_average(d: RootDatum, mu: Sequence) -> QVec:
    """avg_W(mu), the shift between twisted and plain Newton points."""
    return d.avg_J(mu, range(d.ss_rank))


def twisted_candidates(
    x: AffineElement, vs: Iterable[WeylElement]
) -> Iterator[QVec]:
    """conv(v^{-1}(mu + mu_sigma) - wt(sigma_1^{-1}v => sigma(wv))
    - avg_W(mu_sigma)) for each v in ``vs``, on an Omega-twisted datum."""
    d = x.datum
    word, mu_sigma = d.omega_twist
    g = QBGraph.of(d)
    s1_inv = from_word(d, word).inverse()
    shift = weyl_average(d, mu_sigma)
    for v in vs:
        vec = vec_sub(
            qvec(v.inverse().act(vec_add(x.mu, mu_sigma))),
            qvec(g.wt_vec(s1_inv * v, (x.w * v).twist())),
        )
        yield d.conv(vec_sub(vec, shift))


def generic_newton_general(x: AffineElement) -> QVec:
    """The generic Newton point for a possibly twisted datum: the maximum
    of ``twisted_candidates`` over the length positive v."""
    if x.datum.omega_twist is None:
        return generic_newton(x)
    return dominance_maximum(x.datum, twisted_candidates(x, lp_set(x)))


def plain_datum(d: RootDatum) -> RootDatum:
    """The same root datum with the Omega twist dropped (cached)."""
    if d.omega_twist is None:
        return d
    if "plain_datum" not in d._caches:
        d._caches["plain_datum"] = dataclasses.replace(
            d, omega_twist=None, _caches={}
        )
    return d._caches["plain_datum"]


def transport(x: AffineElement) -> AffineElement:
    """x gamma, rebased onto the plain (sigma_2-Frobenius) datum."""
    y = x * twist_gamma(x.datum)
    plain = plain_datum(x.datum)
    return AffineElement(plain, from_perm(plain, y.w.perm), y.mu)


def generic_class_general(x: AffineElement) -> SigmaClass:
    """Newton and Kottwitz points of [b_x] for a possibly twisted datum.

    The Kottwitz point lives in the coinvariants for the full Frobenius,
    whose linear part is sigma_1 sigma_2.
    """
    d = x.datum
    if d.omega_twist is None:
        return generic_class(x)
    return SigmaClass(
        d, generic_newton_general(x), twisted_kottwitz(d, x.mu)
    )


def twisted_kottwitz(d: RootDatum, mu: Vec) -> Vec:
    """Class of mu in X / (Z Phi^vee + (sigma_1 sigma_2 - 1) X)."""
    if d.omega_twist is None:
        return d.pi1_class(mu).coords
    key = "twisted_pi1_quotient"
    if key not in d._caches:
        from .linalg import unit_vec
        from .snf import LatticeQuotient

        word, _ = d.omega_twist
        s1 = from_word(d, word)
        cols = list(d.simple_covec_columns())
        for i in range(d.rank):
            e = unit_vec(d.rank, i)
            img = tuple(s1.act(d.sigma_vec(e)))
            cols.append(vec_sub(e, img))
        d._caches[key] = LatticeQuotient(d.rank, cols)
    return d._caches[key].coords(tuple(mu))


def is_cordial_general(x: AffineElement) -> CordialResult:
    """Cordiality for a possibly twisted datum.

    Direct criterion: take v = sigma_1 v~ where v~ is of minimal length
    making v~^{-1} sigma_1^{-1}(mu + mu_sigma) dominant (so v makes
    v^{-1}(mu + mu_sigma) dominant and is length positive for x); x is
    cordial iff (1) d(sigma_1^{-1}v' => sigma(wv')) is minimal at v' = v
    and (2) equals l(v^{-1} sigma_1 sigma(wv)).

    Since gamma has length zero, LP(x gamma) = sigma_1^{-1} LP(x), so
    unwinding the definition makes v' in (1) range over LP(x) itself.
    """
    d = x.datum
    if d.omega_twist is None:
        return is_cordial(x)
    word, mu_sigma = d.omega_twist
    g = QBGraph.of(d)
    s1 = from_word(d, word)
    s1_inv = s1.inverse()
    v = s1 * dominant_representative(
        d, s1_inv.act(vec_add(x.mu, mu_sigma))
    )[1]
    if not is_length_positive(x, v):  # pragma: no cover - proven claim
        raise AssertionError(f"v is not length positive at {x!r}")

    def dist(vp: WeylElement) -> int:
        return g.d(s1_inv * vp, (x.w * vp).twist())

    dv = dist(v)
    lv = (v.inverse() * s1 * (x.w * v).twist()).length
    cond1 = all(dist(vp) >= dv for vp in lp_set(x))
    return _cordial_result(cond1, dv == lv, dv, lv, v)
