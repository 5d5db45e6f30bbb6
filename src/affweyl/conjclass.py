"""Twisted conjugacy class invariants: Newton point, Kottwitz point,
best integral approximation and defect.

A class is determined by the pair (Newton point, Kottwitz point); the
Newton point of x = w eps^mu is the dominant representative of the average
of mu over the (sigma w)-orbit, and the Kottwitz point is the class of mu
in X / (Z Phi^vee + (sigma - 1) X).

The best integral approximation ``lam`` of a class b is the largest
lambda in the sigma-coinvariants X_Gamma whose Galois average is <= nu(b)
and whose Kottwitz point matches b.  It is computed in closed form: start
from any lift of the Kottwitz point, write nu minus its average as a
rational combination of simple coroots, and push the lift up by the
largest integral multiple of each sigma-orbit of simple coroots that keeps
the average below nu.

The defect is <nu - avg(lam), 2 rho>, which equals the number of
sigma-orbits of simple roots where nu and avg(lam) genuinely differ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product as _cartesian
from typing import Iterable, Optional

from .affine import AffineElement, from_parts
from .linalg import QVec, mat_mul, mat_vec, vec_sub
from .rootdata import GammaClass, RootDatum, Vec
from .weyl import WeylElement, sigma_w_order, weyl_group


@dataclass(frozen=True, eq=False)
class SigmaClass:
    """A twisted conjugacy class, keyed by (Newton point, Kottwitz point)."""

    datum: RootDatum
    nu: QVec  # dominant rational coweight
    kappa: Vec  # canonical coordinates in X / (Z Phi^vee + (sigma-1) X)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SigmaClass)
            and self.datum is other.datum
            and self.nu == other.nu
            and self.kappa == other.kappa
        )

    def __hash__(self) -> int:
        return hash((id(self.datum), self.nu, self.kappa))

    def __repr__(self) -> str:
        return f"[nu={list(self.nu)}, kappa={list(self.kappa)}]"

    def __le__(self, other: "SigmaClass") -> bool:
        """The partial order: equal Kottwitz points and a dominance gap."""
        if self.datum is not other.datum:
            raise ValueError("classes for different root data")
        return self.kappa == other.kappa and self.datum.leq_coroot_cone(
            self.nu, other.nu
        )

    def __lt__(self, other: "SigmaClass") -> bool:
        return self != other and self <= other

    @cached_property
    def lam(self) -> GammaClass:
        """The best integral approximation of the Newton point."""
        d = self.datum
        lift0 = d.pi1_quotient.lift(self.kappa)
        q = d.coroot_coords(vec_sub(self.nu, d.avg_sigma(lift0)))
        if q is None:
            raise ValueError(
                "Newton point and Kottwitz point are incompatible"
            )
        lam = list(lift0)
        for orbit in d.sigma_simple_orbits():
            c = math.floor(len(orbit) * min(q[i] for i in orbit))
            cov = d.roots[d.simple_idx[orbit[0]]].covec
            for k in range(d.rank):
                lam[k] += c * cov[k]
        return d.gamma_class(tuple(lam))

    @cached_property
    def _gap_coords(self) -> QVec:
        """nu - avg(lam) in simple-coroot coordinates (entrywise >= 0)."""
        d = self.datum
        gap = d.coroot_coords(vec_sub(self.nu, d.avg_sigma(self.lam.lift())))
        if gap is None or any(c < 0 for c in gap):  # pragma: no cover
            raise AssertionError("approximation exceeds the Newton point")
        return gap

    @cached_property
    def j1(self) -> frozenset[int]:
        """Simple roots where nu and avg(lam) differ (a sigma-stable set)."""
        d = self.datum
        out = frozenset(
            i for i, c in enumerate(self._gap_coords) if c != 0
        )
        pos = {root: i for i, root in enumerate(d.simple_idx)}
        if out != frozenset(
            pos[d.sigma_root(d.simple_idx[i])] for i in out
        ):  # pragma: no cover - stability is forced by the construction
            raise AssertionError("support of the gap is not sigma-stable")
        return out

    @cached_property
    def j2(self) -> frozenset[int]:
        """Simple roots orthogonal to nu (the Levi where the class is basic)."""
        d = self.datum
        return frozenset(
            i
            for i in range(d.ss_rank)
            if d.pair(self.nu, d.simple_idx[i]) == 0
        )

    @cached_property
    def defect(self) -> int:
        """<nu - avg(lam), 2 rho>, cross-checked against #(j1 / sigma)."""
        d = self.datum
        val = d.pair_2rho(self.nu) - d.pair_2rho(d.avg_sigma(self.lam.lift()))
        if val.denominator != 1:  # pragma: no cover - integrality always holds here
            raise AssertionError("defect is not an integer")
        n_orbits = sum(
            1 for orbit in d.sigma_simple_orbits() if orbit[0] in self.j1
        )
        if int(val) != n_orbits:  # pragma: no cover - the two routes agree
            raise AssertionError("defect routes disagree")
        return int(val)

    @property
    def is_basic(self) -> bool:
        """True iff the Newton point is central."""
        return len(self.j2) == self.datum.ss_rank


# ----------------------------------------------------------------------
# the class of an element
# ----------------------------------------------------------------------


def newton_point(x: AffineElement) -> QVec:
    """The dominant average of mu over the (sigma w)-orbit."""
    d = x.datum
    op = mat_mul(d.sigma_mat, x.w.mat)
    order = sigma_w_order(x.w)  # averaging over any period gives the same
    acc = [Fraction(0)] * d.rank
    cur: tuple = x.mu
    for _ in range(order):
        cur = mat_vec(op, cur)
        for k in range(d.rank):
            acc[k] += cur[k]
    avg = tuple(Fraction(c, order) for c in acc)
    return d.dominant_with_word(avg)[0]


def kottwitz_point(x: AffineElement) -> Vec:
    return x.datum.pi1_class(x.mu).coords


def class_of(x: AffineElement) -> SigmaClass:
    """The twisted conjugacy class of x (cached per datum)."""
    d = x.datum
    cache = d._caches.setdefault("sigma_classes", {})
    key = (x.w.perm, x.mu)
    if key not in cache:
        cache[key] = SigmaClass(d, newton_point(x), kottwitz_point(x))
    return cache[key]


def identity_class(d: RootDatum) -> SigmaClass:
    from .affine import affine_identity

    return class_of(affine_identity(d))


def maximal_classes(classes: Iterable[SigmaClass]) -> list[SigmaClass]:
    """The maximal elements of a family under the partial order."""
    maximal: list[SigmaClass] = []
    for b in classes:
        if any(b <= m for m in maximal):
            continue
        maximal = [m for m in maximal if not m <= b]
        maximal.append(b)
    return maximal


# ----------------------------------------------------------------------
# alternative defect routes (used as cross-checks in the test-suite)
# ----------------------------------------------------------------------


def defect_via_fixed_ranks(d: RootDatum, w: WeylElement) -> int:
    """rank of the sigma-fixed space minus rank of the (sigma w)-fixed
    space in X tensor Q."""
    from .linalg import fixed_space_dim

    return fixed_space_dim(d.sigma_mat) - fixed_space_dim(
        mat_mul(d.sigma_mat, w.mat)
    )


def min_twisted_length(
    d: RootDatum, w: WeylElement, support: Optional[frozenset[int]] = None
) -> int:
    """min over v of l(v^{-1} sigma(w v)), v ranging over the full Weyl
    group or over the parabolic subgroup generated by ``support``."""
    best = None
    for v in weyl_group(d):
        if support is not None and not v.supp() <= support:
            continue
        val = (v.inverse() * (w * v).twist()).length
        if best is None or val < best:
            best = val
    if best is None:  # pragma: no cover - v = e always qualifies
        raise AssertionError("empty search range")
    return best


def levi_zero_representative(
    b: SigmaClass, radius: int = 3
) -> Optional[AffineElement]:
    """An element x = w eps^mu of class b with w in the Weyl group of the
    Levi attached to j2 and with all Levi length functionals zero, or None
    if there is none inside the search box."""
    d = b.datum
    j2 = b.j2
    levi_pos = [
        i
        for i in range(d.n_pos)
        if all(
            c == 0
            for k, c in enumerate(d.roots[i].coords)
            if k not in j2
        )
    ]
    lift0 = d.pi1_quotient.lift(b.kappa)
    covs = [d.roots[d.simple_idx[i]].covec for i in range(d.ss_rank)]
    for w in weyl_group(d):
        if not w.supp() <= j2:
            continue
        for shifts in _cartesian(range(-radius, radius + 1), repeat=d.ss_rank):
            mu = list(lift0)
            for j, m in enumerate(shifts):
                for k in range(d.rank):
                    mu[k] += m * covs[j][k]
            x = from_parts(w, tuple(mu))
            if any(x.length_functional(i) != 0 for i in levi_pos):
                continue
            if class_of(x) == b:
                return x
    return None
