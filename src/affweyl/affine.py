"""Extended affine Weyl group elements and the affine Bruhat order.

An element x = w eps^mu is stored as its finite part w and translation part
mu; the group law is (w eps^mu)(w' eps^mu') = ww' eps^{(w')^{-1}mu + mu'}.

Affine roots are pairs (root index, k); (alpha, k) is positive iff
k >= 1 when alpha < 0 and k >= 0 when alpha > 0.  The simple affine roots are
(alpha_i, 0) for the finite simples and (-theta_c, 1) for the highest root of
each component; they are numbered 0..ss_rank-1 and ss_rank..ss_rank+r-1
respectively and these numbers are used in reduced words.

The central tool is the length functional
    l(x, alpha) = <mu, alpha> + Phi+(alpha) - Phi+(w alpha),
whose positive part counts affine root hyperplanes separating the base alcove
from its x-translate; l(x) = sum_{alpha > 0} |l(x, alpha)|.  An element
v of W is *length positive* for x if l(x, v alpha) >= 0 for all alpha > 0.

The Bruhat order on the extended group compares elements within the same
coset of the affine Weyl group only: omega y <= omega' y' iff omega = omega'
and y <= y' (omega, omega' of length zero).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Optional, Sequence

from .linalg import vec_add, zero_vec
from .rootdata import RootDatum, Vec
from .weyl import (
    WeylElement,
    dominant_representative,
    identity,
    reflection,
    simple_reflection,
    weyl_group,
)

AffineRoot = tuple[int, int]  # (index into datum.roots, integer offset)


def affine_positive(d: RootDatum, a: AffineRoot) -> bool:
    """(alpha, k) > 0 iff k >= Phi+(-alpha)."""
    idx, k = a
    return k >= (1 if idx >= d.n_pos else 0)


def affine_simple_roots(d: RootDatum) -> tuple[AffineRoot, ...]:
    """The simple affine roots, finite simples first, then -theta + 1 per
    component."""
    if "affine_simples" not in d._caches:
        out = [(d.simple_idx[i], 0) for i in range(d.ss_rank)]
        out.extend((d.neg_root(h), 1) for h in d.highest_idx)
        d._caches["affine_simples"] = tuple(out)
    return d._caches["affine_simples"]


@dataclass(frozen=True, eq=False)
class AffineElement:
    """x = w eps^mu in the extended affine Weyl group."""

    datum: RootDatum
    w: WeylElement
    mu: Vec

    @property
    def key(self) -> tuple:
        return (self.w.perm, self.mu)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, AffineElement)
            and self.datum is other.datum
            and self.w.perm == other.w.perm
            and self.mu == other.mu
        )

    def __hash__(self) -> int:
        return hash((id(self.datum), self.w.perm, self.mu))

    def __repr__(self) -> str:
        return f"{self.w!r} eps^{list(self.mu)}"

    # -- group law --------------------------------------------------------

    def __mul__(self, other: "AffineElement") -> "AffineElement":
        if self.datum is not other.datum:
            raise ValueError("elements of different affine Weyl groups")
        mu = vec_add(other.w.inverse().act(self.mu), other.mu)
        return AffineElement(self.datum, self.w * other.w, tuple(mu))

    def inverse(self) -> "AffineElement":
        return AffineElement(
            self.datum,
            self.w.inverse(),
            tuple(-c for c in self.w.act(self.mu)),
        )

    def twist(self, power: int = 1) -> "AffineElement":
        """The (linear) Frobenius twist, sigma(w eps^mu) = sigma(w) eps^{sigma mu}."""
        return AffineElement(
            self.datum,
            self.w.twist(power),
            tuple(self.datum.sigma_vec(self.mu, power)),
        )

    # -- actions and length -----------------------------------------------

    def act_affine(self, a: AffineRoot) -> AffineRoot:
        """x(alpha, k) = (w alpha, k - <mu, alpha>)."""
        idx, k = a
        return (self.w.perm[idx], k - self.datum.pair(self.mu, idx))

    def length_functional(self, root_index: int) -> int:
        """l(x, alpha) = <mu, alpha> + Phi+(alpha) - Phi+(w alpha)."""
        d = self.datum
        pos = 1 if root_index < d.n_pos else 0
        wpos = 1 if self.w.perm[root_index] < d.n_pos else 0
        return d.pair(self.mu, root_index) + pos - wpos

    @cached_property
    def length(self) -> int:
        return sum(
            abs(self.length_functional(i)) for i in range(self.datum.n_pos)
        )

    def sign_type(self) -> Vec:
        """Signs of l(x, alpha) over the positive roots (-1, 0 or +1)."""
        out = []
        for i in range(self.datum.n_pos):
            v = self.length_functional(i)
            out.append(0 if v == 0 else (1 if v > 0 else -1))
        return tuple(out)

    def is_shrunken(self) -> bool:
        """True iff l(x, alpha) != 0 for all roots, i.e. #LP(x) = 1."""
        return all(s != 0 for s in self.sign_type())

    def right_descents(self) -> list[int]:
        """Simple affine roots sent to negative affine roots."""
        d = self.datum
        return [
            n
            for n, a in enumerate(affine_simple_roots(d))
            if not affine_positive(d, self.act_affine(a))
        ]

    @cached_property
    def omega_and_word(self) -> tuple["AffineElement", Vec]:
        """(tau, word) with x = tau * r(word[0]) * ... * r(word[-1]),
        tau of length zero and len(word) = l(x)."""
        cur = self
        stripped: list[int] = []
        while True:
            ds = cur.right_descents()
            if not ds:
                break
            n = ds[0]
            stripped.append(n)
            cur = cur * affine_simple_reflection(self.datum, n)
        if cur.length != 0:  # pragma: no cover - stripping always terminates at 0
            raise AssertionError("descent stripping did not reach length zero")
        word = tuple(reversed(stripped))
        if len(word) != self.length:  # pragma: no cover - internal consistency
            raise AssertionError("reduced word length disagrees with length")
        return cur, word

    @property
    def omega_part(self) -> "AffineElement":
        return self.omega_and_word[0]

    def reduced_word(self) -> Vec:
        return self.omega_and_word[1]

    # -- invariants of the translation part --------------------------------

    def coroot_class_coords(self) -> Vec:
        """Coordinates of mu in X / Z Phi^vee (constant on W_af-cosets)."""
        return self.datum.coroot_quotient.coords(self.mu)


# ----------------------------------------------------------------------
# constructors
# ----------------------------------------------------------------------


def affine_identity(d: RootDatum) -> AffineElement:
    return AffineElement(d, identity(d), zero_vec(d.rank))


def translation(d: RootDatum, mu: Sequence[int]) -> AffineElement:
    return AffineElement(d, identity(d), tuple(int(c) for c in mu))


def from_parts(w: WeylElement, mu: Sequence[int]) -> AffineElement:
    return AffineElement(w.datum, w, tuple(int(c) for c in mu))


def affine_reflection(d: RootDatum, a: AffineRoot) -> AffineElement:
    """r_(alpha,k) = s_alpha eps^{k alpha^vee}."""
    idx, k = a
    covec = d.roots[idx].covec
    return AffineElement(d, reflection(d, idx), tuple(k * c for c in covec))


def affine_simple_reflection(d: RootDatum, n: int) -> AffineElement:
    n_gens = d.ss_rank + len(d.components)
    if not 0 <= n < n_gens:
        raise ValueError(f"affine reflection index {n} out of range 0..{n_gens - 1}")
    key = ("affine_simple_refl", n)
    if key not in d._caches:
        d._caches[key] = affine_reflection(d, affine_simple_roots(d)[n])
    return d._caches[key]


def from_affine_word(
    d: RootDatum, word: Sequence[int], omega: Optional[AffineElement] = None
) -> AffineElement:
    out = omega if omega is not None else affine_identity(d)
    for n in word:
        out = out * affine_simple_reflection(d, n)
    return out


# ----------------------------------------------------------------------
# length-zero elements
# ----------------------------------------------------------------------


def omega_element(d: RootDatum, class_coords: Vec) -> AffineElement:
    """The unique length-zero element whose translation part lies in the
    given class of X / Z Phi^vee.

    Found by solving <nu, alpha_i> = Phi+(u alpha_i) - 1 over the
    finite Weyl group; the class determines the element uniquely.
    """
    cache = d._caches.setdefault("omega_elements", {})
    if class_coords not in cache:
        from .linalg import solve_columns

        mu0 = d.coroot_quotient.lift(class_coords)
        rows = [
            tuple(d.cartan[j][i] for i in range(d.ss_rank))
            for j in range(d.ss_rank)
        ]
        found = None
        for u in weyl_group(d):
            rhs = tuple(
                (1 if u.perm[d.simple_idx[i]] < d.n_pos else 0)
                - 1
                - d.pair(mu0, d.simple_idx[i])
                for i in range(d.ss_rank)
            )
            c = solve_columns(rows, rhs)
            if c is None or any(x.denominator != 1 for x in c):
                continue
            nu = list(mu0)
            for j in range(d.ss_rank):
                cov = d.roots[d.simple_idx[j]].covec
                for k in range(d.rank):
                    nu[k] += int(c[j]) * cov[k]
            cand = AffineElement(d, u, tuple(nu))
            if cand.length == 0:
                found = cand
                break
        if found is None:  # pragma: no cover - Omega surjects onto X/ZPhi^vee
            raise AssertionError(
                f"no length-zero element for class {class_coords}"
            )
        cache[class_coords] = found
    return cache[class_coords]


# ----------------------------------------------------------------------
# Bruhat order and intervals
# ----------------------------------------------------------------------


def bruhat_leq_affine(u: AffineElement, x: AffineElement) -> bool:
    """Bruhat order on the extended affine Weyl group."""
    if u.datum is not x.datum:
        raise ValueError("elements of different affine Weyl groups")
    if u.length > x.length:
        return False
    if u.coroot_class_coords() != x.coroot_class_coords():
        return False
    d = u.datum
    tau = omega_element(d, x.coroot_class_coords())
    tau_inv = tau.inverse()
    cache = d._caches.setdefault("bruhat_leq_affine", {})

    def rec(y: AffineElement, z: AffineElement) -> bool:
        if y.length > z.length:
            return False
        if y == z:
            return True
        if z.length == 0:
            return False
        key = (y.key, z.key)
        if key in cache:
            return cache[key]
        n = z.right_descents()[0]
        r = affine_simple_reflection(d, n)
        zn = z * r
        yn = y * r
        if yn.length < y.length:
            out = rec(yn, zn)
        else:
            out = rec(y, zn)
        cache[key] = out
        return out

    return rec(tau_inv * u, tau_inv * x)


class BudgetExceeded(ValueError):
    """A brute-force enumeration outgrew its size budget."""


def lower_interval(
    x: AffineElement, max_size: int = 200_000
) -> tuple[AffineElement, ...]:
    """All elements <= x in the Bruhat order, via the subword property.

    Runs a prefix scan over one reduced word of the affine part: the subword
    closure after j letters is S_j = S_{j-1} union S_{j-1} r_j, from
    S_0 = {e}.  Raises ``BudgetExceeded`` once some S_j holds more than
    ``max_size`` elements.
    """
    d = x.datum
    tau, word = x.omega_and_word
    elems: dict[tuple, AffineElement] = {
        affine_identity(d).key: affine_identity(d)
    }

    def check_budget() -> None:
        if len(elems) > max_size:
            raise BudgetExceeded(
                f"Bruhat interval below {x!r} exceeds the budget {max_size}"
            )

    check_budget()
    for n in word:
        r = affine_simple_reflection(d, n)
        new = {}
        for y in elems.values():
            yr = y * r
            if yr.key not in elems:
                new[yr.key] = yr
        elems.update(new)
        check_budget()
    out = [tau * y for y in elems.values()]
    out.sort(key=lambda y: (y.length, y.key))
    return tuple(out)


def enumerate_length_le(
    d: RootDatum, max_length: int, class_coords: Vec
) -> Iterator[AffineElement]:
    """All x with l(x) <= max_length in one coset of the affine Weyl group,
    in increasing length order."""
    tau = omega_element(d, class_coords)
    yield tau
    seen = {tau.key}
    frontier = [tau]
    n_gens = d.ss_rank + len(d.components)
    for target in range(1, max_length + 1):
        new = []
        for x in frontier:
            for n in range(n_gens):
                y = x * affine_simple_reflection(d, n)
                if y.length == target and y.key not in seen:
                    seen.add(y.key)
                    new.append(y)
                    yield y
        frontier = new


# ----------------------------------------------------------------------
# length positive elements
# ----------------------------------------------------------------------


def canonical_lp(x: AffineElement) -> WeylElement:
    """The minimal-length v with v^{-1} mu dominant; always in LP(x)."""
    return dominant_representative(x.datum, x.mu)[1]


def lp_set(x: AffineElement) -> tuple[WeylElement, ...]:
    """All length positive elements for x, in breadth-first order from the
    canonical one (edges v -> v s_i whenever l(x, v alpha_i) = 0)."""
    d = x.datum
    start = canonical_lp(x)
    seen = {start}
    order = [start]
    frontier = [start]
    while frontier:
        new = []
        for v in frontier:
            for i in range(d.ss_rank):
                if x.length_functional(v.perm[d.simple_idx[i]]) == 0:
                    v2 = v * simple_reflection(d, i)
                    if v2 not in seen:
                        seen.add(v2)
                        order.append(v2)
                        new.append(v2)
        frontier = new
    return tuple(order)


def is_length_positive(x: AffineElement, v: WeylElement) -> bool:
    return all(
        x.length_functional(v.perm[i]) >= 0 for i in range(x.datum.n_pos)
    )


# ----------------------------------------------------------------------
# eta and virtual dimension
# ----------------------------------------------------------------------


def eta_sigma(x: AffineElement) -> WeylElement:
    """eta(x) = (sigma^{-1} v)^{-1} w v for the canonical length positive v."""
    v = canonical_lp(x)
    return v.twist(-1).inverse() * x.w * v


def virtual_dimension(x: AffineElement, b) -> Fraction:
    """d_x(b) = (l(x) + l(eta(x)) - <nu_b, 2 rho> - defect(b)) / 2.

    ``b`` is anything with ``nu`` (rational coweight) and ``defect``
    attributes.
    """
    d = x.datum
    return Fraction(
        x.length + eta_sigma(x).length - d.pair_2rho(b.nu) - b.defect, 2
    )


def is_fundamental(x: AffineElement) -> bool:
    """True iff every (sigma w)-orbit of roots has unmixed signs of
    l(x, .); equivalently l(x) = <nu([x]), 2 rho>."""
    d = x.datum
    seen = [False] * len(d.roots)
    for start in range(len(d.roots)):
        if seen[start]:
            continue
        has_pos = has_neg = False
        i = start
        while not seen[i]:
            seen[i] = True
            val = x.length_functional(i)
            if val > 0:
                has_pos = True
            elif val < 0:
                has_neg = True
            i = d.sigma_root(x.w.perm[i])
        if has_pos and has_neg:
            return False
    return True
