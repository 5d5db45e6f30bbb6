"""Finite Weyl group elements acting on the coweight lattice.

An element stores its permutation of the root list together with its matrix
on X; equality and hashing go through the permutation.  The element order
produced by :func:`weyl_group` is deterministic (by length, then by the
lexicographically smallest reduced word), and all witnesses reported by the
higher-level searches are the first minimizers in this order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .linalg import mat_inverse, mat_mul, mat_vec
from .rootdata import Mat, RootDatum, Vec


@dataclass(frozen=True, eq=False)
class WeylElement:
    """A Weyl group element w, as a root permutation plus a matrix on X."""

    datum: RootDatum
    perm: Vec
    mat: Mat

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, WeylElement)
            and self.datum is other.datum
            and self.perm == other.perm
        )

    def __hash__(self) -> int:
        return hash((id(self.datum), self.perm))

    # -- group structure ------------------------------------------------

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        if self.datum is not other.datum:
            raise ValueError("elements of different Weyl groups")
        perm = tuple(self.perm[p] for p in other.perm)
        return WeylElement(self.datum, perm, mat_mul(self.mat, other.mat))

    def inverse(self) -> "WeylElement":
        inv = [0] * len(self.perm)
        for i, p in enumerate(self.perm):
            inv[p] = i
        matq = mat_inverse(self.mat)
        mat = tuple(tuple(int(x) for x in row) for row in matq)
        return WeylElement(self.datum, tuple(inv), mat)

    @property
    def is_identity(self) -> bool:
        return all(i == p for i, p in enumerate(self.perm))

    # -- actions ---------------------------------------------------------

    def act(self, mu: Sequence) -> tuple:
        """w(mu) for a coweight (integer or rational entries)."""
        return mat_vec(self.mat, tuple(mu))

    def act_root(self, root_index: int) -> int:
        return self.perm[root_index]

    # -- length, words, descents -----------------------------------------

    @cached_property
    def length(self) -> int:
        n = self.datum.n_pos
        return sum(1 for i in range(n) if self.perm[i] >= n)

    def inversions(self) -> list[int]:
        """Indices of the positive roots mapped to negative roots."""
        n = self.datum.n_pos
        return [i for i in range(n) if self.perm[i] >= n]

    def right_descents(self) -> list[int]:
        d = self.datum
        return [
            i
            for i in range(d.ss_rank)
            if self.perm[d.simple_idx[i]] >= d.n_pos
        ]

    @cached_property
    def word(self) -> Vec:
        """The lexicographically smallest reduced word (simple indices)."""
        out: list[int] = []
        cur = self
        d = self.datum
        while True:
            inv = cur.inverse()
            i = next(
                (
                    i
                    for i in range(d.ss_rank)
                    if inv.perm[d.simple_idx[i]] >= d.n_pos
                ),
                None,
            )
            if i is None:
                return tuple(out)
            out.append(i)
            cur = simple_reflection(d, i) * cur

    def __repr__(self) -> str:
        if self.is_identity:
            return "e"
        return " ".join(f"s{i + 1}" for i in self.word)

    # -- Frobenius twisting ------------------------------------------------

    def twist(self, power: int = 1) -> "WeylElement":
        """sigma^power(w), the Frobenius applied to the element."""
        d = self.datum
        p = power % d.sigma_order
        perm = self.perm
        mat = self.mat
        for _ in range(p):
            perm = tuple(
                d.sigma_root_perm[perm[_sigma_root_inv(d)[i]]]
                for i in range(len(perm))
            )
            mat = mat_mul(d.sigma_mat, mat_mul(mat, _sigma_mat_inv(d)))
        return WeylElement(d, perm, mat)

    def supp(self) -> frozenset[int]:
        """Simple indices occurring in (any) reduced word for w."""
        return frozenset(self.word)

    def supp_sigma(self) -> frozenset[int]:
        """The Frobenius-closure of supp(w)."""
        d = self.datum
        out = set(self.supp())
        while True:
            grown = out | {d.sigma_perm[i] for i in out}
            if grown == out:
                return frozenset(out)
            out = grown


def _sigma_root_inv(d: RootDatum) -> Vec:
    if "sigma_root_inv" not in d._caches:
        inv = [0] * len(d.sigma_root_perm)
        for i, p in enumerate(d.sigma_root_perm):
            inv[p] = i
        d._caches["sigma_root_inv"] = tuple(inv)
    return d._caches["sigma_root_inv"]


def _sigma_mat_inv(d: RootDatum) -> Mat:
    # sigma has finite order, so sigma^{order-1} is the inverse
    if "sigma_mat_inv" not in d._caches:
        acc = tuple(
            tuple(1 if i == j else 0 for j in range(d.rank)) for i in range(d.rank)
        )
        for _ in range(d.sigma_order - 1):
            acc = mat_mul(acc, d.sigma_mat)
        d._caches["sigma_mat_inv"] = acc
    return d._caches["sigma_mat_inv"]


def identity(d: RootDatum) -> WeylElement:
    if "weyl_identity" not in d._caches:
        n = len(d.roots)
        mat = tuple(
            tuple(1 if i == j else 0 for j in range(d.rank)) for i in range(d.rank)
        )
        d._caches["weyl_identity"] = WeylElement(d, tuple(range(n)), mat)
    return d._caches["weyl_identity"]


def simple_reflection(d: RootDatum, i: int) -> WeylElement:
    if not 0 <= i < d.ss_rank:
        raise ValueError(f"simple reflection index {i} out of range 0..{d.ss_rank - 1}")
    key = ("weyl_simple", i)
    if key not in d._caches:
        d._caches[key] = WeylElement(d, d._simple_root_perm(i), d._simple_mat(i))
    return d._caches[key]


def reflection(d: RootDatum, root_index: int) -> WeylElement:
    """The reflection s_alpha for an arbitrary root."""
    key = ("weyl_reflection", d.neg_root(root_index) if root_index >= d.n_pos else root_index)
    if key not in d._caches:
        idx = key[1]
        r = d.roots[idx]
        by_coords = d._root_by_coords()
        perm = []
        for b in d.roots:
            p = d.coroot_pairing(idx, b.index)
            img = tuple(c - p * a for c, a in zip(b.coords, r.coords))
            perm.append(by_coords[img])
        mat = tuple(
            tuple(
                (1 if a == b else 0) - r.covec[a] * r.func[b]
                for b in range(d.rank)
            )
            for a in range(d.rank)
        )
        d._caches[key] = WeylElement(d, tuple(perm), mat)
    return d._caches[key]


def from_word(d: RootDatum, word: Sequence[int]) -> WeylElement:
    out = identity(d)
    for i in word:
        out = out * simple_reflection(d, i)
    return out


def weyl_group(d: RootDatum) -> tuple[WeylElement, ...]:
    """All of W, ordered by (length, lexicographic reduced word)."""
    if "weyl_group" not in d._caches:
        gens = [simple_reflection(d, i) for i in range(d.ss_rank)]
        seen = {identity(d)}
        frontier = [identity(d)]
        while frontier:
            new = []
            for w in frontier:
                for g in gens:
                    w2 = w * g
                    if w2 not in seen:
                        seen.add(w2)
                        new.append(w2)
            frontier = new
            if len(seen) > d.weyl_cap:
                raise ValueError(
                    f"Weyl group larger than the configured cap {d.weyl_cap}"
                )
        d._caches["weyl_group"] = tuple(
            sorted(seen, key=lambda w: (w.length, w.word))
        )
    return d._caches["weyl_group"]


def longest_element(d: RootDatum) -> WeylElement:
    """The longest element w_0 (maps all positive roots to negatives)."""
    group = weyl_group(d)
    return group[-1]


def bruhat_leq(u: WeylElement, v: WeylElement) -> bool:
    """Bruhat order on W, by the lifting property.

    Recursion: for a right descent s of v, u <= v iff (us if us < u else u)
    <= vs.
    """
    if u.datum is not v.datum:
        raise ValueError("elements of different Weyl groups")
    cache = u.datum._caches.setdefault("bruhat_leq", {})
    d = u.datum

    def rec(up: Vec, vp: Vec, ul: int, vl: int) -> bool:
        if ul > vl:
            return False
        if up == vp:
            return True
        if vl == 0:
            return False
        key = (up, vp)
        if key in cache:
            return cache[key]
        i = next(
            i for i in range(d.ss_rank) if vp[d.simple_idx[i]] >= d.n_pos
        )
        s = simple_reflection(d, i)
        vs = tuple(vp[p] for p in s.perm)
        us = tuple(up[p] for p in s.perm)
        usl = sum(1 for k in range(d.n_pos) if us[k] >= d.n_pos)
        if usl < ul:
            out = rec(us, vs, usl, vl - 1)
        else:
            out = rec(up, vs, ul, vl - 1)
        cache[key] = out
        return out

    return rec(u.perm, v.perm, u.length, v.length)


def dominant_representative(d: RootDatum, mu: Sequence) -> tuple[tuple, WeylElement]:
    """(nu, w) with nu dominant, w of minimal length and w(nu) = mu."""
    nu, word = d.dominant_with_word(mu)
    return nu, from_word(d, word)
