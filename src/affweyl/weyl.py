"""Finite Weyl groups as per-datum tables of interned elements.

The first call of :func:`weyl_group` on a root datum builds its whole Weyl
group W and keeps it in the datum's caches.  The build is a breadth-first
search over root permutations from the identity, under the datum's
``weyl_cap``; each new element's matrix on X is computed once, as its
parent's matrix times a simple reflection's.  Every element then carries
its root permutation, its matrix, its length, its inverse and its
lexicographically smallest reduced word, found from permutations alone in
length order: word(w) = (i,) + word(s_i w) for the smallest left descent i.

Elements are interned: W has exactly one object per element, so equality
is identity.  An element is determined by the images of the simple roots,
and the table is keyed by them; products, inverses, Frobenius twists and
reflections are lookups, with no rational arithmetic.

The element order of :func:`weyl_group` is deterministic (by length, then
by the lexicographically smallest reduced word), and all witnesses
reported by the higher-level searches are the first minimizers in this
order.
"""

from __future__ import annotations

from math import lcm
from typing import Sequence

from .linalg import identity_mat, mat_mul, mat_vec
from .rootdata import Mat, RootDatum, Vec


class WeylElement:
    """An element w of the Weyl group of a root datum.

    ``perm`` sends each root index to the index of its image under w,
    ``mat`` is the matrix of w on X, ``length`` the number of inversions,
    ``word`` the lexicographically smallest reduced word (simple indices)
    and ``index`` the position in :func:`weyl_group`.  Instances are made
    only by the datum's table, one per element, and compare by identity;
    obtain them through :func:`weyl_group`, :func:`from_word`,
    :func:`from_perm` and the other constructors below.
    """

    __slots__ = (
        "datum", "perm", "mat", "length", "word", "index", "_inverse", "_table",
    )

    def __init__(self, table: "_Table", perm: Vec, mat: Mat, length: int):
        self.datum = table.datum
        self._table = table
        self.perm = perm
        self.mat = mat
        self.length = length

    # -- group structure ------------------------------------------------

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        if self.datum is not other.datum:
            raise ValueError("elements of different Weyl groups")
        perm, op, t = self.perm, other.perm, self._table
        return t.by_key[tuple([perm[op[s]] for s in t.simple_idx])]

    def inverse(self) -> "WeylElement":
        return self._inverse

    @property
    def is_identity(self) -> bool:
        return self.length == 0

    # -- actions ---------------------------------------------------------

    def act(self, mu: Sequence) -> tuple:
        """w(mu) for a coweight (integer or rational entries)."""
        return mat_vec(self.mat, tuple(mu))

    def act_root(self, root_index: int) -> int:
        return self.perm[root_index]

    # -- length, words, descents -----------------------------------------

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

    def __repr__(self) -> str:
        if self.is_identity:
            return "e"
        return " ".join(f"s{i + 1}" for i in self.word)

    # -- Frobenius twisting ------------------------------------------------

    def twist(self, power: int = 1) -> "WeylElement":
        """sigma^power(w), the Frobenius applied to the element."""
        t = self._table
        out = self
        for _ in range(power % self.datum.sigma_order):
            perm = out.perm
            out = t.by_key[tuple([t.sigma_root_perm[perm[s]] for s in t.sigma_pre])]
        return out

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


class _Table:
    """The Weyl group of one datum, in :func:`weyl_group` order.

    ``by_key`` maps the images of the simple roots (root indices, in the
    order of ``simple_idx``) to the element.  The twist of w reads w on the
    roots ``sigma_pre`` (the sigma-preimages of the simple roots) and
    applies ``sigma_root_perm``.
    """

    __slots__ = (
        "datum", "simple_idx", "sigma_root_perm", "sigma_pre", "by_key",
        "elements", "simple",
    )

    def __init__(self, d: RootDatum):
        self.datum = d
        self.simple_idx = simple = d.simple_idx
        self.sigma_root_perm = d.sigma_root_perm
        sigma_inv = {p: i for i, p in enumerate(d.sigma_root_perm)}
        self.sigma_pre = tuple(sigma_inv[s] for s in simple)
        gens = [
            (d._simple_root_perm(i), d._simple_mat(i)) for i in range(d.ss_rank)
        ]
        e = WeylElement(self, tuple(range(len(d.roots))), identity_mat(d.rank), 0)
        e.word = ()
        by_key = {tuple(simple): e}
        order = [e]  # by length, since BFS levels are the lengths
        level = [e]
        length = 0
        while level:
            length += 1
            new = []
            for w in level:
                perm = w.perm
                for sperm, smat in gens:
                    key = tuple([perm[sperm[s]] for s in simple])
                    if key not in by_key:
                        ws = WeylElement(
                            self,
                            tuple([perm[p] for p in sperm]),
                            mat_mul(w.mat, smat),
                            length,
                        )
                        by_key[key] = ws
                        new.append(ws)
            order.extend(new)
            level = new
            if len(by_key) > d.weyl_cap:
                raise ValueError(
                    f"Weyl group larger than the configured cap {d.weyl_cap}"
                )
        self.by_key = by_key
        self.simple = tuple(
            by_key[tuple(sperm[s] for s in simple)] for sperm, _ in gens
        )
        for w in order[1:]:
            # the smallest left descent i (l(s_i w) < l(w)) starts the
            # lexicographically smallest reduced word; s_i w comes earlier
            # in ``order``, so its word is known
            for i, s in enumerate(self.simple):
                u = s * w
                if u.length < w.length:
                    w.word = (i,) + u.word
                    break
        self.elements = tuple(sorted(order, key=lambda w: (w.length, w.word)))
        for index, w in enumerate(self.elements):
            w.index = index
            inv = [0] * len(w.perm)
            for i, p in enumerate(w.perm):
                inv[p] = i
            w._inverse = by_key[tuple([inv[s] for s in simple])]


def _table(d: RootDatum) -> _Table:
    if "weyl_table" not in d._caches:
        weyl_group(d)
    return d._caches["weyl_table"]


def weyl_group(d: RootDatum) -> tuple[WeylElement, ...]:
    """All of W, ordered by (length, lexicographic reduced word); the first
    call builds the datum's table."""
    if "weyl_table" not in d._caches:
        d._caches["weyl_table"] = _Table(d)
    return d._caches["weyl_table"].elements


def identity(d: RootDatum) -> WeylElement:
    return _table(d).elements[0]


def simple_reflection(d: RootDatum, i: int) -> WeylElement:
    if not 0 <= i < d.ss_rank:
        raise ValueError(f"simple reflection index {i} out of range 0..{d.ss_rank - 1}")
    return _table(d).simple[i]


def reflection(d: RootDatum, root_index: int) -> WeylElement:
    """The reflection s_alpha for an arbitrary root."""
    idx = d.neg_root(root_index) if root_index >= d.n_pos else root_index
    key = ("weyl_reflection", idx)
    if key not in d._caches:
        r = d.roots[idx]
        by_coords = d._root_by_coords()
        images = []  # s_alpha(alpha_i) = alpha_i - <alpha^vee, alpha_i> alpha
        for s in d.simple_idx:
            p = d.coroot_pairing(idx, s)
            coords = zip(d.roots[s].coords, r.coords)
            images.append(by_coords[tuple(c - p * a for c, a in coords)])
        d._caches[key] = _table(d).by_key[tuple(images)]
    return d._caches[key]


def from_word(d: RootDatum, word: Sequence[int]) -> WeylElement:
    out = identity(d)
    for i in word:
        out = out * simple_reflection(d, i)
    return out


def from_perm(d: RootDatum, perm: Sequence[int]) -> WeylElement:
    """The element of W with the given root permutation."""
    w = _table(d).by_key.get(tuple(perm[s] for s in d.simple_idx))
    if w is None or w.perm != tuple(perm):
        raise ValueError(
            f"{tuple(perm)} is not the root permutation of a Weyl group element"
        )
    return w


def sigma_w_order(w: WeylElement) -> int:
    """A period of sigma w on X: the lcm of its order on the roots and the
    order of sigma.  (sigma w)^n with n that lcm is an element of W fixing
    every root, hence the identity."""
    d = w.datum
    perm = tuple(d.sigma_root_perm[p] for p in w.perm)
    order = 1
    for start in range(len(perm)):
        n, i = 1, perm[start]
        while i != start:
            i = perm[i]
            n += 1
        order = lcm(order, n)
    return lcm(order, d.sigma_order)


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
    d = u.datum
    cache = d._caches.setdefault("bruhat_leq", {})

    def rec(u: WeylElement, v: WeylElement) -> bool:
        if u.length > v.length:
            return False
        if u is v:
            return True
        key = (u.index, v.index)
        if key not in cache:
            s = simple_reflection(d, v.right_descents()[0])
            us = u * s
            cache[key] = rec(us if us.length < u.length else u, v * s)
        return cache[key]

    return rec(u, v)


def dominant_representative(d: RootDatum, mu: Sequence) -> tuple[tuple, WeylElement]:
    """(nu, w) with nu dominant, w of minimal length and w(nu) = mu."""
    nu, word = d.dominant_with_word(mu)
    return nu, from_word(d, word)
