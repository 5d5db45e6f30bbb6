"""Root data with a Frobenius action, in exact arithmetic.

Conventions
-----------
The coweight lattice X is identified with Z^rank via a fixed basis.  Coweights
are integer tuples in that basis, rational coweights are Fraction tuples.
Every root alpha is stored as a :class:`Root` record carrying

* ``func``   -- the integer row representing the pairing <., alpha> on X,
* ``covec``  -- the coroot alpha^vee as an element of X,
* ``coords`` -- coordinates of alpha over the simple roots,
* ``cocoords`` -- coordinates of alpha^vee over the simple coroots.

Roots are indexed with all positive roots first (sorted by height, then
coordinates) and ``roots[i + n_pos]`` equal to ``-roots[i]``.

Lattice presets:

* ``"sc"``      -- X = Z Delta^vee (simply connected),
* ``"adjoint"`` -- X = fundamental coweight lattice,
* ``"gl"``      -- the standard lattice Z^n for a single A_{n-1} component,
* ``"custom"``  -- an explicit basis (rows, in simple-coroot coordinates) of a
  lattice between Z Delta^vee and the fundamental coweights; requires the
  ambient space to be spanned by the coroots, i.e. a semisimple datum.

The Frobenius consists of a Cartan-preserving permutation of the simple roots
together with the induced finite-order automorphism of X (the linear part,
called sigma throughout), plus an optional length-zero twist (sigma1, mu_sigma)
that makes the datum non-quasi-split; the twist is consumed by
:mod:`affweyl.generic`, everything in this module refers to the linear part.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Any, Iterable, Optional, Sequence

from . import linalg
from .linalg import (
    QVec,
    mat_inverse,
    mat_mul,
    mat_transpose,
    mat_vec,
    qvec,
    solve_columns,
    unit_vec,
    vec_add,
    vec_dot,
    vec_sub,
    zero_vec,
)
from .snf import LatticeQuotient

Vec = tuple[int, ...]
Mat = tuple[Vec, ...]

#: Hard ceiling for materializing Weyl groups (the order of W(E6)).
DEFAULT_WEYL_CAP = 51840


@dataclass(frozen=True)
class Budgets:
    """The size limits of a config's optional ``budgets`` object."""

    length_cap: int = 4  # default scan cap of ``verify`` and ``scan-cordial``
    coweight_box: int = 1  # free translation classes scanned: -box..box
    max_interval_size: int = 200_000  # oracle skips larger Bruhat intervals
    max_weyl_order: int = DEFAULT_WEYL_CAP

    @classmethod
    def from_config(cls, config: dict) -> "Budgets":
        """Read ``config["budgets"]``; a value that is not a non-negative
        integer raises a ``ValueError`` that names its field."""
        raw = config.get("budgets", {})
        if not isinstance(raw, dict):
            raise ValueError("config.budgets must be an object")
        values = {}
        for f in fields(cls):
            if f.name not in raw:
                continue
            try:
                values[f.name] = int(raw[f.name])
            except (TypeError, ValueError):
                pass
            if values.get(f.name, -1) < 0:
                raise ValueError(
                    f"budgets.{f.name} must be a non-negative integer, "
                    f"got {raw[f.name]!r}"
                )
        return cls(**values)


def cartan_matrix(typ: str, rank: int) -> Mat:
    """Cartan matrix with entries ``a[i][j] = <alpha_i^vee, alpha_j>``.

    Bourbaki numbering; for the exceptional types the branch node follows the
    usual conventions (E: node 2 attached to node 4; D: fork at the end).

    >>> cartan_matrix("G", 2)
    ((2, -3), (-1, 2))
    """
    typ = typ.upper()
    bounds = {"A": 1, "B": 2, "C": 2, "D": 3, "E": 6, "F": 4, "G": 2}
    if typ not in bounds:
        raise ValueError(f"unknown Cartan type {typ!r}")
    if rank < bounds[typ]:
        raise ValueError(f"type {typ} requires rank >= {bounds[typ]}, got {rank}")
    if typ == "E" and rank not in (6, 7, 8):
        raise ValueError(f"type E requires rank 6, 7 or 8, got {rank}")
    if typ == "F" and rank != 4:
        raise ValueError(f"type F requires rank 4, got {rank}")
    if typ == "G" and rank != 2:
        raise ValueError(f"type G requires rank 2, got {rank}")
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]

    def bond(i: int, j: int, aij: int = -1, aji: int = -1) -> None:
        a[i][j] = aij
        a[j][i] = aji

    if typ in ("A", "B", "C"):
        for i in range(rank - 1):
            bond(i, i + 1)
        if typ == "B" and rank >= 2:
            bond(rank - 2, rank - 1, -1, -2)  # alpha_rank short
        if typ == "C" and rank >= 2:
            bond(rank - 2, rank - 1, -2, -1)  # alpha_rank long
    elif typ == "D":
        for i in range(rank - 2):
            bond(i, i + 1)
        bond(rank - 3, rank - 1)
    elif typ == "E":
        chain = [0] + list(range(2, rank))
        for i, j in zip(chain, chain[1:]):
            bond(i, j)
        bond(1, 3)
    elif typ == "F":
        bond(0, 1)
        bond(1, 2, -1, -2)  # alpha_3 short
        bond(2, 3)
    elif typ == "G":
        bond(0, 1, -3, -1)  # alpha_1 short
    return tuple(tuple(row) for row in a)


def _generate_root_pairs(cartan: Mat) -> list[tuple[Vec, Vec]]:
    """All (root, coroot) coordinate pairs over (Delta, Delta^vee).

    Generated by closing the simple pairs under all simple reflections; the
    reflection acts compatibly on both sides, so the coroot of each root is
    produced alongside it.
    """
    n = len(cartan)
    seen: dict[Vec, Vec] = {}
    frontier: list[tuple[Vec, Vec]] = [
        (unit_vec(n, i), unit_vec(n, i)) for i in range(n)
    ]
    for rc, cc in frontier:
        seen[rc] = cc
    while frontier:
        new: list[tuple[Vec, Vec]] = []
        for rc, cc in frontier:
            for i in range(n):
                p_root = sum(cartan[i][j] * rc[j] for j in range(n))
                p_co = sum(cc[j] * cartan[j][i] for j in range(n))
                rc2 = tuple(c - (p_root if j == i else 0) for j, c in enumerate(rc))
                cc2 = tuple(c - (p_co if j == i else 0) for j, c in enumerate(cc))
                if rc2 not in seen:
                    seen[rc2] = cc2
                    new.append((rc2, cc2))
                elif seen[rc2] != cc2:  # pragma: no cover - internal consistency
                    raise AssertionError("inconsistent coroot generation")
        frontier = new
    return sorted(seen.items())


@dataclass(frozen=True)
class Root:
    """One root with its coroot, in all the coordinate systems we need."""

    index: int
    coords: Vec  # over the simple roots
    cocoords: Vec  # coroot over the simple coroots
    func: Vec  # pairing row on X
    covec: Vec  # coroot as element of X
    component: int

    @property
    def positive(self) -> bool:
        return sum(self.coords) > 0

    @property
    def height(self) -> int:
        return sum(self.coords)


def _parse_rational(x: Any) -> Fraction:
    if isinstance(x, bool) or not isinstance(x, (int, str, Fraction)):
        raise ValueError(f"expected integer or 'p/q' string, got {x!r}")
    return Fraction(x)


@dataclass(frozen=True, eq=False)
class RootDatum:
    """A reduced root datum with Frobenius action; immutable after build.

    Construct via :meth:`from_config` or the convenience :func:`datum`
    helper.  All derived structure (Weyl group, quotients, graphs) is cached
    in ``_caches`` on first use.
    """

    components: tuple[tuple[str, int], ...]
    lattice: str
    rank: int
    ss_rank: int
    cartan: Mat
    roots: tuple[Root, ...]
    n_pos: int
    simple_idx: Vec  # root index of each simple root
    two_rho: Vec  # pairing row of 2*rho on X
    highest_idx: Vec  # per component, index of the highest root
    sigma_perm: Vec  # Frobenius permutation of the simple roots (0-based)
    sigma_mat: Mat  # linear Frobenius action on X
    sigma_order: int
    sigma_root_perm: Vec
    omega_twist: Optional[tuple[Vec, Vec]]  # (sigma1 word, mu_sigma), or None
    weyl_cap: int = DEFAULT_WEYL_CAP
    _caches: dict = field(default_factory=dict, repr=False, compare=False)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @staticmethod
    def from_config(config: dict) -> "RootDatum":
        """Build a datum from its JSON-style description.

        ``{"components": [{"type": "A", "rank": 2}], "lattice": "adjoint",
        "frobenius": {"perm": [2, 1], "twist": {"sigma1_word": [...],
        "mu_sigma": [...]}}}``.  Permutations and words are 1-based as in the
        CLI; ``lattice_basis`` rows (for ``"custom"``) are in simple-coroot
        coordinates with entries integers or "p/q" strings.
        """
        if not isinstance(config, dict):
            raise ValueError("config must be a JSON object")
        budgets = Budgets.from_config(config)
        comp_spec = config.get("components")
        if not comp_spec or not isinstance(comp_spec, list):
            raise ValueError("config.components must be a non-empty list")
        components = []
        for c in comp_spec:
            try:
                components.append((str(c["type"]).upper(), int(c["rank"])))
            except (TypeError, KeyError, ValueError) as exc:
                raise ValueError(
                    f"bad component entry {c!r}: needs a type and an "
                    "integer rank"
                ) from exc
        lattice = config.get("lattice", "sc")
        if lattice not in ("sc", "adjoint", "gl", "custom"):
            raise ValueError(f"unknown lattice {lattice!r}")

        blocks = [cartan_matrix(t, r) for t, r in components]
        ss_rank = sum(len(b) for b in blocks)
        cartan = [[0] * ss_rank for _ in range(ss_rank)]
        offset = 0
        comp_of_simple = []
        for ci, b in enumerate(blocks):
            for i in range(len(b)):
                comp_of_simple.append(ci)
                for j in range(len(b)):
                    cartan[offset + i][offset + j] = b[i][j]
            offset += len(b)
        cartan_t: Mat = tuple(tuple(row) for row in cartan)

        pairs = _generate_root_pairs(cartan_t)

        # Lattice: rank and the two structure maps
        #   func  = F @ coords   (pairing row of a root),
        #   covec = C @ cocoords (coroot as element of X).
        if lattice == "sc":
            rank = ss_rank
            fmat = cartan_t
            cmat = linalg.identity_mat(ss_rank)
        elif lattice == "adjoint":
            rank = ss_rank
            fmat = linalg.identity_mat(ss_rank)
            cmat = linalg.mat_transpose(cartan_t)
        elif lattice == "gl":
            if len(components) != 1 or components[0][0] != "A":
                raise ValueError('lattice "gl" requires a single type-A component')
            rank = ss_rank + 1
            cols = [
                vec_sub(unit_vec(rank, k), unit_vec(rank, k + 1))
                for k in range(ss_rank)
            ]
            fmat = tuple(tuple(cols[j][i] for j in range(ss_rank)) for i in range(rank))
            cmat = fmat
        else:  # custom
            basis = config.get("lattice_basis")
            if not basis:
                raise ValueError('lattice "custom" requires lattice_basis')
            try:
                b_rows = [tuple(_parse_rational(x) for x in row) for row in basis]
            except (TypeError, ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"lattice_basis: {exc}") from exc
            if len(b_rows) != ss_rank or any(len(r) != ss_rank for r in b_rows):
                raise ValueError(
                    f"lattice_basis must be {ss_rank}x{ss_rank} "
                    "(rows in simple-coroot coordinates)"
                )
            rank = ss_rank
            try:
                b_inv = mat_inverse(b_rows)
            except ValueError as exc:
                raise ValueError("lattice_basis is singular") from exc
            # coroot columns:  X-coords t of a coroot with Delta^vee-coords d
            # solve t @ B = d, i.e. t = (B^-1)^T d; must be integral.
            cmat_q = linalg.mat_transpose(b_inv)
            if any(x.denominator != 1 for row in cmat_q for x in row):
                raise ValueError("lattice_basis does not contain the coroot lattice")
            cmat = tuple(tuple(int(x) for x in row) for row in cmat_q)
            # pairing rows: f = B @ (cartan @ coords); integrality = X pairs
            # integrally with the roots, i.e. X lies below the coweights.
            fmat_q = mat_mul(b_rows, cartan_t)
            if any(x.denominator != 1 for row in fmat_q for x in row):
                raise ValueError("lattice_basis does not pair integrally with the roots")
            fmat = tuple(tuple(int(x) for x in row) for row in fmat_q)

        def comp_of(coords: Vec) -> int:
            for j, c in enumerate(coords):
                if c != 0:
                    return comp_of_simple[j]
            raise AssertionError("zero root")

        positives = sorted(
            (rc for rc, _ in pairs if sum(rc) > 0), key=lambda rc: (sum(rc), rc)
        )
        co_of = dict(pairs)
        roots: list[Root] = []
        for idx, rc in enumerate(positives + [tuple(-c for c in rc) for rc in positives]):
            cc = co_of[rc]
            roots.append(
                Root(
                    index=idx,
                    coords=rc,
                    cocoords=cc,
                    func=tuple(mat_vec(fmat, rc)),
                    covec=tuple(mat_vec(cmat, cc)),
                    component=comp_of(rc),
                )
            )
        n_pos = len(positives)
        by_coords = {r.coords: r.index for r in roots}
        simple_idx = tuple(by_coords[unit_vec(ss_rank, i)] for i in range(ss_rank))
        two_rho = tuple(
            sum(roots[i].func[k] for i in range(n_pos)) for k in range(rank)
        )
        highest_idx = []
        for ci in range(len(components)):
            cand = [r for r in roots[:n_pos] if r.component == ci]
            highest_idx.append(max(cand, key=lambda r: r.height).index)

        # Frobenius.
        frob = config.get("frobenius") or {}
        if not isinstance(frob, dict):
            raise ValueError("config.frobenius must be an object")
        perm_1b = frob.get("perm") or list(range(1, ss_rank + 1))
        if sorted(perm_1b) != list(range(1, ss_rank + 1)):
            raise ValueError(f"frobenius.perm must permute 1..{ss_rank}")
        perm = tuple(p - 1 for p in perm_1b)
        for i in range(ss_rank):
            for j in range(ss_rank):
                if cartan_t[perm[i]][perm[j]] != cartan_t[i][j]:
                    raise ValueError("frobenius.perm does not preserve the Cartan matrix")
        if lattice == "gl" and any(perm[i] != i for i in range(ss_rank)):
            raise ValueError(
                'lattice "gl" supports only the trivial diagram permutation; '
                "use an adjoint or custom lattice for twisted forms"
            )
        if lattice in ("sc", "adjoint"):
            # basis vectors are indexed by Delta; sigma sends e_j to e_{perm(j)}
            sigma_mat: Mat = tuple(
                tuple(1 if perm[j] == i else 0 for j in range(rank))
                for i in range(rank)
            )
        elif lattice == "gl":
            sigma_mat = linalg.identity_mat(rank)
        else:
            cov_cols = [roots[simple_idx[i]].covec for i in range(ss_rank)]
            cm = tuple(tuple(col[i] for col in cov_cols) for i in range(rank))
            cm_perm = tuple(
                tuple(cov_cols[perm[j]][i] for j in range(ss_rank)) for i in range(rank)
            )
            smat_q = mat_mul(cm_perm, mat_inverse(cm))
            if any(x.denominator != 1 for row in smat_q for x in row):
                raise ValueError("frobenius.perm does not preserve the custom lattice")
            sigma_mat = tuple(tuple(int(x) for x in row) for row in smat_q)
        # finite order; also validates invertibility over Z
        power = sigma_mat
        order = 1
        ident = linalg.identity_mat(rank)
        while power != ident:
            power = mat_mul(power, sigma_mat)
            order += 1
            if order > 1000:
                raise ValueError("frobenius action does not have finite order")
        perm_full = []
        for r in roots:
            img = tuple(
                sum(r.coords[j] for j in range(ss_rank) if perm[j] == i)
                for i in range(ss_rank)
            )
            perm_full.append(by_coords[img])
        # consistency: <sigma mu, sigma alpha> = <mu, alpha> and
        # sigma(alpha^vee) = (sigma alpha)^vee on X
        sig_t = mat_transpose(sigma_mat)
        for r in roots:
            img = roots[perm_full[r.index]]
            if tuple(mat_vec(sig_t, img.func)) != r.func:
                raise AssertionError("Frobenius action inconsistent with pairing")
            if tuple(mat_vec(sigma_mat, r.covec)) != img.covec:
                raise AssertionError("Frobenius action inconsistent with coroots")

        twist = None
        tw_spec = frob.get("twist")
        if tw_spec is not None and not isinstance(tw_spec, dict):
            raise ValueError("frobenius.twist must be an object")
        datum = RootDatum(
            components=tuple(components),
            lattice=lattice,
            rank=rank,
            ss_rank=ss_rank,
            cartan=cartan_t,
            roots=tuple(roots),
            n_pos=n_pos,
            simple_idx=simple_idx,
            two_rho=two_rho,
            highest_idx=tuple(highest_idx),
            sigma_perm=perm,
            sigma_mat=sigma_mat,
            sigma_order=order,
            sigma_root_perm=tuple(perm_full),
            omega_twist=None,
            weyl_cap=budgets.max_weyl_order,
        )
        if tw_spec is not None:
            try:
                mu_sigma = tuple(int(c) for c in tw_spec.get("mu_sigma"))
            except (TypeError, ValueError):
                mu_sigma = None
            if mu_sigma is None or len(mu_sigma) != rank:
                raise ValueError(f"twist.mu_sigma must be an integer vector of length {rank}")
            try:
                word = tuple(int(i) - 1 for i in tw_spec.get("sigma1_word", []))
            except (TypeError, ValueError):
                raise ValueError("twist.sigma1_word must be a list of generator indices") from None
            if any(i < 0 or i >= ss_rank for i in word):
                raise ValueError("twist.sigma1_word contains an invalid generator index")
            datum._validate_twist(word, mu_sigma)
            twist = (word, mu_sigma)
            object.__setattr__(datum, "omega_twist", twist)
        return datum

    def _validate_twist(self, word: Vec, mu_sigma: Vec) -> None:
        """Check that gamma = eps^{mu_sigma} sigma1 has length zero."""
        mat = linalg.identity_mat(self.rank)
        perm: Vec = tuple(range(len(self.roots)))
        for i in reversed(word):  # build w = s_{i_1} ... s_{i_k} as an operator
            mat = mat_mul(self._simple_mat(i), mat)
            s = self._simple_root_perm(i)
            perm = tuple(s[p] for p in perm)
        # gamma = eps^{mu_sigma} sigma1 = sigma1 eps^{sigma1^{-1} mu_sigma}
        mu_q = mat_vec(mat_inverse(mat), mu_sigma)
        if any(x.denominator != 1 for x in mu_q):  # pragma: no cover - integral matrix
            raise AssertionError("non-integral translation part")
        mu = tuple(int(x) for x in mu_q)
        total = 0
        for idx in range(self.n_pos):
            r = self.roots[idx]
            val = vec_dot(mu, r.func) + 1 - (1 if self.roots[perm[idx]].positive else 0)
            total += abs(val)
        if total != 0:
            raise ValueError(
                "twist (sigma1_word, mu_sigma) is not a length-zero element"
            )

    # ------------------------------------------------------------------
    # basic root/pairing access
    # ------------------------------------------------------------------

    def _simple_mat(self, i: int) -> Mat:
        """Matrix of the simple reflection s_i on X."""
        key = ("simple_mat", i)
        if key not in self._caches:
            r = self.roots[self.simple_idx[i]]
            mat = tuple(
                tuple(
                    (1 if a == b else 0) - r.covec[a] * r.func[b]
                    for b in range(self.rank)
                )
                for a in range(self.rank)
            )
            self._caches[key] = mat
        return self._caches[key]

    def _simple_root_perm(self, i: int) -> Vec:
        """Permutation of the root list induced by s_i."""
        key = ("simple_root_perm", i)
        if key not in self._caches:
            by_coords = self._root_by_coords()
            si = self.roots[self.simple_idx[i]]
            images = []
            for r in self.roots:
                p = vec_dot(si.cocoords, mat_vec(self.cartan, r.coords))
                img = tuple(
                    c - (p if j == i else 0) for j, c in enumerate(r.coords)
                )
                images.append(by_coords[img])
            self._caches[key] = tuple(images)
        return self._caches[key]

    def _root_by_coords(self) -> dict[Vec, int]:
        if "by_coords" not in self._caches:
            self._caches["by_coords"] = {r.coords: r.index for r in self.roots}
        return self._caches["by_coords"]

    def neg_root(self, i: int) -> int:
        return i + self.n_pos if i < self.n_pos else i - self.n_pos

    def is_positive(self, i: int) -> bool:
        return i < self.n_pos

    def pair(self, mu: Sequence, root_index: int):
        """<mu, alpha> for the root with the given index."""
        return vec_dot(self.roots[root_index].func, mu)

    def pair_2rho(self, mu: Sequence):
        """<mu, 2 rho>, the sum of the pairings with all positive roots."""
        return vec_dot(self.two_rho, mu)

    def coroot_pairing(self, i: int, j: int) -> int:
        """<alpha_i^vee, alpha_j> for two root indices."""
        return vec_dot(
            self.roots[i].cocoords, mat_vec(self.cartan, self.roots[j].coords)
        )

    def reflect_vec(self, root_index: int, mu: Sequence) -> tuple:
        r = self.roots[root_index]
        c = vec_dot(r.func, mu)
        return tuple(m - c * cv for m, cv in zip(mu, r.covec))

    # ------------------------------------------------------------------
    # dominance and coroot-cone order
    # ------------------------------------------------------------------

    def is_dominant(self, mu: Sequence) -> bool:
        return all(self.pair(mu, self.simple_idx[i]) >= 0 for i in range(self.ss_rank))

    def dominant_with_word(self, mu: Sequence) -> tuple[tuple, Vec]:
        """(nu, word) with nu dominant and mu = s_{word[0]} ... s_{word[-1]} nu.

        The word is reduced and the corresponding Weyl element is the unique
        one of minimal length mapping nu to mu.
        """
        cur = tuple(mu)
        word: list[int] = []
        while True:
            i = next(
                (
                    i
                    for i in range(self.ss_rank)
                    if self.pair(cur, self.simple_idx[i]) < 0
                ),
                None,
            )
            if i is None:
                return cur, tuple(word)
            cur = self.reflect_vec(self.simple_idx[i], cur)
            word.append(i)

    def simple_covec_columns(self) -> list[Vec]:
        return [self.roots[self.simple_idx[i]].covec for i in range(self.ss_rank)]

    def coroot_coords(self, vec: Sequence) -> Optional[QVec]:
        """Coordinates of ``vec`` over the simple coroots, or None."""
        return solve_columns(self.simple_covec_columns(), tuple(vec))

    def leq_coroot_cone(self, a: Sequence, b: Sequence) -> bool:
        """True iff b - a is a nonnegative rational combination of Delta^vee."""
        c = self.coroot_coords(vec_sub(qvec(b), qvec(a)))
        return c is not None and all(x >= 0 for x in c)

    # ------------------------------------------------------------------
    # Frobenius and averaging operators
    # ------------------------------------------------------------------

    def sigma_vec(self, mu: Sequence, power: int = 1) -> tuple:
        p = power % self.sigma_order
        out = tuple(mu)
        for _ in range(p):
            out = mat_vec(self.sigma_mat, out)
        return out

    def sigma_root(self, i: int, power: int = 1) -> int:
        p = power % self._sigma_root_order()
        for _ in range(p):
            i = self.sigma_root_perm[i]
        return i

    def _sigma_root_order(self) -> int:
        if "sigma_root_order" not in self._caches:
            n = 1
            perm = self.sigma_root_perm
            cur = perm
            ident = tuple(range(len(perm)))
            while cur != ident:
                cur = tuple(perm[c] for c in cur)
                n += 1
            self._caches["sigma_root_order"] = n
        return self._caches["sigma_root_order"]

    def sigma_simple_orbits(self) -> list[tuple[int, ...]]:
        """Orbits of the Frobenius permutation on Delta (0-based indices)."""
        seen: set[int] = set()
        orbits = []
        for i in range(self.ss_rank):
            if i in seen:
                continue
            orbit = [i]
            seen.add(i)
            j = self.sigma_perm[i]
            while j != i:
                orbit.append(j)
                seen.add(j)
                j = self.sigma_perm[j]
            orbits.append(tuple(orbit))
        return orbits

    def avg_sigma(self, mu: Sequence) -> QVec:
        """The sigma-average (1/N) sum_k sigma^k(mu)."""
        acc = qvec(mu)
        cur = tuple(mu)
        for _ in range(self.sigma_order - 1):
            cur = mat_vec(self.sigma_mat, cur)
            acc = vec_add(acc, cur)
        return tuple(x / self.sigma_order for x in acc)

    def _weyl_mats(self, J: frozenset[int]) -> list[Mat]:
        """All matrices of W_J on X (J a set of simple indices)."""
        key = ("weyl_mats", J)
        if key not in self._caches:
            gens = [self._simple_mat(i) for i in sorted(J)]
            ident = linalg.identity_mat(self.rank)
            seen = {ident}
            frontier = [ident]
            while frontier:
                new = []
                for m in frontier:
                    for g in gens:
                        m2 = mat_mul(m, g)
                        if m2 not in seen:
                            seen.add(m2)
                            new.append(m2)
                frontier = new
                if len(seen) > self.weyl_cap:
                    raise ValueError(
                        f"Weyl group larger than the configured cap {self.weyl_cap}"
                    )
            self._caches[key] = sorted(seen)
        return self._caches[key]

    def avg_J(self, mu: Sequence, J: Iterable[int]) -> QVec:
        """Average of mu over the parabolic subgroup W_J.

        >>> d = datum("A", 1, "sc")
        >>> d.avg_J((5,), [0])
        (Fraction(0, 1),)
        """
        mats = self._weyl_mats(frozenset(J))
        acc = qvec(zero_vec(self.rank))
        for m in mats:
            acc = vec_add(acc, mat_vec(m, tuple(mu)))
        return tuple(x / len(mats) for x in acc)

    def _greedy_improve(self, mu: Sequence) -> tuple[QVec, frozenset[int]]:
        cur = qvec(mu)
        J: set[int] = set()
        while True:
            i = next(
                (
                    i
                    for i in range(self.ss_rank)
                    if self.pair(cur, self.simple_idx[i]) < 0
                ),
                None,
            )
            if i is None:
                return cur, frozenset(J)
            J.add(i)
            cur = self.avg_J(mu, J)

    def conv_prime(self, mu: Sequence) -> QVec:
        """The dominant convexification: max over J of avg_J(mu)."""
        return self._greedy_improve(mu)[0]

    def conv_prime_facts(
        self, mu: Sequence
    ) -> tuple[QVec, frozenset[int], frozenset[int]]:
        """(nu, J1, J2): the subsets J with avg_J(mu) = conv_prime(mu) are
        exactly those with J1 <= J <= J2.

        J1 is the simple-coroot support of mu - nu; J2 is the set of simple
        roots pairing to zero with nu.
        """
        nu = self.conv_prime(mu)
        diff = vec_sub(qvec(mu), nu)
        coords = self.coroot_coords(diff)
        if coords is None:  # pragma: no cover - diff always lies in Q Delta^vee
            raise AssertionError("conv_prime moved mu outside mu + Q Delta^vee")
        j1 = frozenset(i for i, c in enumerate(coords) if c != 0)
        j2 = frozenset(
            i for i in range(self.ss_rank) if self.pair(nu, self.simple_idx[i]) == 0
        )
        return nu, j1, j2

    def conv(self, mu: Sequence) -> QVec:
        """conv = conv_prime after avg_sigma (accepts a GammaClass too)."""
        if isinstance(mu, GammaClass):
            mu = mu.lift()
        return self.conv_prime(self.avg_sigma(mu))

    # ------------------------------------------------------------------
    # quotient lattices and classes
    # ------------------------------------------------------------------

    def _sigma_displacement_columns(self) -> list[Vec]:
        cols = []
        for i in range(self.rank):
            e = unit_vec(self.rank, i)
            cols.append(vec_sub(e, mat_vec(self.sigma_mat, e)))
        return cols

    @property
    def coroot_quotient(self) -> LatticeQuotient:
        """X / Z Phi^vee — indexes the Omega-components of the affine group."""
        if "coroot_quotient" not in self._caches:
            self._caches["coroot_quotient"] = LatticeQuotient(
                self.rank, self.simple_covec_columns()
            )
        return self._caches["coroot_quotient"]

    @property
    def gamma_quotient(self) -> LatticeQuotient:
        """X / (1 - sigma) X — the Frobenius-coinvariant lattice."""
        if "gamma_quotient" not in self._caches:
            self._caches["gamma_quotient"] = LatticeQuotient(
                self.rank, self._sigma_displacement_columns()
            )
        return self._caches["gamma_quotient"]

    @property
    def pi1_quotient(self) -> LatticeQuotient:
        """X / (Z Phi^vee + (1 - sigma) X) — the fundamental-group coinvariants."""
        if "pi1_quotient" not in self._caches:
            self._caches["pi1_quotient"] = LatticeQuotient(
                self.rank,
                self.simple_covec_columns() + self._sigma_displacement_columns(),
            )
        return self._caches["pi1_quotient"]

    def pi1_class(self, mu: Sequence[int]) -> "Pi1Class":
        return Pi1Class(self, self.pi1_quotient.coords(tuple(mu)))

    def gamma_class(self, mu: Sequence[int]) -> "GammaClass":
        return GammaClass(self, self.gamma_quotient.coords(tuple(mu)))

    def leq_gamma(self, l1: "GammaClass", l2: "GammaClass") -> bool:
        """Order on the coinvariants: compared via sigma-averages."""
        return self.leq_coroot_cone(l1.avg(), l2.avg())

    # ------------------------------------------------------------------
    # rendering helpers
    # ------------------------------------------------------------------

    def type_string(self) -> str:
        return " x ".join(f"{t}{r}" for t, r in self.components)


@dataclass(frozen=True, eq=False)
class Pi1Class:
    """A class in X / (Z Phi^vee + (1 - sigma) X), by canonical coordinates."""

    datum: RootDatum
    coords: Vec

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Pi1Class)
            and self.datum is other.datum
            and self.coords == other.coords
        )

    def __hash__(self) -> int:
        return hash((id(self.datum), self.coords))

    def lift(self) -> Vec:
        return self.datum.pi1_quotient.lift(self.coords)

    def __repr__(self) -> str:
        return f"Pi1Class{self.coords}"


@dataclass(frozen=True, eq=False)
class GammaClass:
    """A class in X / (1 - sigma) X, by canonical coordinates."""

    datum: RootDatum
    coords: Vec

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GammaClass)
            and self.datum is other.datum
            and self.coords == other.coords
        )

    def __hash__(self) -> int:
        return hash((id(self.datum), self.coords))

    def lift(self) -> Vec:
        return self.datum.gamma_quotient.lift(self.coords)

    def avg(self) -> QVec:
        """The sigma-average of (any representative of) the class."""
        return self.datum.avg_sigma(self.lift())

    def pi1(self) -> Pi1Class:
        """The image of the class in the fundamental-group quotient."""
        return self.datum.pi1_class(self.lift())

    def __repr__(self) -> str:
        return f"GammaClass{self.coords}"


def datum(
    typ: str,
    rank: int,
    lattice: str = "sc",
    perm: Optional[Sequence[int]] = None,
    twist: Optional[dict] = None,
) -> RootDatum:
    """Convenience constructor for a single-component datum.

    >>> d = datum("A", 2, "adjoint")
    >>> d.n_pos, d.rank
    (3, 2)
    """
    config: dict[str, Any] = {
        "components": [{"type": typ, "rank": rank}],
        "lattice": lattice,
    }
    frob: dict[str, Any] = {}
    if perm is not None:
        frob["perm"] = list(perm)
    if twist is not None:
        frob["twist"] = twist
    if frob:
        config["frobenius"] = frob
    return RootDatum.from_config(config)
