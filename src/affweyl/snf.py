"""Integer Smith normal form and lattice quotients.

``smith_normal_form(m)`` returns ``(d, u, v)`` with ``u @ m @ v = d``, where
``u`` and ``v`` are unimodular and ``d`` is diagonal with non-negative
entries satisfying ``d[0][0] | d[1][1] | ...``.

:class:`LatticeQuotient` presents a quotient ``Z^dim / L`` (``L`` spanned by
integer generator vectors) by canonical coordinates: a vector ``x`` maps to
``u @ x`` reduced modulo the diagonal, which is a complete invariant of its
class.  This is how the fundamental-group and coinvariant quotients of a root
datum are handled.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator, Sequence

from .linalg import identity_mat, mat_inverse, mat_vec

IMat = tuple[tuple[int, ...], ...]


def smith_normal_form(m: Sequence[Sequence[int]]) -> tuple[IMat, IMat, IMat]:
    """Smith normal form with transforms: returns (d, u, v), u @ m @ v = d.

    >>> d, u, v = smith_normal_form([[2, 4], [6, 8]])
    >>> [d[0][0], d[1][1]]
    [2, 4]
    """
    a = [list(map(int, row)) for row in m]
    nr = len(a)
    nc = len(a[0]) if nr else 0
    if any(len(row) != nc for row in a):
        raise ValueError("matrix is not rectangular")
    u = [list(row) for row in identity_mat(nr)]
    v = [list(row) for row in identity_mat(nc)]

    def row_add(i: int, j: int, c: int) -> None:  # row_i += c * row_j
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]

    def col_add(i: int, j: int, c: int) -> None:  # col_i += c * col_j
        for row in a:
            row[i] += c * row[j]
        for row in v:
            row[i] += c * row[j]

    def row_swap(i: int, j: int) -> None:
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i: int, j: int) -> None:
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < min(nr, nc):
        # Move a nonzero entry of smallest magnitude in the submatrix to (t, t).
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < best[2]):
                    best = (i, j, abs(a[i][j]))
        if best is None:
            break
        bi, bj, _ = best
        if bi != t:
            row_swap(t, bi)
        if bj != t:
            col_swap(t, bj)
        while True:
            # Clear column t below the pivot.
            dirty = False
            for i in range(t + 1, nr):
                while a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    row_add(i, t, -q)
                    if a[i][t] != 0:
                        row_swap(i, t)
                    dirty = True
            # Clear row t right of the pivot (may dirty the column again).
            for j in range(t + 1, nc):
                while a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    col_add(j, t, -q)
                    if a[t][j] != 0:
                        col_swap(j, t)
                    dirty = True
            if all(a[i][t] == 0 for i in range(t + 1, nr)) and all(
                a[t][j] == 0 for j in range(t + 1, nc)
            ):
                # Pivot must divide the remaining submatrix.
                bad = next(
                    (
                        (i, j)
                        for i in range(t + 1, nr)
                        for j in range(t + 1, nc)
                        if a[i][j] % a[t][t] != 0
                    ),
                    None,
                )
                if bad is None:
                    break
                row_add(t, bad[0], 1)
                continue
            if not dirty:  # pragma: no cover - loop always progresses
                raise AssertionError("Smith reduction stalled")
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    df = tuple(tuple(row) for row in a)
    uf = tuple(tuple(row) for row in u)
    vf = tuple(tuple(row) for row in v)
    return df, uf, vf


class LatticeQuotient:
    """The quotient Z^dim / L for L spanned by integer generator vectors."""

    def __init__(self, dim: int, generators: Iterable[Sequence[int]]):
        gens = [tuple(map(int, g)) for g in generators]
        for g in gens:
            if len(g) != dim:
                raise ValueError(f"generator has length {len(g)}, expected {dim}")
        self.dim = dim
        if not gens:
            gens = [(0,) * dim]
        m = [[g[i] for g in gens] for i in range(dim)]
        d, u, _ = smith_normal_form(m)
        self._u = u
        inv = mat_inverse(u)
        self._u_inv = tuple(tuple(int(x) for x in row) for row in inv)
        ncols = len(gens)
        self.diag: tuple[int, ...] = tuple(
            d[i][i] if i < min(dim, ncols) else 0 for i in range(dim)
        )

    def coords(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Canonical coordinates of the class of ``vec``."""
        y = mat_vec(self._u, tuple(vec))
        return tuple(
            int(c) % d if d > 0 else int(c) for c, d in zip(y, self.diag)
        )

    def lift(self, coords: Sequence[int]) -> tuple[int, ...]:
        """An integer vector whose class has the given coordinates."""
        return mat_vec(self._u_inv, tuple(coords))

    def same(self, a: Sequence[int], b: Sequence[int]) -> bool:
        return self.coords(a) == self.coords(b)

    def is_zero(self, vec: Sequence[int]) -> bool:
        return all(c == 0 for c in self.coords(vec))

    def add(self, c1: Sequence[int], c2: Sequence[int]) -> tuple[int, ...]:
        return tuple(
            (a + b) % d if d > 0 else a + b for a, b, d in zip(c1, c2, self.diag)
        )

    def neg(self, c: Sequence[int]) -> tuple[int, ...]:
        return tuple((-a) % d if d > 0 else -a for a, d in zip(c, self.diag))

    @property
    def free_rank(self) -> int:
        return sum(1 for d in self.diag if d == 0)

    @property
    def torsion(self) -> tuple[int, ...]:
        return tuple(d for d in self.diag if d > 1)

    def describe(self) -> str:
        """Human-readable shape, e.g. ``"Z"``, ``"Z/3"``, ``"trivial"``."""
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.torsion]
        return " x ".join(parts) if parts else "trivial"

    def generator_coords(self) -> list[tuple[int, ...]]:
        """Canonical coordinates of one generator per nontrivial factor."""
        gens = []
        for i, d in enumerate(self.diag):
            if d != 1:
                gens.append(tuple(1 if j == i else 0 for j in range(self.dim)))
        return gens

    def scan_coords(self, box: int = 1) -> Iterator[tuple[int, ...]]:
        """Coordinates of all torsion classes, combined with exponents
        -box..box of each free generator.

        For finite quotients this enumerates every class exactly once.
        """
        yield from product(
            *(range(-box, box + 1) if d == 0 else range(d) for d in self.diag)
        )
