"""Smith normal form and lattice quotients, cross-checked against sympy."""

from __future__ import annotations

import random

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from affweyl.linalg import mat_mul
from affweyl.snf import LatticeQuotient, smith_normal_form


def random_matrix(rng: random.Random, nr: int, nc: int) -> list[list[int]]:
    return [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]


@pytest.mark.parametrize("seed", range(25))
def test_snf_matches_sympy(seed):
    rng = random.Random(seed)
    nr = rng.randint(1, 5)
    nc = rng.randint(1, 5)
    m = random_matrix(rng, nr, nc)
    d, u, v = smith_normal_form(m)

    assert mat_mul(mat_mul(u, m), v) == tuple(tuple(row) for row in d)
    assert abs(sympy.Matrix(u).det()) == 1
    assert abs(sympy.Matrix(v).det()) == 1

    mine = [d[i][i] for i in range(min(nr, nc))]
    ref = sympy_snf(sympy.Matrix(m))
    theirs = [abs(ref[i, i]) for i in range(min(nr, nc))]
    assert [abs(x) for x in mine] == theirs


def test_snf_divisibility_chain():
    d, _, _ = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    diag = [d[i][i] for i in range(3)]
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        if a != 0:
            assert b % a == 0 or b == 0


def test_snf_rejects_ragged_input():
    with pytest.raises(ValueError):
        smith_normal_form([[1, 2], [3]])


class TestLatticeQuotient:
    def test_trivial_quotient(self):
        q = LatticeQuotient(2, [(1, 0), (0, 1)])
        assert q.describe() == "trivial"
        assert q.coords((5, -3)) == (0, 0)

    def test_free_quotient(self):
        q = LatticeQuotient(2, [])
        assert q.describe() == "Z x Z"
        assert q.free_rank == 2

    def test_mixed_quotient(self):
        # Z^2 / <(2, 0)> = Z/2 x Z
        q = LatticeQuotient(2, [(2, 0)])
        assert sorted([q.free_rank, len(q.torsion)]) == [1, 1]
        assert q.torsion == (2,)

    def test_coords_kills_exactly_the_sublattice(self):
        rng = random.Random(7)
        gens = [(3, 1, 0), (0, 2, 1)]
        q = LatticeQuotient(3, gens)
        for _ in range(100):
            combo = [0, 0, 0]
            for g in gens:
                c = rng.randint(-4, 4)
                combo = [a + c * b for a, b in zip(combo, g)]
            assert q.is_zero(combo)

    def test_membership_matches_sympy_solve(self):
        rng = random.Random(11)
        gens = [(2, 4), (6, 8)]
        q = LatticeQuotient(2, gens)
        m = sympy.Matrix([[2, 6], [4, 8]])
        for _ in range(60):
            vec = (rng.randint(-10, 10), rng.randint(-10, 10))
            sol = m.solve(sympy.Matrix(vec))
            in_lattice = all(x.is_integer for x in sol)
            assert q.is_zero(vec) == in_lattice

    def test_lift_roundtrip(self):
        rng = random.Random(3)
        q = LatticeQuotient(3, [(2, 0, 0), (0, 3, 3), (1, 1, 0)])
        for _ in range(60):
            vec = tuple(rng.randint(-8, 8) for _ in range(3))
            c = q.coords(vec)
            assert q.coords(q.lift(c)) == c
            assert q.same(vec, q.lift(c))

    def test_add_neg(self):
        q = LatticeQuotient(2, [(2, 0)])
        a, b = q.coords((1, 3)), q.coords((1, -1))
        assert q.add(a, b) == q.coords((2, 2))
        assert q.add(a, q.neg(a)) == q.coords((0, 0))

    def test_scan_coords_exhaustive_when_finite(self):
        q = LatticeQuotient(2, [(2, 0), (0, 3)])
        classes = set(q.scan_coords())
        assert len(classes) == 6
        assert all(q.coords(q.lift(c)) == c for c in classes)

    def test_scan_coords_box_order(self):
        q = LatticeQuotient(2, [(2, 0)])
        assert q.diag == (2, 0)
        assert list(q.scan_coords(2)) == [
            (t, f) for t in range(2) for f in range(-2, 3)
        ]

    def test_generator_coords_span(self):
        q = LatticeQuotient(2, [(2, 0)])
        gens = q.generator_coords()
        assert len(gens) == 2  # one torsion, one free factor
