"""Scan-and-check battery tying the closed forms to their oracles.

Each check walks every x up to a length cap (once per class of the
translation lattice modulo coroots, so all components of the extended group
are visited) and asserts one family of invariants:

* the interval oracle reproduces kappa, nu and lambda of the closed forms;
* the class of x itself lies below the generic class;
* all defect characterizations agree on every class encountered;
* the fundamental-element characterizations agree, with length additivity
  of twisted powers checked up to the order of sigma compose w;
* shrunken x, singleton LP(x) and nowhere-zero length functionals coincide,
  and shrunken Newton points need no parabolic averaging;
* for simply laced data, LP(x) determines the sign type;
* the cordial inequality holds at every length positive v, with equality
  exactly at minimal-distance v realizing d = l;
* quantum Bruhat graph distances and weights satisfy the metric identities;
* length additivity of products matches the LP intersection criterion.

The command line ``verify`` verb and the acceptance test-suite both run
these functions, so the shipped binary and the tests cannot drift apart.

The ``cross_check_*`` functions at the end recompute one element's
invariants by a redundant route (a maximum over all of W, a restricted
convexification, the cordiality bound, transport to the plain datum) and
raise ``AssertionError`` on a disagreement.  ``cross_check`` runs those
that apply; the CLI runs it on every element under ``--test-mode``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Optional, Sequence

from . import affine as af
from .affine import AffineElement, BudgetExceeded, lp_set
from .conjclass import (
    SigmaClass,
    class_of,
    defect_via_fixed_ranks,
    kottwitz_point,
    levi_zero_representative,
    min_twisted_length,
    newton_point,
)
from .generic import (
    GenericResult,
    candidate_vector,
    dominance_maximum,
    generic_class,
    generic_lambda,
    generic_newton,
    generic_newton_general,
    is_cordial,
    is_cordial_general,
    lp_distances,
    oracle_generic_class,
    transport,
    twisted_candidates,
    weyl_average,
)
from .linalg import QVec, vec_sub
from .qbg import QBGraph
from .rootdata import GammaClass, RootDatum, Vec
from .weyl import WeylElement, reflection, sigma_w_order, weyl_group


@dataclass
class CheckReport:
    """Outcome of one named check over a scan."""

    name: str
    checked: int = 0
    failed: int = 0
    budget_skips: int = 0  # elements skipped over an exceeded budget
    first_failure: Optional[str] = None
    skipped: Optional[str] = None  # reason, when the check does not apply

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def record(self, ok: bool, failure: str = "") -> None:
        self.checked += 1
        if not ok:
            self.failed += 1
            if self.first_failure is None:
                self.first_failure = failure

    def summary(self) -> str:
        if self.skipped is not None:
            return f"{self.name}: skipped ({self.skipped})"
        line = f"{self.name}: {self.checked} checked, {self.failed} failed"
        if self.budget_skips:
            line += f", {self.budget_skips} over budget"
        if self.first_failure:
            line += f"\n  first counterexample: {self.first_failure}"
        return line


def scan_elements(
    d: RootDatum, cap: int, box: int = 1
) -> list[AffineElement]:
    """All x with l(x) <= cap, one translation-class coset at a time."""
    out: list[AffineElement] = []
    for coords in d.coroot_quotient.scan_coords(box):
        out.extend(af.enumerate_length_le(d, cap, coords))
    return out


# ----------------------------------------------------------------------
# per-element checks
# ----------------------------------------------------------------------


def check_oracle_equivalence(
    d: RootDatum,
    xs: Sequence[AffineElement],
    interval_budget: int = 200_000,
) -> tuple[CheckReport, dict[tuple, SigmaClass]]:
    """kappa, nu and lambda of the interval maximum against the closed forms.

    Returns the report plus the generic class of every scanned x (keyed by
    x.key), reused by the downstream checks.
    """
    rep = CheckReport("oracle-equivalence")
    generics: dict[tuple, SigmaClass] = {}
    for x in xs:
        res = generic_lambda(x)
        b = SigmaClass(d, res.nu_x, kottwitz_point(x))
        generics[x.key] = b
        try:
            oracle = oracle_generic_class(x, interval_budget)
        except BudgetExceeded:
            rep.budget_skips += 1
            continue
        except ValueError as exc:
            rep.record(False, f"{x!r}: {exc}")
            continue
        ok = (
            oracle.kappa == b.kappa
            and tuple(oracle.nu) == tuple(b.nu)
            and oracle.lam == res.lambda_x
        )
        rep.record(
            ok,
            f"{x!r}: oracle (nu={oracle.nu}, kappa={oracle.kappa}, "
            f"lambda={oracle.lam!r}) vs formula (nu={b.nu}, "
            f"kappa={b.kappa}, lambda={res.lambda_x!r})",
        )
    return rep, generics


def check_own_class_bound(
    d: RootDatum,
    xs: Sequence[AffineElement],
    generics: dict[tuple, SigmaClass],
) -> CheckReport:
    """[x] <= [b_x]: the element's own class lies below the generic one."""
    rep = CheckReport("own-class-bound")
    for x in xs:
        own = class_of(x)
        b = generics[x.key]
        rep.record(own <= b, f"{x!r}: [x]={own!r} not below [b_x]={b!r}")
    return rep


def check_defect_consistency(
    d: RootDatum,
    classes: Sequence[SigmaClass],
    max_radius: int = 6,
) -> CheckReport:
    """All defect characterizations agree on every given class.

    Uses a representative w eps^mu with w in the Levi of the Newton
    centralizer and all Levi length functionals zero; there the defect
    equals the fixed-space rank drop of sigma w, the minimal twisted length
    over the full Weyl group, and the same minimum over the parabolic of
    the support.
    """
    rep = CheckReport("defect-consistency")
    seen: set[tuple] = set()
    for b in classes:
        key = (tuple(b.nu), b.kappa)
        if key in seen:
            continue
        seen.add(key)
        x_rep = None
        for radius in range(3, max_radius + 1):
            x_rep = levi_zero_representative(b, radius)
            if x_rep is not None:
                break
        if x_rep is None:
            rep.record(False, f"{b!r}: no Levi-zero representative found")
            continue
        w = x_rep.w
        values = (
            b.defect,
            defect_via_fixed_ranks(d, w),
            min_twisted_length(d, w),
            min_twisted_length(d, w, frozenset(b.j1)),
        )
        rep.record(
            len(set(values)) == 1,
            f"{b!r}: defect characterizations disagree: {values}",
        )
    return rep


def _zero_roots(d: RootDatum, x: AffineElement, v: WeylElement) -> set[int]:
    """Positive roots alpha with l(x, v alpha) = 0."""
    return {
        i
        for i in range(d.n_pos)
        if x.length_functional(v.perm[i]) == 0
    }


def check_fundamental_consistency(
    d: RootDatum, xs: Sequence[AffineElement]
) -> CheckReport:
    """The four fundamental-element characterizations coincide.

    (i) l(x) equals <nu(x), 2 rho>; (ii) twisted powers have additive
    length up to the order of sigma compose w; (iii) some length positive v
    and sigma-stable J have all J-functionals zero and v^{-1} sigma(wv) in
    W_J; (iv) the sigma w orbits of roots never mix signs.
    """
    rep = CheckReport("fundamental-consistency")
    orbits = d.sigma_simple_orbits()
    for x in xs:
        f_i = Fraction(x.length) == d.pair_2rho(newton_point(x))
        f_iv = af.is_fundamental(x)

        f_iii = False
        for v in lp_set(x):
            zeros = _zero_roots(d, x, v)
            eta = v.inverse() * (x.w * v).twist()
            support = set(eta.word)
            for mask in range(1 << len(orbits)):
                j = {
                    i
                    for k, o in enumerate(orbits)
                    if mask & (1 << k)
                    for i in o
                }
                if not support <= j:
                    continue
                if all(
                    i in zeros
                    for i in range(d.n_pos)
                    if {k for k, c in enumerate(d.roots[i].coords) if c}
                    <= j
                ):
                    f_iii = True
                    break
            if f_iii:
                break

        f_ii = True
        prod = x
        for k in range(1, sigma_w_order(x.w)):
            prod = prod * x.twist(k)
            if prod.length != (k + 1) * x.length:
                f_ii = False
                break

        ok = f_i == f_ii == f_iii == f_iv
        rep.record(
            ok,
            f"{x!r}: fundamental characterizations disagree "
            f"(i)={f_i} (ii)={f_ii} (iii)={f_iii} (iv)={f_iv}",
        )
    return rep


def check_shrunken_criterion(
    d: RootDatum,
    xs: Sequence[AffineElement],
    generics: dict[tuple, SigmaClass],
) -> CheckReport:
    """shrunken <=> #LP = 1 <=> no zero functional; and for shrunken x the
    Newton point is the plain sigma-average of the candidate vector."""
    rep = CheckReport("shrunken-criterion")
    for x in xs:
        lp = lp_set(x)
        s1 = x.is_shrunken()
        s2 = len(lp) == 1
        s3 = all(x.length_functional(i) != 0 for i in range(d.n_pos))
        ok = s1 == s2 == s3
        detail = f"{x!r}: shrunken={s1} #LP==1={s2} nonzero={s3}"
        if ok and s1:
            nu = d.avg_sigma(candidate_vector(x, lp[0]))
            if not d.is_dominant(nu) or tuple(nu) != tuple(
                generics[x.key].nu
            ):
                ok = False
                detail = (
                    f"{x!r}: shrunken Newton point {generics[x.key].nu} is "
                    f"not the bare sigma-average {nu}"
                )
        rep.record(ok, detail)
    return rep


def is_simply_laced(d: RootDatum) -> bool:
    return all(t in ("A", "D", "E") for t, _ in d.components)


def check_sign_type_determination(
    d: RootDatum, xs: Sequence[AffineElement]
) -> CheckReport:
    """For simply laced data, equal LP sets force equal sign types."""
    rep = CheckReport("sign-type-determination")
    if not is_simply_laced(d):
        rep.skipped = "only claimed for simply laced data"
        return rep
    by_lp: dict[tuple, tuple[Vec, AffineElement]] = {}
    for x in xs:
        key = tuple(sorted(v.perm for v in lp_set(x)))
        zeta = x.sign_type()
        prev = by_lp.get(key)
        if prev is None:
            by_lp[key] = (zeta, x)
            rep.record(True)
        else:
            rep.record(
                prev[0] == zeta,
                f"{x!r} and {prev[1]!r} share LP but differ in sign type",
            )
    return rep


def find_sign_type_collision(
    d: RootDatum, box: int = 3
) -> Optional[tuple[AffineElement, AffineElement]]:
    """A pair with equal LP sets but different sign types, if one exists
    within the given coweight box (expected for non simply-laced data)."""
    by_lp: dict[tuple, tuple[Vec, AffineElement]] = {}
    rng = range(-box, box + 1)
    for w in weyl_group(d):
        for mu in product(rng, repeat=d.rank):
            x = af.from_parts(w, mu)
            key = tuple(sorted(v.perm for v in lp_set(x)))
            zeta = x.sign_type()
            prev = by_lp.get(key)
            if prev is None:
                by_lp[key] = (zeta, x)
            elif prev[0] != zeta:
                return prev[1], x
    return None


def check_cordial_inequality(
    d: RootDatum,
    xs: Sequence[AffineElement],
    generics: dict[tuple, SigmaClass],
) -> CheckReport:
    """l(x) - l(v^{-1} sigma(wv)) <= <nu_x, 2 rho> - defect(b_x) for every
    length positive v, with equality iff v minimizes the graph distance
    over LP(x) and that distance equals l(v^{-1} sigma(wv))."""
    rep = CheckReport("cordial-inequality")
    g = QBGraph.of(d)
    for x in xs:
        b = generics[x.key]
        bound = d.pair_2rho(b.nu) - b.defect
        lp = lp_set(x)
        dists = [g.d(v, (x.w * v).twist()) for v in lp]
        d_min = min(dists)
        ok = True
        detail = ""
        for v, dist in zip(lp, dists):
            lv = (v.inverse() * (x.w * v).twist()).length
            lhs = x.length - lv
            if lhs > bound:
                ok = False
                detail = f"{x!r}, v={v!r}: {lhs} > {bound}"
                break
            if (lhs == bound) != (dist == d_min and dist == lv):
                ok = False
                detail = (
                    f"{x!r}, v={v!r}: equality={lhs == bound} but "
                    f"d={dist}, d_min={d_min}, l={lv}"
                )
                break
        rep.record(ok, detail)
    return rep


def check_qbg_identities(
    d: RootDatum, n_paths: int = 200, seed: int = 0
) -> CheckReport:
    """Graph metric identities: d(u => v) bounded by l(u^{-1}v); the pairing
    of wt(u => v) with 2 rho equals l(u) - l(v) + d(u => v) (so a Bruhat
    edge contributes zero weight and a quantum edge alpha^vee), likewise
    for arbitrary edge paths; and each one-step weight is bounded by the
    reflection estimate."""
    rep = CheckReport("qbg-identities")
    g = QBGraph.of(d)
    ws = weyl_group(d)
    for u in ws:
        for v in ws:
            dist = g.d(u, v)
            wt = g.wt_vec(u, v)
            ok = dist <= (u.inverse() * v).length and d.pair_2rho(
                wt
            ) == u.length - v.length + dist
            rep.record(ok, f"d({u!r} => {v!r})={dist}, wt={wt}")

    rng = random.Random(seed)
    for _ in range(n_paths):
        cur = rng.choice(ws)
        path = [cur]
        for _ in range(rng.randrange(1, 5)):
            targets = [t for t, _, _ in g.edges[cur.index]]
            cur = g.vertices[rng.choice(targets)]
            path.append(cur)
        steps, wt = g.path_weight(path)
        ok = d.pair_2rho(_cocoords_to_x(d, wt)) == (
            path[0].length - path[-1].length + steps
        )
        rep.record(ok, f"path {[repr(p) for p in path]}: wt={wt}")

    for w in ws:
        for i in range(d.n_pos):
            r = d.roots[i]
            wt = g.wt(w * reflection(d, i), w)
            bound = (
                r.cocoords
                if w.perm[i] < d.n_pos
                else tuple(0 for _ in r.cocoords)
            )
            ok = all(a <= b for a, b in zip(wt, bound))
            rep.record(
                ok, f"wt({w!r} s_a => {w!r}) = {wt} exceeds bound {bound}"
            )
    return rep


def _cocoords_to_x(d: RootDatum, c: Sequence[int]) -> Vec:
    out = [0] * d.rank
    for i, m in enumerate(c):
        cov = d.roots[d.simple_idx[i]].covec
        for k in range(d.rank):
            out[k] += m * cov[k]
    return tuple(out)


def check_length_additivity(
    d: RootDatum,
    xs: Sequence[AffineElement],
    n_pairs: int = 200,
    seed: int = 0,
) -> CheckReport:
    """l(xx') = l(x) + l(x') iff (w')^{-1} LP(x) meets LP(x'), in which
    case LP(xx') is exactly that intersection."""
    rep = CheckReport("length-additivity")
    rng = random.Random(seed)
    pool = list(xs)
    for _ in range(n_pairs):
        x = rng.choice(pool)
        xp = rng.choice(pool)
        additive = (x * xp).length == x.length + xp.length
        winv = xp.w.inverse()
        inter = {winv * v for v in lp_set(x)} & set(lp_set(xp))
        ok = additive == bool(inter)
        detail = f"{x!r} * {xp!r}: additive={additive}, intersection={inter}"
        if ok and additive and set(lp_set(x * xp)) != inter:
            ok = False
            detail = f"{x!r} * {xp!r}: LP(xx') differs from the intersection"
        rep.record(ok, detail)
    return rep


# ----------------------------------------------------------------------
# battery driver
# ----------------------------------------------------------------------


def run_battery(
    d: RootDatum,
    cap: int,
    box: int = 1,
    interval_budget: int = 200_000,
    n_paths: int = 200,
    n_pairs: int = 200,
    seed: int = 0,
) -> list[CheckReport]:
    """Run every check; the CLI ``verify`` verb prints these reports."""
    xs = scan_elements(d, cap, box)
    oracle_rep, generics = check_oracle_equivalence(d, xs, interval_budget)
    classes = [class_of(x) for x in xs] + list(generics.values())
    return [
        oracle_rep,
        check_own_class_bound(d, xs, generics),
        check_defect_consistency(d, classes),
        check_fundamental_consistency(d, xs),
        check_shrunken_criterion(d, xs, generics),
        check_sign_type_determination(d, xs),
        check_cordial_inequality(d, xs, generics),
        check_qbg_identities(d, n_paths, seed),
        check_length_additivity(d, xs, n_pairs, seed),
    ]


# ----------------------------------------------------------------------
# per-element cross-checks by redundant routes
# ----------------------------------------------------------------------


def gamma_maximum(d: RootDatum, classes: Iterable[GammaClass]) -> GammaClass:
    """The unique maximum under the coinvariant order; raises if the
    maximal elements are not unique."""
    maximal: list[GammaClass] = []
    for c in classes:
        if any(d.leq_gamma(c, m) for m in maximal):
            continue
        maximal = [m for m in maximal if not d.leq_gamma(m, c)]
        maximal.append(c)
    if len(maximal) != 1:
        raise ValueError(f"no unique maximum: {maximal}")
    return maximal[0]


def cross_check_weyl_maximum(x: AffineElement) -> None:
    """The closed forms maximize over LP(x); the maximum over all of W must
    agree.  On plain data every distance minimizer in LP(x) must also give
    the lambda class of the witness."""
    d = x.datum
    weyl = weyl_group(d)
    if d.omega_twist is not None:
        full = dominance_maximum(d, twisted_candidates(x, weyl))
        if full != generic_newton_general(x):
            raise AssertionError(f"Weyl-maximum route disagrees for {x!r}")
        return
    res = generic_lambda(x)
    lam = res.lambda_x
    for v, dist in lp_distances(x):
        if dist == res.d_min and d.gamma_class(candidate_vector(x, v)) != lam:
            raise AssertionError(f"minimizers disagree at {v!r} for {x!r}")
    full = gamma_maximum(
        d, (d.gamma_class(candidate_vector(x, v)) for v in weyl)
    )
    if full != lam:
        raise AssertionError(f"Weyl-maximum route disagrees for {x!r}")


def _j_restricted_newton(x: AffineElement, res: GenericResult) -> QVec:
    """conv via the estimate that only simple roots touching a zero
    functional l(x, v alpha) = 0 can matter."""
    d = x.datum
    j0: set[int] = set()
    for i in _zero_roots(d, x, res.witness_v):
        j0.update(k for k, c in enumerate(d.roots[i].coords) if c != 0)
    while True:
        closure = {d.sigma_perm[i] for i in j0}
        if closure <= j0:
            break
        j0 |= closure
    if not frozenset(res.used_j) <= j0:
        raise AssertionError("conv realizer escapes the zero-set estimate")
    orbits = [o for o in d.sigma_simple_orbits() if o[0] in j0]
    vec = d.avg_sigma(res.lambda_x.lift())
    candidates = []
    for mask in range(1 << len(orbits)):
        j = frozenset(
            i for k, o in enumerate(orbits) if mask & (1 << k) for i in o
        )
        cand = d.avg_J(vec, j)
        if d.is_dominant(cand):
            candidates.append(cand)
    return dominance_maximum(d, candidates)


def cross_check_j_restricted(x: AffineElement) -> None:
    """nu_x recomputed with the convexification restricted to the simple
    roots touching a zero functional at the witness (plain data)."""
    res = generic_lambda(x)
    if _j_restricted_newton(x, res) != res.nu_x:
        raise AssertionError(f"J-restricted route disagrees for {x!r}")


def cross_check_cordial_bound(x: AffineElement) -> None:
    """l(x) - l(v^{-1} sigma(wv)) <= <nu_x, 2 rho> - defect(b_x) at the
    canonical v, with equality iff ``is_cordial`` holds (plain data)."""
    r = is_cordial(x)
    b = generic_class(x)
    lhs = x.length - r.twist_length
    rhs = x.datum.pair_2rho(b.nu) - b.defect
    if lhs > rhs:
        raise AssertionError(f"cordiality upper bound violated at {x!r}")
    if (lhs == rhs) != r.cordial:
        raise AssertionError(f"cordiality routes disagree at {x!r}")


def cross_check_transport(x: AffineElement) -> None:
    """On an Omega-twisted datum, nu_x is nu(x gamma) - avg_W(mu_sigma) on
    the plain datum, and the direct cordiality criterion agrees with its
    definition, cordiality of x gamma."""
    y = transport(x)
    shift = weyl_average(x.datum, x.datum.omega_twist[1])
    if vec_sub(generic_newton(y), shift) != tuple(generic_newton_general(x)):
        raise AssertionError(f"transport route disagrees for {x!r}")
    if is_cordial(y).cordial != is_cordial_general(x).cordial:
        raise AssertionError(
            f"direct criterion disagrees with the definition at {x!r}"
        )


def cross_check(x: AffineElement) -> None:
    """Every cross-check that applies to the datum of x."""
    cross_check_weyl_maximum(x)
    if x.datum.omega_twist is None:
        cross_check_j_restricted(x)
        cross_check_cordial_bound(x)
    else:
        cross_check_transport(x)
