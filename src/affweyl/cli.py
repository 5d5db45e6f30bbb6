"""Command line surface for the library.

Verbs
-----
* ``describe``     -- rank, Weyl order, Frobenius orbits, fundamental group.
* ``element``      -- invariants of one element given by ``--expr``.
* ``verify``       -- run the oracle/property battery; exit 0 iff all pass.
* ``scan-cordial`` -- CSV of the cordiality diagnostics up to a length cap.
* ``qbg-dot``      -- the quantum Bruhat graph as Graphviz DOT.

Element expressions (``--expr``) come in three forms:

* ``"w: s1 s2 ; mu: 1,0,-1"``  -- finite word and translation part named;
* ``"t[1,0,-1] s1 s2"``        -- the same pair, translation first;
* ``"s0 s1"``                  -- a word in the affine simple reflections
  (``s0`` is the affine node; ``s0.c`` that of component ``c``).

``s`` alone abbreviates ``s1`` and ``e`` is the identity.  Coweights are
given in the coordinates of the chosen lattice basis.  All rational output
is rendered as ``"p/q"`` strings; coweights are printed both in the lattice
basis and (when they lie in the rational coroot span) in simple-coroot
coordinates.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import affine as af
from .affine import AffineElement
from .conjclass import identity_class, kottwitz_point
from .generic import (
    generic_class,
    generic_class_general,
    generic_lambda,
    is_cordial,
    is_cordial_general,
)
from .qbg import QBGraph
from .rootdata import Budgets, RootDatum
from .verify import cross_check, run_battery, scan_elements
from .weyl import from_word, weyl_group


class CliError(Exception):
    """User-facing error: bad config, expression or verb combination."""


# ----------------------------------------------------------------------
# parsing and rendering helpers
# ----------------------------------------------------------------------


def load_config(path: str) -> tuple[RootDatum, Budgets]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"config {path} is not valid JSON: {exc}") from exc
    try:
        return RootDatum.from_config(config), Budgets.from_config(config)
    except ValueError as exc:
        raise CliError(f"invalid config: {exc}") from exc


def _finite_generator(d: RootDatum, token: str) -> int:
    if token == "s":
        token = "s1"
    if not token.startswith("s") or not token[1:].isdigit():
        raise CliError(f"bad generator {token!r} (expected s1..s{d.ss_rank})")
    k = int(token[1:])
    if not 1 <= k <= d.ss_rank:
        raise CliError(f"generator {token!r} out of range 1..{d.ss_rank}")
    return k - 1


def _affine_generator(d: RootDatum, token: str) -> int:
    if token == "s0":
        return d.ss_rank
    if token.startswith("s0."):
        comp = token[3:]
        if comp.isdigit() and int(comp) < len(d.components):
            return d.ss_rank + int(comp)
        raise CliError(f"bad affine generator {token!r}")
    return _finite_generator(d, token)


def _resolve_cap(cap: Optional[int], budgets: Budgets) -> int:
    cap = cap if cap is not None else budgets.length_cap
    if cap < 0:
        raise CliError(f"--cap must be >= 0, got {cap}")
    return cap


def _parse_coords(d: RootDatum, text: str) -> tuple[int, ...]:
    try:
        mu = tuple(int(c) for c in text.split(","))
    except ValueError as exc:
        raise CliError(f"bad coweight {text!r}: {exc}") from exc
    if len(mu) != d.rank:
        raise CliError(
            f"coweight {text!r} has {len(mu)} coordinates, expected {d.rank}"
        )
    return mu


def parse_element(d: RootDatum, expr: str) -> AffineElement:
    """Parse the three element-expression forms described in the module
    docstring."""
    expr = expr.strip()
    if not expr:
        raise CliError("empty element expression")

    if ";" in expr or ":" in expr:
        word: list[int] = []
        mu: Optional[tuple[int, ...]] = None
        seen: set[str] = set()
        for segment in expr.split(";"):
            segment = segment.strip()
            if not segment:
                continue
            key, sep, value = segment.partition(":")
            if not sep:
                raise CliError(f"bad segment {segment!r} (expected key: value)")
            key = key.strip()
            if key in seen:
                raise CliError(f"repeated key {key!r} in element expression")
            seen.add(key)
            if key == "w":
                word = [
                    _finite_generator(d, t) for t in value.split()
                ]
            elif key == "mu":
                mu = _parse_coords(d, value.strip())
            else:
                raise CliError(f"unknown key {key!r} (expected w or mu)")
        return af.from_parts(
            from_word(d, word), mu if mu is not None else (0,) * d.rank
        )

    tokens = expr.split()
    if tokens[0].startswith("t[") and tokens[0].endswith("]"):
        mu = _parse_coords(d, tokens[0][2:-1])
        word = [_finite_generator(d, t) for t in tokens[1:]]
        return af.from_parts(from_word(d, word), mu)

    if tokens == ["e"]:
        return af.affine_identity(d)
    x = af.affine_identity(d)
    for t in tokens:
        x = x * af.affine_simple_reflection(d, _affine_generator(d, t))
    return x


def q_str(value) -> str:
    f = Fraction(value)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def vec_strs(vec: Sequence) -> list[str]:
    return [q_str(c) for c in vec]


def coweight_json(d: RootDatum, vec: Sequence) -> dict:
    """A coweight in the lattice basis, plus simple-coroot coordinates when
    it lies in the rational span of the coroots."""
    out = {"lattice": vec_strs(vec)}
    cc = d.coroot_coords(tuple(Fraction(c) for c in vec))
    if cc is not None:
        out["coroot"] = vec_strs(cc)
    return out


def _dump(obj) -> str:
    return json.dumps(obj, indent=2)


# ----------------------------------------------------------------------
# element verbs
# ----------------------------------------------------------------------

ELEMENT_VERBS = (
    "lp",
    "signtype",
    "gnp",
    "lambda",
    "defect",
    "cordial",
    "vdim",
    "fundamental",
)

_TWISTED_VERBS = ("lp", "signtype", "gnp", "cordial")


def _verb_lp(x: AffineElement) -> dict:
    elements = sorted(af.lp_set(x), key=lambda v: (v.length, v.word))
    return {
        "canonical": repr(af.canonical_lp(x)),
        "elements": [repr(v) for v in elements],
    }


def _verb_signtype(x: AffineElement) -> dict:
    d = x.datum
    signs = x.sign_type()
    return {
        "signs": [
            {"root": list(d.roots[i].coords), "sign": signs[i]}
            for i in range(d.n_pos)
        ],
        "shrunken": x.is_shrunken(),
    }


def _verb_gnp(x: AffineElement) -> dict:
    d = x.datum
    if d.omega_twist is not None:
        b = generic_class_general(x)
        out = {"nu": vec_strs(b.nu), "kappa": list(b.kappa)}
        out.update(
            {f"nu_{k}": v for k, v in coweight_json(d, b.nu).items() if k != "lattice"}
        )
        return out
    res = generic_lambda(x)
    lam = res.lambda_x.lift()
    out = {
        "nu": vec_strs(res.nu_x),
        "lambda": vec_strs(lam),
        "witness": repr(res.witness_v),
        "d_min": res.d_min,
        "used_J": [i + 1 for i in res.used_j],
        "kappa": list(kottwitz_point(x)),
    }
    nu_cc = d.coroot_coords(res.nu_x)
    if nu_cc is not None:
        out["nu_coroot"] = vec_strs(nu_cc)
    lam_cc = d.coroot_coords(tuple(Fraction(c) for c in lam))
    if lam_cc is not None:
        out["lambda_coroot"] = vec_strs(lam_cc)
    return out


def _verb_lambda(x: AffineElement) -> dict:
    res = generic_lambda(x)
    lam = res.lambda_x.lift()
    out = {"lambda": vec_strs(lam)}
    cc = x.datum.coroot_coords(tuple(Fraction(c) for c in lam))
    if cc is not None:
        out["lambda_coroot"] = vec_strs(cc)
    return out


def _verb_defect(x: AffineElement) -> dict:
    b = generic_class(x)
    return {
        "defect": b.defect,
        "j1": [i + 1 for i in sorted(b.j1)],
        "j2": [i + 1 for i in sorted(b.j2)],
    }


def _verb_cordial(x: AffineElement) -> dict:
    if x.datum.omega_twist is not None:
        r = is_cordial_general(x)
    else:
        r = is_cordial(x)
    return {
        "cordial": r.cordial,
        "failed": r.failed,
        "d": r.d_min,
        "len": r.twist_length,
        "witness": repr(r.witness_v),
    }


def _verb_vdim(x: AffineElement) -> dict:
    return {
        "identity": q_str(af.virtual_dimension(x, identity_class(x.datum))),
        "generic": q_str(af.virtual_dimension(x, generic_class(x))),
    }


def _verb_fundamental(x: AffineElement) -> dict:
    return {"fundamental": af.is_fundamental(x)}


_VERB_TABLE = {
    "lp": _verb_lp,
    "signtype": _verb_signtype,
    "gnp": _verb_gnp,
    "lambda": _verb_lambda,
    "defect": _verb_defect,
    "cordial": _verb_cordial,
    "vdim": _verb_vdim,
    "fundamental": _verb_fundamental,
}


def cmd_element(
    d: RootDatum, expr: str, verbs: Sequence[str], test_mode: bool
) -> str:
    """The JSON report of ``verbs`` on one element; ``test_mode`` first
    runs the cross-checks of ``verify.cross_check`` on it."""
    unknown = [v for v in verbs if v not in _VERB_TABLE]
    if unknown:
        raise CliError(
            f"unknown verbs {unknown} (choose from {', '.join(ELEMENT_VERBS)})"
        )
    x = parse_element(d, expr)
    if d.omega_twist is not None:
        bad = [v for v in verbs if v not in _TWISTED_VERBS]
        if bad:
            raise CliError(
                f"verbs {bad} are not available on Omega-twisted data "
                f"(supported: {', '.join(_TWISTED_VERBS)})"
            )
    if test_mode:
        cross_check(x)
    out = {"element": repr(x), "length": x.length}
    for verb in verbs:
        out[verb] = _VERB_TABLE[verb](x)
    return _dump(out)


# ----------------------------------------------------------------------
# other verbs
# ----------------------------------------------------------------------


def cmd_describe(d: RootDatum, as_json: bool) -> str:
    orbits = [
        tuple(i + 1 for i in o) for o in d.sigma_simple_orbits()
    ]
    info = {
        "type": d.type_string(),
        "lattice": d.lattice,
        "rank": d.rank,
        "semisimple_rank": d.ss_rank,
        "positive_roots": d.n_pos,
        "weyl_order": len(weyl_group(d)),
        "sigma_order": d.sigma_order,
        "sigma_orbits": [list(o) for o in orbits],
        "pi1": d.coroot_quotient.describe(),
        "pi1_sigma_coinvariants": d.pi1_quotient.describe(),
        "omega_twist": (
            None
            if d.omega_twist is None
            else {
                "sigma1_word": [i + 1 for i in d.omega_twist[0]],
                "mu_sigma": list(d.omega_twist[1]),
            }
        ),
    }
    if as_json:
        return _dump(info)
    lines = [
        f"type: {info['type']}",
        f"lattice: {info['lattice']} (rank {info['rank']})",
        f"semisimple rank: {info['semisimple_rank']}",
        f"positive roots: {info['positive_roots']}",
        f"Weyl group order: {info['weyl_order']}",
        "sigma: order {}, orbits {}".format(
            info["sigma_order"],
            " ".join("(" + " ".join(map(str, o)) + ")" for o in orbits),
        ),
        f"pi1: {info['pi1']}",
        f"pi1 sigma-coinvariants: {info['pi1_sigma_coinvariants']}",
        "omega twist: "
        + (
            "none"
            if info["omega_twist"] is None
            else "sigma1 = {}, mu_sigma = {}".format(
                " ".join(f"s{i}" for i in info["omega_twist"]["sigma1_word"])
                or "e",
                ",".join(map(str, info["omega_twist"]["mu_sigma"])),
            )
        ),
    ]
    return "\n".join(lines)


def cmd_verify(
    d: RootDatum, budgets: Budgets, cap: Optional[int], test_mode: bool
) -> tuple[str, int]:
    """The battery's report and exit code; ``test_mode`` first runs the
    cross-checks on every scanned element."""
    if d.omega_twist is not None:
        raise CliError(
            "verify runs on plain data; drop the twist and use the "
            "transport identities for twisted forms"
        )
    cap = _resolve_cap(cap, budgets)
    if test_mode:
        for x in scan_elements(d, cap, budgets.coweight_box):
            cross_check(x)
    reports = run_battery(
        d,
        cap,
        box=budgets.coweight_box,
        interval_budget=budgets.max_interval_size,
    )
    lines = [r.summary() for r in reports]
    failures = sum(r.failed for r in reports)
    checks = sum(r.checked for r in reports)
    if failures:
        lines.append(f"VERIFY: FAIL ({failures} of {checks} assertions)")
        return "\n".join(lines), 1
    lines.append(
        f"VERIFY: PASS ({len(reports)} checks, {checks} assertions)"
    )
    return "\n".join(lines), 0


def cmd_scan_cordial(
    d: RootDatum, budgets: Budgets, cap: Optional[int], test_mode: bool
) -> str:
    """The cordiality CSV; ``test_mode`` runs the cross-checks on every
    row's element."""
    cap = _resolve_cap(cap, budgets)
    xs = scan_elements(d, cap, box=budgets.coweight_box)
    xs.sort(key=lambda x: (x.length, x.w.word, x.mu))
    buf = []
    for x in xs:
        if test_mode:
            cross_check(x)
        if d.omega_twist is not None:
            r = is_cordial_general(x)
        else:
            r = is_cordial(x)
        buf.append(
            (
                repr(x.w),
                ",".join(str(c) for c in x.mu),
                "true" if r.cordial else "false",
                r.d_min,
                r.twist_length,
                "true" if x.is_shrunken() else "false",
            )
        )
    out = []
    writer = csv.writer(_ListWriter(out), lineterminator="\n")
    writer.writerow(["w", "mu", "cordial", "d_min", "eta_length", "shrunken"])
    writer.writerows(buf)
    return "".join(out).rstrip("\n")


class _ListWriter:
    def __init__(self, sink: list):
        self.sink = sink

    def write(self, text: str) -> None:
        self.sink.append(text)


def cmd_qbg_dot(d: RootDatum) -> str:
    return QBGraph.of(d).to_dot()


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affweyl",
        description="Generic Newton points, lambda invariants and "
        "cordiality in extended affine Weyl groups.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, cap=False, cross_checks=False, expr=False):
        p.add_argument("--config", required=True, help="root datum JSON file")
        if cross_checks:
            p.add_argument(
                "--test-mode",
                action="store_true",
                help="also run the redundant cross-checks on every element",
            )
        if cap:
            p.add_argument("--cap", type=int, help="length cap for the scan")
        if expr:
            p.add_argument("--expr", required=True, help="element expression")

    p = sub.add_parser("describe", help="summarize the root datum")
    common(p)
    p.add_argument("--json", action="store_true", help="emit JSON")

    p = sub.add_parser("element", help="invariants of one element")
    common(p, cross_checks=True, expr=True)
    p.add_argument(
        "verbs",
        nargs="*",
        metavar="verb",
        help=f"subset of {', '.join(ELEMENT_VERBS)} (default: all)",
    )
    p.add_argument("--json", action="store_true", help="emit JSON (default)")

    p = sub.add_parser("verify", help="run the oracle/property battery")
    common(p, cap=True, cross_checks=True)

    p = sub.add_parser("scan-cordial", help="cordiality diagnostics as CSV")
    common(p, cap=True, cross_checks=True)
    p.add_argument("--csv", action="store_true", help="emit CSV (default)")

    p = sub.add_parser("qbg-dot", help="quantum Bruhat graph as DOT")
    common(p)
    p.add_argument("--dot", action="store_true", help="emit DOT (default)")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        d, budgets = load_config(args.config)
        if args.verb == "describe":
            print(cmd_describe(d, args.json))
        elif args.verb == "element":
            verbs = list(dict.fromkeys(args.verbs)) or list(ELEMENT_VERBS)
            print(cmd_element(d, args.expr, verbs, args.test_mode))
        elif args.verb == "verify":
            text, code = cmd_verify(d, budgets, args.cap, args.test_mode)
            print(text)
            return code
        elif args.verb == "scan-cordial":
            print(cmd_scan_cordial(d, budgets, args.cap, args.test_mode))
        elif args.verb == "qbg-dot":
            print(cmd_qbg_dot(d))
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover - module execution hook
    sys.exit(main())
