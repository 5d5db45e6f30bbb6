"""Byte-exact CLI outputs on five root data, compared with recorded fixtures.

Each case runs ``affweyl.cli.main`` in-process and compares its standard
output with ``tests/golden/<case>.out``.  The element, scan-cordial and
verify cases are run a second time with ``--test-mode``, which runs the
redundant cross-checks but must not change a byte of the output.

Re-record the fixtures (only when an output change is intended) with::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import json
import os

import pytest

from affweyl.cli import main

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

A2 = [{"type": "A", "rank": 2}]

CONFIGS = {
    "gl3": {"components": A2, "lattice": "gl", "budgets": {"length_cap": 3}},
    "c2": {"components": [{"type": "C", "rank": 2}], "lattice": "sc"},
    "g2": {"components": [{"type": "G", "rank": 2}], "lattice": "sc"},
    "a2flip": {
        "components": A2,
        "lattice": "adjoint",
        "frobenius": {"perm": [2, 1]},
    },
    "a2twist": {
        "components": A2,
        "lattice": "adjoint",
        "frobenius": {"twist": {"sigma1_word": [1, 2], "mu_sigma": [1, 0]}},
    },
}

#: Element expressions per datum; twisted data accept only these verbs.
EXPRS = {
    "gl3": ["s0 s1", "w: s1 s2 ; mu: 2,0,-1"],
    "c2": ["s0 s1 s2", "w: s2 ; mu: 1,-1"],
    "g2": ["s0 s1", "t[1,1] s2 s1"],
    "a2flip": ["s0 s2 s1", "w: s1 ; mu: 1,0"],
    "a2twist": ["s0 s1", "w: s2 ; mu: 0,1"],
}
TWISTED_VERBS = ["lp", "signtype", "gnp", "cordial"]
CAP = "3"


def _cases() -> list[tuple[str, str, list[str], bool]]:
    """(case name, datum, argv after --config, accepts --test-mode)."""
    cases = []
    for name in CONFIGS:
        cases.append((f"{name}-describe", name, ["describe"], False))
        cases.append((f"{name}-describe-json", name, ["describe", "--json"], False))
        verbs = TWISTED_VERBS if name == "a2twist" else []
        for k, expr in enumerate(EXPRS[name]):
            args = ["element", "--expr", expr, *verbs]
            cases.append((f"{name}-element-{k}", name, args, True))
        args = ["scan-cordial", "--cap", CAP]
        cases.append((f"{name}-scan-cordial", name, args, True))
        cases.append((f"{name}-qbg-dot", name, ["qbg-dot"], False))
        if name != "a2twist":
            cases.append((f"{name}-verify", name, ["verify", "--cap", CAP], True))
    return cases


CASES = _cases()


def _argv(config_dir: str, datum: str, args: list[str]) -> list[str]:
    verb, *rest = args
    return [verb, "--config", os.path.join(config_dir, f"{datum}.json"), *rest]


def _write_configs(config_dir: str) -> None:
    for name, config in CONFIGS.items():
        with open(os.path.join(config_dir, f"{name}.json"), "w") as fh:
            json.dump(config, fh)


def _fixture(case: str) -> str:
    with open(os.path.join(GOLDEN_DIR, f"{case}.out"), encoding="utf-8") as fh:
        return fh.read()


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("golden"))
    _write_configs(path)
    return path


@pytest.mark.parametrize(
    "case,datum,args", [c[:3] for c in CASES], ids=[c[0] for c in CASES]
)
def test_output_matches_fixture(capsys, config_dir, case, datum, args):
    assert main(_argv(config_dir, datum, args)) == 0
    assert capsys.readouterr().out == _fixture(case)


TEST_MODE_CASES = [c for c in CASES if c[3]]


@pytest.mark.parametrize(
    "case,datum,args",
    [c[:3] for c in TEST_MODE_CASES],
    ids=[c[0] for c in TEST_MODE_CASES],
)
def test_test_mode_changes_no_byte(capsys, config_dir, case, datum, args):
    assert main(_argv(config_dir, datum, args) + ["--test-mode"]) == 0
    assert capsys.readouterr().out == _fixture(case)


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "--cap", "1", "--jobs", "2"],
        ["describe", "--test-mode"],
        ["qbg-dot", "--test-mode"],
    ],
    ids=["verify-jobs", "describe-test-mode", "qbg-dot-test-mode"],
)
def test_removed_options_are_refused(capsys, config_dir, args):
    with pytest.raises(SystemExit) as exc:
        main(_argv(config_dir, "gl3", args))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def record() -> None:
    """Write every fixture from the current code."""
    import contextlib
    import io
    import tempfile

    os.makedirs(GOLDEN_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory() as config_dir:
        _write_configs(config_dir)
        for case, datum, args, _ in CASES:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(_argv(config_dir, datum, args))
            if code != 0:
                raise SystemExit(f"{case}: exit code {code}")
            path = os.path.join(GOLDEN_DIR, f"{case}.out")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(buf.getvalue())


if __name__ == "__main__":
    record()
