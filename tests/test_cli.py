"""Command line interface: exact output shapes, determinism, exit codes."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from affweyl.cli import main, parse_element, q_str
from affweyl.rootdata import datum


@pytest.fixture(scope="module")
def gl3_config(tmp_path_factory):
    p = tmp_path_factory.mktemp("cfg") / "gl3.json"
    p.write_text(
        json.dumps(
            {
                "components": [{"type": "A", "rank": 2}],
                "lattice": "gl",
                "budgets": {"length_cap": 3},
            }
        )
    )
    return str(p)


@pytest.fixture(scope="module")
def sl2_config(tmp_path_factory):
    p = tmp_path_factory.mktemp("cfg") / "sl2.json"
    p.write_text(
        json.dumps({"components": [{"type": "A", "rank": 1}], "lattice": "sc"})
    )
    return str(p)


@pytest.fixture(scope="module")
def twisted_config(tmp_path_factory):
    p = tmp_path_factory.mktemp("cfg") / "pgl2t.json"
    p.write_text(
        json.dumps(
            {
                "components": [{"type": "A", "rank": 1}],
                "lattice": "adjoint",
                "frobenius": {"twist": {"sigma1_word": [1], "mu_sigma": [1]}},
            }
        )
    )
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture(scope="module")
def gl3():
    return datum("A", 2, "gl")


class TestParseElement:
    def test_named_form(self, gl3):
        x = parse_element(gl3, "w: s1 s2 ; mu: 1,0,-1")
        assert x.w.word == (0, 1) and x.mu == (1, 0, -1)

    def test_pair_form(self, gl3):
        x = parse_element(gl3, "t[1,0,-1] s1 s2")
        assert x.w.word == (0, 1) and x.mu == (1, 0, -1)

    def test_affine_word_form(self, gl3):
        x = parse_element(gl3, "s0 s1")
        assert x.length == 2

    def test_identity_and_s_alias(self, gl3):
        assert parse_element(gl3, "e").length == 0
        sl2 = datum("A", 1, "sc")
        assert parse_element(sl2, "t[1] s").w.word == (0,)

    def test_errors(self, gl3):
        from affweyl.cli import CliError

        for expr in ["", "s3", "t[1] s9", "w: s1 ; mu: 1,2", "q: 1"]:
            with pytest.raises(CliError):
                parse_element(gl3, expr)

    @pytest.mark.parametrize(
        "expr,key",
        [("mu: 1,2,3 ; mu: 0,0,0", "mu"), ("w: s1 ; mu: 0,0,0 ; w: s2", "w")],
        ids=["mu", "w"],
    )
    def test_repeated_key_is_refused(self, capsys, gl3_config, expr, key):
        code, out, err = run(
            capsys, "element", "--config", gl3_config, "--expr", expr, "lp"
        )
        assert code == 2 and out == ""
        assert f"repeated key {key!r}" in err


class TestQStr:
    def test_integers_and_fractions(self):
        from fractions import Fraction

        assert q_str(3) == "3"
        assert q_str(Fraction(1, 2)) == "1/2"
        assert q_str(Fraction(-4, 2)) == "-2"


class TestElementVerb:
    def test_gl3_s0_cordial_exact_shape(self, capsys, gl3_config):
        code, out, _ = run(
            capsys, "element", "--config", gl3_config, "--expr", "s0", "cordial"
        )
        assert code == 0
        payload = json.loads(out)["cordial"]
        assert payload["cordial"] is False
        assert payload["failed"] == "(2)"
        assert payload["d"] == 1
        assert payload["len"] == 3

    def test_gl3_s1_cordial(self, capsys, gl3_config):
        code, out, _ = run(
            capsys, "element", "--config", gl3_config, "--expr", "s1", "cordial"
        )
        assert code == 0
        assert json.loads(out)["cordial"]["cordial"] is True

    def test_sl2_gnp_example(self, capsys, sl2_config):
        code, out, _ = run(
            capsys, "element", "--config", sl2_config, "--expr", "t[1] s", "gnp"
        )
        assert code == 0
        payload = json.loads(out)["gnp"]
        assert payload["nu"] == ["1"]
        assert payload["lambda"] == ["1"]
        assert payload["witness"] == "e"

    def test_all_verbs_default(self, capsys, gl3_config):
        code, out, _ = run(
            capsys, "element", "--config", gl3_config, "--expr", "s0 s1"
        )
        assert code == 0
        payload = json.loads(out)
        for key in ("lp", "signtype", "gnp", "lambda", "defect", "cordial",
                    "vdim", "fundamental"):
            assert key in payload

    def test_rationals_are_strings(self, capsys, gl3_config):
        code, out, _ = run(
            capsys,
            "element", "--config", gl3_config,
            "--expr", "w: s1 ; mu: 0,0,1", "gnp", "vdim",
        )
        assert code == 0
        payload = json.loads(out)
        assert all(isinstance(c, str) for c in payload["gnp"]["nu"])
        assert isinstance(payload["vdim"]["identity"], str)

    def test_unknown_verb(self, capsys, gl3_config):
        code, _, err = run(
            capsys, "element", "--config", gl3_config, "--expr", "e", "bogus"
        )
        assert code == 2
        assert "bogus" in err

    def test_twisted_restrictions(self, capsys, twisted_config):
        code, out, _ = run(
            capsys,
            "element", "--config", twisted_config,
            "--expr", "s1", "gnp", "cordial", "lp", "signtype",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["gnp"]["nu"] == ["1"]
        assert payload["cordial"]["cordial"] is True

        code, _, err = run(
            capsys,
            "element", "--config", twisted_config, "--expr", "s1", "lambda",
        )
        assert code == 2
        assert "lambda" in err


class TestDescribe:
    def test_text(self, capsys, gl3_config):
        code, out, _ = run(capsys, "describe", "--config", gl3_config)
        assert code == 0
        assert "type: A2" in out
        assert "Weyl group order: 6" in out

    def test_python_dash_m(self, capsys, gl3_config):
        import affweyl

        src = os.path.dirname(os.path.dirname(affweyl.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "affweyl", "describe", "--config", gl3_config],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stdout == run(capsys, "describe", "--config", gl3_config)[1]

    def test_json(self, capsys, gl3_config):
        code, out, _ = run(capsys, "describe", "--config", gl3_config, "--json")
        payload = json.loads(out)
        assert payload["rank"] == 3
        assert payload["pi1"] == "Z"
        assert payload["omega_twist"] is None

    def test_twisted_json(self, capsys, twisted_config):
        code, out, _ = run(
            capsys, "describe", "--config", twisted_config, "--json"
        )
        payload = json.loads(out)
        assert payload["omega_twist"] == {
            "sigma1_word": [1],
            "mu_sigma": [1],
        }


class TestVerify:
    def test_pass_and_exit_zero(self, capsys, sl2_config):
        code, out, _ = run(
            capsys, "verify", "--config", sl2_config, "--cap", "4"
        )
        assert code == 0
        assert "VERIFY: PASS" in out
        assert "oracle-equivalence" in out

    def test_refused_on_twisted(self, capsys, twisted_config):
        code, _, err = run(capsys, "verify", "--config", twisted_config)
        assert code == 2
        assert "twist" in err


class TestScansAndDot:
    def test_scan_cordial_deterministic(self, capsys, gl3_config):
        code, out1, _ = run(capsys, "scan-cordial", "--config", gl3_config)
        assert code == 0
        _, out2, _ = run(capsys, "scan-cordial", "--config", gl3_config)
        assert out1 == out2
        header, *rows = out1.strip().splitlines()
        assert header == "w,mu,cordial,d_min,eta_length,shrunken"
        assert rows
        assert all(len(r.split(",")) == 8 for r in rows)  # mu has 3 columns

    def test_scan_cordial_twisted(self, capsys, twisted_config):
        code, out, _ = run(
            capsys, "scan-cordial", "--config", twisted_config, "--cap", "2"
        )
        assert code == 0
        assert "true" in out

    def test_qbg_dot_deterministic(self, capsys, sl2_config):
        code, out1, _ = run(capsys, "qbg-dot", "--config", sl2_config)
        assert code == 0
        _, out2, _ = run(capsys, "qbg-dot", "--config", sl2_config)
        assert out1 == out2
        assert out1.startswith("digraph")


class TestConfigErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "describe", "--config", "/nonexistent.json")
        assert code == 2
        assert "cannot read config" in err

    def test_invalid_json(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        code, _, err = run(capsys, "describe", "--config", str(p))
        assert code == 2
        assert "not valid JSON" in err

    def test_invalid_datum(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"components": [{"type": "Z", "rank": 1}]}))
        code, _, err = run(capsys, "describe", "--config", str(p))
        assert code == 2
        assert "invalid config" in err

    @pytest.mark.parametrize(
        "config,field",
        [
            ({"budgets": [1]}, "config.budgets"),
            ({"components": [{"type": "A", "rank": "x"}]}, "rank"),
            ({"budgets": {"coweight_box": "q"}}, "budgets.coweight_box"),
            ({"budgets": {"coweight_box": -2}}, "budgets.coweight_box"),
            ({"frobenius": [1]}, "config.frobenius"),
            ({"lattice": "adjoint", "frobenius": {"twist": [1]}},
             "frobenius.twist"),
            ({"lattice": "adjoint",
              "frobenius": {"twist": {"sigma1_word": ["a"], "mu_sigma": [1]}}},
             "twist.sigma1_word"),
            ({"lattice": "adjoint",
              "frobenius": {"twist": {"sigma1_word": [1], "mu_sigma": 5}}},
             "twist.mu_sigma"),
            ({"lattice": "custom", "lattice_basis": [["a"]]}, "lattice_basis"),
            ({"lattice": "custom", "lattice_basis": 5}, "lattice_basis"),
        ],
        ids=[
            "budgets-not-object", "rank-not-integer", "budget-not-integer",
            "budget-negative",
            "frobenius-not-object", "twist-not-object", "twist-word",
            "twist-mu", "basis-entry", "basis-not-list",
        ],
    )
    def test_bad_field_is_named(self, capsys, tmp_path, config, field):
        p = tmp_path / "bad.json"
        p.write_text(
            json.dumps({"components": [{"type": "A", "rank": 1}], **config})
        )
        code, _, err = run(capsys, "verify", "--config", str(p), "--cap", "1")
        assert code == 2
        assert err.startswith("error: invalid config: ")
        assert field in err
