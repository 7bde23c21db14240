"""Command-line contract: output formats, exit codes, determinism, and
round-tripping of printed points."""

import json
import os
import pathlib

import pytest

from bianchiq.cli import main, parse_complex

# a child process imports the package from this checkout, installed or not
CHILD_ENV = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).resolve().parents[1] / "src"))


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestParseComplex:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("1.1i", 1.1j),
            ("0.3+1.4i", 0.3 + 1.4j),
            ("-0.5-2i", -0.5 - 2j),
            ("2", 2 + 0j),
            ("i", 1j),
            ("-i", -1j),
            ("1e-3i", 1e-3j),
            ("-0-0i", complex(-0.0, -0.0)),
            ("+i", 1j),
            ("1e+5i", 1e5j),
            ("5\ti", 5j),
        ],
    )
    def test_literals(self, text, value):
        assert parse_complex(text) == value

    @pytest.mark.parametrize("text,shown", [("-0-0i", "(-0-0j)"), ("0-0i", "-0j"), ("-0+0i", "(-0+0j)")])
    def test_signed_zero_parts(self, text, shown):
        # == does not compare the signs of zeros; repr shows them
        assert repr(parse_complex(text)) == shown

    def test_malformed(self):
        with pytest.raises(ValueError):
            parse_complex("zz")

    @pytest.mark.parametrize("text", ["1+2j", "5J", "(1+2i)"])
    def test_python_spellings_rejected(self, text):
        with pytest.raises(ValueError, match="malformed"):
            parse_complex(text)

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "infi", "nani", "1+nani", "nan+1i", "1e400", "1e400i"])
    def test_non_finite_rejected(self, text):
        with pytest.raises(ValueError, match="finite"):
            parse_complex(text)


class TestExpand:
    def test_g1_text(self, capsys):
        rc, out, _ = run_cli(capsys, "expand", "g1", "--order", "8")
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "0\t1"
        assert lines[1] == "1\t-2"
        assert lines[2] == "2\t4"
        assert lines[3] == "3\t-4"

    def test_j_text(self, capsys):
        rc, out, _ = run_cli(capsys, "expand", "j", "--order", "3")
        assert rc == 0
        assert out.strip().splitlines() == ["-1\t1", "0\t744", "1\t196884", "2\t21493760"]

    def test_phi_json(self, capsys):
        rc, out, _ = run_cli(capsys, "expand", "phi", "--order", "4", "--format", "json")
        assert rc == 0
        obj = json.loads(out)
        assert obj["ram"] == 5
        assert obj["coeffs"][0] == ["1", "1"]
        from fractions import Fraction

        from bianchiq.exact import PuiseuxSeries

        s = PuiseuxSeries.from_json(obj)
        assert s.coefficient(0) == 0  # below valuation
        assert s.valuation() == Fraction(1, 5)

    def test_zero_denominator_order_is_usage_error(self, capsys):
        rc, out, err = run_cli(capsys, "expand", "g1", "--order", "1/0")
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ") and "'1/0'" in err

    @pytest.mark.parametrize("order", ["1/2", "0"])
    def test_order_at_or_below_leading_exponent_is_usage_error(self, capsys, order):
        rc, out, err = run_cli(capsys, "expand", "delta", "--order", order)
        assert rc == 2
        assert out == ""
        assert "1/2" in err and "delta" in err

    @pytest.mark.parametrize("argv", [("expand", "phi", "--order", "1e400"),
                                      ("verify", "sym-e1", "--order", "100000000000000000000")])
    def test_order_past_the_largest_list_size_is_usage_error(self, capsys, argv):
        # past sys.maxsize no coefficient list can be sized, so it fails
        # before one is; it used to end in an OverflowError traceback, exit 1
        rc, out, err = run_cli(capsys, *argv)
        assert rc == 2
        assert out == ""
        assert err.startswith("error: order of ") and err.count("\n") == 1 and "largest list size" in err

    def test_unknown_series(self, capsys):
        rc, _, err = run_cli(capsys, "expand", "zeta")
        assert rc == 2 and "unknown series" in err

    def test_env_var_order(self, capsys, monkeypatch):
        monkeypatch.setenv("BIANCHIQ_ORDER", "5")
        rc, out, _ = run_cli(capsys, "expand", "phi5")
        assert rc == 0
        exps = [line.split("\t")[0] for line in out.strip().splitlines()]
        assert exps == ["1", "2", "3", "4"]

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("BIANCHIQ_ORDER", "3")
        rc, out, _ = run_cli(capsys, "expand", "phi5", "--order", "6")
        assert out.strip().splitlines()[-1].startswith("5\t")

    @pytest.mark.parametrize("argv", [("expand", "phi5"), ("verify", "delta-squared")])
    def test_non_integer_env_order_is_usage_error(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("BIANCHIQ_ORDER", "abc")
        rc, out, err = run_cli(capsys, *argv)
        assert rc == 2
        assert out == ""
        assert "BIANCHIQ_ORDER" in err and "'abc'" in err


class TestVerify:
    def test_single_check(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "delta-squared", "--order", "12")
        assert rc == 0
        rep = json.loads(out)
        assert rep["passed"] == 1 and rep["failed"] == 0
        assert rep["checks"][0]["name"] == "delta-squared"

    def test_unknown_identity_exits_2(self, capsys):
        rc, _, err = run_cli(capsys, "verify", "no-such-identity")
        assert rc == 2

    def test_a_name_given_twice_exits_2(self, capsys):
        rc, out, err = run_cli(capsys, "verify", "sym-e1", "sym-e1", "--order", "12")
        assert rc == 2 and out == ""
        assert "'sym-e1'" in err

    def test_without_names_or_all_exits_2(self, capsys):
        rc, _, err = run_cli(capsys, "verify")
        assert rc == 2

    def test_seeded_rerun_byte_identical(self, capsys):
        args = ("verify", "jacobi-A4", "chain-eq5", "sym-e1",
                "--order", "12", "--samples", "3", "--seed", "7")
        rc1, out1, _ = run_cli(capsys, *args)
        rc2, out2, _ = run_cli(capsys, *args)
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_stdout_has_no_wall_time(self, capsys):
        rc, out, err = run_cli(capsys, "verify", "sym-e1", "--order", "12")
        assert "elapsed" not in out
        assert "elapsed" in err

    def test_text_format(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "sym-e1", "--order", "12", "--format", "text")
        assert rc == 0 and out.startswith("PASS sym-e1")

    def test_failure_exit_code(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "jacobi-A4", "--samples", "2", "--tol", "1e-30")
        assert rc == 1
        assert json.loads(out)["failed"] == 1


class TestPoint:
    def test_two_torsion(self, capsys):
        rc, out, _ = run_cli(capsys, "point", "two-torsion", "--tau", "1.1i")
        assert rc == 0
        obj = json.loads(out)
        assert len(obj["points"]) == 3
        assert all(r < 1e-9 for r in obj["max_quadric_residuals"])

    def test_add_neutral_round_trip(self, capsys):
        rc, out, _ = run_cli(capsys, "point", "two-torsion", "--tau", "1.1i")
        obj = json.loads(out)
        point = json.dumps(obj["points"][0])
        phi = complex(*obj["phi"])
        neutral = json.dumps([[0, 0], [phi.real, phi.imag], [-1, 0], [1, 0], [-phi.real, -phi.imag]])
        rc, out, err = run_cli(capsys, "point", "add", point, neutral, "--tau", "1.1i")
        assert rc == 0
        got = [complex(a, b) for a, b in json.loads(out)]
        want = [complex(a, b) for a, b in json.loads(point)]
        from bianchiq.curve import projective_distance

        assert projective_distance(got, want) < 1e-12

    def test_on_curve_round_trip(self, capsys):
        rc, out, _ = run_cli(capsys, "point", "two-torsion", "--tau", "1.1i")
        obj = json.loads(out)
        for i, pt in enumerate(obj["points"]):
            rc, out2, _ = run_cli(capsys, "point", "on-curve", json.dumps(pt), "--tau", "1.1i")
            assert rc == 0
            got = json.loads(out2)["max_relative"]
            assert abs(got - obj["max_quadric_residuals"][i]) < 1e-12

    def test_double_two_torsion_gives_neutral(self, capsys):
        rc, out, _ = run_cli(capsys, "point", "two-torsion", "--tau", "1.1i")
        obj = json.loads(out)
        phi = complex(*obj["phi"])
        rc, out2, _ = run_cli(capsys, "point", "double", json.dumps(obj["points"][0]), "--tau", "1.1i")
        assert rc == 0
        got = [complex(a, b) for a, b in json.loads(out2)]
        from bianchiq.curve import neutral, projective_distance

        assert projective_distance(got, neutral(phi)) < 1e-9

    OFF_CURVE = json.dumps([[1, 0], [0.3, 0], [0.2, 0], [0.1, 0], [0.4, 0]])

    def test_add_rejects_point_off_curve(self, capsys):
        rc, out, _ = run_cli(capsys, "point", "five-torsion", "--tau", "1.1i")
        on_curve = json.dumps(json.loads(out)["points"][1])
        rc, out, err = run_cli(capsys, "point", "add", on_curve, self.OFF_CURVE, "--tau", "1.1i")
        assert rc == 2 and out == ""
        assert self.OFF_CURVE in err and "not on the curve" in err

    def test_double_rejects_point_off_curve(self, capsys):
        rc, out, err = run_cli(capsys, "point", "double", self.OFF_CURVE, "--tau", "1.1i")
        assert rc == 2 and out == ""
        assert self.OFF_CURVE in err and "not on the curve" in err

    @pytest.mark.parametrize("point", ["[[NaN,0],[0,0],[0,0],[0,0],[0,0]]",
                                       "[[0,0],[0,0],[0,0],[0,0],[0,0]]"])
    def test_double_rejects_non_point(self, capsys, point):
        # a NaN coordinate reads as residual 0, and so does the zero vector
        rc, out, err = run_cli(capsys, "point", "double", point, "--tau", "1.1i")
        assert rc == 2 and out == ""
        assert point in err

    def test_double_accepts_theta_point(self, capsys):
        from bianchiq.curve import max_quadric_residual
        from bianchiq.theta import phi_numeric, theta_vector

        p = theta_vector(0.13 + 0.07j, 1.1j)
        assert max_quadric_residual(p, phi_numeric(1.1j)) < 1e-14
        point = json.dumps([[c.real, c.imag] for c in p])
        rc, out, _ = run_cli(capsys, "point", "double", point, "--tau", "1.1i")
        assert rc == 0
        assert len(json.loads(out)) == 5

    def test_five_torsion_count(self, capsys):
        rc, out, _ = run_cli(capsys, "point", "five-torsion", "--phi", "0.25")
        assert rc == 0
        assert len(json.loads(out)["points"]) == 25

    def test_malformed_point_exits_2(self, capsys):
        rc, _, err = run_cli(capsys, "point", "on-curve", "[1,2]", "--tau", "1.1i")
        assert rc == 2

    @pytest.mark.parametrize("op", ["two-torsion", "five-torsion"])
    def test_torsion_with_a_point_argument_exits_2(self, capsys, op):
        # a torsion op takes no point: one given must not be dropped in silence
        rc, out, err = run_cli(capsys, "point", op, "[[1,0],[0,0],[0,0],[0,0],[0,0]]", "--tau=1.1i")
        assert rc == 2 and out == ""
        assert err.startswith(f"error: {op} takes no point arguments")

    def test_missing_tau_and_phi_exits_2(self, capsys):
        rc, _, _ = run_cli(capsys, "point", "two-torsion")
        assert rc == 2

    def test_tau_and_phi_together_exit_2(self, capsys):
        # one of them would be dropped without a word
        rc, out, err = run_cli(capsys, "point", "two-torsion", "--tau", "1.1i", "--phi", "0.3")
        assert rc == 2 and out == ""
        assert "not allowed with" in err

    @pytest.mark.parametrize("tau", ["0.001i", "0.005i", "0.5+0.001i"])
    def test_cancelled_nullwerte_exit_2(self, capsys, tau):
        # the nullwert sums cancel: at 0.001i the quotient came out as
        # 0.0566+0.0087i, where phi is real and near 1/golden = 0.618
        rc, out, err = run_cli(capsys, "point", "two-torsion", "--tau", tau)
        assert rc == 2 and out == ""
        assert "cancelled" in err and "Im(tau) too small" in err

    def test_small_im_tau_that_keeps_its_digits_passes(self, capsys):
        # predicted errors 2e-13 and 5e-15: phi is printed, and at 0.03i it
        # agrees with its limit 1/golden as tau -> 0 along the imaginary axis
        rc, out, err = run_cli(capsys, "point", "two-torsion", "--tau", "0.03i")
        assert rc == 0 and err == ""
        re, im = json.loads(out)["phi"]
        assert abs(complex(re, im) - (5 ** 0.5 - 1) / 2) < 1e-12
        rc, out, err = run_cli(capsys, "point", "two-torsion", "--tau", "0.37+0.001i")
        assert rc == 0 and err == ""

    def test_large_re_tau_is_reduced_mod_5(self, capsys):
        # phi has period 5 in tau; 1e10 + i used to be refused as cancelled
        rc, out, err = run_cli(capsys, "point", "two-torsion", "--tau=1e10+1i")
        assert rc == 0 and err == ""
        assert run_cli(capsys, "point", "two-torsion", "--tau=1i") == (0, out, "")

    def test_lower_half_plane_exits_2(self, capsys):
        rc, out, err = run_cli(capsys, "point", "two-torsion", "--tau", "-1.1i")
        assert rc == 2 and out == ""
        assert "upper half-plane" in err

    @pytest.mark.parametrize("flag,value", [("--tau", "-0.3+1.1i"), ("--ta", "-0.3+1.1i"),
                                            ("--phi", "-1+0.5i"), ("--ph", "-1+0.5i")])
    def test_value_with_leading_minus_in_either_spelling(self, capsys, flag, value):
        rc, out, err = run_cli(capsys, "point", "two-torsion", flag, value)
        assert rc == 0 and err == ""
        assert run_cli(capsys, "point", "two-torsion", f"{flag}={value}") == (0, out, "")

    @pytest.mark.parametrize("argv", [
        ("two-torsion", "--phi", "nan"),
        ("five-torsion", "--phi", "inf"),
        ("two-torsion", "--tau", "infi"),
        ("five-torsion", "--tau", "0.1+nani"),
    ])
    def test_non_finite_tau_or_phi_exits_2(self, capsys, argv):
        rc, out, err = run_cli(capsys, "point", *argv)
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ") and "finite" in err

    @pytest.mark.parametrize("argv,reason", [
        # theta_2(0, tau) underflows to zero, so phi = -theta_1/theta_2 is undefined
        (("two-torsion", "--tau=1e3i"), "vanished"),
        (("on-curve", "[[1,0],[0,0],[0,0],[0,0],[0,0]]", "--tau=1e3i"), "vanished"),
        # the theta window would exceed its term cap
        (("two-torsion", "--tau=1e-12i"), "exceeds cap"),
        # the quadrics the points are checked against need 1/phi
        (("five-torsion", "--phi", "0"), "division by zero"),
        (("on-curve", "[[1,0],[0,0],[0,0],[0,0],[0,0]]", "--phi", "0"), "1/phi"),
        # phi^3 leaves binary64
        (("two-torsion", "--phi", "1e300"), "exponentiation"),
        # the theta window's half-width overflows binary64, or its term count has 150 digits
        (("five-torsion", "--tau=1e-320i"), "window of half-width inf about n = -0.3 exceeds cap"),
        (("five-torsion", "--tau=1e-300i"), "window of half-width 2.22e+150 about n = -0.3 exceeds cap"),
    ])
    def test_parameter_outside_usable_region_exits_2(self, capsys, argv, reason):
        rc, out, err = run_cli(capsys, "point", *argv)
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ") and reason in err


class TestGroup:
    def test_gamma10(self, capsys):
        rc, out, _ = run_cli(capsys, "group", "Gamma(10)")
        assert rc == 0
        obj = json.loads(out)
        assert obj["genus"] == 13 and obj["cusps"] == 36 and obj["mu"] == 360

    def test_g4(self, capsys):
        rc, out, _ = run_cli(capsys, "group", "G4")
        obj = json.loads(out)
        assert obj["genus"] == 5
        rel = {(r["inner"], r["outer"]): r["index"] for r in obj["relations"]}
        assert rel[("G4", "Gamma(5)")] == 2

    def test_dot(self, capsys):
        rc, out, _ = run_cli(capsys, "group", "--dot")
        assert rc == 0
        assert out.count("->") == 16
        assert out.count("label=") >= 11 + 16

    def test_unknown_group_exits_2(self, capsys):
        rc, _, _ = run_cli(capsys, "group", "Gamma(7)")
        assert rc == 2

    def test_unknown_group_message_is_not_quoted(self, capsys):
        rc, out, err = run_cli(capsys, "group", "Gamma(0)")
        assert rc == 2 and out == ""
        assert err.startswith("unknown group 'Gamma(0)'; known: G1, G2, G3, G4, Gamma(1), ")
        assert err.endswith(", Gamma1(5)\n") and '"' not in err and "[" not in err


class TestList:
    def test_catalog_sections(self, capsys):
        rc, out, _ = run_cli(capsys, "list")
        assert rc == 0
        assert "series:" in out and "identities:" in out and "groups:" in out
        assert "delta-squared" in out and "Gamma(10)" in out


class TestSubprocess:
    def test_console_entrypoint_byte_identical(self):
        # the installed command, through a real process boundary
        import subprocess
        import sys

        cmd = [sys.executable, "-m", "bianchiq", "verify",
               "jacobi-A4", "delta-squared", "--order", "12", "--samples", "3",
               "--seed", "7"]
        r1 = subprocess.run(cmd, capture_output=True, env=CHILD_ENV)
        r2 = subprocess.run(cmd, capture_output=True, env=CHILD_ENV)
        assert r1.returncode == 0 and r2.returncode == 0
        assert r1.stdout == r2.stdout
        assert b"elapsed" in r1.stderr and b"elapsed" not in r1.stdout

    def test_cli_import_does_not_load_numpy(self):
        import subprocess
        import sys

        # a cold start loads neither numpy nor dataclasses (which pulls in
        # inspect), and a numeric check seeds its draws without hashlib
        code = (
            "import sys, bianchiq.cli\n"
            "from bianchiq import congruence, identities\n"
            "congruence.builtin_specs()\n"
            "print(sorted(m for m in ('numpy', 'dataclasses', 'inspect', 'hashlib') if m in sys.modules))\n"
            "identities.run_identity('theta-nullwerte', identities.VerifyConfig(samples=1))\n"
            "print('hashlib' in sys.modules)\n"
        )
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=CHILD_ENV)
        assert r.returncode == 0, r.stderr
        assert r.stdout.splitlines() == ["[]", "False"]

    def test_usage_error_exit_code(self):
        import subprocess
        import sys

        r = subprocess.run([sys.executable, "-m", "bianchiq", "expand"],
                           capture_output=True, env=CHILD_ENV)
        assert r.returncode == 2

    def test_closed_stdout_exits_141_without_traceback(self):
        import subprocess
        import sys

        # the reader goes away before the child has written anything
        p = subprocess.Popen([sys.executable, "-m", "bianchiq", "list"],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=CHILD_ENV)
        p.stdout.close()
        err = p.stderr.read()
        p.stderr.close()
        assert p.wait() == 141
        assert b"Traceback" not in err
