import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from sympy import legendre_symbol, nextprime

import dpip
from dpip.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decide_nonprincipal(capsys, fixtures_dir):
    code, out, _ = run(
        capsys,
        "decide",
        "--field", str(fixtures_dir / "field_qsqrtm5.json"),
        "--advice", str(fixtures_dir / "advice_qsqrtm5.json"),
        "--ideal", str(fixtures_dir / "ideal_qsqrtm5_ramified2.json"),
    )
    assert code == 1
    assert "verdict: No" in out
    assert "witness_prime: (2, 1 + θ)" in out


def test_decide_principal(capsys, fixtures_dir):
    code, out, _ = run(
        capsys,
        "decide",
        "--field", str(fixtures_dir / "field_qsqrtm5.json"),
        "--advice", str(fixtures_dir / "advice_qsqrtm5.json"),
        "--ideal", str(fixtures_dir / "ideal_qsqrtm5_3pt.json"),
        "--seed", "7",
    )
    assert code == 0
    assert "verdict: Yes" in out


def test_decide_zeta180_unit(capsys, fixtures_dir):
    code, out, _ = run(
        capsys,
        "decide",
        "--field", str(fixtures_dir / "field_zeta180.json"),
        "--advice", str(fixtures_dir / "advice_zeta180.json"),
        "--ideal", str(fixtures_dir / "ideal_zeta180_onepz.json"),
        "-B", "3",
    )
    assert code == 0
    assert "verdict: Yes" in out


# a fresh interpreter runs `dpip decide` and reports which of these it imported
_COLD_DECIDE = (
    "import sys\n"
    "from dpip.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "heavy = ('sympy', 'mpmath', 'concurrent.futures')\n"
    "print(*[m for m in heavy if m in sys.modules], file=sys.stderr)\n"
    "sys.exit(code)\n"
)


def _cold_decide(fixtures_dir, field, advice, ideal, *extra):
    src = str(Path(dpip.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = [
        "decide",
        "--field", str(fixtures_dir / field),
        "--advice", str(fixtures_dir / advice),
        "--ideal", str(fixtures_dir / ideal),
        *extra,
    ]
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_DECIDE, *argv],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr.split()


def test_cold_decide_in_a_cyclotomic_field_imports_no_sympy(fixtures_dir):
    # the output is the one recorded before the decision path left sympy
    code, out, heavy = _cold_decide(
        fixtures_dir, "field_zeta180.json", "advice_zeta180.json", "ideal_zeta180_onepz.json"
    )
    assert (code, heavy) == (0, [])
    assert out == (
        "verdict: Yes\n"
        "reason: all-split\n"
        "switches_used: 15\n"
        "witness_prime: (147776366078658529705218417195345244976976114609761814095622921117"
        "656005527893112335281, 7646555733569761599203503686986438397238082180135683365289144"
        "8584875158821199303150980 + θ)\n"
    )


def test_cold_decide_in_a_quadratic_field_still_imports_sympy(fixtures_dir):
    code, out, heavy = _cold_decide(
        fixtures_dir,
        "field_qsqrtm5.json",
        "advice_qsqrtm5.json",
        "ideal_qsqrtm5_3pt.json",
        "--seed", "7",
    )
    assert code == 0 and "sympy" in heavy
    assert out == "verdict: Yes\nreason: all-split\nswitches_used: 22\nwitness_prime: (1321, 1232 + θ)\n"


def test_decide_field_advice_mismatch(capsys, fixtures_dir):
    code, _, err = run(
        capsys,
        "decide",
        "--field", str(fixtures_dir / "field_zeta64.json"),
        "--advice", str(fixtures_dir / "advice_qsqrtm5.json"),
        "--ideal", str(fixtures_dir / "ideal_qsqrtm5_3pt.json"),
    )
    assert code == 2
    assert "different field" in err


def test_decide_deterministic_output(capsys, fixtures_dir):
    args = (
        "decide",
        "--field", str(fixtures_dir / "field_qsqrtm5.json"),
        "--advice", str(fixtures_dir / "advice_qsqrtm5.json"),
        "--ideal", str(fixtures_dir / "ideal_qsqrtm5_3pt.json"),
        "--seed", "42",
    )
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert (code1, out1) == (code2, out2)


def test_factor_prime(capsys, fixtures_dir):
    code, out, _ = run(
        capsys,
        "factor-prime",
        "--field", str(fixtures_dir / "field_qsqrtm5.json"),
        "-p", "2",
    )
    assert code == 0
    assert out.strip() == "(2) = (2, 1 + θ)^2"


def test_factor_prime_split(capsys, fixtures_dir):
    code, out, _ = run(
        capsys,
        "factor-prime",
        "--field", str(fixtures_dir / "field_qsqrtm5.json"),
        "-p", "3",
    )
    assert code == 0
    assert out.strip() == "(3) = (3, 1 + θ) * (3, 2 + θ)"


def test_factor_prime_at_a_128_bit_prime(capsys, fixtures_dir):
    # (-20/p) = 1: two degree-one primes (p, c + θ) with c^2 = -5 mod p;
    # (-20/p) = -1: p stays prime
    seen = set()
    p = 2**127
    while len(seen) < 2:
        p = nextprime(p)
        symbol = legendre_symbol(-20 % p, p)
        code, out, _ = run(
            capsys,
            "factor-prime",
            "--field", str(fixtures_dir / "field_qsqrtm5.json"),
            "-p", str(p),
        )
        assert code == 0
        if symbol == 1:
            split = re.fullmatch(rf"\({p}\) = \({p}, (\d+) \+ θ\) \* \({p}, (\d+) \+ θ\)", out.strip())
            c1, c2 = map(int, split.groups())
            assert c1 < c2 < p and (c1 * c1 + 5) % p == (c2 * c2 + 5) % p == 0
        else:
            assert out.strip() == f"({p}) = ({p}, 5 + θ^2)"
        seen.add(symbol)


def test_factor_prime_past_the_float_range_is_an_input_error(capsys, fixtures_dir):
    # the first prime above 2^1024 that does not split in Q(zeta_180) would
    # go to sympy, whose random polynomials overflow a float there
    p = nextprime(2**1024)
    while p % 180 == 1:
        p = nextprime(p)
    code, out, err = run(
        capsys, "factor-prime", "--field", str(fixtures_dir / "field_zeta180.json"), "-p", str(p)
    )
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "2^1024" in err and err.count("\n") == 1


def test_factor_prime_rejects_composites(capsys, fixtures_dir):
    code, _, err = run(
        capsys,
        "factor-prime",
        "--field", str(fixtures_dir / "field_qsqrtm5.json"),
        "-p", "6",
    )
    assert code == 2
    assert "not prime" in err


def test_precompute_quad_roundtrips(capsys, tmp_path, fixtures_dir):
    out_path = tmp_path / "advice.json"
    code, _, _ = run(capsys, "precompute-quad", "-d", "5", "--output", str(out_path))
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["subfields"][0]["q"] == 2
    # x^2 + 1
    assert data["subfields"][0]["poly"] == [["1", "0"], ["0", "0"], ["1", "0"]]
    assert data["S"] == []
    # the written file is accepted by advice-check and usable by decide
    code, out, _ = run(capsys, "advice-check", "--advice", str(out_path))
    assert code == 0 and out.startswith("ok:")
    code, out, _ = run(
        capsys,
        "decide",
        "--field", str(fixtures_dir / "field_qsqrtm5.json"),
        "--advice", str(out_path),
        "--ideal", str(fixtures_dir / "ideal_qsqrtm5_ramified2.json"),
    )
    assert code == 1


def test_precompute_quad_nonelementary(capsys):
    code, _, err = run(capsys, "precompute-quad", "--disc", "-23")
    assert code == 2
    assert "order > 2" in err


def test_precompute_quad_gives_up_on_a_large_discriminant():
    # a subprocess with a timeout, so that a hang fails instead of stalling
    src = str(Path(dpip.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "dpip.cli", "precompute-quad", "-d", "1000000000000000000000000000057"],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("gave up:") and proc.stderr.count("\n") == 1


def test_advice_check_tampered(capsys, tmp_path, fixtures_dir):
    data = json.loads((fixtures_dir / "advice_qsqrtm5.json").read_text())
    data["disc_cache"][0][0] = "-8"
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(data))
    code, _, err = run(capsys, "advice-check", "--advice", str(bad))
    assert code == 2
    assert "disc_cache" in err


def test_zero_discriminant_advice_is_refused(capsys, tmp_path, fixtures_dir):
    # x^2 - 2x + 1 used to pass advice-check and then answer No on (3 + 2θ),
    # of prime norm 29, which the genuine advice answers Yes
    data = json.loads((fixtures_dir / "advice_qsqrtm5.json").read_text())
    data["subfields"][0]["poly"] = [["1", "0"], ["-2", "0"], ["1", "0"]]
    data["disc_cache"] = [["0", "0"]]
    bad = tmp_path / "zero_disc.json"
    bad.write_text(json.dumps(data))
    ideal = tmp_path / "ideal.json"
    ideal.write_text(json.dumps({"generators": [["3", "2"]]}))
    code, _, err = run(capsys, "advice-check", "--advice", str(bad))
    assert code == 2
    assert "vanishing discriminant" in err
    field = str(fixtures_dir / "field_qsqrtm5.json")
    code, out, err = run(capsys, "decide", "--field", field, "--advice", str(bad), "--ideal", str(ideal))
    assert code == 2
    assert "verdict" not in out and "vanishing discriminant" in err
    good = str(fixtures_dir / "advice_qsqrtm5.json")
    code, out, _ = run(capsys, "decide", "--field", field, "--advice", good, "--ideal", str(ideal))
    assert code == 0
    assert "verdict: Yes" in out


def test_reducible_kummer_advice_is_refused(capsys, tmp_path, fixtures_dir):
    # x^2 - 1 and x^2 - x - 2 = (x - 2)(x + 1) split modulo every prime, so
    # they used to pass advice-check and then answer Yes on the non-principal
    # (3, 1 + theta) and (7, 3 + theta)
    field = str(fixtures_dir / "field_qsqrtm5.json")
    good = str(fixtures_dir / "advice_qsqrtm5.json")
    cases = (
        ([["-1", "0"], ["0", "0"], ["1", "0"]], ["4", "0"], [["3", "0"], ["1", "1"]]),
        ([["-2", "0"], ["-1", "0"], ["1", "0"]], ["9", "0"], [["7", "0"], ["3", "1"]]),
    )
    for poly, disc, gens in cases:
        data = json.loads((fixtures_dir / "advice_qsqrtm5.json").read_text())
        data["subfields"][0]["poly"] = poly
        data["disc_cache"] = [disc]
        bad = tmp_path / "reducible.json"
        bad.write_text(json.dumps(data))
        ideal = tmp_path / "ideal.json"
        ideal.write_text(json.dumps({"generators": gens}))
        code, _, err = run(capsys, "advice-check", "--advice", str(bad))
        assert code == 2
        assert "irreducible" in err
        decide = ("decide", "--field", field, "--ideal", str(ideal), "--advice")
        code, out, err = run(capsys, *decide, str(bad))
        assert code == 2
        assert "verdict" not in out and "irreducible" in err
        code, out, _ = run(capsys, *decide, good)
        assert code == 1
        assert "verdict: No" in out


def test_oracle_quad(capsys, fixtures_dir):
    code, out, _ = run(
        capsys,
        "oracle-quad",
        "--field", str(fixtures_dir / "field_qsqrtm5.json"),
        "--ideal", str(fixtures_dir / "ideal_qsqrtm5_ramified2.json"),
    )
    assert code == 1
    assert out.strip() == "principal: no"
    code, out, _ = run(
        capsys,
        "oracle-quad",
        "--field", str(fixtures_dir / "field_qsqrtm5.json"),
        "--ideal", str(fixtures_dir / "ideal_qsqrtm5_3pt.json"),
    )
    assert code == 0
    assert out.strip() == "principal: yes"


def test_switch_stats_csv(capsys, tmp_path, fixtures_dir):
    out_path = tmp_path / "stats.csv"
    code, _, _ = run(
        capsys,
        "switch-stats",
        "--field", str(fixtures_dir / "field_qsqrtm5.json"),
        "--ideal", str(fixtures_dir / "ideal_qsqrtm5_ramified2.json"),
        "--bounds", "3,6",
        "--trials", "10",
        "--seed", "3",
        "--output", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "bound_B,trials,mean_switches,prime_fraction,seed"
    assert len(lines) == 3


def test_switch_stats_seed_stability(capsys, fixtures_dir):
    args = (
        "switch-stats",
        "--field", str(fixtures_dir / "field_qsqrtm5.json"),
        "--ideal", str(fixtures_dir / "ideal_qsqrtm5_ramified2.json"),
        "--bounds", "4",
        "--trials", "8",
        "--seed", "5",
    )
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_decide_gave_up_exit_code(capsys, tmp_path, fixtures_dir):
    # (2) is not prime; with a one-trial budget some seed must give up
    two = tmp_path / "two.json"
    two.write_text(json.dumps({"generators": [["2", "0"]]}))
    for seed in range(100):
        code, out, err = run(
            capsys,
            "decide",
            "--field", str(fixtures_dir / "field_qsqrtm5.json"),
            "--advice", str(fixtures_dir / "advice_qsqrtm5.json"),
            "--ideal", str(two),
            "-B", "2",
            "--max-trials", "1",
            "--seed", str(seed),
        )
        if code == 3:
            assert "gave up" in out or "gave up" in err
            break
        assert code == 0
    else:
        pytest.fail("no seed exhausted the one-trial budget")


def test_decide_zero_trial_budget_is_an_error(capsys, tmp_path, fixtures_dir):
    # 0 used to fall back to the 64*d default; now it is refused like -1
    two = tmp_path / "two.json"
    two.write_text(json.dumps({"generators": [["2", "0"]]}))
    for budget in ("0", "-1"):
        code, _, err = run(
            capsys,
            "decide",
            "--field", str(fixtures_dir / "field_qsqrtm5.json"),
            "--advice", str(fixtures_dir / "advice_qsqrtm5.json"),
            "--ideal", str(two),
            "--max-trials", budget,
        )
        assert code == 2
        assert "max_trials must be at least 1" in err


def test_switch_stats_bad_jobs_is_an_error(capsys, fixtures_dir):
    for jobs in ("0", "-1"):
        code, _, err = run(
            capsys,
            "switch-stats",
            "--field", str(fixtures_dir / "field_qsqrtm5.json"),
            "--ideal", str(fixtures_dir / "ideal_qsqrtm5_ramified2.json"),
            "--trials", "2",
            "--jobs", jobs,
        )
        assert code == 2
        assert "jobs must be at least 1" in err


def test_switch_stats_with_no_bound_is_an_error(capsys, fixtures_dir):
    for bounds in (",", ",,", ""):
        code, out, err = run(
            capsys,
            "switch-stats",
            "--field", str(fixtures_dir / "field_qsqrtm5.json"),
            "--ideal", str(fixtures_dir / "ideal_qsqrtm5_ramified2.json"),
            "--trials", "2",
            "--bounds", bounds,
        )
        assert code == 2
        assert out == ""
        assert "at least one bound is required" in err


def test_decide_non_invertible_ideal_is_an_error(capsys, tmp_path):
    # in Z[sqrt 5], (2, 1 + theta) * (a prime above 11) has no inverse
    from dpip.advice import advice_to_dict, build_advice
    from dpip.nf import Ideal, NumberField, kummer_dedekind

    K = NumberField([-5, 0, 1])
    I = Ideal.from_generators(K, [K.rational(2), K.element([1, 1])])
    I = I * kummer_dedekind(11, K)[0].to_ideal()
    (tmp_path / "field.json").write_text(json.dumps({"defining_poly": ["-5", "0", "1"]}))
    hnf = [[str(x) for x in row] for row in I.hnf_matrix()]
    (tmp_path / "ideal.json").write_text(json.dumps({"hnf": hnf}))
    advice = advice_to_dict(build_advice(K, [[K.one(), K.zero(), K.one()]]))
    (tmp_path / "advice.json").write_text(json.dumps(advice))
    code, _, err = run(
        capsys,
        "decide",
        "--field", str(tmp_path / "field.json"),
        "--advice", str(tmp_path / "advice.json"),
        "--ideal", str(tmp_path / "ideal.json"),
    )
    assert code == 2
    assert "invertible" in err


@pytest.mark.parametrize(
    "generators, wrong, message",
    [
        # a sublattice of index 2^d: every vector in the ideal, no span
        ([["3", "1"]], lambda vecs: [[2 * x for x in v] for v in vecs], "does not span"),
        # (3 + theta) is reduced on the side of O_K, so a repeated vector,
        # determinant 0, is what a wrong basis of it looks like
        ([["3", "1"]], lambda vecs: [vecs[0]] + vecs[:-1], "does not span"),
        # the unit vector 1 is not in (6, 1 + theta), an HNF lattice
        (
            [["6", "0"], ["1", "1"]],
            lambda vecs: [[1] + [0] * (len(vecs) - 1)] + vecs[1:],
            "left the input ideal",
        ),
    ],
    ids=["sublattice", "repeated", "outside"],
)
def test_decide_bad_lll_output_is_an_error(
    capsys, monkeypatch, tmp_path, fixtures_dir, generators, wrong, message
):
    # a wrong reduced basis used to escape main() as an AssertionError
    monkeypatch.setattr(
        "dpip.lll.integral_lll", lambda vecs, gram: wrong([list(v) for v in vecs])
    )
    (tmp_path / "ideal.json").write_text(json.dumps({"generators": generators}))
    code, out, err = run(
        capsys,
        "decide",
        "--field", str(fixtures_dir / "field_qsqrtm5.json"),
        "--advice", str(fixtures_dir / "advice_qsqrtm5.json"),
        "--ideal", str(tmp_path / "ideal.json"),
    )
    assert code == 2
    assert "verdict" not in out
    assert message in err


def test_decide_conjectural_bound(capsys, fixtures_dir):
    code, out, _ = run(
        capsys,
        "decide",
        "--field", str(fixtures_dir / "field_qsqrtm5.json"),
        "--advice", str(fixtures_dir / "advice_qsqrtm5.json"),
        "--ideal", str(fixtures_dir / "ideal_qsqrtm5_3pt.json"),
        "--conjectural-bound",  # 2^d * |disc| = 80 for this field
    )
    assert code == 0
    assert "verdict: Yes" in out


def test_missing_file_is_error(capsys, fixtures_dir):
    code, _, err = run(
        capsys,
        "decide",
        "--field", "/nonexistent/field.json",
        "--advice", str(fixtures_dir / "advice_qsqrtm5.json"),
        "--ideal", str(fixtures_dir / "ideal_qsqrtm5_3pt.json"),
    )
    assert code == 2
    assert err


def test_corrupt_ideal_file(capsys, tmp_path, fixtures_dir):
    bad = tmp_path / "bad_ideal.json"
    bad.write_text(json.dumps({"hnf": [["1", "0"], ["0", "-1"]]}))
    code, _, err = run(
        capsys,
        "decide",
        "--field", str(fixtures_dir / "field_qsqrtm5.json"),
        "--advice", str(fixtures_dir / "advice_qsqrtm5.json"),
        "--ideal", str(bad),
    )
    assert code == 2
    assert "diagonal" in err or "error" in err


@pytest.mark.parametrize("text", ["1_000", " 3 ", "\u0661\u0662\u0663"])
def test_ideal_file_with_a_non_decimal_string_is_an_error(capsys, tmp_path, fixtures_dir, text):
    bad = tmp_path / "ideal.json"
    bad.write_text(json.dumps({"generators": [[text, "1"]]}))
    code, _, err = run(
        capsys,
        "decide",
        "--field", str(fixtures_dir / "field_qsqrtm5.json"),
        "--advice", str(fixtures_dir / "advice_qsqrtm5.json"),
        "--ideal", str(bad),
    )
    assert code == 2
    assert "invalid decimal integer string" in err


def test_decide_reducible_field(capsys, tmp_path, fixtures_dir):
    field = tmp_path / "reducible_field.json"
    field.write_text(json.dumps({"defining_poly": ["2", "0", "3", "0", "1"]}))
    code, _, err = run(
        capsys,
        "decide",
        "--field", str(field),
        "--advice", str(fixtures_dir / "advice_qsqrtm5.json"),
        "--ideal", str(fixtures_dir / "ideal_qsqrtm5_3pt.json"),
    )
    assert code == 2
    assert "reducible" in err


@pytest.mark.parametrize(
    "command, payload",
    [
        ("decide", {"hnf": 5}),
        ("decide", {"hnf": [[1, 0], 5]}),
        ("decide", {"generators": 7}),
        ("decide", {"generators": [[1, 0], 3]}),
        ("decide", 5),
        ("factor-prime", {"defining_poly": None}),
        ("factor-prime", 5),
    ],
)
def test_a_malformed_file_is_an_input_error(capsys, tmp_path, fixtures_dir, command, payload):
    # a file of the wrong shape used to escape main() as a TypeError, which
    # exits 1, the code of the verdict No
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    if command == "decide":
        argv = [
            "--field", str(fixtures_dir / "field_qsqrtm5.json"),
            "--advice", str(fixtures_dir / "advice_qsqrtm5.json"),
            "--ideal", str(bad),
        ]
    else:
        argv = ["--field", str(bad), "-p", "2"]
    code, out, err = run(capsys, command, *argv)
    assert code == 2
    assert out == "" and err.startswith("error: ")


def test_an_unexpected_error_exits_2_with_its_traceback(capsys, monkeypatch, fixtures_dir):
    def crash(*args):
        raise RuntimeError("arithmetic bug")

    monkeypatch.setattr("dpip.cli.kummer_dedekind", crash)
    code, out, err = run(
        capsys, "factor-prime", "--field", str(fixtures_dir / "field_qsqrtm5.json"), "-p", "2"
    )
    assert code == 2 and out == ""
    assert "Traceback" in err and "RuntimeError: arithmetic bug" in err


_Q5 = {"defining_poly": ["5", "0", "1"]}
_X2_PLUS_1 = {"q": 2, "poly": [["1", "0"], ["0", "0"], ["1", "0"]]}


@pytest.mark.parametrize(
    "argv, payload, message",
    [
        (["precompute-quad", "-d", "0"], None, "positive m"),
        (
            ["oracle-quad", "--field", "field_zeta64.json", "--ideal", "ideal_zeta64_switch.json"],
            None,
            "imaginary quadratic field",
        ),
        (
            ["advice-check", "--advice", "@"],
            {"field": _Q5, "subfields": [{"q": 1, "poly": [["1", "0"], ["1", "0"]]}]},
            "degree must be at least 2",
        ),
        (
            ["advice-check", "--advice", "@"],
            {"field": _Q5, "subfields": [_X2_PLUS_1], "S": [{"p": "4", "gen_poly": ["1", "1"]}]},
            "4 is not prime",
        ),
        (["factor-prime", "-p", "2", "--field", "@"], {"defining_poly": ["5", "0", True]}, "boolean"),
        (["factor-prime", "-p", "2", "--field", "@"], {"defining_poly": ["5", 1.5, "1"]}, "float"),
        (["oracle-quad", "--field", "field_qsqrtm5.json", "--ideal", "@"], {"hnf": [["2", "1"]]}, "wrong shape"),
        (
            ["oracle-quad", "--field", "field_qsqrtm5.json", "--ideal", "@"],
            {"hnf": [["0", "0"], ["1", "1"]]},
            "diagonal entries must be positive",
        ),
        (["oracle-quad", "--field", "field_qsqrtm5.json", "--ideal", "@"], {"basis": []}, "'generators' or 'hnf'"),
    ],
)
def test_a_refused_input_exits_2_with_one_error_line(capsys, tmp_path, fixtures_dir, argv, payload, message):
    # "@" is the file holding the payload, and every other .json name a fixture
    (tmp_path / "input.json").write_text(json.dumps(payload))
    argv = [
        str(tmp_path / "input.json") if a == "@" else str(fixtures_dir / a) if a.endswith(".json") else a
        for a in argv
    ]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
