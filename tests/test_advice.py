import json

import pytest
from sympy import nextprime

from dpip.advice import (
    advice_from_dict,
    advice_to_dict,
    build_advice,
    load_advice,
    store_advice,
    validate_advice,
)
from dpip.errors import AdviceError, GaveUpError
from dpip.quadforms import genus_advice, is_principal_quad


def test_round_trip(tmp_path, K21):
    bundle = genus_advice(-84)
    path = tmp_path / "advice.json"
    store_advice(bundle, path)
    loaded = load_advice(path)
    assert loaded.field == bundle.field
    assert loaded.subfields == bundle.subfields
    assert loaded.S == bundle.S
    assert loaded.disc_cache == bundle.disc_cache


def test_round_trip_with_exceptional_primes(tmp_path, K5):
    bundle = build_advice(
        K5,
        [[K5.rational(-1), K5.rational(-1), K5.one()]],  # x^2 - x - 1
        principal_test=lambda P: is_principal_quad(P.to_ideal(), -20),
    )
    assert len(bundle.S) == 1
    assert bundle.S[0].p == 5
    path = tmp_path / "advice.json"
    store_advice(bundle, path)
    loaded = load_advice(path)
    assert loaded.S == bundle.S


def test_example_bundle_contents(K5):
    bundle = genus_advice(-20)
    assert bundle.disc_cache == (K5.rational(-4),)
    assert bundle.smoothness() == 2


def test_zeta180_fixture_loads(fixtures_dir, K180):
    bundle = load_advice(fixtures_dir / "advice_zeta180.json")
    assert bundle.field == K180
    assert [q for q, _ in bundle.subfields] == [3, 5, 5]
    assert bundle.S == ()
    assert all(len(poly) - 1 == q for q, poly in bundle.subfields)


def test_tampered_disc_cache_rejected(tmp_path, K5):
    bundle = genus_advice(-20)
    data = advice_to_dict(bundle)
    data["disc_cache"][0][0] = "-8"  # was -4
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(AdviceError):
        load_advice(path)


def test_tampered_subfield_rejected(tmp_path):
    bundle = genus_advice(-20)
    data = advice_to_dict(bundle)
    data["subfields"][0]["q"] = 3  # degree lie
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(AdviceError):
        load_advice(path)


def test_bogus_exceptional_prime_rejected(tmp_path):
    bundle = genus_advice(-20)
    data = advice_to_dict(bundle)
    # (3, x - 1) is a genuine prime but divides no subfield discriminant
    data["S"] = [{"p": "3", "gen_poly": ["2", "1"]}]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(AdviceError):
        load_advice(path)


def test_reducible_gen_poly_rejected(tmp_path):
    bundle = genus_advice(-20)
    data = advice_to_dict(bundle)
    # x^2 + 5 = (x+1)(x+2) mod 3: reducible, so not a prime's gen_poly; and
    # x^2 + 1 = (x+1)^2 and x, which does not divide x^2 + 5, mod 2: both
    # contain the subfield discriminant -4, so only the prime check refuses them
    for p, gen in (("3", ["2", "0", "1"]), ("2", ["1", "0", "1"]), ("2", ["0", "1"])):
        data["S"] = [{"p": p, "gen_poly": gen}]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(AdviceError, match=f"no prime above {p}"):
            load_advice(path)


def test_malformed_file_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"field": {"defining_poly": ["5", "0", "1"]}}))
    with pytest.raises(AdviceError):
        load_advice(path)


def test_non_monic_poly_rejected(K5):
    with pytest.raises(AdviceError):
        build_advice(K5, [[K5.one(), K5.zero(), K5.rational(2)]])


def test_non_prime_power_degree_rejected(K5):
    # degree 6 = 2*3 is not a prime power
    poly = [K5.one()] + [K5.zero()] * 5 + [K5.one()]
    with pytest.raises(AdviceError):
        build_advice(K5, [poly])


def test_validate_is_idempotent(K5):
    bundle = genus_advice(-20)
    validate_advice(bundle)  # should not raise


def test_dict_round_trip_without_cache(K5):
    bundle = genus_advice(-20)
    data = advice_to_dict(bundle)
    del data["disc_cache"]  # legacy files may omit it: recomputed on load
    loaded = advice_from_dict(data)
    assert loaded.disc_cache == bundle.disc_cache


def test_advice_discriminants_computed_once(monkeypatch, fixtures_dir):
    # one discriminant per subfield, shared by the disc_cache comparison
    # and the exceptional-set checks
    from dpip import advice

    calls = []
    discriminant = advice.poly_discriminant

    def counted(coeffs):
        calls.append(1)
        return discriminant(coeffs)

    monkeypatch.setattr(advice, "poly_discriminant", counted)
    bundle = load_advice(fixtures_dir / "advice_zeta180.json")
    assert len(calls) == len(bundle.subfields) == 3


@pytest.mark.parametrize("p, gen", [("2", ["1"]), ("2", ["0"]), ("0", ["1", "1"])])
def test_degenerate_exceptional_prime_rejected(p, gen):
    # a constant gen_poly used to make the multiplicity loop run forever
    data = advice_to_dict(genus_advice(-20))
    data["S"] = [{"p": p, "gen_poly": gen}]
    with pytest.raises(AdviceError):
        advice_from_dict(data)


def test_zero_discriminant_subfield_rejected(K5):
    # x^2 - 2x + 1 has discriminant 0, which lies in every prime ideal, so
    # every prime would hit the discriminant gate and answer No
    poly = [K5.one(), K5.rational(-2), K5.one()]
    data = advice_to_dict(genus_advice(-20))
    data["subfields"][0]["poly"] = [["1", "0"], ["-2", "0"], ["1", "0"]]
    data["disc_cache"] = [["0", "0"]]
    with pytest.raises(AdviceError, match="vanishing discriminant"):
        advice_from_dict(data)
    del data["disc_cache"]
    with pytest.raises(AdviceError, match="vanishing discriminant"):
        advice_from_dict(data)
    with pytest.raises(AdviceError, match="vanishing discriminant"):
        build_advice(K5, [poly], S=())
    with pytest.raises(AdviceError, match="vanishing discriminant"):
        build_advice(K5, [poly], principal_test=lambda P: True)


def test_every_advice_fixture_loads(fixtures_dir):
    paths = sorted(fixtures_dir.glob("advice_*.json"))
    assert len(paths) == 3
    for path in paths:
        validate_advice(load_advice(path))


def test_reducible_kummer_subfield_rejected(K5):
    # x^2 - 1 and x^3 - 8 = (x - 2)(x^2 + 2x + 4) pass the discriminant
    # gate, but no prime shows them irreducible, since 1 and 8 are powers;
    # nor x^2 - x - 2 = (x - 2)(x + 1), whose discriminant 9 is a square
    for q, beta in ((2, 1), (3, 8)):
        poly = [K5.rational(-beta)] + [K5.zero()] * (q - 1) + [K5.one()]
        with pytest.raises(AdviceError, match="irreducible"):
            build_advice(K5, [poly], S=())
    with pytest.raises(AdviceError, match="irreducible"):
        build_advice(K5, [[K5.rational(-2), K5.rational(-1), K5.one()]], S=())
    for coeffs in ([["-1", "0"], ["0", "0"], ["1", "0"]], [["-2", "0"], ["-1", "0"], ["1", "0"]]):
        data = advice_to_dict(genus_advice(-20))
        data["subfields"][0]["poly"] = coeffs
        del data["disc_cache"]
        with pytest.raises(AdviceError, match="irreducible"):
            advice_from_dict(data)
    # 2 and -1 are no cubes or squares in Q(sqrt -5), nor is disc -3 of
    # x^2 + x + 1
    for q, beta in ((3, 2), (2, -1)):
        poly = [K5.rational(-beta)] + [K5.zero()] * (q - 1) + [K5.one()]
        assert build_advice(K5, [poly], S=()).subfields[0][0] == q
    assert build_advice(K5, [[K5.one(), K5.one(), K5.one()]], S=()).subfields[0][0] == 2


@pytest.mark.parametrize("disc", [-20, -84, -420])
def test_genus_advice_passes_the_kummer_check(disc):
    bundle = genus_advice(disc)
    assert validate_advice(bundle) is None
    assert advice_from_dict(advice_to_dict(bundle)).subfields == bundle.subfields


def test_building_advice_gives_up_on_a_discriminant_trial_division_leaves(K5):
    # disc(x^2 - q1 q2) = 4 q1 q2 has the norm 16 q1^2 q2^2, which trial
    # division below 2^16 cannot factor; genus advice only meets norms 16 m^2
    # of tiny m
    q1, q2 = nextprime(2**20), nextprime(2**30)
    poly = [K5.rational(-q1 * q2), K5.zero(), K5.one()]
    with pytest.raises(GaveUpError):
        build_advice(K5, [poly], principal_test=lambda P: is_principal_quad(P.to_ideal(), -20))
