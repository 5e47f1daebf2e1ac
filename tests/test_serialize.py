import pytest

from dpip.nf import Ideal, PrimeIdeal
from dpip.serialize import decode_int, encode_int, load_ideal


@pytest.mark.parametrize("digits", [4300, 4301, 8001])
def test_integers_across_the_str_digit_limit(K5, digits):
    # Python >= 3.11 refuses int <-> str past 4,300 digits by default, and
    # witness primes at the degree-48 conjectural bound have about 4,266
    text = "1" * digits
    value = (10**digits - 1) // 9
    assert decode_int(text) == value
    assert encode_int(value) == text
    assert decode_int("-" + text) == -value
    assert encode_int(-value) == "-" + text
    # a label of that size (the constructor does not test primality)
    P = PrimeIdeal(K5, value, (value - 1, 1))
    assert P.label() == f"({text}, {text[:-1]}0 + θ)"


def test_long_decimal_strings_are_validated():
    with pytest.raises(ValueError):
        decode_int("1" * 4300 + "x")
    with pytest.raises(ValueError):
        decode_int("--" + "1" * 4300)


def test_plain_json_integers_past_the_limit_load(tmp_path, K5):
    # readers accept plain JSON integers as well as strings
    text = "1" * 4301
    path = tmp_path / "ideal.json"
    path.write_text(f'{{"generators": [[-{text}, 0]]}}')
    value = (10**4301 - 1) // 9
    assert load_ideal(path, K5) == Ideal.principal(K5, K5.rational(value))


@pytest.mark.parametrize("digits", [3, 4301])
def test_decimal_strings_have_one_grammar(digits):
    # an optional sign, then ASCII digits, at every length: int() would take
    # underscores, surrounding spaces and other scripts' digits
    text = "1" * digits
    value = (10**digits - 1) // 9
    for ok, want in ((text, value), ("+" + text, value), ("-" + text, -value), ("00" + text, value)):
        assert decode_int(ok) == want
    for bad in ("1_" + text, " " + text, text + " ", "١٢" + text, "+-" + text, "", "-"):
        with pytest.raises(ValueError):
            decode_int(bad)
