import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gradix.errors import ValidationError
from gradix.fields import PSI_13, _is_prime, prime_field, rationals

F5 = prime_field(5)
F7 = prime_field(7)
Q = rationals()

rationals_st = st.fractions(min_value=-50, max_value=50, max_denominator=20)
residues5 = st.integers(min_value=0, max_value=4)


def test_prime_validation():
    with pytest.raises(ValidationError):
        prime_field(6)
    with pytest.raises(ValidationError):
        prime_field(1)
    prime_field(2)
    prime_field(97)


def by_trial_division(n):
    return n >= 2 and all(n % f for f in range(2, int(n ** 0.5) + 1))


def test_miller_rabin_matches_trial_division():
    assert [n for n in range(5000) if _is_prime(n) != by_trial_division(n)] == []


def test_large_primes_are_decided_exactly():
    assert prime_field(10 ** 18 + 3).p == 10 ** 18 + 3
    assert prime_field(4294967311).p == 4294967311
    # a Carmichael number, the least strong pseudoprime to the bases 2, 3,
    # 5 and 7, and psi_12, a strong pseudoprime to every prime base up to
    # 37 that the base 41 exposes
    for n in (561, 3215031751, 318665857834031151167461):
        with pytest.raises(ValidationError, match="not prime"):
            prime_field(n)
    with pytest.raises(ValidationError, match=f"must be below {PSI_13}"):
        prime_field(PSI_13)


@given(residues5, residues5, residues5)
def test_f5_ring_axioms(a, b, c):
    assert F5.mul(a, F5.add(b, c)) == F5.add(F5.mul(a, b), F5.mul(a, c))
    assert F5.add(a, F5.neg(a)) == 0
    assert F5.sub(a, b) == F5.add(a, F5.neg(b))


@given(residues5)
def test_f5_inverse(a):
    if a:
        assert F5.mul(a, F5.inv(a)) == 1
    else:
        with pytest.raises(ZeroDivisionError):
            F5.inv(a)


@given(rationals_st, rationals_st)
def test_q_arithmetic(a, b):
    assert Q.add(a, b) == a + b
    assert Q.mul(a, b) == a * b
    if b:
        assert Q.mul(Q.div(a, b), b) == a


@given(rationals_st)
def test_q_parse_format_roundtrip(x):
    assert Q.parse(Q.format(x)) == x


def test_parse_strings():
    assert F5.parse("7") == 2
    assert F5.parse("-1") == 4
    assert F5.parse("1/2") == 3  # 2 * 3 = 6 = 1 mod 5
    assert Q.parse("-1/3") == Fraction(-1, 3)
    with pytest.raises(ValidationError):
        F5.parse("x")
    with pytest.raises(ValidationError):
        F5.parse("1/0")


def test_coerce():
    assert F5.coerce(-3) == 2
    assert F5.coerce(Fraction(1, 2)) == 3
    assert Q.coerce(2) == Fraction(2)
    assert Q.coerce("3/4") == Fraction(3, 4)



@pytest.mark.parametrize("text", ["1_000", "1_0/3", "\u0661\u0662", "1/\u0663",
                                  "\uff11", "1 / 2", "- 1", "1/", "/2", "1/2/3",
                                  "+", "", "0x10", "1e3", "1.5", "--1"])
@pytest.mark.parametrize("field", [F5, Q], ids=repr)
def test_parse_refuses_what_is_not_an_ascii_integer_or_ratio(field, text):
    # Python's int takes "1_000" as 1000, Arabic-Indic and full-width
    # digits, and spaces inside a ratio's parts; a scalar string is only
    # [+-]?[0-9]+(/[+-]?[0-9]+)? after strip()
    with pytest.raises(ValidationError, match="expected an integer or a "
                                              "ratio of integers"):
        field.parse(text)


def test_parse_takes_signs_and_outer_whitespace():
    assert Q.parse(" +3/-6\n") == Fraction(-1, 2)
    assert Q.parse("-0/5") == 0
    assert F7.parse("\t-1/-3 ") == 5     # 3 * 5 = 15 = 1 mod 7
    assert F7.parse("22/4") == 2          # 22 = 1 and 4 * 2 = 8 = 1 mod 7


@pytest.mark.parametrize("field, text", [(Q, "1/0"), (F5, "1/0"), (F7, "1/7"),
                                         (F7, "3/-14"), (Q, "2/-0")])
def test_parse_names_a_zero_denominator(field, text):
    with pytest.raises(ValidationError) as err:
        field.parse(text)
    assert str(err.value) == f"bad scalar {text!r}: inverse of zero"


def test_parse_builds_one_fraction_over_q(monkeypatch):
    # a ratio over Q is one Fraction, already in lowest terms
    from gradix import fields
    built = []

    class Spy(Fraction):
        def __new__(cls, *args):
            built.append(args)
            return Fraction(*args)
    monkeypatch.setattr(fields, "Fraction", Spy)
    assert Q.parse("-6/4") == Fraction(-3, 2)
    assert built == [(-6, 4)]


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this Python converts integers of any length")
@pytest.mark.parametrize("text", ["1" * 5_000, "1/" + "1" * 5_000,
                                  "-" + "2" * 5_000 + "/3"])
def test_parse_names_the_digit_count_past_the_limit(text):
    with pytest.raises(ValidationError) as err:
        Q.parse(text)
    assert str(err.value) == (
        "integer of 5000 digits is over the limit of "
        f"{sys.get_int_max_str_digits()} digits for integer string conversion")
