from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gradix.errors import ExactModeUnavailable, ValidationError
from gradix.fields import PSI_13, _is_prime, prime_field, rationals

F5 = prime_field(5)
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


def test_scalar_enumeration():
    assert list(F5.scalars()) == [0, 1, 2, 3, 4]
    with pytest.raises(ExactModeUnavailable):
        list(Q.scalars())
