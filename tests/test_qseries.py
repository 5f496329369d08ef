"""Truncated Laurent series in q with int exponents."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dt4.eqalg import FactoredScalar, exact_str
from dt4.qseries import (QSeries, _k3_order, delta_inverse,
                         goettsche_series, k3_entries, product_power,
                         sqrt_average, substitute_power)

from oracles import binomial_product, colored_counts, partition_numbers


def test_partition_number_oracle_sanity():
    assert partition_numbers(10) == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def test_construction_and_window():
    f = QSeries({0: 1, 1: 2}, 2)
    assert f.truncation_order == 2
    assert f.coefficient(1) == 2
    assert f.coefficient(-1) == 0
    with pytest.raises(ValueError):
        f.coefficient(2)
    with pytest.raises(ValueError, match="outside"):
        QSeries({2: 1}, 2)


def test_coefficients_view():
    # ``units`` keeps the nonzero coefficients only
    f = QSeries({-1: 5, 0: 0, 1: -1}, 2)
    assert f.units == {-1: 5, 1: -1}


def test_fraction_orders_and_exponents_raise():
    # exponents and orders are ints; q^(1/2) is no longer addressable
    f = QSeries({0: 1}, 4)
    calls = (f.coefficient, f.shift_exponent,
             lambda x: product_power(1, x), delta_inverse, _k3_order,
             lambda x: substitute_power(f, x))
    for x in (Fraction(1, 2), Fraction(1), 0.5):
        for call in calls:
            with pytest.raises(TypeError):
                call(x)


def test_addition_respects_common_window():
    f = QSeries({0: 1, 2: 7}, 3)
    g = QSeries({0: 2}, 2)
    h = f + g
    assert h.truncation_order == 2
    assert h.coefficient(0) == 3
    with pytest.raises(ValueError):
        h.coefficient(2)


def test_subtraction_and_zero():
    f = QSeries({0: 1, 1: 3}, 3)
    assert not (f - f).units


def test_scale_and_shift():
    f = QSeries({0: 2}, 2)
    assert f.scale(Fraction(1, 2)).coefficient(0) == 1
    g = f.shift_exponent(-1)
    assert g.coefficient(-1) == 2
    assert g.truncation_order == 1
    assert f.scale(Fraction(-3, 4)).coefficient(0) == Fraction(-3, 2)


def test_product_power_known():
    # prod (1-q^m)^-1 is the partition generating series
    f = product_power(-1, 12)
    p = partition_numbers(11)
    for k in range(12):
        assert f.coefficient(k) == p[k]
    # prod (1-q^m)^1 gives pentagonal-number signs
    g = product_power(1, 13)
    assert [g.coefficient(k) for k in range(8)] == [1, -1, -1, 0, 0, 1, 0, 1]


def _coefficients(series, n):
    return [series.coefficient(k) for k in range(n + 1)]


def test_product_power_euler_pentagonal():
    # prod (1 - q^m) = sum over all integers k of (-1)^k q^(k(3k-1)/2)
    want = [0] * 201
    for k in range(-12, 13):
        if k * (3 * k - 1) // 2 <= 200:
            want[k * (3 * k - 1) // 2] += (-1) ** k
    assert _coefficients(product_power(1, 201), 200) == want


def test_product_power_jacobi_cube():
    # prod (1 - q^m)^3 = sum_{k>=0} (-1)^k (2k+1) q^(k(k+1)/2)
    want = [0] * 201
    for k in range(20):
        want[k * (k + 1) // 2] = (-1) ** k * (2 * k + 1)
    assert _coefficients(product_power(3, 201), 200) == want


def test_product_power_ramanujan_tau():
    # q prod (1 - q^m)^24 = sum tau(n) q^n
    tau = [1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643,
           -115920, 534612, -370944]
    assert _coefficients(product_power(24, 12), 11) == tau


def test_product_power_inverse_discriminant_vs_convolution():
    assert (_coefficients(product_power(-24, 101), 100)
            == colored_counts(24, 100))


def test_product_power_zero_exponent_is_one():
    assert product_power(0, 50) == QSeries({0: 1}, 50)


def test_product_power_vs_binomial_factors():
    for a in range(-30, 31):
        assert (_coefficients(product_power(a, 41), 40)
                == binomial_product(a, 40)), a


def test_product_power_rejects_bad_arguments():
    for order in (0, -1):
        with pytest.raises(ValueError, match="order must be positive"):
            product_power(1, order)
    with pytest.raises(ValueError, match="order must exceed -1"):
        delta_inverse(-1)
    with pytest.raises(TypeError):
        product_power(Fraction(1, 2), 5)


def test_goettsche_series_vs_convolution():
    for chi in (3, 4, 24):
        f = goettsche_series(chi, 8)
        want = colored_counts(chi, 7)
        for k in range(8):
            assert f.coefficient(k) == want[k]


def test_delta_inverse_spots():
    d = delta_inverse(5)
    want = colored_counts(24, 6)
    assert d.coefficient(-1) == 1
    for k in range(5):
        assert d.coefficient(k) == want[k + 1]
    # the classical K3 Euler numbers
    assert [d.coefficient(k) for k in range(-1, 5)] == [
        1, 24, 324, 3200, 25650, 176256]


def test_substitute_sqrt():
    # the average of q -> q^(1/2) and q -> -q^(1/2) on q^-1 + 24 + 324 q
    # keeps the even power 24 q^0; q^-1 and 324 q cancel
    d = QSeries({-1: 1, 0: 24, 1: 324}, 2)
    avg = sqrt_average(d)
    assert avg == QSeries({0: 24}, 1)
    # q^2 of a window known below q^3 is q^1, known below q^2
    assert sqrt_average(QSeries({2: 7}, 3)) == QSeries({1: 7}, 2)


def test_substitute_power():
    f = QSeries({1: 5}, 3)
    g = substitute_power(f, 2)
    assert g.coefficient(2) == 5
    assert g.truncation_order == 6
    with pytest.raises(ValueError):
        substitute_power(f, 0)


def test_exact_str_coefficients():
    assert exact_str(3) == "3"
    assert exact_str(Fraction(1, 2)) == "(1)/(2)"
    assert exact_str(Fraction(4, 2)) == "2"
    one_over_s = FactoredScalar.const(1) / FactoredScalar.var("s")
    assert exact_str(one_over_s) == "(1)/(s)"


def test_k3_entries_sorted():
    f = QSeries({1: 1, -1: 4}, 2)
    entries = k3_entries(f)
    assert entries[0] == {"exponent_num": -1, "exponent_den": 1,
                          "coefficient": "(4)/(s)"}
    assert entries[1]["exponent_num"] == 1


_BIG = st.integers(10 ** 30, 10 ** 40)
_NUMERATORS = st.integers(-1000, 1000) | _BIG | _BIG.map(lambda n: -n)
_COEFFICIENTS = (_NUMERATORS | _NUMERATORS.map(Fraction)
                 | st.builds(Fraction, _NUMERATORS, st.integers(1, 10 ** 6)))


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.integers(-3, 12), _COEFFICIENTS, max_size=8))
def test_k3_entries_print_c_over_s_as_factored_scalars_do(units):
    # each coefficient c prints as the exact scalar c/s prints, and a
    # zero coefficient prints no entry
    s = FactoredScalar.var("s")
    want = [{"exponent_num": e, "exponent_den": 1,
             "coefficient": str(FactoredScalar.const(c) / s)}
            for e, c in sorted(units.items()) if c]
    assert k3_entries(QSeries(units, 13)) == want
    assert k3_entries(QSeries({0: 0, 1: Fraction(0)}, 2)) == []


@settings(max_examples=25, deadline=None)
@given(st.integers(-30, 30), st.integers(-30, 30))
def test_product_power_additivity(a, b):
    N = 6
    f, g = product_power(a, N), product_power(b, N)
    product = [sum(f.coefficient(j) * g.coefficient(k - j)
                   for j in range(k + 1)) for k in range(N)]
    assert product == _coefficients(product_power(a + b, N), N - 1)
