"""Elliptic-surface moduli bookkeeping and the fiberwise series."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dt4 import moduli
from dt4.eqalg import FactoredScalar
from dt4.moduli import (EllipticSurface, Polarization,
                        assemble_typeII_K3_series, enumerate_typeII_K3,
                        in_stable_chamber, is_ample, wall_threshold)
from dt4.qseries import (z_typeI_closed_form, z_typeI_series,
                         z_typeII_conjecture_series)

from oracles import (FIBER, SECTION, ZERO_DIVISOR, DivisorClass,
                     colored_counts, enumerate_typeII_general, is_effective,
                     k3_component_count, pair, pair_h)

S_K3 = EllipticSurface(0)
S = FactoredScalar.var("s")


def sval(n):
    return FactoredScalar.const(n) / S


# -- divisor arithmetic ----------------------------------------------------

def test_divisor_class():
    d = DivisorClass(2, -1)
    assert d + FIBER == DivisorClass(2, 0)
    assert d - d == ZERO_DIVISOR
    assert (-d).a == -2
    assert d.scale(3) == DivisorClass(6, -3)
    assert ZERO_DIVISOR.is_zero()
    assert not d.is_zero()
    assert SECTION == DivisorClass(1, 0)


def test_surface_validation():
    for k in (-1, 0.5, 1.0, True):
        with pytest.raises(ValueError):
            EllipticSurface(k)


def test_intersection_form():
    # section^2 = -(k+2), fiber^2 = 0, section.fiber = 1
    for k in (0, 1, 3):
        Sk = EllipticSurface(k)
        assert pair(SECTION, SECTION, Sk) == -(k + 2)
        assert pair(FIBER, FIBER, Sk) == 0
        assert pair(SECTION, FIBER, Sk) == 1
    d = DivisorClass(2, 5)
    assert pair(d, d, S_K3) == 2 * (-2) * 2 + 2 * 2 * 5
    assert pair_h(Polarization(1, 10), FIBER, S_K3) == 1


def test_effective_and_ample():
    assert is_effective(DivisorClass(1, 0))
    assert is_effective(ZERO_DIVISOR)
    assert not is_effective(DivisorClass(-1, 2))
    assert is_ample(Polarization(1, 10), S_K3)
    assert not is_ample(Polarization(1, 2), S_K3)
    # threshold is strict: (k+2) t < u
    for k in (1, 2):
        assert not is_ample(Polarization(1, k + 2), EllipticSurface(k))
        assert is_ample(Polarization(1, k + 2 + Fraction(1, 100)),
                        EllipticSurface(k))
    assert not is_ample(Polarization(2, 4), S_K3)


def test_polarization_validation():
    with pytest.raises(ValueError):
        Polarization(0, 1)
    with pytest.raises(ValueError):
        Polarization(1, 0)
    # floats are inexact: 0.1 is not 1/10
    for t, u in ((0.1, 1), (1, 2.0)):
        with pytest.raises(ValueError, match="floats"):
            Polarization(t, u)
    h = Polarization(Fraction(1, 2), 3)
    assert h.t == Fraction(1, 2)


# -- chambers --------------------------------------------------------------

def test_wall_threshold_closed_form():
    # rank 2 on K3: threshold 1/(1+8 delta)
    for n in range(11):
        assert wall_threshold(S_K3, 2, n) == Fraction(2, 2 + 16 * n)
        assert wall_threshold(S_K3, 2, n) == Fraction(1, 1 + 8 * n)
    assert wall_threshold(EllipticSurface(1), 2, 1) == Fraction(2, 19)
    with pytest.raises(ValueError):
        wall_threshold(S_K3, 0, 1)
    with pytest.raises(ValueError):
        wall_threshold(S_K3, 2, -1)


def test_stable_chamber_membership():
    assert in_stable_chamber(Polarization(1, 10), S_K3, 2, 1)
    assert not in_stable_chamber(Polarization(1, 9), S_K3, 2, 1)
    with pytest.raises(ValueError):
        in_stable_chamber(Polarization(1, 2), S_K3, 2, 1)


# -- component enumeration -------------------------------------------------

def row(c):
    """A report row of enumerate_typeII_K3 as (b, n1, n2, alpha, vanishes)."""
    return (c["b"], c["n1"], c["n2"], DivisorClass(**c["alpha"]),
            c["vanishes"])


def test_enumerate_k3_examples():
    got = [row(c) for c in enumerate_typeII_K3(1, 2)]
    assert got == [(1, 2, 0, ZERO_DIVISOR, False),
                   (1, 1, 1, ZERO_DIVISOR, False)]

    comps = enumerate_typeII_K3(2, 1)
    assert len(comps) == 2
    assert all(c["vanishes"] for c in comps)
    assert all(row(c)[3] == DivisorClass(0, 1) for c in comps)

    got3 = [row(c) for c in enumerate_typeII_K3(3, 1)]
    assert (2, 1, 0, ZERO_DIVISOR, False) in got3
    assert (2, 0, 1, ZERO_DIVISOR, False) not in got3  # balanced: n1 >= n2
    assert (1, 1, 0, DivisorClass(0, 2), True) in got3
    assert (1, 0, 1, DivisorClass(0, 2), True) in got3


def test_enumerate_k3_structure():
    for m in range(1, 8):
        for n in range(8):
            comps = enumerate_typeII_K3(m, n)
            assert len(comps) == k3_component_count(m, n)
            for b, n1, n2, alpha, vanishes in map(row, comps):
                assert 1 <= b <= (m + 1) // 2
                assert n1 + n2 == n
                assert alpha == DivisorClass(0, m + 1 - 2 * b)
                assert vanishes == (not alpha.is_zero())
                if 2 * b == m + 1:
                    assert n1 >= n2
    with pytest.raises(ValueError):
        enumerate_typeII_K3(0, 1)
    with pytest.raises(ValueError):
        enumerate_typeII_K3(1, -1)


def test_enumerate_trivial():
    comps = enumerate_typeII_K3(1, 0)
    assert [(c["n1"], c["n2"]) for c in comps] == [(0, 0)]


def test_general_enumeration_matches_k3_slice():
    h = Polarization(1, 13)
    for m in range(1, 12):
        for n in range(9):
            gen = enumerate_typeII_general(FIBER, m, 0, n, h,
                                           ((0, 0), (-8, 8)))
            k3 = enumerate_typeII_K3(m, n)
            # the K3 label b is the fiber multiple of the first piece, and
            # a row vanishes exactly when its leftover class is nonzero
            got = sorted((c.beta1.b, c.n1, c.n2, c.alpha,
                          not c.alpha.is_zero()) for c in gen)
            want = sorted(map(row, k3))
            assert got == want


def test_general_enumeration_box_forms():
    h = Polarization(1, 13)
    comps = enumerate_typeII_general(FIBER, 1, 0, 1, h, 4)
    assert all(c.n1 + c.n2 == 1 for c in comps)
    for c in comps:
        # slope strictly decreases across the splitting
        assert pair_h(h, c.beta2, S_K3) < pair_h(h, c.beta1, S_K3)


# -- series ----------------------------------------------------------------

def typeI(n):
    """The non-nested count at charge n, read off the series."""
    return z_typeI_series(n - 2).coefficient(n - 2)


def test_typeI_values():
    # the moduli are empty at n <= 1; n = 0 sits at q^-2, read from the
    # shortest series, known through q^-1
    assert z_typeI_series(-1).coefficient(-2) == 0
    assert typeI(1) == 0
    assert typeI(2) == sval(24)
    assert typeI(3) == sval(3200)


def test_typeI_values_vs_convolution_oracle():
    # 24-colored counts at 2n-3 points
    c24 = colored_counts(24, 8)
    assert typeI(2) == sval(c24[1])
    assert typeI(4) == sval(c24[5])


def test_z_typeI_spots():
    z = z_typeI_series(4)
    assert z.coefficient(-2) == 0
    assert z.coefficient(-1) == 0
    assert z.coefficient(0) == sval(24)
    assert z.coefficient(1) == sval(3200)
    assert z.coefficient(2) == sval(176256)
    with pytest.raises(ValueError):
        z_typeI_series(-2)


@pytest.mark.parametrize("order, trunc", [(-1, 0), (0, 1), (1, 2), (25, 26)])
def test_z_typeI_series_vs_convolution_oracle(order, trunc):
    # q^(n-2) carries the 24-colored count at 2n-3 points over s for
    # n >= 2
    z = z_typeI_series(order)
    assert z.truncation_order == trunc
    c24 = colored_counts(24, max(2 * trunc, 0))
    for e in range(-2, trunc):
        n = e + 2
        want = sval(c24[2 * n - 3]) if n >= 2 else 0
        assert z.coefficient(e) == want, e
    with pytest.raises(ValueError):
        z.coefficient(trunc)
    # at order -1 the two truncations are 0 and 1
    assert not (z - z_typeI_closed_form(order)).to_json_entries()


def test_z_typeI_closed_form_identity():
    lhs = z_typeI_series(12)
    rhs = z_typeI_closed_form(12)
    assert lhs == rhs


def test_conjecture_series_spots():
    z = z_typeII_conjecture_series(6)
    quarter = FactoredScalar.const(Fraction(1, 4)) / S
    assert z.coefficient(-2) == quarter
    assert z.coefficient(0) == sval(6)
    assert z.coefficient(2) == sval(81)
    assert z.coefficient(1) == 0
    assert z.coefficient(3) == 0


def test_conjecture_series_odd_powers_vanish():
    z = z_typeII_conjecture_series(9)
    for e in z.units:
        if e % 2:
            raise AssertionError(f"odd power q^{e} present")


def test_assembled_even_twist_series_vanishes():
    for m in (2, 4):
        z = assemble_typeII_K3_series(m, 3)
        assert not z.to_json_entries()


def test_assembled_odd_twist_refuses():
    with pytest.raises(ValueError, match="conjecture"):
        assemble_typeII_K3_series(3, 0)


def test_assembly_reads_the_parity_of_m_without_enumerating(monkeypatch):
    def refuse(m, n):
        raise AssertionError("assembly enumerated the components")
    monkeypatch.setattr(moduli, "enumerate_typeII_K3", refuse)
    for m, order in ((2, 5), (400, 1000)):
        z = assemble_typeII_K3_series(m, order)
        assert not z.units and z.truncation_order == order + 1
    with pytest.raises(ValueError, match="conjecture"):
        assemble_typeII_K3_series(3, 0)
    with pytest.raises(ValueError, match="at least 1"):
        assemble_typeII_K3_series(0, 3)
    with pytest.raises(ValueError, match="order must exceed -2"):
        assemble_typeII_K3_series(5, -3)


# -- properties ------------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(st.integers(0, 4), st.integers(-5, 5), st.integers(-5, 5),
       st.integers(-5, 5), st.integers(-5, 5))
def test_pair_symmetry_bilinearity(k, a1, b1, a2, b2):
    Sk = EllipticSurface(k)
    d1 = DivisorClass(a1, b1)
    d2 = DivisorClass(a2, b2)
    assert pair(d1, d2, Sk) == pair(d2, d1, Sk)
    assert pair(d1 + d2, d2, Sk) == pair(d1, d2, Sk) + pair(d2, d2, Sk)
    assert pair(d1.scale(3), d2, Sk) == 3 * pair(d1, d2, Sk)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 3), st.fractions(min_value=Fraction(1, 4), max_value=4,
                                       max_denominator=8),
       st.fractions(min_value=Fraction(1, 4), max_value=40, max_denominator=8))
def test_ample_iff_pairing_positive(k, t, u):
    Sk = EllipticSurface(k)
    h = Polarization(t, u)
    # ample exactly when h pairs positively with the section and the fiber
    sect = pair_h(h, SECTION, Sk)
    fib = pair_h(h, FIBER, Sk)
    assert is_ample(h, Sk) == (sect > 0 and fib > 0)
