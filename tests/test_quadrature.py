import numpy as np
import pytest

from bandvie import quadrature
from bandvie.errors import CurveOrderingError
from bandvie.problem import CurveFamily
from bandvie.quadrature import decompose, split_interval

from helpers import composite_midpoint


def test_constant_integrand_exact_for_any_panel_count():
    for panels in (1, 3, 7, 100, 333):
        assert composite_midpoint(lambda s: 1.0, 0.0, 1.0, panels) == \
            pytest.approx(1.0, abs=1e-14)


def test_linear_integrand_single_panel():
    # the midpoint rule is exact on degree <= 1
    assert composite_midpoint(lambda s: s, 0.0, 1.0, 1) == 0.5


def test_affine_exactness_every_panel_count():
    exact = 2.3 * (2.1 - 0.3) - 1.7 * (2.1 ** 2 - 0.3 ** 2) / 2
    for panels in (1, 2, 5, 13, 50):
        got = composite_midpoint(lambda s: 2.3 - 1.7 * s, 0.3, 2.1, panels)
        assert got == pytest.approx(exact, abs=1e-13)


def test_quadratic_error_matches_midpoint_error_formula():
    # composite midpoint on s^2 over (0,1) with n panels misses by exactly
    # (b-a) h^2 f''/24 = h^2/12, so 100 panels land at 1/3 - 1e-4/12
    got = composite_midpoint(lambda s: s ** 2, 0.0, 1.0, 100)
    assert got == pytest.approx(1.0 / 3.0 - 1e-4 / 12.0, abs=1e-12)


def test_empty_interval_is_exactly_zero():
    assert composite_midpoint(lambda s: 1e9, 0.7, 0.7, 50) == 0.0


def test_inverted_interval_rejected():
    with pytest.raises(ValueError):
        composite_midpoint(lambda s: 1.0, 1.0, 0.0, 10)
    with pytest.raises(ValueError):
        composite_midpoint(lambda s: 1.0, 0.0, 1.0, 0)


def test_additivity_with_aligned_panels():
    f = np.exp
    whole = composite_midpoint(f, 0.0, 1.0, 100)
    parts = composite_midpoint(f, 0.0, 0.4, 40) + \
        composite_midpoint(f, 0.4, 1.0, 60)
    assert abs(whole - parts) <= 1e-12


def test_non_finite_integrand_reports_abscissa():
    with pytest.raises(ValueError) as exc:
        composite_midpoint(lambda s: 1.0 / (s - 0.5), 0.0, 1.0, 1)
    assert _abscissa(exc.value) == 0.5
    with pytest.raises(ValueError) as exc:
        composite_midpoint(lambda s: np.log(s - 0.5), 0.0, 1.0, 10)
    assert _abscissa(exc.value) < 0.5


def _abscissa(exc):
    """The abscissa named by a non-finite-integrand error."""
    return float(str(exc).rsplit("at s = ", 1)[1])


def test_split_interval():
    assert split_interval(0.0, 1.0, [0.25, 0.5]) == [
        (0.0, 0.25), (0.25, 0.5), (0.5, 1.0)]
    # outside cuts are ignored, duplicates collapse
    assert split_interval(0.0, 1.0, [-1.0, 0.5, 2.0]) == [(0.0, 0.5), (0.5, 1.0)]
    assert split_interval(0.3, 0.3, [0.3]) == []


def test_decompose_at_zero_flags_empty_segments():
    curves = CurveFamily(2.0, ("t/2",))
    decomp = decompose(0.0, curves)
    assert [s.band for s in decomp] == [1, 2]
    assert all(s.is_empty for s in decomp)


def test_decompose_model01_at_t2(model01):
    segs = [(s.lo, s.hi, s.band) for s in decompose(2.0, model01.curves)]
    assert segs == [(0.0, 1.0, 1), (1.0, 2.0, 2)]


def test_decompose_model02_at_t15(model02):
    segs = [(s.lo, s.hi, s.band) for s in decompose(1.5, model02.curves)]
    assert segs == [(0.0, 0.5, 1), (0.5, 1.0, 2), (1.0, 1.5, 3)]


def test_decompose_segment_lengths_tile_exactly(model01, model02):
    for system in (model01, model02):
        for t in np.linspace(0.0, system.curves.horizon, 37):
            decomp = decompose(float(t), system.curves)
            total = sum(s.length for s in decomp)
            assert abs(total - t) <= 1e-12
            assert decomp.segments[0].lo == 0.0
            assert decomp.segments[-1].hi == float(t)


def test_decompose_rejects_unordered_curves():
    curves = CurveFamily(2.0, ("2*t",))  # exceeds the outer curve t
    with pytest.raises(CurveOrderingError):
        decompose(1.0, curves)


def test_band_edges_move_values_within_roundoff_onto_snap_points():
    # model02's curve t/3 at t_15 of a 24-segment mesh on [0, 2] is 1 ulp
    # above node 5; t/2 is nowhere near a node at odd steps
    curves = CurveFamily(2.0, ("t/3", "t/2"))
    nodes = np.linspace(0.0, 2.0, 25)
    times = nodes[1:]
    plain = quadrature.band_edges(times, curves)
    snapped = quadrature.band_edges(times, curves, snap=nodes[1:-1])
    assert plain[14, 1] > nodes[5] and plain[14, 1] - nodes[5] <= 1e-15
    assert snapped[14, 1] == nodes[5]
    moved = snapped != plain
    assert np.all(np.abs(snapped - plain)[moved] <= quadrature.ORDER_TOL * 2.0)
    assert np.all(np.isin(snapped[moved], nodes))
    # the edges still tile (0, t]
    assert np.all(np.diff(snapped, axis=1) >= 0.0)
    assert np.array_equal(snapped[:, -1], times)
