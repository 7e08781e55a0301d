"""all_roots: companion-matrix eigenvalues, Newton-polished, behind a residual gate;
merge_double_roots: the two copies of a double root given once."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algebroid import rootfind
from algebroid.errors import RootFindingFailure
from algebroid.rootfind import all_roots, merge_double_roots, poly_eval, residual_scale


def _expand(roots) -> list[complex]:
    """Ascending coefficients of prod (z - r), exact for Gaussian-integer roots."""
    cs = [(1, 0)]
    for a, b in roots:
        shifted = [(0, 0)] + cs  # z * p
        for j, (x, y) in enumerate(cs):  # - (a + bi) * p
            u, v = shifted[j]
            shifted[j] = (u - (a * x - b * y), v - (a * y + b * x))
        cs = shifted
    return [complex(x, y) for x, y in cs]


gaussian = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
lead = st.tuples(st.floats(0.1, 10.0), st.floats(0.0, 2 * math.pi))


@settings(max_examples=80, deadline=None)
@given(st.sets(gaussian, min_size=1, max_size=20), lead)
def test_planted_gaussian_roots_are_found_as_a_multiset(planted, lead):
    modulus, angle = lead
    c = modulus * complex(math.cos(angle), math.sin(angle))
    roots = all_roots([c * x for x in _expand(planted)])
    scale = max(1.0, max(math.hypot(a, b) for a, b in planted))
    assert len(roots) == len(planted)
    left = list(roots)
    for a, b in planted:  # the planted roots are at least 1 apart
        nearest = min(left, key=lambda r: abs(r - complex(a, b)))
        assert abs(nearest - complex(a, b)) <= 1e-9 * scale
        left.remove(nearest)


@pytest.mark.parametrize("coeffs, zeros", [([0, 3, 1], 1), ([0, 0, 2, 1], 2), ([0, 0, 0, 1j, 1], 3)])
def test_exact_zero_constant_term_gives_exact_zero_roots(coeffs, zeros):
    roots = all_roots(coeffs)
    assert len(roots) == len(coeffs) - 1
    assert sum(r == 0j for r in roots) == zeros


def test_double_root_passes_the_residual_gate():
    cs = _expand([(1, 0), (1, 0), (-2, 0)])  # (z - 1)^2 (z + 2)
    roots = all_roots(cs)
    assert len(roots) == 3
    assert sorted(abs(r - 1) < 1e-7 for r in roots) == [False, True, True]
    assert min(abs(r + 2) for r in roots) < 1e-12
    for r in roots:
        assert abs(poly_eval(cs, r)) <= 1e-8 * residual_scale(cs, r)


def test_planted_bad_residual_is_refused(monkeypatch):
    monkeypatch.setattr(rootfind, "polish_roots", lambda cs, roots: [r + 0.5 for r in roots])
    with pytest.raises(RootFindingFailure, match="residual"):
        all_roots([2, -3, 1])


@pytest.mark.parametrize("coeffs", [[1, math.nan, 1], [1, 0, complex(0, math.inf)],
                                    [math.inf, 1]])
def test_non_finite_coefficient_is_refused(coeffs):
    with pytest.raises(RootFindingFailure, match="non-finite"):
        all_roots(coeffs)


@pytest.mark.parametrize("coeffs, roots", [
    ([-1e300, 0, 1], [-1e150, 1e150]),  # W^2 - z at z = 1e300: the 1 is no round-off
    ([-1e300, 1], [1e300]),
    ([-1e300, 0, 1, 0, 0], [-1e150, 1e150]),  # zero leading coefficients are dropped
])
def test_a_leading_coefficient_small_against_the_others_is_kept(coeffs, roots):
    assert sorted(all_roots(coeffs), key=lambda r: r.real) == pytest.approx(roots, rel=1e-15)


def test_a_companion_matrix_beyond_float_range_is_refused():
    # 1e300 / 1e-300 overflows: numpy's eigenvalue solver would refuse the
    # matrix with a bare error
    with pytest.raises(RootFindingFailure, match="leaves float range"):
        all_roots([1e300, 0, 1e-300])


def test_double_root_is_merged_onto_the_root_of_the_derivative():
    cs = _expand([(1, 1), (1, 1), (-2, 0)])  # (z - 1 - i)^2 (z + 2)
    roots = [1 + 1j + 1e-8, -2, 1 + 1j - 3e-9j]  # scattered as round-off leaves them
    merged = merge_double_roots(cs, roots, 1e-6, 1e-12)
    assert merged == [pytest.approx(1 + 1j, abs=1e-15), -2]


def test_two_simple_roots_are_not_merged():
    cs = [1.1, -2.1, 1]  # (z - 1) (z - 1.1): p at the midpoint is far above the gate
    assert merge_double_roots(cs, [1, 1.1], 0.5, 1e-12) == [1, 1.1]


def test_a_squarefree_polynomial_keeps_its_close_pair():
    # z^2 - 1e-14: two simple roots 2e-7 apart, and |p| at their midpoint
    # passes the eps gate; only the exact squarefree answer keeps them
    cs, roots = [-1e-14, 0, 1], [-1e-7, 1e-7]
    asked = []

    def squarefree(answer):
        return lambda: asked.append(answer) or answer

    assert merge_double_roots(cs, roots, 1e-6, 1e-12, squarefree(True)) == roots
    assert merge_double_roots(cs, roots, 1e-6, 1e-12, squarefree(False)) == [0]
    # no pair, no question
    assert merge_double_roots(cs, [-1, 1], 1e-6, 1e-12, squarefree(True)) == [-1, 1]
    assert asked == [True, False]


def test_three_close_roots_are_kept_as_given():
    cs = _expand([(1, 0)] * 3)  # a triple root scatters into three points
    roots = [1 + 1e-7, 1 - 1e-7, 1 + 1e-7j]
    assert merge_double_roots(cs, roots, 1e-6, 1e-12) == roots
