"""Positive-kernel projective contraction and the bracketed ratio limit."""

import hashlib
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import logsumexp

from percolab.config import Config
from percolab.kernels import (
    Kernel,
    _logsumexp,
    apply_kernel,
    contract_check,
    cross_ratio_kappa,
    oscillation,
    random_kernel,
    ratio_limit,
)

BASE = Kernel.from_entries(("a", "b"), ("a", "b"), [[2, 1], [1, 2]])


def test_oscillation_conventions():
    assert oscillation((1, 1), (2, 1)) == Fraction(1, 2)
    assert oscillation((3, 6, 9), (1, 2, 3)) == 0  # proportional
    assert oscillation([1.0, 4.0], [1.0, 1.0]) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        oscillation((1, -1), (1, 1))
    with pytest.raises(ValueError):
        oscillation((1,), (1, 2))


def test_cross_ratio_kappa_hand_values():
    assert cross_ratio_kappa(BASE) == pytest.approx(2.0)  # sqrt(2*2/(1*1))
    const = Kernel.from_entries(("a", "b"), ("u", "v"), [[3, 3], [3, 3]])
    assert cross_ratio_kappa(const) == pytest.approx(1.0)
    rank1 = Kernel.from_entries(("a", "b"), ("u", "v"), [[1, 2], [3, 6]])
    assert cross_ratio_kappa(rank1) == pytest.approx(1.0)


def test_apply_kernel_exact():
    assert apply_kernel(BASE, (Fraction(1), Fraction(2))) \
        == [Fraction(4), Fraction(5)]


@pytest.mark.parametrize("f", [[0.0, 1.0], [-1.0, 1.0], [float("inf"), 1.0]])
def test_apply_kernel_refuses_bad_input_before_the_log(f):
    # the float path checks f before taking its log: no warning, no -inf rows
    T = Kernel.from_entries(("a", "b"), ("a", "b"), [[2.0, 1.0], [1.0, 2.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            apply_kernel(T, f)
        with pytest.raises(ValueError):
            contract_check(T, f, [1.0, 1.0])


@st.composite
def _log_arrays(draw):
    r, c = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    # a small pool makes tied maxima common
    entry = st.one_of(
        st.sampled_from([-3.0, -0.5, 0.0, 0.5, 2.0]),
        st.floats(-1000.0, 1000.0, allow_nan=False, allow_infinity=False),
    )
    rows = draw(st.lists(st.lists(entry, min_size=c, max_size=c),
                         min_size=r, max_size=r))
    return np.array(rows, dtype=float)


@settings(max_examples=300)
@given(_log_arrays(), st.sampled_from([0, 1]))
def test_logsumexp_bit_identical_to_scipy(a, axis):
    assert np.array_equal(_logsumexp(a, axis), logsumexp(a, axis=axis))


def test_contract_check_hopf_demo_draw_frozen():
    # hopf-demo's default draw; recorded with scipy's logsumexp, so it holds
    # the float path to the same bits whatever scipy is installed
    hp = Config.from_dict({}).section("hopf")
    rng = np.random.default_rng(hp["rng_seed"])
    lo, hi = np.log(hp["entry_low"]), np.log(hp["entry_high"])
    triples = []
    for _ in range(hp["n_kernels"]):
        nr = int(rng.integers(hp["size_min"], hp["size_max"] + 1))
        nc = int(rng.integers(hp["size_min"], hp["size_max"] + 1))
        T = random_kernel(rng, nr, nc, hp["entry_low"], hp["entry_high"])
        f = np.exp(rng.uniform(lo, hi, nc))
        g = np.exp(rng.uniform(lo, hi, nc))
        triples.append(contract_check(T, f, g))
    digest = hashlib.sha256(repr(triples).encode()).hexdigest()[:16]
    assert digest == "98b7f73db5872d03"


def test_contract_check_random_kernels():
    rng = np.random.default_rng(123)
    for _ in range(500):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(2, 9))
        T = random_kernel(rng, n, m, 0.1, 10.0)
        f = rng.uniform(0.1, 10.0, size=m)
        g = rng.uniform(0.1, 10.0, size=m)
        lhs, rhs, holds = contract_check(T, f, g)
        assert holds, (lhs, rhs)


def test_contract_check_exact_inputs():
    f = (Fraction(1, 3), Fraction(5, 2))
    g = (Fraction(2), Fraction(1, 7))
    lhs, rhs, holds = contract_check(BASE, f, g)
    assert holds and lhs <= rhs


def test_ratio_limit_frozen_symmetric_chain():
    rep = ratio_limit([BASE] * 30, kappa_bound=2.0)
    assert rep.exact_path  # rational entries keep the bracket exact
    for pair, alpha in rep.alpha.items():
        assert alpha == pytest.approx(1.0, abs=1e-10)
    w = max(rep.bracket_width.values())
    assert w == pytest.approx(1.9427742998475446e-14, rel=1e-6)
    assert abs(rep.decay_rate - 1 / 3) <= 0.1 / 3  # (kappa-1)/(kappa+1)


def test_ratio_limit_brackets_monotone():
    rep = ratio_limit([BASE] * 20, kappa_bound=2.0)
    for pair in rep.per_pair_min:
        mins = rep.per_pair_min[pair]
        maxs = rep.per_pair_max[pair]
        assert all(a <= b for a, b in zip(mins, mins[1:]))
        assert all(a >= b for a, b in zip(maxs, maxs[1:]))
        assert all(lo <= hi for lo, hi in zip(mins, maxs))
    widths = rep.widths_by_step
    assert all(b <= a for a, b in zip(widths, widths[1:]))


def test_ratio_limit_mixed_sizes():
    rng = np.random.default_rng(42)
    rows = tuple("r%d" % i for i in range(3))
    mid = tuple("m%d" % i for i in range(4))
    Ts = [random_kernel(rng, 3, 4, 0.5, 2.0), random_kernel(rng, 4, 4, 0.5, 2.0)]
    Ts = [Kernel(rows=rows, cols=mid, log_mat=Ts[0].log_mat, exact=Ts[0].exact),
          Kernel(rows=mid, cols=mid, log_mat=Ts[1].log_mat, exact=Ts[1].exact)]
    chain = [Ts[0]] + [Ts[1]] * 12
    rep = ratio_limit(chain, kappa_bound=50.0)
    assert rep.widths_by_step[-1] < rep.widths_by_step[0]
    # the float chain's widths, frozen as scipy's logsumexp computed them
    assert not rep.exact_path
    assert rep.widths_by_step == [
        2.090895588812029, 0.28892702363155776, 0.042489694701030256,
        0.005435529642707104, 0.0003044346210947513, 6.510949623828033e-05,
        3.3908303485041813e-06, 8.18848165717867e-07, 4.129440789313321e-08,
        9.217153262852662e-09, 5.595197638541549e-10, 9.596523575794436e-11,
        9.422018720783853e-12,
    ]
