"""Property-based tests (hypothesis) for the hardware simulator."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.capsnet.hwops import QuantizedFormats, chunked_saturating_matmul
from repro.hw.accelerator import CapsAccAccelerator, gemm_cycles, plan_tiling
from repro.hw.config import AcceleratorConfig
from repro.hw.systolic import SystolicArray

FMTS = QuantizedFormats()
DATA = FMTS.caps_data
WEIGHT = FMTS.classcaps_weight
ACC = FMTS.acc(DATA, WEIGHT)


@st.composite
def gemm_instances(draw):
    """Random small GEMM instances with safe (non-saturating) values."""
    m = draw(st.integers(1, 12))
    k = draw(st.integers(1, 12))
    n = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    data = rng.integers(-100, 100, size=(m, k))
    weights = rng.integers(-100, 100, size=(k, n))
    return data, weights


@given(instance=gemm_instances())
@settings(max_examples=40, deadline=None)
def test_stepped_gemm_always_matches_reference(instance):
    data, weights = instance
    config = AcceleratorConfig(rows=4, cols=4)
    accel = CapsAccAccelerator(config)
    plan = plan_tiling(config, data.shape[0], data.shape[1], weights.shape[1])
    acc = accel.stepped_gemm(data, weights, DATA, WEIGHT, ACC, plan)
    expected = np.clip(data.astype(np.int64) @ weights, ACC.raw_min, ACC.raw_max)
    assert np.array_equal(acc, expected)


@given(instance=gemm_instances())
@settings(max_examples=100, deadline=None)
def test_fast_gemm_always_matches_reference(instance):
    data, weights = instance
    config = AcceleratorConfig(rows=4, cols=4)
    acc = chunked_saturating_matmul(data, weights, ACC, config.rows)
    expected = np.clip(data.astype(np.int64) @ weights, ACC.raw_min, ACC.raw_max)
    assert np.array_equal(acc, expected)


@given(
    m=st.integers(1, 500),
    k=st.integers(1, 500),
    n=st.integers(1, 500),
)
@settings(max_examples=150, deadline=None)
def test_cycle_model_invariants(m, k, n):
    config = AcceleratorConfig()
    sequential = gemm_cycles(config, m, k, n, overlap=False)
    overlapped = gemm_cycles(config, m, k, n, overlap=True)
    # Overlap never hurts, compute term is identical, totals exceed compute.
    assert overlapped["total"] <= sequential["total"]
    assert overlapped["compute"] == sequential["compute"]
    assert sequential["total"] >= sequential["compute"]
    # The array can at most do rows*cols useful MACs per cycle.
    assert m * k * n <= sequential["total"] * config.num_pes


@given(
    m=st.integers(1, 200),
    k=st.integers(1, 200),
    n=st.integers(1, 200),
    grow=st.sampled_from(["m", "k", "n"]),
)
@settings(max_examples=100, deadline=None)
def test_cycles_monotone_in_every_dimension(m, k, n, grow):
    config = AcceleratorConfig()
    base = gemm_cycles(config, m, k, n, overlap=True)["total"]
    grown = {
        "m": (m + 1, k, n),
        "k": (m, k + 1, n),
        "n": (m, k, n + 1),
    }[grow]
    bigger = gemm_cycles(config, *grown, overlap=True)["total"]
    assert bigger >= base


@given(
    seed=st.integers(0, 2**31 - 1),
    rows=st.integers(2, 6),
    cols=st.integers(2, 6),
)
@settings(max_examples=30, deadline=None)
def test_tile_pass_matches_reference_any_geometry(seed, rows, cols):
    rng = np.random.default_rng(seed)
    config = AcceleratorConfig(rows=rows, cols=cols)
    array = SystolicArray(config, DATA, WEIGHT, ACC)
    tile = rng.integers(-80, 80, size=(rows, cols))
    vectors = rng.integers(-80, 80, size=(rng.integers(1, 9), rows))
    array.load_weights(tile)
    result = array.run_tile(vectors)
    assert np.array_equal(result.psums, array.compute_tile_reference(tile, vectors))
    assert result.cycles == vectors.shape[0] + rows + cols - 1
