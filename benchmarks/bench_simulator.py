"""Benchmarks of the simulator itself (the performance-sensitive code).

These measure the repository's own hot paths: the cycle-stepped systolic
array, the fast GEMM engine, the bit-accurate quantized inference and the
compiled-stream executor running the whole network.
"""

import numpy as np
import pytest

from repro.capsnet.hwops import QuantizedFormats, chunked_saturating_matmul
from repro.compiler.executor import StreamExecutor
from repro.hw.accelerator import CapsAccAccelerator, plan_tiling
from repro.hw.config import AcceleratorConfig
from repro.hw.systolic import SystolicArray

FMTS = QuantizedFormats()
ACC_FMT = FMTS.acc(FMTS.caps_data, FMTS.classcaps_weight)


@pytest.fixture(scope="module")
def gemm_operands():
    rng = np.random.default_rng(0)
    data = rng.integers(-60, 60, size=(64, 64))
    weights = rng.integers(-60, 60, size=(64, 64))
    return data, weights


def test_stepped_systolic_tile(benchmark, gemm_operands):
    """One 16x16 weight-stationary tile pass, clock edge by clock edge."""
    config = AcceleratorConfig()
    array = SystolicArray(config, FMTS.caps_data, FMTS.classcaps_weight, ACC_FMT)
    data, weights = gemm_operands
    tile = weights[:16, :16]
    stream = data[:, :16]

    def run():
        array.load_weights(tile)
        return array.run_tile(stream)

    result = benchmark(run)
    assert np.array_equal(result.psums, array.compute_tile_reference(tile, stream))


def test_stepped_full_gemm(benchmark, gemm_operands):
    config = AcceleratorConfig()
    accel = CapsAccAccelerator(config)
    data, weights = gemm_operands
    plan = plan_tiling(config, *data.shape, weights.shape[1])
    acc = benchmark(
        accel.stepped_gemm,
        data, weights, FMTS.caps_data, FMTS.classcaps_weight, ACC_FMT, plan,
    )
    expected = np.clip(data.astype(np.int64) @ weights, ACC_FMT.raw_min, ACC_FMT.raw_max)
    assert np.array_equal(acc, expected)


def test_fast_full_gemm(benchmark, gemm_operands):
    config = AcceleratorConfig()
    data, weights = gemm_operands
    acc = benchmark(chunked_saturating_matmul, data, weights, ACC_FMT, config.rows)
    expected = np.clip(data.astype(np.int64) @ weights, ACC_FMT.raw_min, ACC_FMT.raw_max)
    assert np.array_equal(acc, expected)


def test_quantized_inference_tiny(benchmark, tiny_qnet, tiny_image):
    out = benchmark(tiny_qnet.forward, tiny_image)
    assert out.saturation.rate < 0.01


def test_stream_executor_tiny(benchmark, tiny_qnet, tiny_image):
    executor = StreamExecutor.for_network(tiny_qnet)
    reference = tiny_qnet.forward(tiny_image)
    result = benchmark(executor.run_batch, tiny_image[np.newaxis])
    assert np.array_equal(result.class_caps_raw[0], reference.class_caps_raw)
