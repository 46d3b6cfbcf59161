"""Cross-package integration tests: the full validation chain of DESIGN.md.

1. float model -> quantized model: bounded error, classification agreement;
2. quantized model -> compiled program on the accelerator: bit-exact;
3. experiments -> paper claims (covered in tests/experiments).

Executed per-layer cycles against the paper figures' pricing are pinned in
``tests/hw/test_scheduler.py::TestAccounting``.
"""

import numpy as np

from repro.capsnet.model import CapsuleNet
from repro.capsnet.quantized import QuantizedCapsuleNet
from repro.compiler.cost import program_batch_cycles
from repro.compiler.executor import StreamExecutor
from repro.errors import ReproError
from repro.hw.accelerator import CapsAccAccelerator
from repro.hw.config import AcceleratorConfig
from tests.conftest import assert_matches_golden


class TestFloatToQuantizedChain:
    def test_end_to_end_error_bounded(self, tiny_config, tiny_weights, tiny_images):
        fnet = CapsuleNet(tiny_config, weights=tiny_weights)
        qnet = QuantizedCapsuleNet(tiny_config, weights=tiny_weights)
        for image in tiny_images:
            fout = fnet.forward(image)
            qout = qnet.forward(image)
            assert np.max(np.abs(qout.class_caps - fout.class_capsules)) < 0.15


class TestQuantizedToHardwareChain:
    def test_mapped_execution_bit_exact(self, tiny_qnet, tiny_images):
        result = StreamExecutor.for_network(tiny_qnet).run_batch(tiny_images)
        for b, image in enumerate(tiny_images):
            assert_matches_golden(result, b, tiny_qnet.forward(image))
        assert result.total_stats.mac_count > 0


class TestErrorHierarchy:
    def test_all_package_errors_catchable_as_repro_error(self):
        from repro import errors

        for name in (
            "QFormatError",
            "SaturationError",
            "ShapeError",
            "MappingError",
            "SimulationError",
            "ConfigError",
            "DataError",
        ):
            assert issubclass(getattr(errors, name), ReproError)

    def test_public_api_imports(self):
        import repro

        assert repro.CapsuleNet is not None
        assert repro.AcceleratorConfig is not None
        assert repro.GpuModel is not None
        assert callable(repro.gtx1070_paper_profile)


class TestOverlapConsistency:
    def test_overlapped_cycles_reported_by_executor(self, tiny_qnet, tiny_images):
        config = AcceleratorConfig(rows=4, cols=4)
        executor = StreamExecutor.for_network(
            tiny_qnet, accelerator=CapsAccAccelerator(config)
        )
        result = executor.run_batch(tiny_images[:2])
        priced = program_batch_cycles(config, executor.program, 2)
        assert result.overlapped_cycles == priced["overlapped"]
        assert result.overlapped_cycles <= result.total_cycles
        for layer in result.layers.values():
            assert layer.overlapped_cycles <= layer.stats.total_cycles
