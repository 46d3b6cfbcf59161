"""Cross-package integration tests: the full validation chain of DESIGN.md.

1. float model -> quantized model: bounded error, classification agreement;
2. quantized model -> mapped accelerator execution: bit-exact;
3. compiled-program pricing -> stepped simulator: exact cycle agreement;
4. experiments -> paper claims (covered in tests/experiments).
"""

import numpy as np

from repro.capsnet.model import CapsuleNet
from repro.capsnet.quantized import QuantizedCapsuleNet
from repro.compiler.cost import program_layers
from repro.errors import ReproError
from repro.hw.accelerator import CapsAccAccelerator, GemmJob, gemm_cycles
from repro.hw.config import AcceleratorConfig
from repro.mapping.execute import MappedInference
from repro.perf.compare import capsacc_program


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
        mapped = MappedInference(tiny_qnet)
        for image in tiny_images:
            reference = tiny_qnet.forward(image)
            result = mapped.run(image)
            assert np.array_equal(result.class_caps_raw, reference.class_caps_raw)
            assert result.total_stats.mac_count > 0


class TestAnalyticalToSteppedChain:
    @staticmethod
    def _program_gemm_cycles(qnet, accel_config) -> dict[str, int]:
        """Sequential GEMM cycles per layer of one image, priced from the program."""
        program = capsacc_program(qnet.config, qnet.optimized_routing)
        return {
            name: report.stats.total_cycles - report.stats.activation_cycles
            for name, report in program_layers(accel_config, program, 1).items()
        }

    def test_mapped_stage_cycles_match_analytical_model(self, tiny_qnet, tiny_images):
        """Sequential per-stage GEMM cycles from the executable lowering
        match the compiled program's per-layer pricing."""
        accel_config = AcceleratorConfig()
        mapped = MappedInference(tiny_qnet, CapsAccAccelerator(accel_config, tiny_qnet.formats))
        result = mapped.run(tiny_images[0])
        priced = self._program_gemm_cycles(tiny_qnet, accel_config)
        for name in ("conv1", "primarycaps", "classcaps_fc"):
            measured = result.stage_stats[name]
            assert measured.total_cycles == priced[name], name

    def test_routing_stage_cycles_match(self, tiny_qnet, tiny_images):
        accel_config = AcceleratorConfig()
        mapped = MappedInference(tiny_qnet, CapsAccAccelerator(accel_config, tiny_qnet.formats))
        result = mapped.run(tiny_images[0])
        priced = self._program_gemm_cycles(tiny_qnet, accel_config)
        for name in ("sum1", "sum2", "update1", "update2"):
            assert result.stage_stats[name].total_cycles == priced[name], name


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
    def test_overlapped_cycles_reported_by_executor(self, rng):
        config = AcceleratorConfig(rows=4, cols=4)
        accel = CapsAccAccelerator(config)
        from repro.capsnet.hwops import QuantizedFormats

        fmts = QuantizedFormats()
        acc_fmt = fmts.acc(fmts.caps_data, fmts.coupling)
        job = GemmJob(
            "j",
            rng.integers(-20, 20, size=(6, 9)),
            rng.integers(-20, 20, size=(9, 5)),
            fmts.caps_data,
            fmts.coupling,
            acc_fmt,
        )
        result = accel.run_gemm(job)
        assert result.overlapped_cycles == gemm_cycles(config, 6, 9, 5, overlap=True)["total"]
        assert result.overlapped_cycles <= result.stats.total_cycles
