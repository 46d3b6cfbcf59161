"""Executable lowering: run a quantized inference through the accelerator.

:class:`MappedInference` lowers every stage of a
:class:`~repro.capsnet.quantized.QuantizedCapsuleNet` onto
:class:`~repro.hw.accelerator.CapsAccAccelerator` GEMM jobs and activation
unit calls, following the paper's dataflow mappings (Section V).  The
results are **bit-identical** to the quantized reference — the reproduction
of the paper's statement that the hardware is "fully functionally compliant
with the original CapsuleNet design", which is why the paper reports no
separate accuracy numbers.  The integration tests assert this equivalence
end to end.

The lowering also accumulates cycle statistics per stage, which the tests
cross-check against the compiled program's per-layer pricing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.capsnet.ops import im2col
from repro.capsnet.quantized import QuantizedCapsuleNet
from repro.errors import ShapeError
from repro.fixedpoint.arith import requantize, saturate_raw
from repro.fixedpoint.quantize import to_raw
from repro.hw.accelerator import CapsAccAccelerator, GemmJob
from repro.hw.activation import ActivationUnit
from repro.hw.stats import CycleStats


@dataclass
class MappedResult:
    """Outputs and per-stage statistics of one mapped inference."""

    conv1_raw: np.ndarray
    primary_raw: np.ndarray
    u_hat_raw: np.ndarray
    class_caps_raw: np.ndarray
    coupling_raw: np.ndarray
    stage_stats: dict[str, CycleStats] = field(default_factory=dict)

    @property
    def total_stats(self) -> CycleStats:
        """Summed statistics over all stages."""
        total = CycleStats()
        for stats in self.stage_stats.values():
            total = total + stats
        return total


class MappedInference:
    """Runs a quantized CapsuleNet on the cycle-level accelerator."""

    def __init__(
        self,
        qnet: QuantizedCapsuleNet,
        accelerator: CapsAccAccelerator | None = None,
        engine: str = "fast",
        conv_policy: str = "channel_parallel",
    ) -> None:
        self.qnet = qnet
        if accelerator is None:
            accelerator = CapsAccAccelerator(formats=qnet.formats)
        self.accelerator = accelerator
        # Share the quantized model's ROMs so both paths are the same bits.
        self.activation = ActivationUnit(qnet.formats, qnet.luts)
        self.engine = engine
        if conv_policy not in ("channel_parallel", "channel_serial"):
            raise ShapeError(f"unknown conv mapping policy {conv_policy!r}")
        self.conv_policy = conv_policy

    # ---- stages ---------------------------------------------------------------

    def _conv_gemm(
        self,
        name: str,
        x_raw: np.ndarray,
        weight_raw: np.ndarray,
        bias_raw: np.ndarray,
        stride: int,
        data_fmt,
        weight_fmt,
        acc_fmt,
    ) -> tuple[np.ndarray, CycleStats]:
        """Lower one convolution to im2col GEMM job(s) (Fig 12a / 14a-b).

        ``channel_parallel`` issues one GEMM with output channels across
        columns; ``channel_serial`` (the paper's accumulator-minimizing
        traversal) issues one single-column GEMM per output channel —
        bit-identical results, different cycle cost.
        """
        kernel_size = weight_raw.shape[2]
        patches = im2col(np.asarray(x_raw, dtype=np.int64), kernel_size, stride)
        wmat = weight_raw.reshape(weight_raw.shape[0], -1).T  # (K, N)
        if self.conv_policy == "channel_parallel":
            job = GemmJob(name, patches, wmat, data_fmt, weight_fmt, acc_fmt)
            result = self.accelerator.run_gemm(job, engine=self.engine)
            acc = result.acc
            stats = result.stats
        else:
            acc = np.zeros((patches.shape[0], wmat.shape[1]), dtype=np.int64)
            stats = CycleStats()
            for channel in range(wmat.shape[1]):
                job = GemmJob(
                    f"{name}_ch{channel}",
                    patches,
                    wmat[:, channel : channel + 1],
                    data_fmt,
                    weight_fmt,
                    acc_fmt,
                )
                result = self.accelerator.run_gemm(job, engine=self.engine)
                acc[:, channel : channel + 1] = result.acc
                stats = stats + result.stats
        acc = saturate_raw(acc + bias_raw[np.newaxis, :], acc_fmt)
        return acc, stats

    def run(self, image: np.ndarray) -> MappedResult:
        """Execute one full inference pass on the accelerator."""
        qnet = self.qnet
        fmts = qnet.formats
        config = qnet.config
        if image.ndim == 2:
            image = image[np.newaxis]
        expected = (config.in_channels, config.image_size, config.image_size)
        if image.shape != expected:
            raise ShapeError(f"image shape {image.shape} != {expected}")
        stage_stats: dict[str, CycleStats] = {}

        # ---- Conv1 (Fig 12a) --------------------------------------------------
        image_raw = to_raw(image, fmts.input)
        conv1_acc_fmt = fmts.acc(fmts.input, fmts.conv1_weight)
        conv1_acc, stats = self._conv_gemm(
            "conv1",
            image_raw,
            qnet.raw_weights["conv1_w"],
            qnet.raw_weights["conv1_b"],
            config.conv1.stride,
            fmts.input,
            fmts.conv1_weight,
            conv1_acc_fmt,
        )
        stage_stats["conv1"] = stats
        conv1_out = self.activation.relu(conv1_acc, conv1_acc_fmt, fmts.conv1_out)
        size = config.conv1_out_size
        conv1_raw = conv1_out.T.reshape(config.conv1.out_channels, size, size)

        # ---- PrimaryCaps (Fig 12a) ---------------------------------------------
        primary_acc_fmt = fmts.acc(fmts.conv1_out, fmts.primary_weight)
        primary_acc, stats = self._conv_gemm(
            "primarycaps",
            conv1_raw,
            qnet.raw_weights["primary_w"],
            qnet.raw_weights["primary_b"],
            config.primary.stride,
            fmts.conv1_out,
            fmts.primary_weight,
            primary_acc_fmt,
        )
        stage_stats["primarycaps"] = stats
        preact_flat = requantize(primary_acc, primary_acc_fmt, fmts.primary_preact)
        spec = config.primary
        out_size = config.primary_out_size
        preact = preact_flat.T.reshape(spec.conv_out_channels, out_size, out_size)
        grouped = preact.reshape(spec.capsule_channels, spec.capsule_dim, out_size, out_size)
        capsules = grouped.transpose(2, 3, 0, 1).reshape(-1, spec.capsule_dim)
        primary_raw = self.activation.squash(capsules, fmts.primary_preact)

        # ---- ClassCaps FC (Fig 14c) --------------------------------------------
        u_hat_raw, stats = self._classcaps_fc(primary_raw)
        stage_stats["classcaps_fc"] = stats

        # ---- Routing (Fig 12b/c/d) ----------------------------------------------
        v_raw, c_raw, routing_stats = self._route(u_hat_raw)
        stage_stats.update(routing_stats)

        return MappedResult(
            conv1_raw=conv1_raw,
            primary_raw=primary_raw,
            u_hat_raw=u_hat_raw,
            class_caps_raw=v_raw,
            coupling_raw=c_raw,
            stage_stats=stage_stats,
        )

    def _classcaps_fc(self, primary_raw: np.ndarray) -> tuple[np.ndarray, CycleStats]:
        """One GEMM per input capsule against its private weight matrix."""
        qnet = self.qnet
        fmts = qnet.formats
        config = qnet.config
        acc_fmt = fmts.acc(fmts.caps_data, fmts.classcaps_weight)
        num_in = config.num_primary_capsules
        num_out = config.classcaps.num_classes
        out_dim = config.classcaps.out_dim
        in_dim = config.primary.capsule_dim
        w = qnet.raw_weights["classcaps_w"]
        u_hat = np.zeros((num_in, num_out, out_dim), dtype=np.int64)
        total = CycleStats()
        for i in range(num_in):
            wmat = w[i].reshape(num_out * out_dim, in_dim).T  # (K, N)
            job = GemmJob(
                f"fc_capsule_{i}",
                primary_raw[i : i + 1],
                wmat,
                fmts.caps_data,
                fmts.classcaps_weight,
                acc_fmt,
            )
            result = self.accelerator.run_gemm(job, engine=self.engine)
            u_hat[i] = requantize(result.acc, acc_fmt, fmts.caps_data).reshape(
                num_out, out_dim
            )
            total = total + result.stats
        return u_hat, total

    def _route(
        self, u_hat_raw: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, dict[str, CycleStats]]:
        """Quantized routing using GEMM jobs and the activation units."""
        qnet = self.qnet
        fmts = qnet.formats
        config = qnet.config
        num_in, num_out, out_dim = u_hat_raw.shape
        iterations = config.classcaps.routing_iterations
        sum_acc_fmt = fmts.acc(fmts.caps_data, fmts.coupling)
        upd_acc_fmt = fmts.acc(fmts.caps_data, fmts.caps_data)
        stats: dict[str, CycleStats] = {}
        b_raw = np.zeros((num_in, num_out), dtype=np.int64)

        if qnet.optimized_routing:
            c_raw = np.full(
                (num_in, num_out), qnet._uniform_coupling_code(num_out), dtype=np.int64
            )
        else:
            c_raw = self.activation.softmax(b_raw, axis=1)

        v_raw = np.zeros((num_out, out_dim), dtype=np.int64)
        for iteration in range(1, iterations + 1):
            if iteration > 1:
                c_raw = self.activation.softmax(b_raw, axis=1)
            # Sum: one GEMM per output capsule; predictions arrive from the
            # data buffer first, from the feedback path afterwards.
            source = "data_buffer" if iteration == 1 else "feedback"
            s_raw = np.zeros((num_out, out_dim), dtype=np.int64)
            sum_stats = CycleStats()
            for j in range(num_out):
                job = GemmJob(
                    f"sum{iteration}_caps{j}",
                    u_hat_raw[:, j, :].T,  # (out_dim, num_in)
                    c_raw[:, j : j + 1],  # (num_in, 1)
                    fmts.caps_data,
                    fmts.coupling,
                    sum_acc_fmt,
                    data_source=source,
                    weight_source="routing_buffer",
                )
                result = self.accelerator.run_gemm(job, engine=self.engine)
                s_raw[j] = requantize(
                    result.acc[:, 0], sum_acc_fmt, fmts.primary_preact
                )
                sum_stats = sum_stats + result.stats
            stats[f"sum{iteration}"] = sum_stats
            v_raw = self.activation.squash(s_raw, fmts.primary_preact)
            if iteration < iterations:
                update_stats = CycleStats()
                delta = np.zeros((num_in, num_out), dtype=np.int64)
                for j in range(num_out):
                    job = GemmJob(
                        f"update{iteration}_caps{j}",
                        u_hat_raw[:, j, :],  # (num_in, out_dim)
                        v_raw[j][:, np.newaxis],  # (out_dim, 1)
                        fmts.caps_data,
                        fmts.caps_data,
                        upd_acc_fmt,
                        data_source="feedback",
                        weight_source="routing_buffer",
                    )
                    result = self.accelerator.run_gemm(job, engine=self.engine)
                    delta[:, j] = requantize(result.acc[:, 0], upd_acc_fmt, fmts.logits)
                    update_stats = update_stats + result.stats
                stats[f"update{iteration}"] = update_stats
                b_raw = saturate_raw(b_raw + delta, fmts.logits)
        return v_raw, c_raw, stats
