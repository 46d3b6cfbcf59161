"""Trace a complete inference through the cycle-level accelerator.

Runs the (fast-to-simulate) tiny CapsuleNet's compiled program on the
accelerator — every convolution, the per-capsule FC, and all routing
dataflows of paper Fig 12 — and prints, per layer: cycles, MACs, achieved
utilization and data-buffer reads.  Verifies on the way that the
accelerator output is bit-identical to the quantized reference (the paper's
functional-compliance claim).

Run:  python examples/dataflow_trace.py
"""

import numpy as np

from repro.capsnet.config import tiny_capsnet_config
from repro.capsnet.quantized import QuantizedCapsuleNet
from repro.compiler.executor import StreamExecutor
from repro.data.synthetic import SyntheticDigits
from repro.hw.accelerator import CapsAccAccelerator
from repro.hw.config import AcceleratorConfig

#: Executed result field -> the quantized reference's field.
CHECKED = {
    "conv1_raw": "conv1_out_raw",
    "primary_raw": "primary_raw",
    "u_hat_raw": "u_hat_raw",
    "class_caps_raw": "class_caps_raw",
    "coupling_raw": "coupling_raw",
}


def main() -> None:
    config = tiny_capsnet_config()
    qnet = QuantizedCapsuleNet(config)
    accel_config = AcceleratorConfig()  # 16x16, paper instance
    accelerator = CapsAccAccelerator(accel_config, qnet.formats)
    executor = StreamExecutor.for_network(qnet, accelerator)

    image = SyntheticDigits(size=config.image_size, seed=1).generate(1, classes=(2,)).images[0]
    reference = qnet.forward(image)
    result = executor.run_batch(image[np.newaxis])

    exact = all(
        np.array_equal(getattr(result, field)[0], getattr(reference, golden))
        for field, golden in CHECKED.items()
    )
    print(f"Accelerator output bit-identical to quantized reference: {exact}")
    print(f"Prediction: class {int(result.predictions[0])}")

    print(
        f"\n{'layer':16s} {'cycles':>9s} {'us@250MHz':>10s} {'MACs':>10s}"
        f" {'util':>6s} {'data rd':>8s}"
    )
    for name, report in result.layers.items():
        stats = report.stats
        us = accel_config.cycles_to_us(stats.total_cycles)
        util = stats.utilization(accel_config.num_pes)
        data_reads = stats.accesses.get("data_buffer.read", 0)
        print(
            f"{name:16s} {stats.total_cycles:9d} {us:10.2f} {stats.mac_count:10d}"
            f" {util * 100:5.1f}% {data_reads:8d}"
        )
    total = result.total_stats
    print(f"{'TOTAL':16s} {total.total_cycles:9d}"
          f" {accel_config.cycles_to_us(total.total_cycles):10.2f}"
          f" {total.mac_count:10d}")

    print("\nBuffer traffic (words):")
    print(f"  data buffer    reads {accelerator.data_buffer.reads:>9d}")
    print(f"  weight buffer  reads {accelerator.weight_buffer.reads:>9d}")
    print(f"  routing buffer reads {accelerator.routing_buffer.reads:>9d}")
    print("\nNote how sum2/sum3 and the updates show zero data-buffer reads:")
    print("predictions are reused through the horizontal feedback path (Fig 12c/d).")


if __name__ == "__main__":
    main()
