"""Quickstart: run the paper's MNIST CapsuleNet through the CapsAcc stack.

Builds the exact network of paper Fig 1, classifies a synthetic digit with
the float reference and the 8-bit quantized (hardware golden) path, then
prices the compiled program on the accelerator and compares against the
GPU baseline — the headline numbers of paper Figs 16/17.

Run:  python examples/quickstart.py
"""

from repro.capsnet.config import mnist_capsnet_config
from repro.capsnet.model import CapsuleNet
from repro.capsnet.quantized import QuantizedCapsuleNet
from repro.compiler.cost import program_stats
from repro.data.synthetic import SyntheticDigits
from repro.hw.config import AcceleratorConfig
from repro.perf.compare import (
    capsacc_layer_cycles,
    capsacc_program,
    compare_layers,
    layer_times_us,
)


def main() -> None:
    config = mnist_capsnet_config()
    print(f"CapsuleNet: {config.total_parameter_count:,} trainable parameters")
    print(f"Primary capsules: {config.num_primary_capsules} x {config.primary.capsule_dim}D")

    # One digit through both inference paths.
    digit = SyntheticDigits(seed=42).generate(1, classes=(7,))
    image = digit.images[0]

    float_net = CapsuleNet(config)
    quant_net = QuantizedCapsuleNet(config)
    float_out = float_net.forward(image)
    quant_out = quant_net.forward(image)
    max_err = abs(quant_out.class_caps - float_out.class_capsules).max()
    print("\nFloat capsule lengths:", [f"{x:.3f}" for x in float_out.lengths])
    print(f"8-bit vs float class-capsule error: max {max_err:.4f}")
    print(f"Quantized saturation rate: {quant_out.saturation.rate:.2e}")
    print("(weights are pseudo-trained — dataflow and performance are the"
          " point here; see examples/accuracy_parity.py for accuracy)")

    # Accelerator performance (paper Table II instance: 16x16 @ 250 MHz),
    # priced from the compiled instruction stream.
    accel = AcceleratorConfig()
    cycles = capsacc_layer_cycles(config, accel)
    total = sum(cycles.values())
    macs = program_stats(accel, capsacc_program(config), 1).mac_count
    print(f"\nCapsAcc inference latency: {total / accel.clock_mhz / 1e3:.3f} ms"
          f" at {accel.clock_mhz:.0f} MHz"
          f" ({macs / (total * accel.num_pes) * 100:.0f}% PE utilization)")
    for layer, us in layer_times_us(cycles, accel.clock_mhz).items():
        print(f"  {layer:12s} {us / 1e3:8.3f} ms")

    # Against the GPU baseline (paper Fig 16).
    print("\nCapsAcc vs GPU (paper annotations: ClassCaps 12x, Total 6x):")
    for name, gpu_us, acc_us, speedup, _ in compare_layers(network=config).as_table():
        print(f"  {name:12s} GPU {gpu_us / 1e3:8.2f} ms"
              f"  CapsAcc {acc_us / 1e3:8.2f} ms  -> {speedup:5.2f}x")


if __name__ == "__main__":
    main()
