"""Design-space exploration: latency / area / power across configurations.

Sweeps the systolic array size and datapath width, evaluating for each
point the inference latency (the compiled program, priced in closed
form), silicon area and power
(synthesis model) — the kind of study the CapsAcc architecture enables and
the paper's Section VI parameters sit in the middle of.

Run:  python examples/design_space_exploration.py
"""

from repro.capsnet.config import mnist_capsnet_config
from repro.hw.config import AcceleratorConfig
from repro.perf.compare import capsacc_layer_cycles
from repro.synthesis.report import SynthesisReport


def evaluate(config: AcceleratorConfig, network) -> tuple[float, float, float]:
    """Latency (ms), area (mm^2) and power (mW) of one design point."""
    cycles = sum(capsacc_layer_cycles(network, config).values())
    synth = SynthesisReport(config=config).table2()
    return cycles / config.clock_mhz / 1e3, synth["area_mm2"], synth["power_mw"]


def main() -> None:
    network = mnist_capsnet_config()

    print("Array-size sweep (8-bit datapath):")
    print(f"{'array':>8s} {'latency ms':>11s} {'area mm2':>9s} {'power mW':>9s} {'ms*mm2':>8s}")
    for size in (4, 8, 16, 32, 64):
        config = AcceleratorConfig().with_array(size, size)
        ms, mm2, mw = evaluate(config, network)
        print(f"{size:>4d}x{size:<3d} {ms:11.3f} {mm2:9.2f} {mw:9.1f} {ms * mm2:8.2f}")
    print("(the paper's 16x16 point balances latency against area)")

    print("\nBit-width sweep (16x16 array):")
    print(f"{'width':>8s} {'latency ms':>11s} {'area mm2':>9s} {'power mW':>9s}")
    for bits in (4, 8, 12, 16):
        config = AcceleratorConfig(
            data_bits=bits, weight_bits=bits, acc_bits=2 * bits + 9
        )
        ms, mm2, mw = evaluate(config, network)
        print(f"{f'{bits}b':>8s} {ms:11.3f} {mm2:9.2f} {mw:9.1f}")
    print("(latency is width-independent; area and power pay for precision)")

    print("\nWeight double-buffering (the Weight2 register of Fig 11b):")
    for label, config in (
        ("with Weight2", AcceleratorConfig()),
        ("without", AcceleratorConfig().without_weight_reuse()),
    ):
        ms, _, _ = evaluate(config, network)
        print(f"  {label:14s} {ms:7.3f} ms")


if __name__ == "__main__":
    main()
