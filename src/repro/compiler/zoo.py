"""The model zoo: networks as data, ready to compile and serve.

Every zoo entry is a :class:`CompiledNetwork` — a validated IR graph, its
compiled instruction stream, raw fixed-point parameters and the LUT ROMs —
which both schedulers and the serving stack consume directly.  Entries:

==========  ==================================================================
``mnist``   the paper's MNIST CapsNet (identical bits to
            :class:`~repro.capsnet.quantized.QuantizedCapsuleNet`)
``tiny``    the reduced CapsNet used by fast tests and smoke benchmarks
``cifar``   a CIFAR/SVHN-shape capsule network (32x32x3 input, 10 classes)
``mnist-res``/``tiny-res``  deeper residual capsule variants (MoCapsNet
            style): a 1x1-conv residual block with a saturating skip-add
            between Conv1 and PrimaryCaps
``mlp``     a two-layer fully-connected baseline (784-100-10)
``cnn``     a small conv + FC baseline
==========  ==================================================================

CapsNet entries share the exact raw weight bits of their
:class:`QuantizedCapsuleNet` twin (same pseudo-trained weights, same
quantization), so golden equivalence is testable end to end.  Baseline and
residual parameters are deterministic fan-in-scaled pseudo-trained weights,
like :func:`repro.capsnet.weights.pseudo_trained_weights`.

Programs are memoized per ``(config, optimized_routing, formats)`` — the
instruction stream is shape-driven, so every scheduler/serving rebuild
reuses the settled compilation.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.capsnet.config import (
    CapsNetConfig,
    custom_capsnet_config,
    mnist_capsnet_config,
    tiny_capsnet_config,
)
from repro.capsnet.hwops import HardwareLuts, QuantizedFormats
from repro.capsnet.quantized import QuantizedCapsuleNet
from repro.compiler.ir import Graph, GraphBuilder
from repro.compiler.isa import Program
from repro.compiler.lower import compile_graph
from repro.errors import ConfigError
from repro.fixedpoint.formats import QFormat
from repro.fixedpoint.quantize import to_raw


@dataclass
class CompiledNetwork:
    """A servable network: graph, program, parameters and ROMs."""

    name: str
    graph: Graph
    program: Program
    #: Raw ``int64`` parameter arrays, keyed by the graph's param names.
    params: dict[str, np.ndarray]
    formats: QuantizedFormats
    luts: HardwareLuts
    #: Per-image input shape ``(C, H, W)``.
    input_shape: tuple[int, ...]
    num_classes: int
    #: Hashable shape-level identity for cycle/timeline caches (parameters
    #: do not affect scheduling, so they are deliberately not part of it).
    key: tuple = ()
    #: Set for CapsNet-architecture entries (``None`` for baselines).
    config: CapsNetConfig | None = None
    qnet: QuantizedCapsuleNet | None = field(default=None, repr=False)


# ---- graph builders ----------------------------------------------------------


def capsnet_graph(
    config: CapsNetConfig,
    formats: QuantizedFormats | None = None,
    optimized_routing: bool = True,
    residual: bool = False,
    name: str = "capsnet",
) -> Graph:
    """The CapsNet layer DAG (optionally with one residual conv block)."""
    fmts = formats if formats is not None else QuantizedFormats()
    b = GraphBuilder(name)
    conv1 = config.conv1
    x = b.input("image", (conv1.in_channels, config.image_size, config.image_size), fmts.input)

    conv1_acc = fmts.acc(fmts.input, fmts.conv1_weight)
    b.param("conv1_w", (conv1.out_channels, conv1.in_channels, conv1.kernel_size, conv1.kernel_size), fmts.conv1_weight)
    b.param("conv1_b", (conv1.out_channels,), conv1_acc)
    acc = b.op(
        "conv2d", x, conv1_acc, name="conv1",
        weight="conv1_w", bias="conv1_b", stride=conv1.stride, layer="conv1",
    )
    relu = b.op("relu", acc, fmts.conv1_out, name="conv1_relu", layer="conv1")
    size = config.conv1_out_size
    fmap = b.op(
        "reshape",
        b.op("transpose", relu, fmts.conv1_out, name="conv1_t", perm=(1, 0)),
        fmts.conv1_out,
        name="conv1_fmap",
        shape=(conv1.out_channels, size, size),
    )
    if residual:
        res_acc = fmts.acc(fmts.conv1_out, fmts.conv1_weight)
        b.param("res_w", (conv1.out_channels, conv1.out_channels, 1, 1), fmts.conv1_weight)
        b.param("res_b", (conv1.out_channels,), res_acc)
        racc = b.op(
            "conv2d", fmap, res_acc, name="resblock",
            weight="res_w", bias="res_b", stride=1, layer="resblock",
        )
        rrelu = b.op("relu", racc, fmts.conv1_out, name="resblock_relu", layer="resblock")
        rmap = b.op(
            "reshape",
            b.op("transpose", rrelu, fmts.conv1_out, name="resblock_t", perm=(1, 0)),
            fmts.conv1_out,
            name="resblock_fmap",
            shape=(conv1.out_channels, size, size),
        )
        fmap = b.op("add", (fmap, rmap), fmts.conv1_out, name="res_add")

    primary = config.primary
    primary_acc = fmts.acc(fmts.conv1_out, fmts.primary_weight)
    b.param("primary_w", (primary.conv_out_channels, primary.in_channels, primary.kernel_size, primary.kernel_size), fmts.primary_weight)
    b.param("primary_b", (primary.conv_out_channels,), primary_acc)
    pacc = b.op(
        "conv2d", fmap, primary_acc, name="primarycaps",
        weight="primary_w", bias="primary_b", stride=primary.stride, layer="primarycaps",
    )
    preact = b.op("requant", pacc, fmts.primary_preact, name="primary_preact")
    out_size = config.primary_out_size
    caps = b.op(
        "reshape",
        b.op(
            "transpose",
            b.op(
                "reshape",
                b.op("transpose", preact, fmts.primary_preact, name="primary_t", perm=(1, 0)),
                fmts.primary_preact,
                name="primary_grouped",
                shape=(primary.capsule_channels, primary.capsule_dim, out_size, out_size),
            ),
            fmts.primary_preact,
            name="primary_spatial",
            perm=(2, 3, 0, 1),
        ),
        fmts.primary_preact,
        name="primary_capsules",
        shape=(config.num_primary_capsules, primary.capsule_dim),
    )
    prim = b.op("squash", caps, fmts.caps_data, name="primarycaps_squash", layer="primarycaps")

    classcaps = config.classcaps
    b.param(
        "classcaps_w",
        (config.num_primary_capsules, classcaps.num_classes, classcaps.out_dim, primary.capsule_dim),
        fmts.classcaps_weight,
    )
    u_hat = b.op("caps_gemm", prim, fmts.caps_data, name="classcaps_fc", weight="classcaps_w")
    v, c = b.op(
        "route", u_hat, (fmts.caps_data, fmts.coupling), name="routing",
        iterations=classcaps.routing_iterations, optimized=optimized_routing,
    )
    sumsq = b.op("norm", v, fmts.acc(fmts.caps_data, fmts.caps_data), name="length")
    pred = b.op("argmax", sumsq, QFormat(8, 0), name="predict")

    b.output("predictions", pred)
    b.output("conv1_raw", fmap)
    b.output("primary_raw", prim)
    b.output("u_hat_raw", u_hat)
    b.output("class_caps_raw", v)
    b.output("coupling_raw", c)
    b.output("length_sumsq_raw", sumsq)
    return b.build()


def mnist_capsnet_graph(
    formats: QuantizedFormats | None = None, optimized_routing: bool = True
) -> Graph:
    """The paper network as an IR graph — the compiled serving default."""
    return capsnet_graph(
        mnist_capsnet_config(), formats, optimized_routing, name="mnist"
    )


def mlp_graph(
    image_size: int = 28,
    hidden: int = 100,
    num_classes: int = 10,
    formats: QuantizedFormats | None = None,
    name: str = "mlp",
) -> Graph:
    """A two-layer fully-connected baseline."""
    fmts = formats if formats is not None else QuantizedFormats()
    b = GraphBuilder(name)
    x = b.input("image", (1, image_size, image_size), fmts.input)
    flat = b.op("reshape", x, fmts.input, name="flatten", shape=(1, image_size * image_size))
    fc1_acc = fmts.acc(fmts.input, fmts.classcaps_weight)
    b.param("fc1_w", (image_size * image_size, hidden), fmts.classcaps_weight)
    h_acc = b.op("gemm", flat, fc1_acc, name="fc1", weight="fc1_w", layer="fc1")
    h = b.op("relu", h_acc, fmts.conv1_out, name="fc1_relu", layer="fc1")
    b.param("fc2_w", (hidden, num_classes), fmts.classcaps_weight)
    logits = b.op("gemm", h, fmts.caps_data, name="fc2", weight="fc2_w", layer="fc2")
    scores = b.op("reshape", logits, fmts.caps_data, name="scores", shape=(num_classes,))
    pred = b.op("argmax", scores, QFormat(8, 0), name="predict")
    b.output("predictions", pred)
    b.output("logits", scores)
    return b.build()


def cnn_graph(
    image_size: int = 28,
    channels: int = 8,
    kernel: int = 5,
    stride: int = 2,
    num_classes: int = 10,
    formats: QuantizedFormats | None = None,
    name: str = "cnn",
) -> Graph:
    """A small convolutional baseline: conv + ReLU + FC."""
    fmts = formats if formats is not None else QuantizedFormats()
    b = GraphBuilder(name)
    x = b.input("image", (1, image_size, image_size), fmts.input)
    conv_acc = fmts.acc(fmts.input, fmts.conv1_weight)
    b.param("conv_w", (channels, 1, kernel, kernel), fmts.conv1_weight)
    b.param("conv_b", (channels,), conv_acc)
    acc = b.op(
        "conv2d", x, conv_acc, name="conv",
        weight="conv_w", bias="conv_b", stride=stride, layer="conv",
    )
    feat = b.op("relu", acc, fmts.conv1_out, name="conv_relu", layer="conv")
    out_size = (image_size - kernel) // stride + 1
    flat = b.op(
        "reshape", feat, fmts.conv1_out, name="flatten",
        shape=(1, out_size * out_size * channels),
    )
    b.param("fc_w", (out_size * out_size * channels, num_classes), fmts.classcaps_weight)
    logits = b.op("gemm", flat, fmts.caps_data, name="fc", weight="fc_w", layer="fc")
    scores = b.op("reshape", logits, fmts.caps_data, name="scores", shape=(num_classes,))
    pred = b.op("argmax", scores, QFormat(8, 0), name="predict")
    b.output("predictions", pred)
    b.output("logits", scores)
    return b.build()


# ---- compiled-network construction -------------------------------------------

#: Compiled program cache: CapsNet programs are shape-driven, so one
#: compilation serves every scheduler/cost rebuild of the same architecture.
_PROGRAM_CACHE: dict[tuple, tuple[Graph, Program]] = {}


def _pseudo_weights(shape: tuple[int, ...], fan_in: int, fmt: QFormat, seed: str) -> np.ndarray:
    """Deterministic fan-in-scaled raw weights (per-array seed).

    The seed is a CRC of the array's name, so every process — a spawned
    serving worker included — builds the same weights.
    """
    rng = np.random.default_rng(zlib.crc32(f"repro.zoo.{seed}".encode()))
    return to_raw(rng.standard_normal(shape) / np.sqrt(fan_in), fmt)


def compile_qnet(qnet: QuantizedCapsuleNet, name: str | None = None) -> CompiledNetwork:
    """Compile a quantized CapsNet into a servable :class:`CompiledNetwork`.

    The program is memoized per architecture; parameters are the qnet's
    own raw weight arrays (shared, not copied).
    """
    config = qnet.config
    if name is None:
        name = "capsnet"
    cache_key = (config, qnet.optimized_routing, qnet.formats, False)
    cached = _PROGRAM_CACHE.get(cache_key)
    if cached is None:
        graph = capsnet_graph(
            config, qnet.formats, qnet.optimized_routing, name=name
        )
        cached = _PROGRAM_CACHE[cache_key] = (graph, compile_graph(graph, qnet.formats))
    graph, program = cached
    return CompiledNetwork(
        name=name,
        graph=graph,
        program=program,
        params=qnet.raw_weights,
        formats=qnet.formats,
        luts=qnet.luts,
        input_shape=(config.in_channels, config.image_size, config.image_size),
        num_classes=config.classcaps.num_classes,
        key=("capsnet", config, qnet.optimized_routing),
        config=config,
        qnet=qnet,
    )


def _residual_capsnet(name: str, config: CapsNetConfig) -> CompiledNetwork:
    qnet = QuantizedCapsuleNet(config)
    fmts = qnet.formats
    cache_key = (config, qnet.optimized_routing, fmts, True)
    cached = _PROGRAM_CACHE.get(cache_key)
    if cached is None:
        graph = capsnet_graph(config, fmts, qnet.optimized_routing, residual=True, name=name)
        cached = _PROGRAM_CACHE[cache_key] = (graph, compile_graph(graph, fmts))
    graph, program = cached
    channels = config.conv1.out_channels
    params = dict(qnet.raw_weights)
    # Small residual weights keep the skip-add inside the 8-bit range.
    params["res_w"] = _pseudo_weights(
        (channels, channels, 1, 1), 4 * channels, fmts.conv1_weight, f"{name}.res_w"
    )
    params["res_b"] = np.zeros(channels, dtype=np.int64)
    return CompiledNetwork(
        name=name,
        graph=graph,
        program=program,
        params=params,
        formats=fmts,
        luts=qnet.luts,
        input_shape=(config.in_channels, config.image_size, config.image_size),
        num_classes=config.classcaps.num_classes,
        key=("zoo", name),
        config=config,
        qnet=qnet,
    )


def _compile_with_params(name: str, graph: Graph, seeded_fans: dict[str, int]) -> CompiledNetwork:
    fmts = QuantizedFormats()
    program = compile_graph(graph, fmts)
    params: dict[str, np.ndarray] = {}
    for pname, spec in graph.params.items():
        if pname.endswith("_b"):
            params[pname] = np.zeros(spec.shape, dtype=np.int64)
        else:
            params[pname] = _pseudo_weights(
                spec.shape, seeded_fans[pname], spec.fmt, f"{name}.{pname}"
            )
    input_shape = graph.tensors[graph.inputs[0]].shape
    num_classes = graph.tensors[graph.outputs["logits"]].shape[-1]
    return CompiledNetwork(
        name=name,
        graph=graph,
        program=program,
        params=params,
        formats=fmts,
        luts=HardwareLuts.build(fmts),
        input_shape=input_shape,
        num_classes=num_classes,
        key=("zoo", name),
    )


def cifar_capsnet_config() -> CapsNetConfig:
    """A CIFAR/SVHN-shape capsule network (32x32x3, 10 classes)."""
    return custom_capsnet_config(
        image_size=32,
        num_classes=10,
        in_channels=3,
        conv1_channels=64,
        capsule_channels=8,
    )


def _build_mnist() -> CompiledNetwork:
    return compile_qnet(QuantizedCapsuleNet(mnist_capsnet_config()), name="mnist")


def _build_tiny() -> CompiledNetwork:
    return compile_qnet(QuantizedCapsuleNet(tiny_capsnet_config()), name="tiny")


def _build_cifar() -> CompiledNetwork:
    return compile_qnet(QuantizedCapsuleNet(cifar_capsnet_config()), name="cifar")


def _build_mnist_res() -> CompiledNetwork:
    return _residual_capsnet("mnist-res", mnist_capsnet_config())


def _build_tiny_res() -> CompiledNetwork:
    return _residual_capsnet("tiny-res", tiny_capsnet_config())


def _build_mlp() -> CompiledNetwork:
    graph = mlp_graph()
    return _compile_with_params("mlp", graph, {"fc1_w": 784, "fc2_w": 100})


def _build_cnn() -> CompiledNetwork:
    graph = cnn_graph()
    return _compile_with_params(
        "cnn", graph, {"conv_w": 25, "fc_w": 12 * 12 * 8}
    )


_BUILDERS = {
    "mnist": _build_mnist,
    "tiny": _build_tiny,
    "cifar": _build_cifar,
    "mnist-res": _build_mnist_res,
    "tiny-res": _build_tiny_res,
    "mlp": _build_mlp,
    "cnn": _build_cnn,
}

_ZOO_CACHE: dict[str, CompiledNetwork] = {}


def zoo_names() -> tuple[str, ...]:
    """Every model-zoo network name, in registry order."""
    return tuple(_BUILDERS)


def get_network(name: str) -> CompiledNetwork:
    """Build (once) and return a zoo network by name."""
    if name not in _BUILDERS:
        raise ConfigError(
            f"unknown zoo network {name!r}; available: {', '.join(_BUILDERS)}"
        )
    if name not in _ZOO_CACHE:
        _ZOO_CACHE[name] = _BUILDERS[name]()
    return _ZOO_CACHE[name]


def as_compiled(network) -> CompiledNetwork:
    """Coerce a scheduler/serving network argument to a :class:`CompiledNetwork`.

    Accepts a :class:`CompiledNetwork` (returned as-is), a
    :class:`QuantizedCapsuleNet` (compiled, program memoized), a
    :class:`CapsNetConfig` (its quantized network with the default
    deterministic weights) or a zoo name.
    """
    if isinstance(network, CompiledNetwork):
        return network
    if isinstance(network, CapsNetConfig):
        network = QuantizedCapsuleNet(network)
    if isinstance(network, QuantizedCapsuleNet):
        return compile_qnet(network)
    if isinstance(network, str):
        return get_network(network)
    raise ConfigError(
        f"cannot interpret {type(network).__name__} as a compiled network"
    )
