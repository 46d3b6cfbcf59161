"""CapsAcc reproduction: a CapsuleNet accelerator simulator with data reuse.

This package reproduces *CapsAcc: An Efficient Hardware Accelerator for
CapsuleNets with Data Reuse* (Marchisio, Hanif, Shafique — DATE 2019) in pure
Python.  It contains:

``repro.fixedpoint``
    Q-format fixed-point arithmetic, saturating MACs and the hardware lookup
    tables (squash, exp, square) used by the accelerator datapath.
``repro.capsnet``
    A from-scratch functional CapsuleNet (Conv1, PrimaryCaps, ClassCaps,
    squashing, routing-by-agreement) in float and 8-bit quantized form.
``repro.data``
    MNIST substrate: a procedural synthetic digit generator plus an
    idx-format loader for real MNIST files when available.
``repro.hw``
    Cycle-stepped, bit-accurate micro-architecture simulator: processing
    elements, the systolic array, accumulators, activation units and buffers.
``repro.compiler``
    Graph -> instruction-stream compiler, the stream executor and the
    closed-form pricing of compiled programs — the one CapsAcc cycle source
    behind serving, the sweep and every paper figure.
``repro.perf``
    The paper's CapsAcc-vs-GPU comparisons (CapsAcc side priced from the
    compiled program) and the GPU baseline model that substitutes the
    paper's GTX1070.
``repro.synthesis``
    32nm CMOS area / power / frequency model for Table II/III and Fig 18.
``repro.experiments``
    One driver per paper table and figure, plus paper-value comparisons.
"""

from repro.version import __version__

from repro.capsnet.config import CapsNetConfig, mnist_capsnet_config
from repro.capsnet.model import CapsuleNet
from repro.hw.config import AcceleratorConfig
from repro.perf.gpu import GpuModel, gtx1070_paper_profile

__all__ = [
    "__version__",
    "CapsNetConfig",
    "mnist_capsnet_config",
    "CapsuleNet",
    "AcceleratorConfig",
    "GpuModel",
    "gtx1070_paper_profile",
]
