"""repro — reproduction of the DAC 2019 LCMM paper.

"Overcoming Data Transfer Bottlenecks in FPGA-based DNN Accelerators via
Layer Conscious Memory Management" (Wei, Liang, Cong; DAC 2019).

Top-level convenience imports cover the public API a downstream user needs:
the model zoo, the hardware descriptions, the accelerator performance
model, and the LCMM / UMM memory-management entry points.
"""

from repro.hw import FP32, INT8, INT16, Precision, VU9P, make_vu9p_ddr
from repro.models import get_model, list_models
from repro.perf import AcceleratorConfig, LatencyModel, RooflineModel
from repro.lcmm import LCMMResult, UMMResult, run_lcmm, run_umm

__version__ = "1.0.0"

__all__ = [
    "Precision",
    "INT8",
    "INT16",
    "FP32",
    "VU9P",
    "make_vu9p_ddr",
    "get_model",
    "list_models",
    "AcceleratorConfig",
    "LatencyModel",
    "RooflineModel",
    "run_lcmm",
    "run_umm",
    "LCMMResult",
    "UMMResult",
    "__version__",
]
