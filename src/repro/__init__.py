"""repro — reproduction of the DAC 2019 LCMM paper.

"Overcoming Data Transfer Bottlenecks in FPGA-based DNN Accelerators via
Layer Conscious Memory Management" (Wei, Liang, Cong; DAC 2019).

Top-level convenience exports cover the public API a downstream user needs:
the model zoo, the hardware descriptions, the accelerator performance
model, and the LCMM / UMM memory-management entry points.  They load on
first access (:mod:`repro._lazy`), so ``import repro`` imports none of them.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.hw.precision": ("FP32", "INT8", "INT16", "Precision"),
        "repro.hw.fpga": ("VU9P",),
        "repro.hw.memory": ("make_vu9p_ddr",),
        "repro.models.zoo": ("get_model", "list_models"),
        "repro.perf.systolic": ("AcceleratorConfig",),
        "repro.perf.latency": ("LatencyModel",),
        "repro.perf.roofline": ("RooflineModel",),
        "repro.lcmm.framework": ("LCMMResult", "run_lcmm"),
        "repro.lcmm.umm": ("UMMResult", "run_umm"),
    },
)

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
