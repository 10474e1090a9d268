"""HLS code generation from LCMM allocations.

The paper's designs are Vivado HLS kernels; the natural downstream
artifact of an allocation is therefore the HLS source that instantiates
it.  This subpackage emits the memory subsystem of an LCMM design as
synthesisable-style C++:

* ``buffers.h`` — one on-chip array per physical buffer with the
  ``bind_storage`` pragma matching its URAM/BRAM placement, plus the
  double-buffered tile buffers;
* ``schedule.cpp`` — the layer execution sequence with per-layer
  tensor-source annotations (on-chip buffer vs DDR stream) and the
  weight prefetch issue points;
* ``lcmm_design.h`` — design constants (array shape, tile shape, clock).

The generator is deterministic and purely textual — it needs no Xilinx
tooling to run or test — but the emitted structure mirrors what the
paper's flow would hand to Vivado HLS.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.codegen.hls": (
            "HLSDesign",
            "generate_buffers_header",
            "generate_design",
            "generate_design_header",
            "generate_schedule_source",
            "write_design",
        ),
    },
)
