"""Feature switches of the LCMM framework.

Lives in its own module so both the thin driver
(:mod:`repro.lcmm.framework`) and the pass pipeline
(:mod:`repro.lcmm.passes`) can import it without a cycle; the framework
re-exports :class:`LCMMOptions` for backwards compatibility.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class LCMMOptions:
    """Feature switches of the framework (used by the ablation benches).

    :func:`repro.lcmm.passes.default_pipeline` translates an options
    object into the pass list the PassManager executes; ablations can
    bypass the flags entirely and assemble a pipeline by pass name.

    Attributes:
        feature_reuse: Enable the feature buffer reuse pass.
        weight_prefetch: Enable the weight prefetching pass.
        splitting: Enable the buffer splitting pass.
        use_greedy: Replace DNNK with the density-greedy allocator.
        sram_budget: Override the on-chip memory available to LCMM
            (tile buffers included); defaults to the whole device.
        fractional_fill: After DNNK, fill leftover capacity with *partial*
            pins of spilled feature tensors — the resident channel slice
            stops streaming, the remainder still pays DDR.  An extension
            beyond the paper (off by default): whole-tensor knapsacks
            strand capacity smaller than any remaining tensor.
        fuse_layers: After scoring, run the fused-layer tiling pass
            (:class:`repro.lcmm.passes.standard.FuseLayersPass`):
            producer/consumer chains whose intermediate tile fits the
            provisioned input tile buffer merge their tile loops, so the
            intermediate never round-trips through DRAM (LoopTree-style;
            shortcut tensors get ShortcutFusion-style reuse-aware
            handling).  Off by default — the plain pipeline stays
            byte-identical to the paper's flow.
        transfer_schedule: After placement, run the DMA transfer
            scheduling pass
            (:class:`repro.lcmm.passes.standard.TransferSchedulePass`):
            demand transfers are slotted onto the three interface
            channels with double-buffered prefetch windows (a node's
            loads may start while its predecessor computes), which is
            monotone non-increasing vs the bulk Eq. 1 timeline.  Off by
            default.
    """

    feature_reuse: bool = True
    weight_prefetch: bool = True
    splitting: bool = True
    use_greedy: bool = False
    sram_budget: int | None = None
    fractional_fill: bool = False
    fuse_layers: bool = False
    transfer_schedule: bool = False
