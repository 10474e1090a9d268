"""A fixed-seed fuzz budget over the whole compiler.

Drawn graphs (up to 12 layers) on drawn designs, through every standard
configuration, with the SRAM budget weighted toward the feasible range:
a compile either fails with a taxonomy error (:class:`ReproError`) or
lands the requested pipeline with a result that passes
``validate_result`` and is no slower than UMM.  The budget is
derandomised, so a failure reproduces on every run; a failure it finds
is fixed and pinned by a regression test of its own, never by shrinking
or reseeding the budget.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.batch import STANDARD_CONFIGS
from repro.errors import CapacityError, ReproError
from repro.hw.sram import BRAM36_BYTES, blocks_for
from repro.lcmm.framework import run_lcmm, umm_only_result
from repro.lcmm.validate import validate_result
from repro.perf.latency import LatencyModel
from tests.strategies import accelerators, graphs

#: Draws per run: a few hundred compiles, in well under ten seconds.
FUZZ_DRAWS = 300


def _tile_bytes(accel) -> int:
    """The block-rounded tile-buffer footprint every compile reserves first."""
    return blocks_for(accel.tile_buffer_bytes(), BRAM36_BYTES) * BRAM36_BYTES


@st.composite
def compile_jobs(draw):
    """A (graph, design, configuration, options) job.

    The SRAM budget is the design's device (one draw in ten), below its
    tile buffers (one in ten: a :class:`CapacityError`), or up to 2 MB
    past them.
    """
    graph = draw(graphs(max_nodes=12))
    accel = draw(accelerators())
    config = draw(st.sampled_from(sorted(STANDARD_CONFIGS)))
    options = STANDARD_CONFIGS[config]
    if options is not None:
        tile = _tile_bytes(accel)
        mode = draw(st.integers(min_value=0, max_value=9))
        if mode == 0:
            budget = None
        elif mode == 1:
            budget = draw(st.integers(min_value=0, max_value=max(0, tile - 1)))
        else:
            budget = tile + draw(st.integers(min_value=0, max_value=2 << 20))
        options = replace(options, sram_budget=budget)
    return graph, accel, config, options


def _compile(graph, accel, options):
    model = LatencyModel(graph, accel)
    if options is None:
        return model, umm_only_result(graph, accel, model=model)
    return model, run_lcmm(graph, accel, options=options, model=model)


class TestCompileFuzz:
    @given(compile_jobs())
    @settings(max_examples=FUZZ_DRAWS, deadline=None, derandomize=True, database=None)
    def test_compile_is_valid_or_a_taxonomy_error(self, job):
        graph, accel, config, options = job
        try:
            model, result = _compile(graph, accel, options)
        except CapacityError:
            assert options is not None and options.sram_budget is not None
            assert options.sram_budget < _tile_bytes(accel)
            return
        except ReproError:
            return
        assert result.degradation_level == 0, result.degradation_path
        validate_result(result, model)
        assert result.latency <= model.umm_latency(), config
