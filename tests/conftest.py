"""Shared fixtures and graph builders for the test suite."""

from __future__ import annotations

import multiprocessing
import time

import pytest

from repro.hw.precision import INT8, INT16
from repro.ir.graph import ComputationGraph
from repro.ir.layer import Concat, Conv2D, EltwiseAdd, InputLayer, Pooling
from repro.ir.tensor import FeatureMapShape
from repro.models.common import avg_pool, conv, max_pool
from repro.perf.latency import LatencyModel
from repro.perf.systolic import AcceleratorConfig, SystolicArray, default_accelerator
from repro.perf.tiling import TileConfig


def build_chain(num_convs: int = 4, channels: int = 64, hw: int = 28) -> ComputationGraph:
    """A linear conv chain: data -> c1 -> c2 -> ... (AlexNet-like)."""
    g = ComputationGraph(name=f"chain{num_convs}")
    g.add(InputLayer(name="data", shape=FeatureMapShape(3, hw, hw)))
    src = "data"
    for i in range(1, num_convs + 1):
        src = conv(g, f"c{i}", src, channels, 3)
    g.validate()
    return g


def build_snippet() -> ComputationGraph:
    """A six-conv inception-style snippet mirroring Fig. 3(a) of the paper.

    Two parallel branches joined by a concat, then two more convolutions —
    enough non-linearity to exercise liveness, interference and sharing.
    """
    g = ComputationGraph(name="snippet")
    g.add(InputLayer(name="data", shape=FeatureMapShape(64, 17, 17)))
    c1 = conv(g, "C1", "data", 96, 1)
    c2 = conv(g, "C2", c1, 96, 3)
    c3 = conv(g, "C3", c1, 128, 3)
    g.add(Concat(name="cat", inputs=(c2, c3)))
    c4 = conv(g, "C4", "cat", 192, 1)
    c5 = conv(g, "C5", c4, 192, 3)
    c6 = conv(g, "C6", c5, 64, 1)
    g.validate()
    return g


def build_residual_block() -> ComputationGraph:
    """A single bottleneck residual block with projection shortcut."""
    g = ComputationGraph(name="residual")
    g.add(InputLayer(name="data", shape=FeatureMapShape(64, 28, 28)))
    x = conv(g, "conv1", "data", 32, 1)
    x = conv(g, "conv2", x, 32, 3)
    x = conv(g, "conv3", x, 128, 1)
    p = conv(g, "proj", "data", 128, 1)
    g.add(EltwiseAdd(name="add", inputs=(x, p)))
    g.validate()
    return g


def build_input_only() -> ComputationGraph:
    """A graph whose only layer is its input: valid, but nothing executes."""
    g = ComputationGraph(name="input-only")
    g.add(InputLayer(name="data", shape=FeatureMapShape(3, 8, 8)))
    g.validate()
    return g


def small_accel(
    precision=INT8,
    frequency: float = 200e6,
    ddr_efficiency: float = 1.0,
    if_resident_cap: int = 0,
    wt_resident_cap: int = 0,
) -> AcceleratorConfig:
    """A compact design point for unit tests (fast, easy mental math)."""
    return AcceleratorConfig(
        name="test",
        precision=precision,
        array=SystolicArray(rows=16, cols=8, simd=8),
        tile=TileConfig(tm=16, tn=16, th=14, tw=14),
        frequency=frequency,
        ddr_efficiency=ddr_efficiency,
        if_resident_cap=if_resident_cap,
        wt_resident_cap=wt_resident_cap,
    )


def sweep_base(graph, base, budget, tiles=None, **kwargs):
    """Every feasible tile of one base design, ascending UMM latency.

    The single-base tile sweep: ``explore_space`` on a one-base space
    with pruning off, so ``tn`` duplicates stay in the list.
    """
    from repro.perf.dse import candidate_tiles
    from repro.perf.space import SampledSpace, explore_space

    space = SampledSpace([(base, candidate_tiles() if tiles is None else tiles)])
    return explore_space(graph, space, budget, prune=False, **kwargs).points


def child_pids() -> set[int]:
    """Pids of this process's live child processes (pool workers)."""
    return {child.pid for child in multiprocessing.active_children()}


def wait_for_exit(pids: set[int], timeout: float = 5.0) -> set[int]:
    """Poll until none of ``pids`` is a live child; returns the survivors."""
    deadline = time.monotonic() + timeout
    while True:
        alive = pids & child_pids()
        if not alive or time.monotonic() > deadline:
            return alive
        time.sleep(0.05)


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="regenerate the tests/golden/*.json result fingerprints",
    )


@pytest.fixture
def update_golden(request: pytest.FixtureRequest) -> bool:
    return request.config.getoption("--update-golden")


@pytest.fixture
def chain_graph() -> ComputationGraph:
    return build_chain()


@pytest.fixture
def snippet_graph() -> ComputationGraph:
    return build_snippet()


@pytest.fixture
def residual_graph() -> ComputationGraph:
    return build_residual_block()


@pytest.fixture
def accel() -> AcceleratorConfig:
    return small_accel()


@pytest.fixture
def snippet_model(snippet_graph, accel) -> LatencyModel:
    return LatencyModel(snippet_graph, accel)
