"""Experiment drivers and reporting.

Everything needed to regenerate the paper's tables and figures: the
reference design points (calibrated against Tab. 1's published numbers),
per-experiment drivers, metric helpers and plain-text/markdown table
rendering.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.analysis.reference": ("BENCHMARKS", "PRECISIONS", "reference_design"),
        "repro.analysis.experiments": (
            "DesignComparison",
            "run_comparison",
            "run_fig8",
            "run_table1",
            "run_table2",
            "run_table3",
        ),
        "repro.analysis.design_space": ("DesignSpacePoint", "enumerate_design_space"),
        "repro.analysis.metrics": ("average_speedup", "block_throughput", "geomean"),
        "repro.analysis.report": ("format_markdown_table", "format_table"),
        "repro.analysis.dot": (
            "computation_graph_dot",
            "interference_graph_dot",
            "prefetch_graph_dot",
        ),
        "repro.analysis.plots": (
            "bar_chart",
            "footprint_timeline",
            "roofline_scatter",
            "simulation_gantt",
        ),
    },
)
