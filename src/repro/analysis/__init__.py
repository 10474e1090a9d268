"""Experiment drivers and reporting.

Everything needed to regenerate the paper's tables and figures: the
reference design points (calibrated against Tab. 1's published numbers),
per-experiment drivers, metric helpers and plain-text/markdown table
rendering.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
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

__all__ = [
    "BENCHMARKS",
    "PRECISIONS",
    "DesignComparison",
    "reference_design",
    "run_comparison",
    "run_table1",
    "run_table2",
    "run_table3",
    "run_fig8",
    "DesignSpacePoint",
    "enumerate_design_space",
    "average_speedup",
    "block_throughput",
    "geomean",
    "format_table",
    "format_markdown_table",
    "computation_graph_dot",
    "interference_graph_dot",
    "prefetch_graph_dot",
    "roofline_scatter",
    "bar_chart",
    "footprint_timeline",
    "simulation_gantt",
]
