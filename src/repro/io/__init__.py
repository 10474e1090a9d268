"""Serialization of graphs and allocation decisions.

Downstream integration (an HLS code generator, a deployment pipeline)
needs the framework's decisions in a machine-readable form: which tensor
lives in which buffer, when each weight prefetch starts, how large every
buffer is.  This subpackage provides JSON-stable dictionaries for
computation graphs (round-trippable) and LCMM results (export-only — a
report, not a reconstruction format).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.io.serialize": (
            "allocation_report",
            "graph_from_dict",
            "graph_to_dict",
            "load_graph",
            "save_allocation_report",
            "save_graph",
        ),
    },
)
