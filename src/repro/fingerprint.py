"""Canonical fingerprints: regression hashes and cache keys.

Two related jobs share the hashing conventions in this module:

* **Result fingerprints** (:func:`fingerprint`) reduce one
  :class:`~repro.lcmm.framework.LCMMResult` to the compact, bit-exact
  record the golden-result suite checks into ``tests/golden/*.json`` —
  a SHA-256 over the complete allocation decision plus the headline
  numbers (latency as a float hex string, block-rounded ``used_bytes``,
  degradation level).  Promoted here from the test suite because the
  compilation cache needs the same notion of "the result" in production.

* **Cache keys** (:func:`compile_key`, :func:`sweep_key`) are
  content-addressed identities of a compilation *input*: the canonical
  serialized graph, every field of the accelerator design point, the
  :class:`~repro.lcmm.options.LCMMOptions` switches, and
  :data:`CACHE_SCHEMA_VERSION`.  Two calls with bit-identical inputs
  hash to the same key; any input drift — a new option field, a changed
  device inventory, a bumped schema — changes the key, so stale cache
  entries are never *hit* (invalidation by construction, no purging
  logic).

Everything here hashes canonical JSON (``sort_keys=True``) with SHA-256;
floats travel as ``float.hex()`` strings so equality is bit-for-bit, not
approximate.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING, Any, Mapping

if TYPE_CHECKING:  # avoid import cycles; these are type-only imports
    from repro.ir.graph import ComputationGraph
    from repro.lcmm.framework import LCMMResult
    from repro.lcmm.options import LCMMOptions
    from repro.perf.systolic import AcceleratorConfig
    from repro.perf.tiling import TileConfig

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "accel_fingerprint",
    "compile_key",
    "compile_key_for_digest",
    "fingerprint",
    "graph_fingerprint",
    "options_fingerprint",
    "pipeline_key",
    "sweep_key",
    "tile_key",
]

#: Version tag mixed into every cache key.  Bump whenever the meaning of
#: a cached artifact changes — a new ``LCMMResult`` field that affects
#: results, a latency-model fix, a serialization change — and every
#: previously written entry silently becomes a miss.  Every key kind
#: (compile, tile sweep, multi-die pipeline) hashes this one tag, and a
#: bump is never scoped to some graphs or option sets.
CACHE_SCHEMA_VERSION = 6


def _digest(payload: Any) -> str:
    """SHA-256 hex digest of a JSON-canonicalized payload."""
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


# ----------------------------------------------------------------------
# Result fingerprints (the golden-regression format)
# ----------------------------------------------------------------------

def fingerprint(result: "LCMMResult") -> dict:
    """Reduce one result to its checked-in regression fingerprint.

    The allocation hash covers everything that defines the memory
    management decision; the remaining fields are the headline numbers a
    reviewer wants to see directly in a diff.
    """
    allocation = {
        "onchip": sorted(result.onchip_tensors),
        "buffers": [
            [
                buf.name,
                sorted(buf.tensor_names),
                buf.size_bytes,
                buf.uram_blocks,
                buf.bram36_blocks,
            ]
            for buf in result.physical_buffers
        ],
        "residuals": sorted(
            (name, float(value).hex()) for name, value in result.residuals.items()
        ),
        "fractions": sorted(
            (name, float(value).hex()) for name, value in result.fractions.items()
        ),
    }
    fused = getattr(result, "fused_edges", ())
    if fused:
        # Only fused results carry the key: pre-fusion fingerprints (and
        # every checked-in golden file) hash the exact same payload they
        # always did.
        allocation["fused"] = sorted(
            [edge.producer, edge.consumer, edge.tensor] for edge in fused
        )
    digest = _digest(allocation)
    return {
        "allocation_sha256": digest,
        "latency_hex": float(result.latency).hex(),
        "latency_ms": round(result.latency * 1e3, 6),
        "used_bytes": result.sram_usage.used_bytes,
        "onchip_tensors": len(result.onchip_tensors),
        "degradation_level": result.degradation_level,
    }


# ----------------------------------------------------------------------
# Input fingerprints (cache-key components)
# ----------------------------------------------------------------------

def graph_fingerprint(graph: "ComputationGraph") -> str:
    """Content hash of a computation graph.

    Uses the canonical JSON serialization (:mod:`repro.io.serialize`),
    so two structurally identical graphs — same layers, same edges, same
    block map — fingerprint identically regardless of how they were
    built.
    """
    from repro.io.serialize import graph_to_dict  # deferred: io imports lcmm

    return _digest(graph_to_dict(graph))


def _tile_dict(tile: "TileConfig") -> dict:
    return {"tm": tile.tm, "tn": tile.tn, "th": tile.th, "tw": tile.tw}


def accel_fingerprint(
    accel: "AcceleratorConfig", include_tile: bool = True
) -> str:
    """Content hash of every result-relevant field of a design point.

    ``include_tile=False`` hashes the design *around* the tile — the
    identity the DSE warm-start keys on, where the tile itself is the
    swept variable.
    """
    ddr = accel.ddr
    payload: dict[str, Any] = {
        "name": accel.name,
        "precision": {
            "name": accel.precision.name,
            "bits": accel.precision.bits,
            "dsps_per_mac": accel.precision.dsps_per_mac,
            "is_floating_point": accel.precision.is_floating_point,
        },
        "array": {
            "rows": accel.array.rows,
            "cols": accel.array.cols,
            "simd": accel.array.simd,
        },
        "frequency": float(accel.frequency).hex(),
        "device": {
            "name": accel.device.name,
            "dsp_slices": accel.device.dsp_slices,
            "clb_luts": accel.device.clb_luts,
            "bram36_blocks": accel.device.sram.bram36_blocks,
            "uram_blocks": accel.device.sram.uram_blocks,
            "ddr_banks": accel.device.ddr_banks,
            "ddr_bank_bandwidth": float(accel.device.ddr_bank_bandwidth).hex(),
        },
        "ddr": {
            kind: {
                "bandwidth": float(iface.bandwidth).hex(),
                "burst_overhead": float(iface.burst_overhead).hex(),
            }
            for kind, iface in (
                ("ifmap", ddr.ifmap),
                ("weight", ddr.weight),
                ("ofmap", ddr.ofmap),
            )
        },
        "ddr_efficiency": float(accel.ddr_efficiency).hex(),
        "if_resident_cap": accel.if_resident_cap,
        "wt_resident_cap": accel.wt_resident_cap,
    }
    if include_tile:
        payload["tile"] = _tile_dict(accel.tile)
    return _digest(payload)


def options_fingerprint(options: "LCMMOptions | None") -> str:
    """Content hash of the framework feature switches.

    ``None`` — the UMM-only floor, compiled without any pass machinery —
    hashes to a distinct constant payload.  Hashing walks the dataclass
    fields generically, so a newly added option automatically changes
    the key (old cached entries become misses rather than wrong hits).
    """
    if options is None:
        return _digest({"config": "umm-floor"})
    from dataclasses import fields

    payload = {}
    for f in fields(options):
        value = getattr(options, f.name)
        payload[f.name] = float(value).hex() if isinstance(value, float) else value
    return _digest(payload)


# ----------------------------------------------------------------------
# Cache keys
# ----------------------------------------------------------------------

def compile_key(
    graph: "ComputationGraph",
    accel: "AcceleratorConfig",
    options: "LCMMOptions | None",
    extra: Mapping[str, Any] | None = None,
) -> str:
    """Content-addressed identity of one compilation.

    Covers the canonical graph, every field of the design point, the
    options (``None`` = the UMM-only floor) and the cache schema
    version; ``extra`` lets callers fold in additional switches that
    change the result (e.g. ``strict``).
    """
    return compile_key_for_digest(graph_fingerprint(graph), accel, options, extra)


def compile_key_for_digest(
    graph_digest: str,
    accel: "AcceleratorConfig",
    options: "LCMMOptions | None",
    extra: Mapping[str, Any] | None = None,
) -> str:
    """:func:`compile_key` from the graph's :func:`graph_fingerprint`.

    Callers that key one graph under many configurations hash the graph
    once and pass its digest here.
    """
    return _digest(
        {
            "schema": CACHE_SCHEMA_VERSION,
            "kind": "compile",
            "graph": graph_digest,
            "accel": accel_fingerprint(accel),
            "options": options_fingerprint(options),
            "extra": dict(extra or {}),
        }
    )


def sweep_key(graph: "ComputationGraph", base: "AcceleratorConfig") -> str:
    """Identity of a DSE tile sweep: the design point *minus* its tile.

    Per-tile UMM scores cached under this key warm-start any later sweep
    of the same (graph, base) pair, whatever tile set it enumerates.
    """
    return _digest(
        {
            "schema": CACHE_SCHEMA_VERSION,
            "kind": "tile-sweep",
            "graph": graph_fingerprint(graph),
            "accel": accel_fingerprint(base, include_tile=False),
        }
    )


def pipeline_key(
    graph: "ComputationGraph",
    accel: "AcceleratorConfig",
    options: "LCMMOptions | None",
    devices: int = 1,
    link: Any = None,
) -> str:
    """Identity of a multi-die pipelined compilation.

    With partitioning disabled — one device, or no link model, exactly
    the cases :func:`~repro.perf.partition.design_partition` degrades to
    the single-die flow — this *is* :func:`compile_key`, so a single-die
    request shares the plain compile's cache entry.  Only a genuine
    multi-die request folds the partition payload (device count,
    per-link bandwidth and efficiency) into its digest.
    """
    if devices <= 1 or link is None:
        return compile_key(graph, accel, options)
    return _digest(
        {
            "schema": CACHE_SCHEMA_VERSION,
            "kind": "pipeline",
            "graph": graph_fingerprint(graph),
            "accel": accel_fingerprint(accel),
            "options": options_fingerprint(options),
            "devices": devices,
            "link": {
                "gbps": float(link.gbps).hex(),
                "efficiency": float(link.efficiency).hex(),
            },
        }
    )


def tile_key(tile: "TileConfig") -> str:
    """Stable string identity of one tile shape (warm-start map key)."""
    return f"{tile.tm}x{tile.tn}x{tile.th}x{tile.tw}"
