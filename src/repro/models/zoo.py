"""Model registry.

Maps the names used throughout the paper (and their abbreviations RN, GN,
IN) to builder functions.  Graphs are built fresh on every call — they are
mutable (shape inference writes ``in_channels``), so sharing instances
between experiments would be a footgun.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import ModelNotFoundError
from repro.ir.graph import ComputationGraph
from repro.models.alexnet import build_alexnet
from repro.models.densenet import build_densenet121
from repro.models.googlenet import build_googlenet
from repro.models.inception_v4 import build_inception_v4
from repro.models.mobilenet import build_mobilenet_v1
from repro.models.resnet import build_resnet50, build_resnet101, build_resnet152
from repro.models.squeezenet import build_squeezenet
from repro.models.transformer import build_bert_base, build_vit_b16
from repro.models.vgg import build_vgg16

#: Canonical name -> builder.
MODEL_BUILDERS: dict[str, Callable[[], ComputationGraph]] = {
    "alexnet": build_alexnet,
    "vgg16": build_vgg16,
    "googlenet": build_googlenet,
    "resnet50": build_resnet50,
    "resnet101": build_resnet101,
    "resnet152": build_resnet152,
    "inception_v4": build_inception_v4,
    "densenet121": build_densenet121,
    "mobilenet_v1": build_mobilenet_v1,
    "squeezenet": build_squeezenet,
    "bert_base": build_bert_base,
    "vit_b16": build_vit_b16,
}

_ALIASES = {
    "rn": "resnet152",
    "gn": "googlenet",
    "in": "inception_v4",
    "rn50": "resnet50",
    "resnet-50": "resnet50",
    "resnet-152": "resnet152",
    "inception-v4": "inception_v4",
    "inceptionv4": "inception_v4",
    "mobilenet": "mobilenet_v1",
    "bert": "bert_base",
    "bert-base": "bert_base",
    "vit": "vit_b16",
    "vit-b16": "vit_b16",
}


def list_models() -> list[str]:
    """Canonical model names available in the zoo."""
    return sorted(MODEL_BUILDERS)


def canonical_model_name(name: str) -> str:
    """The zoo's canonical name for a name or paper abbreviation (RN/GN/IN).

    Validates without building the graph.

    Raises:
        repro.errors.ModelNotFoundError: If the name matches no
            registered model (remains catchable as ``KeyError``).
    """
    key = name.strip().lower()
    key = _ALIASES.get(key, key)
    if key not in MODEL_BUILDERS:
        raise ModelNotFoundError(
            f"unknown model {name!r}; known: {', '.join(list_models())}"
        )
    return key


def get_model(name: str) -> ComputationGraph:
    """Build a model by canonical name or paper abbreviation (RN/GN/IN).

    Raises:
        repro.errors.ModelNotFoundError: If the name matches no
            registered model (remains catchable as ``KeyError``).
    """
    return MODEL_BUILDERS[canonical_model_name(name)]()
