"""Weakly supervised object detection trained from image captions.

The package splits into: caption parsing into class and attribute labels
(textgraph), box arithmetic (geometry), the score network (scorenet),
the caption-level losses (weakloss), instance refinement across heads
(oicr), a synthetic prototype-feature benchmark (synthbench), the
training/evaluation loop (trainer), and a command-line front end (cli).
"""

__version__ = "0.1.0"

from .geometry import iou_matrix, nms
from .textgraph import (
    AttributeRegistry,
    LabelSet,
    TextualSceneGraph,
    Vocabulary,
    extract_labels,
    parse_scene_graph,
)

__all__ = [
    "iou_matrix",
    "nms",
    "AttributeRegistry",
    "LabelSet",
    "TextualSceneGraph",
    "Vocabulary",
    "extract_labels",
    "parse_scene_graph",
    "__version__",
]
