"""Central differences one probe at a time: bump a parameter, evaluate the scene loss, restore it.

The gradient check scores every probe of a trial as one stack of shifted
logit arrays. This loop computes the same derivatives the direct way,
moving each coordinate of params.flat and running the whole per-scene
loss with the refinement supervision frozen, and is kept only as a
reference to check the stacked probes against.
"""

import numpy as np

from capdet.trainer import scene_loss


def numeric_gradient(params, regions, sup, config, pseudo, coords, step):
    """Central differences of the scene loss at coords (checkpoint order); params is restored."""
    flat, order = params.flat, params.checkpoint_order
    numeric = np.empty(len(coords))
    for i, coord in enumerate(coords):
        idx = order[coord]
        original = flat[idx]
        flat[idx] = original + step
        hi = scene_loss(params, regions, sup, config, pseudo=pseudo)[0].l_total
        flat[idx] = original - step
        lo = scene_loss(params, regions, sup, config, pseudo=pseudo)[0].l_total
        flat[idx] = original
        numeric[i] = (hi - lo) / (2.0 * step)
    return numeric
