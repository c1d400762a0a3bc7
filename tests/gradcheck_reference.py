"""Central differences one probe at a time: bump a parameter, evaluate the batch's loss, restore it.

The gradient check scores every probe of a trial as one stack of shifted
logit arrays. This loop computes the same derivatives the direct way,
moving each coordinate of params.flat and running forward and the
training step's loss over the one-scene batch, with the refinement
supervision frozen, and is kept only as a reference to check the stacked
probes against.
"""

import numpy as np

from capdet import scorenet
from capdet.trainer import frozen_loss


def numeric_gradient(params, batch, sup, config, pseudo, coords, step):
    """Central differences of the batch's summed loss at coords (checkpoint order); params is restored."""
    flat, order = params.flat, params.checkpoint_order
    numeric = np.empty(len(coords))

    def loss():
        return frozen_loss(scorenet.forward(params, batch), sup, config, pseudo)[0].l_total.sum()

    for i, coord in enumerate(coords):
        idx = order[coord]
        original = flat[idx]
        flat[idx] = original + step
        hi = loss()
        flat[idx] = original - step
        lo = loss()
        flat[idx] = original
        numeric[i] = (hi - lo) / (2.0 * step)
    return numeric
