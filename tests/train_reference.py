"""Per-scene training loop: one forward, loss and backward per scene of a batch.

trainer.train packs each step's scenes into one padded SceneBatch and
runs the step once over it. This loop runs the same step scene by scene,
each scene as a one-scene batch with its own overlap mask, adding each
scene's parameter gradient into a zeroed buffer, and is kept only as a
reference to check the batched step against.
"""

import numpy as np

from capdet import oicr, scorenet
from capdet.trainer import Adagrad, SceneBatch, batch_step, label_scenes
from capdet.weakloss import compile_supervision


def scene_supervision(labels, params, config):
    """One scene's labels compiled as a one-scene batch; the exact-match baseline compiles no attribute pairs."""
    return compile_supervision([labels], params.num_classes, params.value_columns, pairs=config.attributes_enabled)


def train_loop(scenes, vocab, registry, config, log_sink=None):
    """The parameters after config.steps per-scene steps; same shuffling, same optimizer."""
    category_values = {cat: tuple(registry.values[cat]) for cat in registry.categories}
    params = scorenet.init_params(
        scenes[0].proposals.features.shape[1], vocab.class_names, category_values, config.num_heads, config.seed
    )
    sups = [scene_supervision(labels, params, config) for labels in label_scenes(scenes, vocab, registry)]
    optimizer = Adagrad(params.flat.size, config.learning_rate)
    order_rng = np.random.default_rng(config.seed)
    order = order_rng.permutation(len(scenes))
    cursor = 0
    with np.errstate(all="ignore"):
        for step in range(config.steps):
            grad_flat = np.zeros_like(params.flat)
            totals = {"l_obj": 0.0, "l_entang": 0.0, "l_mid": 0.0, "l_total": 0.0}
            oicr_total = np.zeros(config.num_heads)
            for _ in range(config.batch_size):
                if cursor >= len(order):
                    order = order_rng.permutation(len(scenes))
                    cursor = 0
                batch, sup = SceneBatch.pack([scenes[order[cursor]]]), sups[order[cursor]]
                cursor += 1
                near = oicr.overlap_masks(batch.boxes, config.tau, batch.valid)
                report, _, grad = batch_step(params, batch, sup, near, config)
                grad_flat += grad
                for key in totals:
                    totals[key] += getattr(report, key)[0]
                oicr_total += report.l_oicr[0]
            grad_flat /= config.batch_size
            optimizer.step(params.flat, grad_flat)
            if log_sink is not None:
                record = {k: v / config.batch_size for k, v in totals.items()}
                record["l_oicr"] = (oicr_total / config.batch_size).tolist()
                record["step"] = step
                log_sink(record)
    return params
