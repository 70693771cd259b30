"""Audit the hand-written backward pass against central finite differences.

The training loss has three parameter groups: the shared extractor and
header, the private extractor and header, and the projector that mixes
the two representations.  One flattened vector covers them all, so a
single finite-difference sweep audits every derivative in the graph,
including the spot where the fused row feeds two heads at once and the
prefix gradient has to be zero-padded back to full width.

Run:  python demos/gradient_check.py
"""

import numpy as np

from fedmrl.core import (
    LossWeights,
    forward_loss,
    init_projector,
    loss_gradients,
    parameter_vector,
    with_parameter_vector,
)
from fedmrl.models import ModelConfig, init_model
from fedmrl.numerics import finite_diff_gradient, make_rng, relative_error


def miniature(seed):
    rng = make_rng(seed)
    g = init_model(ModelConfig(6, (5,), 3, 3), rng)
    f = init_model(ModelConfig(6, (7,), 4, 3), rng)
    p = init_projector(3, 4, rng)
    data = make_rng(seed + 1000)
    return g, f, p, data.normal(size=(5, 6)), data.integers(0, 3, size=5)


def worst_error(seed, ablated=False):
    g, f, p, x, y = miniature(seed)
    weights = LossWeights(0.0, 1.0) if ablated else LossWeights()
    analytic = parameter_vector(*loss_gradients(g, f, p, x, y, weights))

    def objective(vec):
        g2, f2, p2 = with_parameter_vector(g, f, p, vec)
        return forward_loss(g2, f2, p2, x, y, weights)[0]

    numeric = finite_diff_gradient(objective, parameter_vector(g, f, p))
    return float(relative_error(analytic, numeric).max()), analytic.size


def main():
    print("dual-head loss, miniature models (input 6, d1=3, d2=4, 3 classes)")
    print(f"{'seed':>4}  {'params':>6}  {'worst rel err':>13}")
    for seed in range(5):
        err, n = worst_error(seed)
        print(f"{seed:>4}  {n:>6}  {err:>13.2e}")

    err, _ = worst_error(0, ablated=True)
    print(f"\nsingle-head ablation graph, seed 0: worst rel err {err:.2e}")
    print("anything at or below 1e-4 counts as a match; these sit near 1e-11,")
    print("the floor set by the finite-difference step h=1e-5.")


if __name__ == "__main__":
    main()
