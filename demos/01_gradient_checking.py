"""Verifying every backward pass with finite differences.

The library computes all gradients by hand-written reverse mode. The only
trustworthy referee for that kind of code is the definition of the
derivative itself: nudge one input coordinate by +h and -h, difference the
loss, and compare against the analytic gradient. This demo runs the bundled
verification harness over every layer, every loss, and the full two-branch
model, then drills into a single dense layer to show what the harness does
under the hood.
"""

import numpy as np

from xmodal.harness import gradcheck, gradcheck_text
from xmodal.numerics import (
    dense_backward,
    dense_forward,
    finite_diff_grad,
    max_relative_error,
    per_point,
)

# ---------------------------------------------------------------------------
# The full sweep. Each component is exercised on freshly sampled small
# instances; anything above a 1e-4 max relative error counts as a failure.
# A handful of trials per component keeps this demo quick -- the test suite
# runs the same harness with 100.
# ---------------------------------------------------------------------------
report, all_ok = gradcheck(trials=10, seed=0)
print(gradcheck_text(report))
print("all components ok:", all_ok)

# ---------------------------------------------------------------------------
# What one of those checks looks like, spelled out for a dense layer.
# ---------------------------------------------------------------------------
rng = np.random.default_rng(42)
x = rng.standard_normal((4, 3))
w = rng.standard_normal((3, 2))
b = rng.standard_normal(2)

# Reduce the layer output to a scalar with a fixed random projection so the
# whole computation has a single number to differentiate.
proj = rng.standard_normal((4, 2))

y, cache = dense_forward(x, w, b)
dx, dw, db = dense_backward(cache, proj)

# The oracle hands its function a whole stack of perturbed points at once,
# an (m, 3, 2) array of weight matrices here, and wants the m values back.
# `per_point` builds that function from one that takes a single matrix.
loss_of_w = per_point(lambda v: float((dense_forward(x, v, b)[0] * proj).sum()))
fd_dw = finite_diff_grad(loss_of_w, w)
print("\nanalytic dW:\n", dw)
print("finite-difference dW:\n", fd_dw)
print("max relative error:", max_relative_error(dw, fd_dw))

# A function that broadcasts over the stack evaluates the sweep in one
# call. `dense_forward` does: given the stack ws, x @ ws multiplies x by
# every matrix of it together. Every gradcheck sweep works this way, since
# the layers, the losses and the encoder all broadcast over a leading
# stack axis (a stack of vectors, such as biases, enters as (m, 1, d)).
fd_dw_stacked = finite_diff_grad(
    lambda ws: (dense_forward(x, ws, b)[0] * proj).sum(axis=(1, 2)), w)
print("one-call sweep, max relative error:", max_relative_error(dw, fd_dw_stacked))
