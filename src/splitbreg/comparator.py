"""First-order primal-dual reference solver.

Solves min lam * ||x||_1 + ||x||_2^2 / 2 subject to ||A x - b||_p <= delta
with the classical primal-dual hybrid gradient iteration. The dual proximal
step only needs the orthogonal projection onto the constraint ball, obtained
through the Moreau decomposition, so the same code covers p in {1, 2, inf}
and the exact-data case delta = 0 (a point constraint). Used as an
independent check on the split-feasibility solver, and as the certification
oracle for the regularization weight.
"""

from dataclasses import dataclass

import numpy as np

from ._checks import _check_choice, _check_whole, _nonnegative, _vector
from .linops import as_operator
from .objectives import ElasticNet, soft_shrink
from .projections import NormBall, Point


@dataclass
class PDConfig:
    lam: float
    op: object
    b: np.ndarray
    delta: float = 0.0
    noise_norm: float = 2  # p of the constraint ball: 1, 2 or inf
    max_iterations: int = 1000
    record_every: int = 1  # 0 records only the final state


@dataclass
class PDResult:
    """The final x and three equal-length columns, one entry per recorded
    iteration: its index ``k``, ``objective_value`` and ``feasibility_gap``
    (||A x - b||_p - delta, may be negative). Iteration k is recorded when
    it is the last one, or when record_every > 0 divides k + 1; a zero
    budget leaves all three columns empty."""

    x: np.ndarray
    k: list
    objective_value: list
    feasibility_gap: list


def prox_f(z, tau, lam):
    """prox of tau * (lam ||x||_1 + ||x||_2^2 / 2): shrink, then scale down."""
    return soft_shrink(z, tau * lam) / (1.0 + tau)


def prox_g(y, sigma, ball):
    """prox of sigma * G where G is the conjugate of the indicator of ``ball``.

    For the p-ball of radius delta around b, G(y) = delta * ||y||_{p*} + <b, y>;
    by Moreau the prox is y - sigma * P_ball(y / sigma). ``ball`` is any
    RangeSet: run_pd passes the NormBall, or the Point {b} when delta = 0.
    """
    y = np.asarray(y, dtype=float)
    return y - sigma * ball.project(y / sigma)


def run_pd(config):
    """Run the primal-dual iteration for the configured budget, with fixed
    steps tau = sigma = 0.99 / ||A||.

    It records iteration k (see PDResult) when k is the last iteration or
    when ``record_every`` > 0 divides k + 1, so ``record_every=0`` records
    only the final state and a zero budget records nothing. A record's
    ``objective_value`` is the elastic-net value of x and its
    ``feasibility_gap`` is ``NormBall(b, delta, p).gap(A x)``; at delta = 0
    the dual step projects onto ``Point(b)`` instead of that ball.

    Before the first iteration it raises a ValueError naming the field for a
    ``lam`` or ``delta`` that is not a real number >= 0, a ``noise_norm``
    other than 1, 2 or inf, a ``max_iterations`` or ``record_every`` that is
    not a whole number >= 0, DimensionMismatch for a ``b`` that is not a
    vector of the operator's height and NonFiniteData for a ``b`` holding a
    NaN or an infinity.
    """
    op = as_operator(config.op)
    m, n = op.shape
    b = _vector("b", config.b, m, finite=True)
    objective = ElasticNet(config.lam, n)  # checks lam
    lam = objective.lam
    delta = _nonnegative("delta", config.delta, bound=True)
    p = config.noise_norm
    _check_choice("noise_norm", p, NormBall.ORDERS)
    iterations = _check_whole("max_iterations", config.max_iterations, low=0)
    every = _check_whole("record_every", config.record_every, low=0)
    # fixed steps tau = sigma = 0.99 / ||A||, so tau * sigma * ||A||^2 < 1
    # any step fits an operator of norm 0 (one without rows, or all zeros)
    tau = sigma = 0.99 / (op.norm_estimate() or 1.0)
    ball = NormBall(b, delta, p)  # its gap is the records' feasibility_gap
    # a radius-0 ball projects onto b in other bits than the point {b} does
    prox_set = Point(b) if delta == 0.0 else ball

    x = np.zeros(n)
    y = np.zeros(m)
    ks, values, gaps = [], [], []
    for k in range(iterations):
        x_new = prox_f(x - tau * op.apply_adjoint(y), tau, lam)
        y = prox_g(y + sigma * op.apply(2.0 * x_new - x), sigma, prox_set)
        x = x_new
        if k == iterations - 1 or every and (k + 1) % every == 0:
            ks.append(k)
            values.append(objective.value(x))
            gaps.append(ball.gap(op.apply(x)))
    return PDResult(x=x, k=ks, objective_value=values, feasibility_gap=gaps)
