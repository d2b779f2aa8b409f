"""Conservative density bounds of a Gauss-tree node (Lemmas 2 and 3).

For query processing the Gauss-tree needs, per node, the *maximum* and
*minimum* density that any Gaussian whose parameters lie inside the node's
:class:`~repro.gausstree.bounds.ParameterRect` could contribute at a point:

* **Upper hull** ``N^(x) = max { N_{mu,sigma}(x) : mu in [mu_lo, mu_hi],
  sigma in [sigma_lo, sigma_hi] }`` — Lemma 2's seven-case piecewise
  closed form. The seven cases collapse to one expression: with
  ``t = dist(x, [mu_lo, mu_hi])`` (0 inside the mu interval), the
  maximising parameters are ``mu* = clamp(x)`` and
  ``sigma* = clamp(t, sigma_lo, sigma_hi)`` — the clamp reproduces exactly
  the paper's case split (I/VII: t > sigma_hi; II/VI: sigma_lo <= t <=
  sigma_hi where the hull is ``1/(sqrt(2 pi e) t)``; III/V: t < sigma_lo;
  IV: t = 0). The unit tests verify the collapsed form against a brute
  grid maximisation and against the seven literal cases.

* **Lower bound** ``N_(x)`` — Lemma 3: the minimum is attained at one of
  the four corners of the ``(mu, sigma)`` rectangle, because for fixed
  ``x`` the density has a single interior maximum in ``(mu, sigma)`` and
  no interior minimum.

For a *query pfv* ``q`` (uncertain itself), Section 5.2 notes that the
bounds are simply evaluated with the sigma interval shifted by the query's
uncertainty: combine ``sigma_q`` into both sigma bounds (via the database's
:class:`~repro.core.joint.SigmaRule` — both rules are monotone in
``sigma_v``, so interval endpoints map to interval endpoints) and evaluate
at ``mu_q``. Multivariate bounds multiply per dimension (independence),
i.e. *sum* in log space.
"""

from __future__ import annotations

import numpy as np

from repro.core.gaussian import LOG_SQRT_TWO_PI
from repro.core.joint import SigmaRule, combine_sigma
from repro.core.pfv import PFV
from repro.gausstree.bounds import ParameterRect

__all__ = [
    "log_hull_upper",
    "log_hull_lower",
    "hull_upper",
    "hull_lower",
    "node_log_bounds",
    "node_log_upper",
    "node_log_bounds_multi",
]


def _as_arrays(*vals: object) -> tuple[np.ndarray, ...]:
    return tuple(np.asarray(v, dtype=np.float64) for v in vals)


def log_hull_upper(
    x: np.ndarray | float,
    mu_lo: np.ndarray | float,
    mu_hi: np.ndarray | float,
    sigma_lo: np.ndarray | float,
    sigma_hi: np.ndarray | float,
) -> np.ndarray:
    """Log of Lemma 2's upper hull, elementwise over broadcast inputs."""
    x, mu_lo, mu_hi, sigma_lo, sigma_hi = _as_arrays(
        x, mu_lo, mu_hi, sigma_lo, sigma_hi
    )
    if np.any(sigma_lo <= 0.0):
        raise ValueError("sigma_lo must be strictly positive")
    # Distance of x to the mu interval; 0 when x lies inside it (case IV).
    t = np.maximum(np.maximum(mu_lo - x, x - mu_hi), 0.0)
    sigma_star = np.clip(t, sigma_lo, sigma_hi)
    z = t / sigma_star
    return -0.5 * z * z - np.log(sigma_star) - LOG_SQRT_TWO_PI


def hull_upper(
    x: np.ndarray | float,
    mu_lo: np.ndarray | float,
    mu_hi: np.ndarray | float,
    sigma_lo: np.ndarray | float,
    sigma_hi: np.ndarray | float,
) -> np.ndarray:
    """Linear-space Lemma 2 hull ``N^(x)``."""
    return np.exp(log_hull_upper(x, mu_lo, mu_hi, sigma_lo, sigma_hi))


def log_hull_lower(
    x: np.ndarray | float,
    mu_lo: np.ndarray | float,
    mu_hi: np.ndarray | float,
    sigma_lo: np.ndarray | float,
    sigma_hi: np.ndarray | float,
) -> np.ndarray:
    """Log of Lemma 3's lower bound: min over the four (mu, sigma) corners."""
    x, mu_lo, mu_hi, sigma_lo, sigma_hi = _as_arrays(
        x, mu_lo, mu_hi, sigma_lo, sigma_hi
    )
    if np.any(sigma_lo <= 0.0):
        raise ValueError("sigma_lo must be strictly positive")
    # The farthest mu corner minimises the exponent for either sigma, so
    # only two of the four corners can attain the minimum (the "even easier
    # method" remarked below Lemma 3) — we still write it as a min over all
    # four for clarity; numpy fuses it anyway.
    result = None
    for mu_c in (mu_lo, mu_hi):
        z = (x - mu_c) / sigma_lo
        cand = -0.5 * z * z - np.log(sigma_lo) - LOG_SQRT_TWO_PI
        result = cand if result is None else np.minimum(result, cand)
        z = (x - mu_c) / sigma_hi
        cand = -0.5 * z * z - np.log(sigma_hi) - LOG_SQRT_TWO_PI
        result = np.minimum(result, cand)
    return result


def hull_lower(
    x: np.ndarray | float,
    mu_lo: np.ndarray | float,
    mu_hi: np.ndarray | float,
    sigma_lo: np.ndarray | float,
    sigma_hi: np.ndarray | float,
) -> np.ndarray:
    """Linear-space Lemma 3 lower bound ``N_(x)``."""
    return np.exp(log_hull_lower(x, mu_lo, mu_hi, sigma_lo, sigma_hi))


def node_log_upper(
    rect: ParameterRect, q: PFV, rule: SigmaRule = SigmaRule.CONVOLUTION
) -> float:
    """Log upper bound of ``p(q | v)`` over all pfv ``v`` inside ``rect``.

    This is the priority ``a.prio(q)`` of Section 5.2.1: the product over
    dimensions of the hull evaluated at ``mu_q`` with query-combined sigma
    bounds.
    """
    s_lo = combine_sigma(rect.sigma_lo, q.sigma, rule)
    s_hi = combine_sigma(rect.sigma_hi, q.sigma, rule)
    per_dim = log_hull_upper(q.mu, rect.mu_lo, rect.mu_hi, s_lo, s_hi)
    return float(np.sum(per_dim))


def node_log_bounds_multi(
    mu_lo: np.ndarray,
    mu_hi: np.ndarray,
    sigma_lo: np.ndarray,
    sigma_hi: np.ndarray,
    q_mu: np.ndarray,
    q_sigma: np.ndarray,
    rule: SigmaRule = SigmaRule.CONVOLUTION,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised :func:`node_log_bounds` for ``k`` sibling rectangles
    and a *batch of queries* at once.

    Rectangle bounds have shape ``(k, d)``, query stacks ``(m, d)``;
    returns ``(lower, upper)`` arrays of shape ``(m, k)`` — entry
    ``[i, j]`` bounds rectangle ``j`` for query ``i``. This is the hot
    path of tree traversal: the children of an expanded node are bounded
    for every concurrent query in one numpy evaluation.
    """
    q_mu = np.asarray(q_mu, dtype=np.float64)
    q_sigma = np.asarray(q_sigma, dtype=np.float64)
    s_lo = combine_sigma(
        sigma_lo[np.newaxis, :, :], q_sigma[:, np.newaxis, :], rule
    )  # (m, k, d)
    s_hi = combine_sigma(
        sigma_hi[np.newaxis, :, :], q_sigma[:, np.newaxis, :], rule
    )
    x = q_mu[:, np.newaxis, :]
    box_mu_lo = mu_lo[np.newaxis, :, :]
    box_mu_hi = mu_hi[np.newaxis, :, :]
    upper = np.sum(log_hull_upper(x, box_mu_lo, box_mu_hi, s_lo, s_hi), axis=2)
    lower = np.sum(log_hull_lower(x, box_mu_lo, box_mu_hi, s_lo, s_hi), axis=2)
    return lower, upper


def node_log_bounds(
    rect: ParameterRect, q: PFV, rule: SigmaRule = SigmaRule.CONVOLUTION
) -> tuple[float, float]:
    """``(log N_, log N^)`` of ``p(q | v)`` over ``rect`` — both bounds.

    Used by the sum approximation of Section 5.2:
    ``n * N_ <= sum of stored densities <= n * N^``.
    """
    s_lo = combine_sigma(rect.sigma_lo, q.sigma, rule)
    s_hi = combine_sigma(rect.sigma_hi, q.sigma, rule)
    upper = float(np.sum(log_hull_upper(q.mu, rect.mu_lo, rect.mu_hi, s_lo, s_hi)))
    lower = float(np.sum(log_hull_lower(q.mu, rect.mu_lo, rect.mu_hi, s_lo, s_hi)))
    return lower, upper
