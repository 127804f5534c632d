"""Closed-form error floors and related scalar bounds."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ScanLimitError
from .model import Prior

SCAN_CAP = 10**6


@dataclass(frozen=True)
class BoundReport:
    """Floor values for a given prior, with optional refinements."""

    p: float
    q: float
    l_star: float
    w_star: int
    epsilon: float
    delta: float | None = None
    epsilon_delta: float | None = None
    counting_bound: float | None = None


def _log_disguise_term(prior: Prior, w: int) -> float:
    """ln(1 - q^(w-1)): the log chance a weight-w test disguises a given member."""
    # a weight-1 test can never disguise its only member
    if w <= 1:
        return float("-inf")
    return math.log1p(-(prior.q ** (w - 1)))


def weight_log_term(prior: Prior, w: int) -> float:
    """w * ln(1 - q^(w-1)): the weighted log chance a weight-w test disguises a member."""
    if w < 1:
        raise ValueError(f"test weight must be at least 1, got {w}")
    return w * _log_disguise_term(prior, w)


def l_star(prior: Prior) -> tuple[float, int]:
    """Minimum of w * ln(1 - q^(w-1)) over integer weights w >= 2, certified.

    Scans w = 2, 3, ... keeping the running minimum.  The scan stops once the
    tail majorant g(w) = w * q^(w-1) / (1 - q^(w-1)) sits below the running
    minimum's magnitude *and* is guaranteed to keep shrinking (w > q/p); from
    there no larger w can win, because |ln(1-x)| <= x/(1-x).  Ties go to the
    smaller weight.  Very small p pushes the certified stop beyond the hard
    cap of 10^6, which raises `ScanLimitError`; at once, before any weight is
    evaluated, when q/p alone reaches the cap.
    """
    q = prior.q
    monotone_from = q / (1.0 - q)
    if monotone_from >= SCAN_CAP:
        raise ScanLimitError(
            f"certified scan must pass weight q/p = {monotone_from:.6g}, over the cap of {SCAN_CAP}"
            f" (p = {prior.p})"
        )
    best = weight_log_term(prior, 2)
    best_w = 2
    w = 2
    while True:
        w += 1
        if w > SCAN_CAP:
            raise ScanLimitError(
                f"certified scan not terminated by weight {SCAN_CAP} (p = {prior.p})"
            )
        qpow = q ** (w - 1)
        majorant = w * qpow / (1.0 - qpow)
        if w > monotone_from and majorant < -best:
            return best, best_w
        value = w * math.log1p(-qpow)
        if value < best:
            best, best_w = value, w


def epsilon_bound(prior: Prior) -> BoundReport:
    """The decoder-independent error floor min{p, q} * exp(L*) for T < n."""
    ls, ws = l_star(prior)
    eps = min(prior.p, prior.q) * math.exp(ls)
    return BoundReport(p=prior.p, q=prior.q, l_star=ls, w_star=ws, epsilon=eps)


def epsilon_bound_delta(prior: Prior, delta: float) -> float:
    """Sharper floor min{p, q} * exp((1 - delta) L*), valid when T < (1 - delta) n."""
    if not 0.0 <= delta < 1.0:
        raise ValueError(f"delta must lie in [0, 1), got {delta}")
    ls, _ = l_star(prior)
    return min(prior.p, prior.q) * math.exp((1.0 - delta) * ls)


def counting_bound(prior: Prior, n: int) -> float:
    """Information-theoretic test requirement H(p) * n, in bits."""
    if n < 1:
        raise ValueError(f"item count must be at least 1, got {n}")
    try:
        items = float(n)
    except OverflowError:
        raise ValueError("item count is too large to convert to a float") from None
    p, q = prior.p, prior.q
    return items * (-p * math.log2(p) - q * math.log2(q))

