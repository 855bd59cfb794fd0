"""Asymptotic error bounds and reception-rate thresholds.

For an unstable plant observed through Bernoulli receptions at rate lam,
boundedness of the expected prediction covariance has a phase transition at
a critical rate lambda_c, which lies in [p_lower, p_upper] (Mo & Sinopoli,
IEEE TAC 2012):

* ``p_lower`` = 1 - 1/rho(A)^2, from the open-loop growth argument;
* ``p_upper``, the threshold of the modified Riccati equation (MARE;
  Sinopoli et al., IEEE TAC 2004), read off the rank r of C on A's
  unstable invariant subspace, of dimension k. It is ``p_lower`` when
  r = k (C sees that subspace with full column rank, e.g. scalar plants
  and square invertible C) and 1 - 1/prod|lambda_u|^2 when r = 1 (one
  output, or rank-one C; Elia, Syst. Control Lett. 2005; Schenato et al.,
  Proc. IEEE 2007). Only for 1 < r < k is it bisected, to within 1e-6
  above, on a two-sided certificate on A's unstable Schur block
  (:func:`feasibility_check`).

On top of the bracket sit the two quantities the withholding designer
trades off, evaluated at the receivers' effective rates:

* the eavesdropper's error floor: the solution S of the discounted
  Lyapunov equation S = (1 - rate) A S A' + Q, infinite once
  rate <= p_lower (``solve_S``);
* the intended receiver's error ceiling: the fixed point V = g_rate(V),
  infinite once rate <= p_upper (``solve_V``). It is reached by a Stein
  split, checked by :func:`~secest.kalman.riccati_map`, the definition of
  g_rate, whose fixed-point residual the result reports.

Both solve their Stein equations in one of two coordinate systems of the
plant's Schur factor A = U T U^H. Where T has an eigenbasis
T = Y diag(d) Y^-1 with cond_2(Y) <= 50
(:attr:`~secest.linmodel.SchurFactor.modal`), the Stein operator is
diagonal in U Y: a floor is one entrywise division, O(n^2), and a ceiling
step is a measurement update and one entrywise multiply-add. Elsewhere (a
Jordan block, a strongly non-normal A) a floor is one Cayley-transformed
``trsyl``, and a ceiling step a measurement update and one ``trsyl``. On
both routes the measurement update is one Cholesky-factored Gram update
W - G^H G (:func:`~secest.kalman._factored_update`), exactly symmetric in
real arithmetic: in information form, from the per-plant output noise
(C^H R^-1 C)^-1, when C has full column rank with at least two outputs
and a whitened condition of at most 100, and through C otherwise.

Infinite bounds are represented explicitly by :class:`BoundValue` with
``finite=False`` and ``trace=inf``; no numeric sentinel is ever used.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg as sla

from .channel import ChannelParams, _check_probability
from .errors import NumericalError, ValidationError
from .kalman import Coefficients, _factored_update, _sym, riccati_map
from .linmodel import LinearSystem, SchurFactor, _describe_modes, _ModalFactor, prepare_stein

# Width of the final p_upper bisection bracket, on plants with no closed
# form (1 < rank(C U_u) < k).
_P_UPPER_TOL = 1e-6

# The one budget of the feasibility certificate loop. Probes a bisection
# bracket width from the threshold settle within a few hundred steps.
_CERT_MAX_ITERS = 10_000

# Weight of the previous iterate in the certificate loop; it damps the
# period-2 orbit a quarter-turn rotation sets up in the plain normalized map.
_CERT_DAMPING = 0.1

# solve_V reads the fixed-point residual of an iterate once a step moves no
# entry by more than _V_TOL relative to the iterate's largest entry, or once
# a step below _V_FLOOR stops shrinking: the Stein solve amplifies roundoff
# by 1/(1 - (1 - rate) rho^2). It takes the iterate when that residual is at
# most _V_RESIDUAL and steps on otherwise, since a step that stops shrinking
# can be an oscillation or slow convergence on the way. _V_FLOOR is
# load-bearing: without it some ceilings near the threshold meet the
# residual test tens of steps early, with traces up to 1e-8 off.
# A step is one factored measurement update and one Stein step (an entrywise
# multiply-add on the modal route, a triangular Sylvester solve on the
# Cayley route), so a failing call costs _V_MAX_ITERS of each. The budget
# reaches second_order down to about 1.1e-4 above p_upper.
_V_TOL = 1e-13
_V_FLOOR = 1e-9
_V_RESIDUAL = 1e-12
_V_MAX_ITERS = 40_000

# BLAS idamax: the 0-based index of the entry of largest modulus.
_IDAMAX = sla.blas.idamax


def _step_size(Wn: np.ndarray, W: np.ndarray) -> float:
    """solve_V's step max|Wn - W| / max|diag Wn|, for contiguous square
    iterates; a PSD iterate's largest entry sits on its diagonal.

    On real iterates both maxima are read by BLAS ``idamax``, one call
    each, which returns an entry of largest modulus, so the step has the
    bits of the numpy reductions; ``izamax`` ranks complex entries by
    |Re| + |Im|, so complex iterates keep numpy's. ``idamax`` need not see
    a NaN, so its step can be finite on a non-finite iterate: the caller
    checks the iterate before it takes it.
    """
    if Wn.dtype != np.float64:
        return float(np.abs(Wn - W).max() / np.abs(Wn.diagonal()).max())
    n = len(Wn)
    D, w = (Wn - W).ravel(), Wn.ravel()
    # the diagonal is every (n + 1)th entry of w
    return float(abs(D[_IDAMAX(D)]) / abs(w[(n + 1) * _IDAMAX(w, n, 0, n + 1)]))


@dataclass(frozen=True)
class BoundValue:
    """A possibly-infinite covariance bound.

    A finite bound keeps its solution ``_X`` in the basis U of the Schur
    factor ``_schur``, or, for a floor solved in the factor's eigenbasis
    (:attr:`~secest.linmodel.SchurFactor.modal`), in the basis U Y, with
    ``_modal`` that eigenbasis. ``matrix``, the bound in the plant's basis
    (None when infinite), is formed on first read and cached, so a caller
    that reads only ``trace`` never pays for the back-transform. A finite
    ceiling (:func:`solve_V`) also reports ``residual``, max|W - g(W)| /
    max|W| for its solution W and the map g it is the fixed point of, at
    most 1e-12 on every finite ceiling, and ``steps``, the split steps it
    took; both are None on floors and on infinite bounds.
    """

    finite: bool
    trace: float
    residual: float | None = None
    steps: int | None = None
    _X: np.ndarray | None = field(default=None, repr=False)
    _schur: SchurFactor | None = field(default=None, repr=False)
    _modal: _ModalFactor | None = field(default=None, repr=False)

    @classmethod
    def infinite(cls) -> "BoundValue":
        return cls(finite=False, trace=math.inf)

    @cached_property
    def matrix(self) -> np.ndarray | None:
        if not self.finite:
            return None
        X = self._X if self._modal is None else self._modal.to_schur(self._X)
        return self._schur.to_plant(X)


@dataclass(frozen=True)
class CriticalRates:
    """Bracket [p_lower, p_upper] for the critical reception rate; ``exact``
    when the two ends coincide (rank(C U_u) = k)."""

    p_lower: float
    p_upper: float
    exact: bool


@dataclass(frozen=True)
class SecrecyInterval:
    """Withholding probabilities p that keep the intended receiver bounded
    while driving the eavesdropper's expected error unbounded.

    The interval is (lower_exclusive, upper_inclusive]. When the critical
    rate is only known up to the bracket, the interval is built from the
    pessimistic ends and ``conservative`` is set. ``user_nominal_bounded``
    records whether the intended receiver is provably bounded with no
    withholding at all (p = 1).
    """

    lower_exclusive: float
    upper_inclusive: float
    empty: bool
    conservative: bool
    user_nominal_bounded: bool


def p_lower(sys: LinearSystem) -> float:
    """Open-loop divergence threshold 1 - 1/rho(A)^2, rho from the plant's Schur factor."""
    rho = sys.schur.rho
    if rho <= 1.0:
        raise ValidationError(
            f"rho(A) = {rho:.6g} <= 1: the reception-rate threshold is only "
            "defined for unstable plants"
        )
    return 1.0 - 1.0 / (rho * rho)


def solve_S(p: float, ch: ChannelParams, sys: LinearSystem) -> BoundValue:
    """Eavesdropper's asymptotic error floor at withholding probability p.

    Solves S = (1 - p*p2) A S A' + Q on the plant's cached Schur factor
    A = U T U^H when the effective rate clears the open-loop threshold;
    otherwise the floor is infinite. Where T has a well-conditioned
    eigenbasis T = Y diag(d) Y^-1 (:attr:`~secest.linmodel.SchurFactor.modal`,
    cond_2(Y) <= 50), the Stein operator is diagonal there and the floor
    is Z = Y^-1 U^H Q U Y^-H / (1 - alpha d d^H), entrywise, with trace
    Re sum(Z * (Y^H Y)^T): O(n^2) per floor, and S = sym(Re(U Y Z Y^H U^H)).
    Elsewhere (a Jordan block, a strongly non-normal A) it is the Cayley
    solve of :meth:`~secest.linmodel.SchurFactor.discounted_lyapunov`,
    X in the basis U, with trace Re Tr X and S = sym(Re(U X U^H)). Either
    way the plant-basis matrix is formed only when ``.matrix`` is read.
    """
    _check_probability(p, "p")
    floor = _floor(sys, p * ch.p2)
    if floor is None:
        return BoundValue.infinite()
    X, trace, modal = floor
    return BoundValue(finite=True, trace=trace, _X=X, _schur=sys.schur, _modal=modal)


def _floor(sys: LinearSystem, rate: float) -> tuple | None:
    """The floor at effective rate ``rate`` as (X, trace, modal): X in the
    modal basis ``modal``, or in the Schur basis when ``modal`` is None; or
    None when the floor is infinite. :func:`solve_S` wraps it in a
    :class:`BoundValue`; the designer's floor table reads the trace alone."""
    if rate <= p_lower(sys):
        return None
    schur = sys.schur
    modal = schur.modal
    try:
        if modal is not None:
            Z = modal.QE / modal.divisor(1.0 - rate)
            return Z, modal.trace(Z), modal
        X = schur.discounted_lyapunov(1.0 - rate)
    except NumericalError:
        # Within solver resolution of the threshold, or on a strongly
        # non-normal A a floor so large (measured: 1e22 x Q and up) that the
        # Cayley solve's Sylvester step loses its diagonal to roundoff; the
        # floor is effectively unbounded there.
        return None
    return X, float(X.trace().real), None


def _seen_basis(sys: LinearSystem) -> np.ndarray:
    """W, an orthonormal basis of the row space of C U[:, :k] for the sorted
    Schur factor A = U T U^H with k >= 1 unstable modes; len(W) is the rank
    r of C on A's unstable invariant subspace."""
    k = sys.schur.k
    _, s, Vh = np.linalg.svd(sys.C @ sys.schur.U[:, :k])
    return Vh[:int(np.sum(s > max(sys.m, k) * np.finfo(float).eps * s[0]))]


def feasibility_check(lam: float, sys: LinearSystem) -> bool:
    """Decide whether the averaged Riccati iteration stays bounded at rate lam.

    The question only concerns A's unstable block: with the sorted Schur
    factor A = U T U^H, T_u = T[:k, :k] and W an orthonormal basis of the row
    space of C U[:, :k], let

        h(X) = T_u (X - lam X W^H (W X W^H)^-1 W X) T_u^H,

    the noise-free Riccati map of that block: :func:`~secest.kalman.riccati_map`
    on (T_u, W, 0, 0), in the factor's real or complex arithmetic. For any
    X > 0,

    * max eig(h(X), X) < 1 proves lam feasible: the gain X W^H (W X W^H)^-1
      makes the second-moment operator of the error a contraction;
    * min eig(h(X), X) > 1 proves lam infeasible: g_lam >= h and h is
      monotone and homogeneous, so the iterates grow without bound.

    Starting from the Stein solution of X = (1 - lam) T_u X T_u^H + I, the
    loop applies X <- h(X)/tr h(X) + 0.1 X/tr X until one of the two
    certificates holds. Without iterating, every rate is infeasible on a
    plant C does not detect (``sys.unseen_modes`` nonempty: an unseen mode
    with |lambda| >= 1 grows open loop), rates at or below ``p_lower`` are
    infeasible, and any rate is feasible on a plant without unstable modes.
    When C U[:, :k] has full column rank (scalar plants, square invertible
    C), W is unitary and h(X) = (1 - lam) T_u X T_u^H, so every rate above
    ``p_lower`` is feasible, also without iterating. That verdict is
    :func:`p_upper`'s r = k closed form, kept because the loop is left to
    roundoff there (X grows like margin^-3 on a 3x3 Jordan block, which it
    reads infeasible at ``p_lower`` + 1e-10). The loop reads no closed
    form, so it checks the r = 1 one. Where the loop stops without a
    verdict (a singular or non-finite iterate, or the budget spent), lam is
    feasible exactly when the gain of an iterate kept at step 1, 2, 4, 8,
    ... has a Lyapunov witness (:func:`_gain_contracts`); a failed start
    solve, within roundoff of ``p_lower``, gives False.
    """
    _check_probability(lam, "lam")
    if sys.unseen_modes:
        return False
    schur = sys.schur
    k = schur.k
    if k == 0:
        return True
    if lam <= p_lower(sys):
        return False
    Tu = schur.T[:k, :k]
    W = _seen_basis(sys)
    if len(W) == k:  # W unitary: h(X) = (1 - lam) T_u X T_u^H, a contraction above p_lower
        return True
    try:
        X = prepare_stein(Tu, 1.0 - lam, schur.sigma)(np.eye(k))
    except NumericalError:  # lam within roundoff of p_lower, or T_u far from normal
        return False
    block = Coefficients(Tu, W, np.zeros((k, k)), np.zeros((len(W), len(W))))
    kept = []
    for it in range(1, _CERT_MAX_ITERS + 1):
        if not it & (it - 1):  # steps 1, 2, 4, 8, ...
            kept.append(X)
        try:
            H = riccati_map(X, block, lam)
            mu = sla.eigh(H, X, eigvals_only=True)
        except (ValueError, NumericalError):  # X turned singular or non-finite
            break
        if mu[-1] < 1.0:
            return True
        if mu[0] > 1.0:
            return False
        X = H / np.trace(H).real + _CERT_DAMPING * X / np.trace(X).real
    return any(_gain_contracts(Tu, W, X, lam) for X in reversed(kept))


def _gain_contracts(Tu: np.ndarray, W: np.ndarray, X: np.ndarray, lam: float) -> bool:
    """Whether K = T_u X W^H (W X W^H)^-1 contracts L_K(Y) = (1 - lam) T_u Y T_u^H
    + lam F Y F^H, F = T_u - K W: the solution of Y = L_K(Y) + I on its k^2
    entries is Y > 0 with Y - L_K(Y) >= I/2, read again in matrix form."""
    k = len(Tu)
    try:
        F = Tu - Tu @ X @ W.conj().T @ np.linalg.solve(W @ X @ W.conj().T, W)
        L = (1.0 - lam) * np.kron(Tu, Tu.conj()) + lam * np.kron(F, F.conj())
        Y = _sym(np.linalg.solve(np.eye(k * k) - L, np.eye(k).ravel()).reshape(k, k))
        D = Y - (1.0 - lam) * (Tu @ Y @ Tu.conj().T) - lam * (F @ Y @ F.conj().T)
        return bool(np.linalg.eigvalsh(Y)[0] > 0.0 and np.linalg.eigvalsh(D)[0] >= 0.5)
    except np.linalg.LinAlgError:
        return False


_p_upper_cache: "weakref.WeakKeyDictionary[LinearSystem, float]" = weakref.WeakKeyDictionary()


def p_upper(sys: LinearSystem) -> float:
    """The MARE threshold: the smallest rate at which the averaged Riccati
    iteration stays bounded.

    With k unstable modes and r the rank of C on their invariant subspace
    (the rank of C U[:, :k], read off the basis W that
    :func:`feasibility_check` uses too), it is

    * ``p_lower``, when r = k: the ends of the bracket meet;
    * 1 - 1/prod|lambda_u|^2 over the unstable Schur diagonal, when r = 1;
    * otherwise the feasible end of a bisection on [p_lower, 1] down to a
      bracket of width 1e-6, with :func:`feasibility_check` deciding each
      probe, so within 1e-6 above the threshold.

    Raises :class:`NumericalError` at once, naming the modes, when C does
    not see an eigenvalue of modulus at least one (``sys.unseen_modes``),
    and when the bisection cannot certify full reception feasible. Results
    are cached per system instance.
    """
    cached = _p_upper_cache.get(sys)
    if cached is not None:
        return cached
    lo = p_lower(sys)
    if sys.unseen_modes:
        raise NumericalError("no bounded fixed point certified even at full reception; "
                             "(A, C) is not detectable: C does not see the eigenvalue(s) "
                             + _describe_modes(sys.unseen_modes))
    schur = sys.schur
    r = len(_seen_basis(sys))
    if r == schur.k:
        hi = lo
    elif r == 1:
        hi = 1.0 - 1.0 / float(np.prod(np.abs(np.diag(schur.T)[:schur.k]))) ** 2
    else:
        hi = 1.0
        if not feasibility_check(hi, sys):
            raise NumericalError("no bounded fixed point certified even at full reception")
        while hi - lo > _P_UPPER_TOL:
            mid = 0.5 * (lo + hi)
            if feasibility_check(mid, sys):
                hi = mid
            else:
                lo = mid
    _p_upper_cache[sys] = hi
    return hi


def solve_V(p: float, ch: ChannelParams, sys: LinearSystem) -> BoundValue:
    """Intended receiver's asymptotic error ceiling at withholding probability p.

    When the effective rate lam = p*p1 clears ``p_upper``, iterates the
    Stein split V <- X, X = (1-lam) A X A' + (1-lam) Q + lam g_1(V), from
    Sigma0 to g_lam's fixed point; otherwise the ceiling is infinite. The
    split converges at least as fast as V <- g_lam(V) (regular splitting;
    Varga, Matrix Iterative Analysis, ch. 3), and its solve absorbs the
    open-loop direction, the near-critical one when ``p_upper`` = ``p_lower``
    (scalar and invertible-C plants).

    The iterate lives in coordinates of the plant's Schur factor
    A = U T U^H, in the factor's dtype, and only its start, its output
    matrix and its Stein step depend on which. The start and the output
    matrix depend on the plant alone, and so does the information form's
    output noise below: they are formed on the plant's first ceiling and
    kept (:class:`~secest.linmodel._CeilingFrame`).

    * in the eigenbasis T = Y diag(d) Y^-1, where it exists with
      cond_2(Y) <= 50 (:attr:`~secest.linmodel.SchurFactor.modal`), the
      iterate is Z = Y^-1 U^H V U Y^-H and the output matrix C_m = C U Y.
      With alpha = 1 - lam the Stein divisor 1 - alpha d d^H is formed once
      per call, with F = Y^-1 U^H Q U Y^-H / (1 - alpha d d^H) and
      lam d d^H / (1 - alpha d d^H), entrywise. A step is the measurement
      update Z_f = Z - Z C_m^H (C_m Z C_m^H + R)^-1 C_m Z, then
      Z <- F + lam d d^H / (1 - alpha d d^H) * Z_f, entrywise. In real
      arithmetic F is symmetrized once per call and the start once per
      plant, and every iterate is then exactly symmetric; in complex
      arithmetic the
      Hermitian part of each step is the next iterate (roundoff's skew part
      would otherwise grow from step to step);
    * elsewhere, the iterate is W = U^H V U and the output matrix C U. The
      Cayley factor N = (sqrt(alpha) T + sigma I)^-1 is formed once per
      call (:meth:`~secest.linmodel.SchurFactor.stein`), and with it N T and
      N U^H Q U N^H. A step is the same measurement update on W with C U,
      and one triangular Sylvester solve on
      N U^H Q U N^H + lam (N T) W_f (N T)^H, whose Hermitian part is the
      next iterate.

    The measurement update is one Cholesky-factored Gram update
    W_f = W - G^H G with S = L L^H and G = L^-1 H
    (:func:`~secest.kalman._factored_update`), on arguments picked once per
    call. When C has full column rank, m >= n >= 2 and the whitened
    R^-1/2 C has cond_2 <= 100 (``linmodel._INFO_MAX_COND``), it takes the
    information form, with no product with C_s: H = W and S = W + Rt,
    Rt = (C_s^H R^-1 C_s)^-1. Otherwise (one output, one state, a
    rank-deficient or ill-conditioned C) H = C_s W and S = H C_s^H + R, and
    G = H / sqrt(s) for one output.

    The stop rule is read on the iterate: a step max|W_next - W| /
    max|diag W_next| of at most 1e-13 (a PSD iterate's largest entry is on
    its diagonal; on real iterates both maxima are read by BLAS
    ``idamax``), or one below 1e-9 that no longer shrinks, has its
    residual checked. An iterate that is not finite is never checked.
    :func:`~secest.kalman.riccati_map` on (T, C U, U^H Q U, R) remains the
    definition of the ceiling: the check applies it to the iterate carried
    to the Schur basis (Y Z Y^H on the modal route), for the fixed point's
    residual max|W - g_lam(W)| / max|W|, and the iterate is taken exactly
    when that residual is at most 1e-12; otherwise the split steps on. The
    result reports the residual as ``residual`` and the step count as
    ``steps``; its matrix is kept in the Schur basis U, with trace
    Re Tr W, and the ceiling sym(Re(U W U^H)) is formed only when
    ``.matrix`` is read.

    Elsewhere (e.g. one output), ``p_upper`` is the exact threshold, and
    within about 1e-4 of it the iteration still moves after its 40 000-step
    budget: a :class:`NumericalError` naming the rate, ``p_upper`` and the
    budget is raised (the CLI exits 2). So the window a single-output plant
    cannot reach starts at the threshold itself.
    """
    _check_probability(p, "p")
    rate = p * ch.p1
    pu = p_upper(sys)
    if rate <= pu:
        return BoundValue.infinite()

    schur = sys.schur
    T, modal, frame = schur.T, schur.modal, sys._ceiling_frame
    R = sys.R
    if modal is None:
        stein = schur.stein(1.0 - rate)
        N = stein.N
        # X solves H X + X H^H = N (Q_U + lam T W_f T^H) N^H / 2, so the next
        # iterate X + X^H is the Hermitian part of the Stein solution
        NQN, NT = 0.5 * (N @ schur.QU @ N.conj().T), N @ T
        L, NTh = (0.5 * rate) * NT, NT.conj().T

        def stein_step(Wf):
            X = stein.transformed(NQN + L @ Wf @ NTh)
            return X + X.conj().T

        to_schur = None
    else:
        # Z = Y^-1 W Y^-H: the Stein solve divides entrywise by 1 - alpha d d^H
        E = 1.0 / modal.divisor(1.0 - rate)
        F, L = _sym(modal.QE * E), (rate * modal.dd) * E
        if np.isrealobj(F):
            # F, L and every update W - G^T G are exactly symmetric, so is Z
            def stein_step(Zf):
                return F + L * Zf
        else:
            def stein_step(Zf):
                # roundoff's skew part would grow step by step
                return _sym(F + L * Zf)

        to_schur = modal.to_schur
    # the information form passes no output matrix and its own output noise
    Cs, noise = (frame.C, R) if frame.Rt is None else (None, frame.Rt)
    W, prev = frame.start, math.inf
    for steps in range(1, _V_MAX_ITERS + 1):
        Wf = _factored_update(W, Cs, noise)
        Wn = stein_step(Wf)
        step = _step_size(Wn, W)
        if (step <= _V_TOL or prev <= step <= _V_FLOOR) and np.isfinite(Wn).all():
            V = Wn if to_schur is None else to_schur(Wn)
            G = riccati_map(V, Coefficients(T, frame.CU, schur.QU, R), rate)
            residual = float(np.abs(V - G).max() / np.abs(V).max())
            if residual <= _V_RESIDUAL:
                return BoundValue(finite=True, trace=float(V.trace().real),
                                  residual=residual, steps=steps, _X=V, _schur=schur)
        prev, W = step, Wn
    raise NumericalError(
        f"fixed-point iteration did not converge in {_V_MAX_ITERS} iterations at "
        f"effective rate {rate:.9g}, {rate - pu:.3g} above p_upper = {pu:.9g}; "
        "the fixed point is bounded but too slow to reach there"
    )


def critical_rates(sys: LinearSystem) -> CriticalRates:
    """Bracket lambda_c by [p_lower, p_upper], p_upper the MARE (ceiling)
    threshold. The bracket is exact when its ends are equal, which happens
    exactly when C sees the unstable subspace with full column rank."""
    lo = p_lower(sys)
    hi = p_upper(sys)
    return CriticalRates(p_lower=lo, p_upper=hi, exact=(hi == lo))


def _safe_div(num: float, den: float) -> float:
    return num / den if den > 0.0 else math.inf


def secrecy_interval(sys: LinearSystem, ch: ChannelParams) -> SecrecyInterval:
    """Range of withholding probabilities achieving secrecy.

    The interval is (p_upper/p1, min(p_lower/p2, 1)], flagged conservative
    when the bracket is open; with the critical rate known exactly (closed
    bracket, p_upper = p_lower) that is (p_c/p1, min(p_c/p2, 1)]. An empty
    interval means no single withholding probability can separate the two
    receivers, e.g. when p1 <= p2.
    """
    rates = critical_rates(sys)
    lower = _safe_div(rates.p_upper, ch.p1)
    upper = min(_safe_div(rates.p_lower, ch.p2), 1.0)
    return SecrecyInterval(
        lower_exclusive=lower,
        upper_inclusive=upper,
        empty=bool(not lower < upper),
        conservative=not rates.exact,
        user_nominal_bounded=bool(ch.p1 > rates.p_upper),
    )
