"""Scattered-pilot phase-noise estimators and their error diagnostics.

All estimators target the spectral vector ``delta`` of the receiver phase
noise from one OFDM symbol, using only the pilot subcarriers and the channel.
They read the symbol as the frame the link builds
(:class:`pnofdm.link.OfdmFrame`), which checks its pilot layout when built.
Writing ``w = H s`` for the noiseless frequency-domain symbol and ``R`` for
the column-circulant matrix built from the received vector ``r``, the pilot
fit under a model's lift matrix ``T`` is ``K R T x ~ w_p`` on its ``n``
reduced time samples ``x``, which the geometry holds at ``|x_i|^2 = 1/n``:

    J(x) = ||K R T x - w_p||^2 = x^H M x - 2 Re(b^H x) + ||w_p||^2.

Five estimators are provided:

``uls``
    Unconstrained minimizer ``x = M^{-1} b``; a numerically singular ``M``
    raises :class:`EstimationError`.  Its time samples suffer amplitude
    errors (``eps != 0``) from noise, limited pilots, and the reduction
    model.
``nls``
    ``uls`` followed by an exact constant-modulus projection of the lifted
    time samples.
``gls``
    Least squares constrained to the geometry, under a ``ppt`` model only, a
    run rule that :func:`pnofdm.link.run_violations` checks.  A Newton solve
    on the time phases runs first, and its point is returned when the
    closed-form Lagrangian certificate proves it globally optimal.  Other
    frames go through the convex dual program (:mod:`pnofdm.sdp`), are
    recovered through the stationarity system and finished with one exact
    constant-modulus projection; they report the measured gap to the dual
    bound.  That point is a rounding of the relaxation, not a proven
    minimizer: at 10 dB its cost was above the discarded Newton point's on
    1112 of 1155 uncertified frames, and above ``nls``'s on 30 (ROADMAP
    item 12).
``cpe_only``
    Scalar common-phase fit on the pilots; corrects the average rotation and
    leaves all inter-carrier leakage.
``cis``
    Linear interpolation between the common-phase angles of two consecutive
    symbols, anchored at the symbol midpoints.

Every estimator returns an :class:`EstimatorOutput` holding one full-length
spectrum ``delta_hat`` and its diagnostics, built by one constructor; its
geometry residual is evaluated on ``delta``, at most once, when first read.

An estimator that cannot estimate a frame raises :class:`EstimationError`,
and :func:`pnofdm.link.simulate` then flags the frame and uses ``cpe``.
``uls`` and ``nls`` raise one naming the condition number of ``M`` when it
is above ``ULS_COND_LIMIT`` or NaN.  No numpy ``LinAlgError`` leaves an
estimator: ``uls`` and ``nls`` turn one from the condition number or the
normal-equation solve into an ``EstimationError`` that names it, and
``gls`` turns the local solve's into a dual solve and the dual's or the
recovery's into an ``EstimationError``; so does a dual solve that ends
without a certified optimum.  The other estimators call no linear-algebra
routine: ``cpe`` and ``cis`` divide by a pilot power they check, and
``genie`` transforms the true trajectory.

``error_decomposition`` splits any estimate into per-sample amplitude errors
``eps``, phase errors ``omega``, and the closed-form total error they
induce.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .sdp import certify_local, kkt_recover, solve_dual
from .spectral import geometry_residual, spectral_vector

__all__ = [
    "ESTIMATOR_IDS",
    "EstimationError",
    "EstimatorOutput",
    "ErrorDecomposition",
    "LsSystem",
    "MODEL_FREE_IDS",
    "NEXT_SYMBOL_IDS",
    "PPT_ONLY_IDS",
    "build_ls_system",
    "cis",
    "cpe_only",
    "error_decomposition",
    "estimate_frame",
    "gls",
    "nls",
    "pilot_scalar",
    "project_constant_modulus",
    "uls",
]

ULS_COND_LIMIT = 1e12


class EstimationError(RuntimeError):
    """Raised when an estimator cannot produce an estimate for a frame."""


@dataclass(frozen=True)
class LsSystem:
    """Normal-equation data of the pilot least-squares fit, as :func:`build_ls_system` makes it."""

    M: np.ndarray  # n x n Hermitian PSD, on the reduced time samples
    b: np.ndarray  # n
    const_term: float  # ||w_p||^2
    pilot_rows: np.ndarray  # K x n_c rows of K R, kept for cost evaluation
    w_p: np.ndarray  # K pilot products

    def cost_delta(self, delta) -> float:
        """Full cost ``||K R delta - w_p||^2`` at a full-length estimate."""
        resid = self.pilot_rows @ delta - self.w_p
        return float(np.real(resid.conj() @ resid))


def build_ls_system(frame, T) -> LsSystem:
    """Assemble ``M``, ``b`` and the pilot products for one symbol under the lift matrix ``T``.

    Reads the frame's received vector ``r``, its channel ``H`` and its pilot
    layout: the pilot subcarriers ``pilot_idx`` (strictly increasing) and the
    transmitted ``pilot_values``; ``w_p = H[p] * value[p]``.  That the
    pilots determine the model's coefficients is a run rule
    (:func:`pnofdm.link.run_violations`), not checked here.

    ``M = A^H A`` is PSD and ``(M + M^H)/2`` exactly Hermitian, so neither is
    checked again; a valid link config makes only finite frames, and
    :mod:`pnofdm.sdp` checks each pair it solves.
    """
    r, pilot_idx = frame.r, frame.pilot_idx
    w_p = frame.H[pilot_idx] * frame.pilot_values
    # Pilot rows of K R, where R is column-circulant with first column r.
    rows = r[_circulant_gather(r.size, tuple(pilot_idx.tolist()))]
    A = rows @ T
    M = A.conj().T @ A
    M = (M + M.conj().T) / 2
    b = A.conj().T @ w_p
    return LsSystem(M, b, float(np.real(w_p.conj() @ w_p)), rows, w_p)


@lru_cache(maxsize=16)
def _circulant_gather(n_c: int, pilot_idx: tuple) -> np.ndarray:
    """Read-only index ``(p - m) mod n_c`` of the pilot rows, built once per layout."""
    index = (np.array(pilot_idx)[:, None] - np.arange(n_c)[None, :]) % n_c
    index.flags.writeable = False
    return index


@dataclass(frozen=True)
class EstimatorDiagnostics:
    cost: float | None
    delta_hat: np.ndarray = field(repr=False, compare=False)  # read by geometry_residual
    flags: tuple = ()
    solver: object | None = None
    certified: bool | None = None  # gls: the estimate is the proven global optimum
    gap: float | None = None  # gls: cost above the dual bound tau (0 when certified)

    @cached_property
    def geometry_residual(self) -> float:
        """``geometry_residual(delta_hat)``, computed on first read and kept.

        The link never reads it, so only a reader pays for its transform pair.
        """
        return geometry_residual(self.delta_hat)


@dataclass(frozen=True)
class EstimatorOutput:
    """One full-length estimate plus solver metadata.

    ``delta_hat`` is the full-length complex spectrum, a plain array; its
    reduced time samples are ``T^H delta_hat`` for the model's ``T``.
    ``diagnostics.geometry_residual`` is ``geometry_residual(delta_hat)``,
    computed when first read.
    """

    delta_hat: np.ndarray
    diagnostics: EstimatorDiagnostics


def _output(delta, cost=None, **diagnostics) -> EstimatorOutput:
    """Build an estimator's output; its geometry residual waits for a reader."""
    return EstimatorOutput(delta, EstimatorDiagnostics(cost, delta, **diagnostics))


def project_constant_modulus(gamma):
    """Project a spectrum onto the constant-modulus set, exactly.

    Normalizes the inverse-transform samples to modulus ``1/n`` (keeping
    their phases) and transforms back.  A zero sample has no phase; it is
    replaced by ``1/n`` (phase zero) and reported.  Idempotent on
    vectors already on the geometry.

    Returns ``(projected, n_zero_samples)``.
    """
    g = np.asarray(gamma, dtype=complex)
    u = np.fft.ifft(g)
    mag = np.abs(u)
    zero = mag == 0.0
    n_zero = int(np.count_nonzero(zero))
    unit = np.where(zero, 1.0, u / np.where(zero, 1.0, mag))
    return np.fft.fft(unit) / g.size, n_zero


def _uls_x(sys: LsSystem):
    """Solve the normal equations ``M x = b``.

    A condition number above ``ULS_COND_LIMIT``, or NaN, raises
    :class:`EstimationError` naming it, and so does a numpy ``LinAlgError``
    from the condition number or the solve; :func:`pnofdm.link.simulate`
    then flags the frame and decodes it with ``cpe``.
    """
    try:
        cond = float(np.linalg.cond(sys.M))
        if not cond <= ULS_COND_LIMIT:
            raise EstimationError(f"normal matrix is numerically singular (cond {cond:.3e})")
        return np.linalg.solve(sys.M, sys.b)
    except np.linalg.LinAlgError as exc:
        raise EstimationError(f"normal-equation solve failed: LinAlgError: {exc}") from exc


def uls(sys: LsSystem, T) -> EstimatorOutput:
    """Unconstrained least-squares estimate ``x = M^{-1} b``, ``delta = T x``."""
    delta = T @ _uls_x(sys)
    return _output(delta, sys.cost_delta(delta))


def nls(sys: LsSystem, T) -> EstimatorOutput:
    """``uls`` followed by an exact constant-modulus projection of the time samples.

    The ``zero_time_samples:k`` flag counts full-length samples, so under
    ``ppt`` each zero reduced sample counts ``n_c/n`` times; no caller reads
    flags yet (ROADMAP item 4).
    """
    delta, n_zero = project_constant_modulus(T @ _uls_x(sys))
    flags = (f"zero_time_samples:{n_zero}",) if n_zero else ()
    return _output(delta, sys.cost_delta(delta), flags=flags)


def gls(sys: LsSystem, T) -> EstimatorOutput:
    """Geometry-constrained least squares: a certified minimizer, or a rounding of the dual.

    Requires a geometry-preserving ``T`` (the constraints are imposed in the
    reduced domain and must survive the lift), a run rule (``PPT_ONLY_IDS``)
    not checked here.  A Newton solve on the time phases runs first; when the
    closed-form Lagrangian certificate proves its point globally optimal
    (:func:`pnofdm.sdp.certify_local`) that point, lifted, is the estimate,
    with ``certified=True`` and ``gap = 0``.  Otherwise, or when the local
    solve raises a numpy ``LinAlgError``, the dual is solved to a certified
    optimum, the time samples recovered from the stationarity system, and
    their lift gets ``nls``'s exact projection (its zero-sample flag counts
    full-length samples), which removes the infeasibility the solver
    tolerance leaves; such frames carry ``certified=False`` and the
    measured ``gap = cost - tau``.  Their point is not a proven minimizer: at
    10 dB its cost was above the discarded Newton point's on 1112 of 1155
    uncertified frames, and above ``nls``'s on 30 (ROADMAP item 12).  On
    dual-solve failure, including a numpy ``LinAlgError`` in the solve or the
    recovery, an :class:`EstimationError` is raised, carrying the solve's
    status and Newton step count when it ran out of steps;
    :func:`pnofdm.link.simulate` then uses the common-phase-only fit
    (``cpe``) for that frame and flags it.
    """
    try:
        local = certify_local(sys.M, sys.b)
    except np.linalg.LinAlgError:
        local = None
    certified = local is not None
    flags = ()
    if certified:
        x, sol = local
        delta = T @ x
    else:
        try:
            sol = solve_dual(sys.M, sys.b)
            if sol.status != "optimal":
                raise EstimationError(f"dual solve ended with status {sol.status!r} after {sol.iterations} Newton steps")
            x, info = kkt_recover(sys.M, sys.b, sol)
        except np.linalg.LinAlgError as exc:
            raise EstimationError(f"dual solve failed: {exc}") from exc
        if not info.full_rank:
            flags = (f"kkt_rank_deficient:{info.rank}",)
        delta, n_zero = project_constant_modulus(T @ x)
        if n_zero:
            flags = flags + (f"zero_time_samples:{n_zero}",)
    cost = sys.cost_delta(delta)
    return _output(
        delta, cost, flags=flags, solver=sol,
        certified=certified, gap=0.0 if certified else cost - sys.const_term - sol.tau,
    )


def pilot_scalar(frame) -> complex:
    """Least-squares scalar ``c`` fitting ``r[p] ~ c * w_p[p]`` on the frame's pilots.

    For slow phase noise ``c`` approximates ``conj(delta_0)``, i.e.
    ``angle(c)`` estimates the mean phase over the symbol.  Zero pilot
    power, as in a frame with no pilots, raises :class:`EstimationError`.
    """
    w_p = frame.H[frame.pilot_idx] * frame.pilot_values
    denom = float(np.real(w_p.conj() @ w_p))
    if denom == 0.0:
        raise EstimationError("all pilot powers are zero")
    return complex(np.vdot(w_p, frame.r[frame.pilot_idx]) / denom)


def cpe_only(frame) -> EstimatorOutput:
    """Common-phase-only estimate: ``delta = conj(c)/|c| * e_0``."""
    c = pilot_scalar(frame)
    if c == 0:
        raise EstimationError("pilot fit returned zero")
    delta = np.zeros(frame.r.size, dtype=complex)
    delta[0] = np.conj(c) / abs(c)
    return _output(delta)


def cis(frame_t, frame_t1) -> EstimatorOutput:
    """Common-phase interpolation across two consecutive symbols.

    The pilot scalars of the current and next symbol give mean-phase anchors
    at the two symbol midpoints (sample ``(n_c - 1)/2`` of each, with no
    cyclic prefix modeled); the current symbol's trajectory is the straight
    line through the anchors.  The anchor difference is wrapped to the
    nearest branch; a wrap beyond ``pi`` is flagged.  Requires the phase
    trajectory to be continuous across the two symbols.

    ``delta_hat`` is the spectral vector of the interpolated trajectory;
    :func:`pnofdm.spectral.phase_trajectory` reads the line back, wrapped
    to ``(-pi, pi]``.
    """
    c0 = pilot_scalar(frame_t)
    c1 = pilot_scalar(frame_t1)
    a0 = float(np.angle(c0))
    raw = float(np.angle(c1)) - a0
    diff = (raw + np.pi) % (2 * np.pi) - np.pi
    flags = ("unwrapped",) if abs(raw) > np.pi else ()
    n_c = frame_t.r.size
    mid = (n_c - 1) / 2.0
    theta_hat = a0 + (diff / n_c) * (np.arange(n_c) - mid)
    return _output(spectral_vector(theta_hat), flags=flags)


@dataclass(frozen=True)
class ErrorDecomposition:
    """Per-sample amplitude/phase split of an estimate's total error.

    With ``x = ifft(delta_hat)`` and true trajectory ``theta``, each sample
    is ``x[i] = kappa[i]/n * exp(-1j*(theta[i] - omega[i]))`` with amplitude
    factor ``kappa[i] = n * |x[i]|``; ``eps = 1 - kappa`` is the amplitude
    error and ``omega`` the phase error, wrapped to ``(-pi, pi]``.
    ``total`` is the closed form

        (1/n^2) * sum_i [ eps^2 - 2*eps*(1 - cos w) + 2*(1 - cos w) ]

    which equals the direct sum ``sum |x[i] - exp(-1j*theta[i])/n|^2``
    identically.  Normalized by the energy ``1/n`` of the exact samples,
    ``eps = 0`` and constant ``omega = w0`` give ``n * total = 2*(1 - cos w0)``.
    """

    omega: np.ndarray
    eps: np.ndarray
    total: float


def error_decomposition(delta_hat, theta) -> ErrorDecomposition:
    """Amplitude/phase error split of an estimate against the true trajectory.

    ``delta_hat`` and ``theta`` must be 1-D vectors of one length.
    """
    values = np.asarray(delta_hat, dtype=complex)
    th = np.asarray(theta, dtype=float)
    if values.ndim != 1 or th.ndim != 1:
        raise ValueError("delta_hat and theta must be 1-D vectors")
    n = values.size
    if th.size != n:
        raise ValueError("theta must match the estimate length")
    x = np.fft.ifft(values)
    omega = np.angle(np.exp(1j * (th + np.angle(x))))
    eps = 1.0 - n * np.abs(x)
    one_minus_cos = 1.0 - np.cos(omega)
    total = float(np.sum(eps**2 - 2 * eps * one_minus_cos + 2 * one_minus_cos) / n**2)
    return ErrorDecomposition(omega, eps, total)


ESTIMATOR_IDS = ("uls", "nls", "gls", "cpe", "cis", "genie")
# The estimators that read the next symbol as well as the current one.
NEXT_SYMBOL_IDS = ("cis",)
# The estimators that need a geometry-preserving (``ppt``) model.
PPT_ONLY_IDS = ("gls",)
# The estimators that read no reduction model: one estimate serves every model.
MODEL_FREE_IDS = ("cpe", "cis", "genie")


def estimate_frame(name: str, frame, next_frame, model) -> EstimatorOutput:
    """Run the estimator ``name`` on one frame under the lift matrix ``model``
    (``None`` for ``MODEL_FREE_IDS``); those in ``NEXT_SYMBOL_IDS`` also read
    the next frame, and raise :class:`EstimationError` without it.

    ``genie`` returns the true spectral vector and exists for reference
    curves and tests.
    """
    if name in ("uls", "nls", "gls"):
        sys = build_ls_system(frame, model)
        fn = {"uls": uls, "nls": nls, "gls": gls}[name]
        return fn(sys, model)
    if name == "cpe":
        return cpe_only(frame)
    if name in NEXT_SYMBOL_IDS and next_frame is None:
        raise EstimationError(f"{name} requires the next symbol")
    if name == "cis":
        return cis(frame, next_frame)
    if name == "genie":
        return _output(spectral_vector(frame.theta))
    raise ValueError(f"unknown estimator {name!r}; expected one of {ESTIMATOR_IDS}")
