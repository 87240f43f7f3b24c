"""Scattered-pilot phase-noise estimators and their error diagnostics.

All estimators target the spectral vector ``delta`` of the receiver phase
noise from one OFDM symbol, using only the pilot subcarriers and the channel.
Writing ``w = H s`` for the noiseless frequency-domain symbol and ``R`` for
the column-circulant matrix built from the received vector ``r``, the pilot
fit is ``K R T g ~ w_p`` and the quadratic cost is

    J(g) = ||K R T g - w_p||^2 = g^H M g - 2 Re(b^H g) + ||w_p||^2.

Five estimators are provided:

``uls``
    Unconstrained minimizer ``g = M^{-1} b`` (with a trace-scaled ridge when
    ``M`` is numerically singular).  Its inverse-transform samples suffer
    amplitude errors (``kappa != 1``) from noise, limited pilots, and the
    reduction model.
``nls``
    The unconstrained estimate projected onto the constant-modulus set by
    normalizing time-domain sample magnitudes: in the reduced domain when the
    model preserves the geometry, otherwise in the full domain.
``gls``
    The geometry-constrained minimizer.  A Newton solve on the time phases
    runs first, and its point is returned when the closed-form Lagrangian
    certificate proves it globally optimal.  Other frames go through the
    convex dual program (:mod:`pnofdm.sdp`), are recovered through the
    stationarity system and finished with one exact constant-modulus
    projection; they report the measured gap to the dual bound.
``cpe_only``
    Scalar common-phase fit on the pilots; corrects the average rotation and
    leaves all inter-carrier leakage.
``cis``
    Linear interpolation between the common-phase angles of two consecutive
    symbols, anchored at the symbol midpoints.

``error_decomposition`` splits any estimate into per-sample amplitude factors
``kappa``, phase errors ``omega``, and the closed-form total error they
induce; ``c_matrix`` reconstructs the exact linear map relating the
unconstrained estimate to the true ``delta`` for diagnostic use.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dimred import DimRedModel, lift
from .phasenoise import SpectralVector, _values, spectral_vector
from .sdp import SolverError, certify_local, kkt_recover, solve_dual
from .spectral import dft_matrix, geometry_residual

__all__ = [
    "ESTIMATOR_IDS",
    "EstimationError",
    "EstimatorOutput",
    "ErrorDecomposition",
    "LsSystem",
    "build_ls_system",
    "c_matrix",
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
    """Normal-equation data of the pilot least-squares fit."""

    M: np.ndarray  # n x n Hermitian PSD
    b: np.ndarray  # n
    const_term: float  # ||w_p||^2
    pilot_rows: np.ndarray  # K x n_c rows of K R, kept for cost evaluation
    w_p: np.ndarray  # K pilot products

    def __post_init__(self):
        n = self.b.size
        if self.M.shape != (n, n):
            raise ValueError("M must be square and match b")
        scale = 1.0 + float(np.max(np.abs(self.M)))
        if np.max(np.abs(self.M - self.M.conj().T)) > 1e-12 * scale:
            raise ValueError("M must be Hermitian")
        if float(np.linalg.eigvalsh(self.M)[0]) < -1e-10 * scale:
            raise ValueError("M must be positive semidefinite")

    @property
    def n(self) -> int:
        return self.b.size

    def cost_gamma(self, gamma, model: DimRedModel) -> float:
        """Full cost ``J`` at a reduced estimate (lifted through the model)."""
        return self.cost_delta(model.T @ _values(gamma))

    def cost_delta(self, delta) -> float:
        """Full cost ``||K R delta - w_p||^2`` at a full-length estimate."""
        resid = self.pilot_rows @ _values(delta) - self.w_p
        return float(np.real(resid.conj() @ resid))


def build_ls_system(r, H, pilot_idx, pilot_values, model: DimRedModel) -> LsSystem:
    """Assemble ``M``, ``b`` and the pilot products for one symbol.

    ``pilot_idx`` are the pilot subcarriers (strictly increasing) and
    ``pilot_values`` the transmitted pilot symbols; ``w_p = H[p] * value[p]``.
    Raises :class:`EstimationError` when there are fewer pilots than model
    dimensions (underdetermined fit).
    """
    r = np.asarray(r, dtype=complex).ravel()
    H = np.asarray(H, dtype=complex).ravel()
    pilot_idx = np.asarray(pilot_idx, dtype=int).ravel()
    pilot_values = np.asarray(pilot_values, dtype=complex).ravel()
    n_c = r.size
    if H.size != n_c:
        raise ValueError("H must match the symbol length")
    if pilot_idx.size != pilot_values.size:
        raise ValueError("pilot index/value length mismatch")
    if pilot_idx.size < model.n:
        raise EstimationError(
            f"{pilot_idx.size} pilots cannot determine {model.n} components"
        )
    w_p = H[pilot_idx] * pilot_values
    # Pilot rows of K R, where R is column-circulant with first column r.
    rows = r[(pilot_idx[:, None] - np.arange(n_c)[None, :]) % n_c]
    A = rows @ model.T
    M = A.conj().T @ A
    M = (M + M.conj().T) / 2
    b = A.conj().T @ w_p
    return LsSystem(M, b, float(np.real(w_p.conj() @ w_p)), rows, w_p)


@dataclass(frozen=True)
class EstimatorDiagnostics:
    cost: float | None
    geometry_residual: float
    method: str
    flags: tuple = ()
    condition: float | None = None
    solver: object | None = None
    certified: bool | None = None  # gls: the estimate is the proven global optimum
    gap: float | None = None  # gls: cost above the dual bound tau (0 when certified)


@dataclass(frozen=True)
class EstimatorOutput:
    """Reduced and full-length estimates plus solver metadata."""

    gamma_hat: SpectralVector | None
    delta_hat: SpectralVector
    diagnostics: EstimatorDiagnostics


def project_constant_modulus(gamma):
    """Project a spectrum onto the constant-modulus set, exactly.

    Normalizes the inverse-transform samples to modulus ``1/n`` (keeping
    their phases) and transforms back.  A zero sample has no phase; it is
    replaced by ``1/n`` (phase zero) and reported.  Idempotent on
    vectors already on the geometry.

    Returns ``(projected, n_zero_samples)``.
    """
    g = _values(gamma)
    u = np.fft.ifft(g)
    mag = np.abs(u)
    zero = mag == 0.0
    n_zero = int(np.count_nonzero(zero))
    unit = np.where(zero, 1.0, u / np.where(zero, 1.0, mag))
    return np.fft.fft(unit) / g.size, n_zero


def _uls_gamma(sys: LsSystem):
    """Solve the normal equations, ridge-regularizing near-singular systems."""
    cond = float(np.linalg.cond(sys.M))
    flags = ()
    M = sys.M
    if not np.isfinite(cond) or cond > ULS_COND_LIMIT:
        ridge = 1e-10 * float(np.trace(M).real) / sys.n
        M = M + ridge * np.eye(sys.n)
        flags = ("regularized",)
        cond_r = float(np.linalg.cond(M))
        if not np.isfinite(cond_r) or cond_r > 1e16:
            raise EstimationError(
                f"normal matrix is singular beyond regularization (cond {cond:.3e})"
            )
    gamma = np.linalg.solve(M, sys.b)
    return gamma, cond, flags


def uls(sys: LsSystem, model: DimRedModel) -> EstimatorOutput:
    """Unconstrained least-squares estimate ``g = M^{-1} b``, ``delta = T g``."""
    gamma, cond, flags = _uls_gamma(sys)
    delta = lift(model, gamma)
    return EstimatorOutput(
        SpectralVector.from_values(gamma),
        delta,
        EstimatorDiagnostics(
            cost=sys.cost_gamma(gamma, model),
            geometry_residual=delta.residual_max,
            method="uls",
            flags=flags,
            condition=cond,
        ),
    )


def nls(sys: LsSystem, model: DimRedModel) -> EstimatorOutput:
    """Normalization-projected least squares.

    With a geometry-preserving model the constant-modulus projection is done
    in the reduced domain and lifted; otherwise the unconstrained estimate is
    lifted first and projected in the full domain (costing two full-length
    transforms but guaranteeing the output geometry either way).
    """
    gamma_ls, cond, flags = _uls_gamma(sys)
    if model.kind == "ppt":
        gamma, n_zero = project_constant_modulus(gamma_ls)
        delta = lift(model, gamma)
    else:
        delta_ls = model.T @ gamma_ls
        values, n_zero = project_constant_modulus(delta_ls)
        delta = SpectralVector.from_values(values)
        gamma = model.T.conj().T @ values  # reduced coefficients of the projection
    if n_zero:
        flags = flags + (f"zero_time_samples:{n_zero}",)
    return EstimatorOutput(
        SpectralVector.from_values(gamma),
        delta,
        EstimatorDiagnostics(
            cost=sys.cost_delta(delta.values),
            geometry_residual=delta.residual_max,
            method="nls",
            flags=flags,
            condition=cond,
        ),
    )


def gls(sys: LsSystem, model: DimRedModel) -> EstimatorOutput:
    """Geometry-constrained least squares, certified locally or via the convex dual.

    Requires a geometry-preserving model (the constraints are imposed in the
    reduced domain and must survive the lift).  A Newton solve on the time
    phases runs first; when the closed-form Lagrangian certificate proves its
    point globally optimal (:func:`pnofdm.sdp.certify_local`) that point is
    the estimate, with ``certified=True`` and ``gap = 0``.  Otherwise, or when
    the local solve raises a numpy ``LinAlgError``, the dual is solved to a
    certified optimum, the estimate recovered from the stationarity system,
    and one exact constant-modulus projection removes the residual
    infeasibility left by the finite solver tolerance; such frames carry
    ``certified=False``, the measured ``gap = cost - tau`` and the recovery's
    condition number.  On dual-solve failure, including a numpy
    ``LinAlgError`` in the solve or the recovery, an :class:`EstimationError`
    is raised, carrying the iteration trace when the solve ran out of steps;
    ``nls`` is the natural fallback.
    """
    if model.kind != "ppt":
        raise ValueError("gls requires a geometry-preserving model")
    try:
        local = certify_local(sys.M, sys.b)
    except np.linalg.LinAlgError:
        local = None
    certified = local is not None
    flags = ()
    condition = None
    if certified:
        gamma, sol = local
    else:
        try:
            sol = solve_dual(sys.M, sys.b)
            if sol.status != "optimal":
                raise EstimationError(
                    f"dual solve ended with status {sol.status!r} after "
                    f"{sol.iterations} Newton steps (tau path {sol.tau_path})"
                )
            gamma_raw, info = kkt_recover(sys.M, sys.b, sol)
        except (SolverError, np.linalg.LinAlgError) as exc:
            raise EstimationError(f"dual solve failed: {exc}") from exc
        condition = info.condition
        if not info.full_rank:
            flags = (f"kkt_rank_deficient:{info.rank}",)
        gamma, n_zero = project_constant_modulus(gamma_raw)
        if n_zero:
            flags = flags + (f"zero_time_samples:{n_zero}",)
    delta = lift(model, gamma)
    cost = sys.cost_gamma(gamma, model)
    return EstimatorOutput(
        SpectralVector.from_values(gamma),
        delta,
        EstimatorDiagnostics(
            cost=cost,
            geometry_residual=delta.residual_max,
            method="gls",
            flags=flags,
            condition=condition,
            solver=sol,
            certified=certified,
            gap=0.0 if certified else cost - sys.const_term - sol.tau,
        ),
    )


def pilot_scalar(r, H, pilot_idx, pilot_values) -> complex:
    """Least-squares scalar ``c`` fitting ``r[p] ~ c * w_p[p]`` on the pilots.

    For slow phase noise ``c`` approximates ``conj(delta_0)``, i.e.
    ``angle(c)`` estimates the mean phase over the symbol.
    """
    r = np.asarray(r, dtype=complex).ravel()
    H = np.asarray(H, dtype=complex).ravel()
    pilot_idx = np.asarray(pilot_idx, dtype=int).ravel()
    if pilot_idx.size == 0:
        raise EstimationError("at least one pilot is required")
    w_p = H[pilot_idx] * np.asarray(pilot_values, dtype=complex).ravel()
    denom = float(np.real(w_p.conj() @ w_p))
    if denom == 0.0:
        raise EstimationError("all pilot powers are zero")
    return complex(np.vdot(w_p, r[pilot_idx]) / denom)


def cpe_only(r, H, pilot_idx, pilot_values) -> EstimatorOutput:
    """Common-phase-only estimate: ``delta = conj(c)/|c| * e_0``."""
    c = pilot_scalar(r, H, pilot_idx, pilot_values)
    if c == 0:
        raise EstimationError("pilot fit returned zero")
    n_c = np.asarray(r).size
    values = np.zeros(n_c, dtype=complex)
    values[0] = np.conj(c) / abs(c)
    delta = SpectralVector.from_values(values)
    return EstimatorOutput(
        None,
        delta,
        EstimatorDiagnostics(
            cost=None,
            geometry_residual=delta.residual_max,
            method="cpe",
        ),
    )


def cis(frame_t, frame_t1) -> tuple[np.ndarray, EstimatorOutput]:
    """Common-phase interpolation across two consecutive symbols.

    The pilot scalars of the current and next symbol give mean-phase anchors
    at the two symbol midpoints (sample ``(n_c - 1)/2`` of each, with no
    cyclic prefix modeled); the current symbol's trajectory is the straight
    line through the anchors.  The anchor difference is wrapped to the
    nearest branch; a wrap beyond ``pi`` is flagged.  Requires the phase
    trajectory to be continuous across the two symbols.

    Returns ``(theta_hat, output)`` with ``output.delta_hat`` the spectral
    vector of the interpolated trajectory.
    """
    c0 = pilot_scalar(frame_t.r, frame_t.H, frame_t.pilot_idx, frame_t.pilot_values)
    c1 = pilot_scalar(frame_t1.r, frame_t1.H, frame_t1.pilot_idx, frame_t1.pilot_values)
    a0 = float(np.angle(c0))
    raw = float(np.angle(c1)) - a0
    diff = (raw + np.pi) % (2 * np.pi) - np.pi
    flags = ("unwrapped",) if abs(raw) > np.pi else ()
    n_c = np.asarray(frame_t.r).size
    mid = (n_c - 1) / 2.0
    theta_hat = a0 + (diff / n_c) * (np.arange(n_c) - mid)
    delta = spectral_vector(theta_hat)
    out = EstimatorOutput(
        None,
        delta,
        EstimatorDiagnostics(
            cost=None,
            geometry_residual=delta.residual_max,
            method="cis",
            flags=flags,
        ),
    )
    return theta_hat, out


@dataclass(frozen=True)
class ErrorDecomposition:
    """Per-sample amplitude/phase split of an estimate's total error.

    With ``x = ifft(delta_hat)`` and true trajectory ``theta``:
    ``kappa[i] = n * |x[i]|``, ``omega[i]`` is the phase error defined by
    ``x[i] = kappa[i]/n * exp(-1j*(theta[i] - omega[i]))`` (wrapped to
    ``(-pi, pi]``), and ``eps = 1 - kappa``.  ``total`` is the closed form

        (1/n^2) * sum_i [ eps^2 - 2*eps*(1 - cos w) + 2*(1 - cos w) ]

    which equals the direct sum ``sum |x[i] - exp(-1j*theta[i])/n|^2``
    identically; ``relative`` normalizes by the energy ``1/n`` of the exact
    samples, so ``kappa = 1`` and constant ``omega = w0`` give
    ``relative = 2*(1 - cos w0)``.
    """

    kappa: np.ndarray
    omega: np.ndarray
    eps: np.ndarray
    total: float
    relative: float
    direct_total: float = field(repr=False, default=np.nan)


def error_decomposition(delta_hat, theta) -> ErrorDecomposition:
    """Amplitude/phase error split of an estimate against the true trajectory."""
    values = _values(delta_hat)
    th = np.asarray(theta, dtype=float)
    n = values.size
    if th.size != n:
        raise ValueError("theta must match the estimate length")
    x = np.fft.ifft(values)
    kappa = n * np.abs(x)
    omega = np.angle(np.exp(1j * (th + np.angle(x))))
    eps = 1.0 - kappa
    one_minus_cos = 1.0 - np.cos(omega)
    total = float(np.sum(eps**2 - 2 * eps * one_minus_cos + 2 * one_minus_cos) / n**2)
    direct = float(np.sum(np.abs(x - np.exp(-1j * th) / n) ** 2))
    return ErrorDecomposition(kappa, omega, eps, total, total * n, direct)


def c_matrix(model: DimRedModel, pilot_idx, theta, H, s, r, *, check_tol: float = 1e-8) -> np.ndarray:
    """Exact linear map ``C`` with ``delta_uls = F C F^H delta`` (diagnostic).

    Reconstructs, from the full simulation state (true trajectory, channel,
    symbols, and the received vector ``r``, whose additive noise is ``r``
    minus the rotated ``H s``), the matrix that the unconstrained estimator
    effectively applies to the true spectral vector.  ``C`` is the identity
    only with every subcarrier piloted, a full-dimension model, and no
    noise; otherwise its rank equals the model dimension and it induces the
    amplitude/phase errors quantified by :func:`error_decomposition`.

    The construction is verified against the actual estimator output on the
    same data; a mismatch beyond ``check_tol`` (relative) raises.
    """
    th = np.asarray(theta, dtype=float)
    H = np.asarray(H, dtype=complex).ravel()
    s = np.asarray(s, dtype=complex).ravel()
    r = np.asarray(r, dtype=complex).ravel()
    pilot_idx = np.asarray(pilot_idx, dtype=int).ravel()
    n_c = H.size
    F = dft_matrix(n_c)
    Fh = F.conj().T
    w = H * s
    ft_w = Fh @ w
    if np.min(np.abs(ft_w)) <= 1e-12 * np.max(np.abs(ft_w)):
        raise EstimationError("zero time-domain symbol product: E_w is singular")
    E_theta = np.exp(1j * th)
    E_w = ft_w
    E_n = Fh @ r - E_theta * E_w  # the additive term of r, in time
    E_snr = 1.0 + E_n / (E_theta * E_w)  # diagonal entries; diagonals commute
    K_sel = np.zeros((pilot_idx.size, n_c))
    K_sel[np.arange(pilot_idx.size), pilot_idx] = 1.0
    KF = K_sel @ F
    P_r = (KF * E_theta[None, :]).conj().T @ (KF * E_theta[None, :])
    w_p = w[pilot_idx]
    E_p = Fh @ (K_sel.T @ w_p)
    Ttilde = Fh @ model.T @ dft_matrix(model.n)  # time-domain core, any model kind
    B = (E_snr * E_w)[:, None] * Ttilde
    inner = B.conj().T @ P_r @ B
    C = Ttilde @ np.linalg.solve(inner, B.conj().T * E_p[None, :])

    # Consistency: the map applied to the true delta must reproduce the
    # unconstrained estimate computed from the received vector.
    delta = spectral_vector(th).values
    sys = build_ls_system(r, H, pilot_idx, s[pilot_idx], model)
    gamma, _, _ = _uls_gamma(sys)
    delta_uls = model.T @ gamma
    delta_via_C = F @ (C @ (Fh @ delta))
    err = np.linalg.norm(delta_via_C - delta_uls) / max(np.linalg.norm(delta_uls), 1e-300)
    if err > check_tol:
        raise EstimationError(f"C-matrix consistency check failed: relative error {err:.3e}")
    return C


ESTIMATOR_IDS = ("uls", "nls", "gls", "cpe", "cis", "genie")


def estimate_frame(name: str, frame, next_frame, model: DimRedModel) -> EstimatorOutput:
    """Run the estimator ``name`` on one frame (``cis`` also uses the next).

    ``genie`` returns the true spectral vector and exists for reference
    curves and tests.
    """
    if name in ("uls", "nls", "gls"):
        sys = build_ls_system(frame.r, frame.H, frame.pilot_idx, frame.pilot_values, model)
        fn = {"uls": uls, "nls": nls, "gls": gls}[name]
        return fn(sys, model)
    if name == "cpe":
        return cpe_only(frame.r, frame.H, frame.pilot_idx, frame.pilot_values)
    if name == "cis":
        if next_frame is None:
            raise EstimationError("cis requires the next symbol")
        return cis(frame, next_frame)[1]
    if name == "genie":
        delta = spectral_vector(frame.theta)
        return EstimatorOutput(
            None,
            delta,
            EstimatorDiagnostics(None, delta.residual_max, "genie"),
        )
    raise ValueError(f"unknown estimator {name!r}; expected one of {ESTIMATOR_IDS}")
