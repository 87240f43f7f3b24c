"""End-to-end coded OFDM link under receiver phase noise.

Per symbol: information bits -> rate-1/2 convolutional code -> Gray 16-QAM on
the data subcarriers, fixed QPSK pilots on an evenly spaced grid -> Rayleigh
multipath channel -> phase-noise rotation plus AWGN -> compensation with an
estimated spectral vector -> per-subcarrier max-log LLRs -> soft Viterbi.

Model and conventions:

* Received vector ``r = V H s + n`` with ``V`` the unitary phase rotation
  (``V = F diag(exp(1j*theta)) F^H``) and white complex Gaussian ``n``.
* SNR is per subcarrier: ``sigma_n^2 = mean_k |H_k s_k|^2 / snr_linear``,
  using the frame's own channel realization.
* The noise is drawn in the pre-rotation frame (``r = V (H s + n0)``), which
  is distributionally identical and makes genie compensation reproduce the
  zero-phase-noise link sample for sample.
* No cyclic prefix is modeled; the model is already post-FFT.
* Channel knowledge is genie by default.  A simple per-subcarrier LS
  estimate from a fully known preamble symbol (``H ~ r/s``, accurate only
  when the preamble is phase-noise free) is available for sensitivity
  studies; it is not part of the estimator designs evaluated here.

Every Monte-Carlo study runs through one engine, :func:`simulate`: trial
``i`` draws its frame pair from child ``i`` of
``np.random.SeedSequence(master).spawn(n)`` and runs every requested
estimator on it, so estimators compared in one run see common random frames.
An estimator that fails on a frame falls back to the common-phase-only fit
and is flagged; no frame is dropped.  :func:`run_link` and the scenario
runners are reductions over its trials, using sums and counts only, so they
are order-independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .coding import conv_encode, viterbi_decode_soft
from .dimred import DimRedModel, default_lft, pc_ppt
from .estimators import EstimationError, cpe_only, estimate_frame
from .phasenoise import WIENER_VARIANCE_FACTOR, _wiener_path
from .qam import qam16_llr, qam16_map

__all__ = [
    "BerRecord",
    "LinkConfig",
    "OfdmFrame",
    "apply_phase_noise",
    "channel_estimate_ls",
    "compensate",
    "make_frame_pair",
    "make_model",
    "pilot_indices",
    "pilot_sequence",
    "rayleigh_channel",
    "run_link",
    "simulate",
    "transmit_receive",
]

# Seed of the fixed pseudo-random QPSK pilot sequence (same for every frame).
PILOT_SEQUENCE_SEED = 20140821


@dataclass(frozen=True)
class LinkConfig:
    """Static parameters of the simulated link."""

    n_c: int = 128
    f_sub: float = 15e3
    pilot_fraction: float = 0.08
    snr_db: float = 30.0
    taps: int = 4
    coherence_bw: float = 800e3
    tap_decay: float | None = None  # decay constant in samples; None solves it
    rho: float = 0.02
    n_est: int = 8
    t_kind: str = "ppt"
    pn_mode: str = "continuous"  # "continuous" | "independent" across symbols
    channel_knowledge: str = "genie"  # "genie" | "preamble-ls"

    def violations(self) -> list[str]:
        out = []
        if self.n_c < 8:
            out.append("n_c must be at least 8")
        if not 0 < self.pilot_fraction <= 0.5:
            out.append("pilot_fraction must lie in (0, 0.5]")
        if self.taps < 1:
            out.append("taps must be >= 1")
        if self.tap_decay is not None and self.tap_decay <= 0:
            out.append("tap_decay must be positive")
        if self.rho < 0:
            out.append("rho must be nonnegative")
        if self.n_est < 1:
            out.append("n_est must be >= 1")
        if self.t_kind not in ("ppt", "lft"):
            out.append(f"t_kind must be 'ppt' or 'lft', got {self.t_kind!r}")
        if self.t_kind == "ppt" and self.n_c % max(self.n_est, 1) != 0:
            out.append(f"n_est = {self.n_est} must divide n_c = {self.n_c} for a ppt model")
        if self.pn_mode not in ("continuous", "independent"):
            out.append(f"pn_mode must be 'continuous' or 'independent', got {self.pn_mode!r}")
        if self.channel_knowledge not in ("genie", "preamble-ls"):
            out.append(f"unknown channel_knowledge {self.channel_knowledge!r}")
        k = int(round(self.pilot_fraction * self.n_c))
        if k < self.n_est:
            out.append(f"pilot count {k} is below the estimator dimension {self.n_est}")
        if self.n_c >= 8 and 2 * (self.n_c - k) - 6 < 8:
            out.append("too few data subcarriers for a codeword")
        return out

    def validate(self) -> "LinkConfig":
        problems = self.violations()
        if problems:
            raise ValueError("invalid link config: " + "; ".join(problems))
        return self


def make_model(cfg: LinkConfig) -> DimRedModel:
    """Reduction model selected by the config (``ppt`` or default-split ``lft``)."""
    if cfg.t_kind == "ppt":
        return pc_ppt(cfg.n_c, cfg.n_est)
    return default_lft(cfg.n_c, cfg.n_est)


def pilot_indices(n_c: int, pilot_fraction: float) -> np.ndarray:
    """Evenly spaced pilot subcarriers starting at 0: ``floor(i * n_c / K)``."""
    k = int(round(pilot_fraction * n_c))
    if k < 1:
        raise ValueError("pilot fraction yields no pilots")
    return np.floor(np.arange(k) * n_c / k).astype(int)


def pilot_sequence(k: int) -> np.ndarray:
    """Fixed unit-modulus QPSK pilot values (seeded once, shared by all frames)."""
    rng = np.random.default_rng(PILOT_SEQUENCE_SEED)
    return np.exp(1j * (np.pi / 4 + rng.integers(0, 4, k) * np.pi / 2))


@lru_cache(maxsize=32)
def _tap_profile(taps: int, coherence_ratio: float) -> tuple:
    """Exponential tap powers whose frequency correlation is 0.5 at the
    coherence bandwidth.

    ``coherence_ratio`` is the coherence bandwidth over the sample rate
    ``n_c * f_sub``; taps are sample spaced, so the correlation at offset
    ``coherence_ratio`` is ``|sum_l p_l exp(-2j*pi*coherence_ratio*l)|``.
    The decay constant solving ``corr = 0.5`` is found by bisection; the
    target is unreachable when even equal-power taps stay above 0.5, in
    which case a ValueError states the achievable range.
    """
    if taps == 1:
        return (1.0,)
    ell = np.arange(taps)
    phase = np.exp(-2j * np.pi * coherence_ratio * ell)

    def corr(decay):
        p = np.exp(-ell / decay)
        p = p / p.sum()
        return float(np.abs(np.sum(p * phase)))

    floor_corr = corr(1e9)  # near-uniform profile
    if floor_corr >= 0.5:
        raise ValueError(
            f"coherence target unreachable: {taps} sample-spaced taps give "
            f"correlation >= {floor_corr:.3f} at this bandwidth ratio "
            f"({coherence_ratio:.4f}); increase taps or the ratio"
        )
    lo, hi = 1e-6, 1e9  # corr(lo) ~ 1 > 0.5 > corr(hi)
    for _ in range(200):
        mid = np.sqrt(lo * hi)
        if corr(mid) > 0.5:
            lo = mid
        else:
            hi = mid
    p = np.exp(-ell / np.sqrt(lo * hi))
    return tuple(p / p.sum())


def rayleigh_channel(cfg: LinkConfig, rng) -> tuple[np.ndarray, np.ndarray]:
    """Draw taps ``h`` (exponential profile, unit total power) and their DFT ``H``.

    The decay constant is solved from the coherence bandwidth unless
    ``cfg.tap_decay`` (in samples) overrides it.
    ``H_k = sum_n h[n] exp(-2j*pi*k*n/n_c)`` (plain unnormalized DFT), so
    ``sum_k |H_k|^2 = n_c * sum_n |h[n]|^2``.
    """
    rng = np.random.default_rng(rng)
    if cfg.tap_decay is not None:
        p = np.exp(-np.arange(cfg.taps) / cfg.tap_decay)
        p = p / p.sum()
    else:
        p = np.asarray(_tap_profile(cfg.taps, cfg.coherence_bw / (cfg.n_c * cfg.f_sub)))
    h = np.sqrt(p / 2) * (rng.standard_normal(cfg.taps) + 1j * rng.standard_normal(cfg.taps))
    H = np.fft.fft(h, cfg.n_c)
    return h, H


def apply_phase_noise(x, theta) -> np.ndarray:
    """Apply the unitary rotation ``V = F diag(exp(1j*theta)) F^H`` via FFTs."""
    th = theta.theta if hasattr(theta, "theta") else np.asarray(theta, dtype=float)
    x = np.asarray(x, dtype=complex)
    return np.fft.fft(np.exp(1j * th) * np.fft.ifft(x))


def compensate(r, delta_hat) -> np.ndarray:
    """De-rotate a received vector with an estimated spectral vector.

    Computes ``y = V_hat^H r`` where ``V_hat`` is the row-circulant matrix
    with first row ``delta_hat^H``; the adjoint is the circular convolution
    of ``delta_hat`` with ``r``.
    """
    d = delta_hat.values if hasattr(delta_hat, "values") else np.asarray(delta_hat, dtype=complex)
    if np.linalg.norm(d) == 0:
        raise ValueError("delta_hat must be nonzero")
    r = np.asarray(r, dtype=complex).ravel()
    if r.size != d.size:
        raise ValueError("length mismatch")
    return np.fft.ifft(np.fft.fft(d) * np.fft.fft(r))


def transmit_receive(s, H, theta, snr_db, seed) -> np.ndarray:
    """One pass through the channel: ``r = V H s + n`` at the given SNR."""
    r, _, _ = _transmit(np.asarray(s, complex), np.asarray(H, complex), theta, snr_db,
                        np.random.default_rng(seed))
    return r


def _transmit(s, H, theta, snr_db, rng):
    """Returns (r, noise, sigma2); noise is the additive term of r itself."""
    w = H * s
    sigma2 = float(np.mean(np.abs(w) ** 2)) / 10 ** (snr_db / 10)
    n0 = np.sqrt(sigma2 / 2) * (rng.standard_normal(w.size) + 1j * rng.standard_normal(w.size))
    rotated = apply_phase_noise(w + n0, theta)
    noise = rotated - apply_phase_noise(w, theta)
    return rotated, noise, sigma2


@dataclass(frozen=True)
class OfdmFrame:
    """Everything known about one simulated OFDM symbol."""

    info_bits: np.ndarray
    coded_bits: np.ndarray
    s: np.ndarray
    pilot_idx: np.ndarray
    pilot_values: np.ndarray
    data_idx: np.ndarray
    h: np.ndarray
    H: np.ndarray
    theta: np.ndarray
    r: np.ndarray
    noise: np.ndarray
    sigma2: float
    snr_db: float

    @property
    def w(self) -> np.ndarray:
        return self.H * self.s

    @property
    def w_p(self) -> np.ndarray:
        return self.H[self.pilot_idx] * self.pilot_values


def _build_symbol(cfg, pilot_idx, pilot_values, data_idx, h, H, theta, rng, H_known=None):
    n_info = 2 * data_idx.size - 6
    info_bits = rng.integers(0, 2, n_info)
    coded = conv_encode(info_bits)
    s = np.empty(cfg.n_c, dtype=complex)
    s[pilot_idx] = pilot_values
    s[data_idx] = qam16_map(coded)
    r, noise, sigma2 = _transmit(s, H, theta, cfg.snr_db, rng)
    return OfdmFrame(
        info_bits=info_bits,
        coded_bits=coded,
        s=s,
        pilot_idx=pilot_idx,
        pilot_values=pilot_values,
        data_idx=data_idx,
        h=h,
        H=H if H_known is None else H_known,
        theta=theta,
        r=r,
        noise=noise,
        sigma2=sigma2,
        snr_db=cfg.snr_db,
    )


def make_frame_pair(cfg: LinkConfig, seed) -> tuple[OfdmFrame, OfdmFrame]:
    """Simulate two consecutive symbols sharing one channel realization.

    The phase trajectory is continuous across the pair by default
    (``cfg.pn_mode``); noise and data are independent per symbol.  The
    per-sample step variance is referenced to one symbol length regardless
    of mode.  Draw order (fixed for reproducibility): channel taps, initial
    phase, phase increments, then per symbol bits and noise.

    With ``channel_knowledge = "preamble-ls"`` a fully known preamble symbol
    precedes the pair (same channel, its own phase noise and noise) and the
    frames carry the per-subcarrier LS channel estimate instead of the true
    response.  The estimate silently absorbs the preamble's rotation and
    leakage; this sensitivity study is not part of the estimator designs.
    """
    cfg.validate()
    rng = np.random.default_rng(seed)
    pilot_idx = pilot_indices(cfg.n_c, cfg.pilot_fraction)
    pilot_values = pilot_sequence(pilot_idx.size)
    data_idx = np.setdiff1d(np.arange(cfg.n_c), pilot_idx)
    h, H = rayleigh_channel(cfg, rng)
    step_var = WIENER_VARIANCE_FACTOR * cfg.rho / cfg.n_c
    n_sym = 3 if cfg.channel_knowledge == "preamble-ls" else 2
    if cfg.pn_mode == "continuous":
        theta_full = _wiener_path(rng, n_sym * cfg.n_c, step_var, rng.uniform(-np.pi, np.pi))
        thetas = tuple(theta_full[i * cfg.n_c:(i + 1) * cfg.n_c] for i in range(n_sym))
    else:
        thetas = tuple(
            _wiener_path(rng, cfg.n_c, step_var, rng.uniform(-np.pi, np.pi))
            for _ in range(n_sym)
        )
    H_known = None
    if cfg.channel_knowledge == "preamble-ls":
        s_pre = pilot_sequence(cfg.n_c)
        r_pre, _, _ = _transmit(s_pre, H, thetas[0], cfg.snr_db, rng)
        H_known = channel_estimate_ls(r_pre, s_pre)
        thetas = thetas[1:]
    return tuple(
        _build_symbol(cfg, pilot_idx, pilot_values, data_idx, h, H, th, rng, H_known)
        for th in thetas
    )


def channel_estimate_ls(r_preamble, s_preamble) -> np.ndarray:
    """Per-subcarrier LS channel estimate from a fully known preamble symbol.

    Assumes the preamble is phase-noise free; with phase noise present the
    estimate absorbs the rotation and leakage (useful only for sensitivity
    studies).
    """
    r = np.asarray(r_preamble, dtype=complex)
    s = np.asarray(s_preamble, dtype=complex)
    if np.min(np.abs(s)) == 0:
        raise ValueError("preamble must occupy every subcarrier")
    return r / s


@dataclass(frozen=True)
class BerRecord:
    """Aggregated coded-BER result for one (estimator, SNR) point."""

    estimator: str
    snr_db: float
    frames: int
    bits: int
    bit_errors: int
    ber: float
    ci95_low: float
    ci95_high: float
    flagged_frames: int
    frame_errors: np.ndarray = field(repr=False, default=None)


def _wilson_ci(frame_ber: np.ndarray) -> tuple[float, float]:
    mean = float(np.mean(frame_ber))
    se = float(np.std(frame_ber, ddof=1) / np.sqrt(frame_ber.size)) if frame_ber.size > 1 else 0.0
    return max(0.0, mean - 1.96 * se), min(1.0, mean + 1.96 * se)


def decode_frame(frame: OfdmFrame, delta_hat) -> np.ndarray:
    """Compensate, demap, and decode one frame with the given estimate."""
    y = compensate(frame.r, delta_hat)
    llrs = qam16_llr(y[frame.data_idx], frame.H[frame.data_idx], frame.sigma2)
    return viterbi_decode_soft(llrs)


def simulate(cfg: LinkConfig, estimators, trials: int, seed):
    """Run every estimator on ``trials`` common random frame pairs.

    Trial ``i`` draws its frame pair from child ``i`` of
    ``np.random.SeedSequence(seed).spawn(trials)``.  ``estimators`` holds ids
    from :data:`pnofdm.estimators.ESTIMATOR_IDS` or callables
    ``(frame, next_frame, model) -> EstimatorOutput``.  Yields
    ``(frame, {estimator: (output, flagged)})`` per trial, where ``frame`` is
    the first symbol of the pair.  An estimator that raises
    :class:`EstimationError` on a frame gets the common-phase-only fit
    instead, flagged.  The config is validated and the model built once,
    when iteration starts.
    """
    cfg.validate()
    if trials < 1:
        raise ValueError("trials must be positive")
    model = make_model(cfg)
    for child in np.random.SeedSequence(seed).spawn(trials):
        f0, f1 = make_frame_pair(cfg, child)
        results = {}
        for est in estimators:
            try:
                if isinstance(est, str):
                    results[est] = (estimate_frame(est, f0, f1, model), False)
                else:
                    results[est] = (est(f0, f1, model), False)
            except EstimationError:
                results[est] = (cpe_only(f0.r, f0.H, f0.pilot_idx, f0.pilot_values), True)
        yield f0, results


def run_link(cfg: LinkConfig, estimator, n_frames: int, seed) -> BerRecord:
    """Coded BER of one estimator over ``n_frames`` trials of :func:`simulate`.

    ``estimator`` is an id or a callable as :func:`simulate` takes.  A frame
    on which the estimator fails is decoded with the common-phase-only
    fallback and counted as flagged, never dropped.  Deterministic given
    ``seed``.
    """
    name = estimator if isinstance(estimator, str) else getattr(estimator, "__name__", "custom")
    errors, flagged = [], 0
    for frame, results in simulate(cfg, (estimator,), n_frames, seed):
        out, bad = results[estimator]
        flagged += bad
        decoded = decode_frame(frame, out.delta_hat.values)
        errors.append(int(np.count_nonzero(decoded != frame.info_bits)))
    errors = np.array(errors)
    bits_per_frame = frame.info_bits.size
    total_bits = bits_per_frame * n_frames
    frame_ber = errors / bits_per_frame
    lo, hi = _wilson_ci(frame_ber)
    return BerRecord(
        estimator=name,
        snr_db=cfg.snr_db,
        frames=n_frames,
        bits=total_bits,
        bit_errors=int(errors.sum()),
        ber=float(errors.sum() / total_bits),
        ci95_low=lo,
        ci95_high=hi,
        flagged_frames=flagged,
        frame_errors=errors,
    )
