"""End-to-end coded OFDM link under receiver phase noise.

Per symbol: information bits -> rate-1/2 convolutional code -> 16-QAM on
the data subcarriers, fixed QPSK pilots on an evenly spaced grid -> Rayleigh
multipath channel -> phase-noise rotation plus AWGN -> compensation with an
estimated spectral vector -> per-subcarrier max-log LLRs -> soft Viterbi.
The 16-QAM table (per axis ``00 -> +1, 01 -> +3, 10 -> -3, 11 -> -1``) is
not Gray; see :mod:`pnofdm.qam`.  Arrays carry a leading batch axis:
:func:`make_frame_pair` draws each pair from its own seed, then encodes,
maps and sends a whole block of pairs in one pass over ``(B, 2, n_c)``
arrays, and :func:`decode_frame` compensates, demaps and decodes a whole
block of frames in one stacked pass, one call per layer.

Model and conventions:

* Received vector ``r = V H s + n`` with ``V`` the unitary phase rotation
  (``V = F diag(exp(1j*theta)) F^H``) and white complex Gaussian ``n``.
* SNR is per subcarrier: ``sigma_n^2 = mean_k |H_k s_k|^2 / snr_linear``,
  using the frame's own channel realization.
* The noise is drawn in the pre-rotation frame (``r = V (H s + n0)``), which
  is distributionally identical and makes genie compensation reproduce the
  zero-phase-noise link sample for sample.
* No cyclic prefix is modeled; the model is already post-FFT.
* Channel knowledge is genie: frames carry the true channel response.

A frame (:class:`OfdmFrame`) carries what a receiver reads (``r``, the
channel ``H``, ``sigma2`` and the pilot layout) plus the truth that
reductions score against (``info_bits``, ``s`` and ``theta``), nothing more.
The pilot layout (``pilot_idx``, ``pilot_values``, ``data_idx``) is fixed
by ``(n_c, pilot_fraction)``; it is built once per config and shared by
every frame as read-only arrays.

Every Monte-Carlo study runs through one engine, :func:`simulate`: trial
``i`` draws its frame pair from child ``i`` of
``np.random.SeedSequence(master).spawn(n)``, whatever block it is built in,
and runs every requested estimator on it, so estimators compared in one run
see common random frames, built once.  It yields blocks of up to
``DECODE_BLOCK`` trials.  An estimator that fails on a frame falls back to
the common-phase-only fit and is flagged; no frame is dropped.
:func:`ber_records` (decoding each block once per estimator, with
:func:`run_link` its one-estimator case) and the scenario runners are
reductions over the blocks, using sums and counts only, so they are
order-independent.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .coding import conv_encode, viterbi_decode_soft
from .dimred import DimRedModel, lft, pc_ppt
from .estimators import ESTIMATOR_IDS, EstimationError, cpe_only, estimate_frame
from .phasenoise import WIENER_VARIANCE_FACTOR, _wiener_path
from .qam import qam16_llr, qam16_map

__all__ = [
    "BerRecord",
    "LinkConfig",
    "OfdmFrame",
    "apply_phase_noise",
    "ber_records",
    "compensate",
    "make_frame_pair",
    "make_model",
    "pilot_indices",
    "pilot_sequence",
    "rayleigh_channel",
    "run_link",
    "simulate",
]

# Seed of the fixed pseudo-random QPSK pilot sequence (same for every frame).
PILOT_SEQUENCE_SEED = 20140821
# Trials whose frames simulate builds and yields in one block, and that
# ber_records decodes in one Viterbi call per estimator.
DECODE_BLOCK = 32


@dataclass(frozen=True)
class LinkConfig:
    """Static parameters of the simulated link."""

    n_c: int = 128
    f_sub: float = 15e3
    pilot_fraction: float = 0.08
    snr_db: float = 30.0
    taps: int = 4
    coherence_bw: float = 800e3
    rho: float = 0.02
    n_est: int = 8
    t_kind: str = "ppt"

    def violations(self) -> list[str]:
        out = []
        if self.n_c < 8:
            out.append("n_c must be at least 8")
        if not 0 < self.f_sub < np.inf:
            out.append("f_sub must be positive and finite")
        if self.taps < 1:
            out.append("taps must be >= 1")
        if not 0 < self.coherence_bw < np.inf:
            out.append("coherence_bw must be positive and finite")
        if not out:  # the channel's inputs are valid: its tap profile must solve
            try:
                _tap_profile(self.taps, self.coherence_bw / (self.n_c * self.f_sub))
            except ValueError as exc:
                out.append(str(exc))
        pilots_valid = 0 < self.pilot_fraction <= 0.5
        if not pilots_valid:
            out.append("pilot_fraction must lie in (0, 0.5]")
        if not np.isfinite(self.snr_db):
            out.append("snr_db must be finite")
        if not 0 <= self.rho < np.inf:
            out.append("rho must be finite and nonnegative")
        if self.n_est < 1:
            out.append("n_est must be >= 1")
        if self.t_kind not in ("ppt", "lft"):
            out.append(f"t_kind must be 'ppt' or 'lft', got {self.t_kind!r}")
        if self.t_kind == "ppt" and self.n_c % max(self.n_est, 1) != 0:
            out.append(f"n_est = {self.n_est} must divide n_c = {self.n_c} for a ppt model")
        if pilots_valid:  # a NaN or inf fraction has no pilot count
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
    """Reduction model selected by the config (``ppt`` or ``lft``).

    Built once per ``(t_kind, n_c, n_est)`` and shared: its arrays are
    read-only.
    """
    return _model(cfg.t_kind, cfg.n_c, cfg.n_est)


@lru_cache(maxsize=16)
def _model(t_kind: str, n_c: int, n_est: int) -> DimRedModel:
    model = pc_ppt(n_c, n_est) if t_kind == "ppt" else lft(n_c, n_est)
    for arr in (model.T, model.Ttilde):
        if arr is not None:
            arr.flags.writeable = False
    return model


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


@lru_cache(maxsize=16)
def _layout(n_c: int, pilot_fraction: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only ``(pilot_idx, pilot_values, data_idx)`` shared by all frames."""
    pilot_idx = pilot_indices(n_c, pilot_fraction)
    data_idx = np.setdiff1d(np.arange(n_c), pilot_idx)
    layout = (pilot_idx, pilot_sequence(pilot_idx.size), data_idx)
    for arr in layout:
        arr.flags.writeable = False
    return layout


@lru_cache(maxsize=32)
def _tap_profile(taps: int, coherence_ratio: float) -> tuple:
    """Exponential tap powers whose frequency correlation is 0.5 at the
    coherence bandwidth.

    ``coherence_ratio`` is the coherence bandwidth over the sample rate
    ``n_c * f_sub``; taps are sample spaced, so the correlation at offset
    ``coherence_ratio`` is ``|sum_l p_l exp(-2j*pi*coherence_ratio*l)|``.
    The decay constant solving ``corr = 0.5`` is found by bisection; the
    target is unreachable when even equal-power taps stay above 0.5, in
    which case a ValueError states the achievable range;
    :meth:`LinkConfig.violations` reports it as a config violation.
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

    The decay constant is solved from the coherence bandwidth
    (:func:`_tap_profile`).
    ``H_k = sum_n h[n] exp(-2j*pi*k*n/n_c)`` (plain unnormalized DFT), so
    ``sum_k |H_k|^2 = n_c * sum_n |h[n]|^2``.
    """
    rng = np.random.default_rng(rng)
    p = np.asarray(_tap_profile(cfg.taps, cfg.coherence_bw / (cfg.n_c * cfg.f_sub)))
    h = np.sqrt(p / 2) * (rng.standard_normal(cfg.taps) + 1j * rng.standard_normal(cfg.taps))
    H = np.fft.fft(h, cfg.n_c)
    return h, H


def apply_phase_noise(x, theta) -> np.ndarray:
    """Apply the unitary rotation ``V = F diag(exp(1j*theta)) F^H`` via FFTs.

    ``x`` and ``theta`` are ``(..., n)``: leading axes are a batch, each row
    rotated by its own phases, exactly as a 1-D call on that row.
    """
    x = np.asarray(x, dtype=complex)
    return np.fft.fft(np.exp(1j * np.asarray(theta, dtype=float)) * np.fft.ifft(x))


def compensate(r, delta_hat) -> np.ndarray:
    """De-rotate received vectors with estimated spectral vectors.

    Computes ``y = V_hat^H r`` where ``V_hat`` is the row-circulant matrix
    with first row ``delta_hat^H``; the adjoint is the circular convolution
    of ``delta_hat`` with ``r``.  ``r`` and ``delta_hat`` have one shape:
    ``(n,)`` for one vector, or ``(B, n)`` for ``B`` vectors, each row
    de-rotated by its own estimate exactly as a 1-D call on that row.  Every
    row of ``delta_hat`` must be finite and nonzero.
    """
    d = np.asarray(delta_hat, dtype=complex)
    r = np.asarray(r, dtype=complex)
    if r.shape != d.shape or r.ndim not in (1, 2):
        raise ValueError("r and delta_hat must share one shape, (n,) or (B, n)")
    if not np.isfinite(d).all():
        raise ValueError("delta_hat must be finite")
    if not np.any(d != 0, axis=-1).all():
        raise ValueError("delta_hat must be nonzero")
    return np.fft.ifft(np.fft.fft(d) * np.fft.fft(r))


@dataclass(frozen=True)
class OfdmFrame:
    """One simulated OFDM symbol: what the receiver sees plus the truth.

    ``pilot_idx``, ``pilot_values`` and ``data_idx`` are the config's shared,
    read-only pilot layout.
    """

    info_bits: np.ndarray
    s: np.ndarray
    pilot_idx: np.ndarray
    pilot_values: np.ndarray
    data_idx: np.ndarray
    H: np.ndarray
    theta: np.ndarray
    r: np.ndarray
    sigma2: float


def make_frame_pair(cfg: LinkConfig, seeds) -> list[tuple[OfdmFrame, OfdmFrame]]:
    """Simulate one pair of consecutive symbols per seed, sharing one channel.

    Within a pair the phase trajectory is continuous across the two symbols
    and they share one channel realization; noise and data are independent
    per symbol.  The per-sample step variance is referenced to one symbol
    length.  Each seed drives its own generator, with draws in a fixed
    order for reproducibility: channel taps, initial phase, the
    ``2*n_c - 1`` phase increments, then for symbol 0 and then symbol 1 the
    bits, the real noise and the imaginary noise.  The ``B`` pairs are then
    encoded, mapped and sent as ``(B, 2, n_c)`` arrays, one row per symbol,
    ``r = V (H s + n0)``, each row exactly as if built on its own; every
    frame's arrays are views of its row.  Returns one ``(frame0, frame1)``
    per seed, in order; one pair is ``make_frame_pair(cfg, [seed])[0]``.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("make_frame_pair takes at least one seed")
    cfg.validate()
    n_c, n_pairs = cfg.n_c, len(seeds)
    pilot_idx, pilot_values, data_idx = _layout(n_c, cfg.pilot_fraction)
    n_info = 2 * data_idx.size - 6
    step_var = WIENER_VARIANCE_FACTOR * cfg.rho / n_c
    H = np.empty((n_pairs, n_c), dtype=complex)
    theta = np.empty((n_pairs, 2, n_c))
    info_bits = np.empty((n_pairs, 2, n_info), dtype=int)
    noise = np.empty((n_pairs, 2, 2, n_c))  # [pair, symbol, real or imaginary part, subcarrier]
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        _, H[i] = rayleigh_channel(cfg, rng)
        theta[i] = _wiener_path(rng, 2 * n_c, step_var, rng.uniform(-np.pi, np.pi)).reshape(2, n_c)
        for k in range(2):
            info_bits[i, k] = rng.integers(0, 2, n_info)
            noise[i, k] = rng.standard_normal((2, n_c))  # the real part's draws, then the imaginary part's
    s = np.empty((n_pairs, 2, n_c), dtype=complex)
    s[..., pilot_idx] = pilot_values
    # Each row's 4 * n_data coded bits fill whole symbols, so the rows map as one sequence.
    s[..., data_idx] = qam16_map(conv_encode(info_bits.reshape(2 * n_pairs, n_info))).reshape(n_pairs, 2, -1)
    w = H[:, None] * s
    sigma2 = np.mean(np.abs(w) ** 2, axis=-1) / 10 ** (cfg.snr_db / 10)
    n0 = np.sqrt(sigma2 / 2)[..., None] * (noise[:, :, 0] + 1j * noise[:, :, 1])
    r = apply_phase_noise(w + n0, theta)
    return [
        tuple(
            OfdmFrame(bits[k], s_i[k], pilot_idx, pilot_values, data_idx, H_i, theta_i[k], r_i[k], float(sigma2_i[k]))
            for k in range(2)
        )
        for bits, s_i, H_i, theta_i, r_i, sigma2_i in zip(info_bits, s, H, theta, r, sigma2)
    ]


@dataclass(frozen=True)
class BerRecord:
    """Aggregated coded-BER result for one (estimator, SNR) point."""

    estimator: str
    snr_db: float
    frames: int
    bit_errors: int
    ber: float
    ci95_low: float
    ci95_high: float
    flagged_frames: int
    frame_errors: np.ndarray = field(repr=False, default=None)


def _ber_record(cfg: LinkConfig, estimator: str, frame_errors, bits_per_frame: int, flagged: int) -> BerRecord:
    """One estimator's record of its per-frame bit errors, in trial order.

    The interval is the 95% normal approximation of the mean of the per-frame
    BERs: the mean plus or minus 1.96 standard errors, clipped to ``[0, 1]``.
    It is not a binomial (Wilson) interval: with zero errors in every frame
    the standard error is zero and the interval collapses to ``[0, 0]``.
    """
    frame_ber = frame_errors / bits_per_frame
    mean = float(np.mean(frame_ber))
    se = float(np.std(frame_ber, ddof=1) / np.sqrt(frame_ber.size)) if frame_ber.size > 1 else 0.0
    return BerRecord(
        estimator=estimator, snr_db=cfg.snr_db, frames=frame_errors.size, bit_errors=int(frame_errors.sum()),
        ber=float(frame_errors.sum() / (bits_per_frame * frame_errors.size)),
        ci95_low=max(0.0, mean - 1.96 * se), ci95_high=min(1.0, mean + 1.96 * se),
        flagged_frames=flagged, frame_errors=frame_errors,
    )


def decode_frame(frames, delta_hats) -> np.ndarray:
    """Compensate, demap and decode a block of frames, one estimate each.

    The ``B`` frames must share one pilot layout and each estimate must have
    the length of its frame's ``r``; otherwise ``ValueError`` is raised
    before anything is decoded.  The block goes through one
    :func:`compensate` call on the stacked ``(B, n_c)`` received vectors and
    estimates, one :func:`qam16_llr` call on the ``(B, n_data)`` data
    subcarriers with each frame's ``sigma2``, and one
    :func:`viterbi_decode_soft` call.  Returns the decoded information bits,
    shape ``(B, n_info)``.
    """
    if not frames or len(frames) != len(delta_hats):
        raise ValueError("decode_frame takes one estimate per frame, and at least one frame")
    data_idx = frames[0].data_idx
    if any(frame.data_idx is not data_idx and not np.array_equal(frame.data_idx, data_idx) for frame in frames):
        raise ValueError("frames must share one pilot layout")
    y = compensate(np.stack([frame.r for frame in frames]), np.stack(delta_hats))[:, data_idx]
    gain = np.stack([frame.H for frame in frames])[:, data_idx]
    llrs = qam16_llr(y, gain, [frame.sigma2 for frame in frames])
    return viterbi_decode_soft(llrs)


def simulate(cfg: LinkConfig, estimators, trials: int, seed):
    """Run every estimator on ``trials`` common random frame pairs, yielded a block at a time.

    Trial ``i`` draws its frame pair from child ``i`` of
    ``np.random.SeedSequence(seed).spawn(trials)``, with the draws in the
    order :func:`make_frame_pair` documents.  Each block of up to
    ``DECODE_BLOCK`` trials is built in one :func:`make_frame_pair` call,
    estimated frame by frame (every estimator on a frame before the next) and
    yielded once as ``(frames, results)``: the first symbol of each pair, in
    trial order, and ``results[est]`` with one ``(output, flagged)`` per frame.
    An estimator that raises :class:`EstimationError` on a frame gets the
    common-phase-only fit instead, flagged.  ``estimators`` holds distinct ids
    from :data:`pnofdm.estimators.ESTIMATOR_IDS`, at least one; any other list
    raises ``ValueError``.  The ids and the config are checked and the model
    built once, when iteration starts and before any frame is built.
    """
    estimators = tuple(estimators)
    unknown = [est for est in estimators if est not in ESTIMATOR_IDS]
    if unknown:
        raise ValueError(f"unknown estimator {unknown[0]!r}; expected one of {ESTIMATOR_IDS}")
    if not estimators or len(set(estimators)) < len(estimators):
        raise ValueError(f"estimators must be at least one distinct id, got {estimators!r}")
    cfg.validate()
    if trials < 1:
        raise ValueError("trials must be positive")
    model = make_model(cfg)
    children = np.random.SeedSequence(seed).spawn(trials)
    for start in range(0, trials, DECODE_BLOCK):
        frames, results = [], {est: [] for est in estimators}
        for f0, f1 in make_frame_pair(cfg, children[start : start + DECODE_BLOCK]):
            frames.append(f0)
            for est in estimators:
                try:
                    out = (estimate_frame(est, f0, f1, model), False)
                except EstimationError:
                    out = (cpe_only(f0.r, f0.H, f0.pilot_idx, f0.pilot_values), True)
                results[est].append(out)
        yield frames, results


def ber_records(cfg: LinkConfig, estimators, n_frames: int, seed) -> dict[str, BerRecord]:
    """Coded BER of each estimator over the same ``n_frames`` trials of :func:`simulate`.

    One pass: each block's frames are built once, and each estimator's block
    is decoded in one :func:`decode_frame` call.  A frame on which an
    estimator fails is decoded with the common-phase-only fallback and
    counted in its ``flagged_frames``, never dropped.  Returns one record per
    id, in the order given; ``frame_errors`` keeps trial order.
    """
    errors, flagged = defaultdict(list), Counter()
    for frames, results in simulate(cfg, estimators, n_frames, seed):
        sent = np.stack([frame.info_bits for frame in frames])
        for est, outputs in results.items():
            decoded = decode_frame(frames, [out.delta_hat for out, _ in outputs])
            errors[est].append(np.count_nonzero(decoded != sent, axis=1))
            flagged[est] += sum(bad for _, bad in outputs)
    return {
        est: _ber_record(cfg, est, np.concatenate(blocks), sent.shape[1], flagged[est])
        for est, blocks in errors.items()
    }


def run_link(cfg: LinkConfig, estimator, n_frames: int, seed) -> BerRecord:
    """Coded BER of one estimator: the record :func:`ber_records` gives its id alone."""
    return ber_records(cfg, (estimator,), n_frames, seed)[estimator]
