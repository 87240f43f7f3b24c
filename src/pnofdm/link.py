"""End-to-end coded OFDM link under receiver phase noise.

Per symbol: information bits -> rate-1/2 convolutional code -> 16-QAM on
the data subcarriers, fixed QPSK pilots on an evenly spaced grid -> Rayleigh
multipath channel -> phase-noise rotation plus AWGN -> compensation with an
estimated spectral vector -> per-subcarrier max-log LLRs -> soft Viterbi.
The 16-QAM table (per axis ``00 -> +1, 01 -> +3, 10 -> -3, 11 -> -1``) is
not Gray; see :mod:`pnofdm.qam`.  Arrays carry a leading batch axis:
:func:`make_frame_pair` makes only each pair's random draws from its own
seed, then builds the channels, phase paths and symbols of a whole block of
pairs in one pass over ``(B, 2, n_c)`` arrays (``(B, 1, n_c)`` when no
estimator reads the second symbol), and :func:`decode_frame` compensates,
demaps and decodes a whole block of frames in one stacked pass, one call
per layer.

Model and conventions:

* Received vector ``r = V H s + n`` with ``V`` the unitary phase rotation
  (``V = F diag(exp(1j*theta)) F^H``) and white complex Gaussian ``n``.
* SNR is per subcarrier: ``sigma_n^2 = mean_k |H_k s_k|^2 / snr_linear``,
  using the frame's own channel realization.
* The noise is drawn in the pre-rotation frame (``r = V (H s + n0)``), which
  is distributionally identical and makes genie compensation reproduce the
  zero-phase-noise link sample for sample.
* The phase noise is a Wiener process (random walk): its increments are
  i.i.d. zero-mean Gaussian with variance
  ``WIENER_VARIANCE_FACTOR * rho / n_c`` per sample, the initial phase is
  uniform on ``[-pi, pi)``, and the trajectory is continuous across the two
  symbols of a pair.  Trajectories are plain arrays of radians; their
  spectral vectors are :func:`pnofdm.spectral.spectral_vector`.
* No cyclic prefix is modeled; the model is already post-FFT.
* Channel knowledge is genie: frames carry the true channel response.

A frame (:class:`OfdmFrame`) carries what a receiver reads (``r``, the
channel ``H``, ``sigma2`` and the pilot layout) plus the truth that
reductions score against (``info_bits`` and ``theta``), nothing more.
The pilot layout (``pilot_idx``, ``pilot_values``, ``data_idx``) is fixed
by ``(n_c, pilot_fraction)``; it is built once per config and shared by
every frame as read-only arrays.

Every Monte-Carlo study runs through one engine, :func:`simulate`: trial ``i``
draws its frame pair from child ``i`` of
``np.random.SeedSequence(master).spawn(n)``, whatever block it is built in,
and runs every requested estimator under every requested reduction model
(``models``, ``(t_kind, n)`` pairs, :data:`DEFAULT_MODEL` by default: the
receiver's choice, not the link's) on it, so the runs compared in one study
see common random frames, built once: the model enters only the estimate, and
an id that reads no model (``MODEL_FREE_IDS``) runs once per frame, whatever
the number of models.  The rules a run must meet are checked before any frame
is built (:func:`run_violations`), not again by the estimators.  It yields
blocks of up to ``DECODE_BLOCK`` trials.  An estimator that fails on a frame
falls back to the common-phase-only fit and is flagged; no frame is dropped.
:func:`ber_records` (decoding each block once per run, with :func:`run_link`
its one-estimator case) and the scenario runners are reductions over the
blocks, using sums and counts only, so they are order-independent.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .coding import conv_encode, viterbi_decode_soft
from .dimred import lft, pc_ppt
from .estimators import (ESTIMATOR_IDS, MODEL_FREE_IDS, NEXT_SYMBOL_IDS, PPT_ONLY_IDS, EstimationError, cpe_only,
                         estimate_frame)
from .qam import qam16_llr, qam16_map

__all__ = [
    "BerRecord",
    "DECODE_BLOCK",
    "DEFAULT_MODEL",
    "LinkConfig",
    "OfdmFrame",
    "SNR_DB_LIMIT",
    "SUBCARRIER_SPACING",
    "WIENER_VARIANCE_FACTOR",
    "ber_records",
    "compensate",
    "decode_frame",
    "make_frame_pair",
    "make_model",
    "run_link",
    "run_violations",
    "simulate",
]

# Subcarrier spacing in Hz.  The link is post-FFT and normalized to it, so it
# is a constant: the channel reads coherence_bw only through _channel_profile.
SUBCARRIER_SPACING = 15e3
# Largest |snr_db| a config may set; near 3000 dB the noise scale overflows.
SNR_DB_LIMIT = 1000.0
# Wiener increment variance is WIENER_VARIANCE_FACTOR * rho / n_c per sample,
# the Lorentzian-linewidth convention for a free-running oscillator whose
# 3-dB bandwidth is rho subcarrier spacings.
WIENER_VARIANCE_FACTOR = 4.0 * np.pi
# Seed of the fixed pseudo-random QPSK pilot sequence (same for every frame).
PILOT_SEQUENCE_SEED = 20140821
# Trials whose frames simulate builds and yields in one block, and that
# ber_records decodes in one Viterbi call per estimator.
DECODE_BLOCK = 32
# The receiver's reduction model (t_kind, n) when a run names none.
DEFAULT_MODEL = ("ppt", 8)


@dataclass(frozen=True)
class LinkConfig:
    """Static parameters of the simulated link.  Units: ``coherence_bw`` in Hz
    at :data:`SUBCARRIER_SPACING`, ``rho`` (3-dB phase-noise linewidth) in
    subcarrier spacings, ``snr_db`` in dB per subcarrier, ``pilot_fraction``
    a share of the ``n_c`` subcarriers, at least one, and ``taps``
    sample-spaced channel taps.  The reduction model is the receiver's
    choice, not the link's: a run names it (:func:`run_violations`)."""

    n_c: int = 128
    pilot_fraction: float = 0.08
    snr_db: float = 30.0
    taps: int = 4
    coherence_bw: float = 800e3
    rho: float = 0.02

    def violations(self) -> list[str]:
        out = []
        # With pilot_fraction <= 0.5 this leaves 4 or more data subcarriers:
        # 16 coded bits, 2 information bits past the 6-bit tail.
        if self.n_c < 8:
            out.append("n_c must be at least 8")
        if self.taps < 1:
            out.append("taps must be >= 1")
        if self.taps > self.n_c:
            out.append(f"taps = {self.taps} must not exceed n_c = {self.n_c}")
        if not 0 < self.coherence_bw < np.inf:
            out.append("coherence_bw must be positive and finite")
        if not out:  # the channel's inputs are valid: its tap profile must solve
            try:
                _channel_profile(self)
            except ValueError as exc:
                out.append(str(exc))
        if not 0 < self.pilot_fraction <= 0.5:
            out.append("pilot_fraction must lie in (0, 0.5]")
        elif round(self.pilot_fraction * self.n_c) < 1:  # every estimator reads pilots
            out.append(f"pilot_fraction = {self.pilot_fraction:g} leaves no pilot on n_c = {self.n_c} subcarriers")
        if not -SNR_DB_LIMIT <= self.snr_db <= SNR_DB_LIMIT:
            out.append(f"snr_db must be finite and lie in [-{SNR_DB_LIMIT:g}, {SNR_DB_LIMIT:g}] dB")
        if not 0 <= WIENER_VARIANCE_FACTOR * self.rho < np.inf:
            out.append("rho must be finite and nonnegative, with 4*pi*rho finite")
        return out

    def validate(self) -> "LinkConfig":
        problems = self.violations()
        if problems:
            raise ValueError("invalid link config: " + "; ".join(problems))
        return self


@lru_cache(maxsize=16)
def make_model(t_kind: str, n_c: int, n: int) -> np.ndarray:
    """Lift matrix ``T`` (``n_c x n``, from the reduced time samples) of the reduction model ``t_kind``
    (``ppt`` or ``lft``, else ``ValueError``), built once per
    ``(t_kind, n_c, n)`` and shared read-only."""
    if t_kind not in ("ppt", "lft"):
        raise ValueError(f"t_kind must be 'ppt' or 'lft', got {t_kind!r}")
    T = (pc_ppt if t_kind == "ppt" else lft)(n_c, n)
    T.flags.writeable = False
    return T


@lru_cache(maxsize=16)
def _layout(n_c: int, pilot_fraction: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only ``(pilot_idx, pilot_values, data_idx)`` shared by all frames.

    The ``K = round(pilot_fraction * n_c)`` pilots sit on the evenly spaced
    subcarriers ``floor(i * n_c / K)``, starting at 0, and carry fixed
    unit-modulus QPSK values from a generator seeded once.
    """
    k = int(round(pilot_fraction * n_c))
    pilot_idx = np.floor(np.arange(k) * n_c / k).astype(int)
    pilot_values = np.exp(1j * (np.pi / 4 + np.random.default_rng(PILOT_SEQUENCE_SEED).integers(0, 4, k) * np.pi / 2))
    is_data = np.ones(n_c, bool)
    is_data[pilot_idx] = False
    data_idx = np.flatnonzero(is_data)  # np.setdiff1d would import numpy.ma
    layout = (pilot_idx, pilot_values, data_idx)
    for arr in layout:
        arr.flags.writeable = False
    return layout


@lru_cache(maxsize=32)
def _tap_profile(taps: int, coherence_ratio: float) -> tuple:
    """Exponential tap powers whose frequency correlation is 0.5 at the
    coherence bandwidth.

    ``coherence_ratio`` is the coherence bandwidth over the sample rate
    ``n_c * SUBCARRIER_SPACING`` (:func:`_channel_profile`); taps are sample
    spaced, so the correlation at offset ``coherence_ratio`` is
    ``|sum_l p_l exp(-2j*pi*coherence_ratio*l)|``.  The decay constant
    solving ``corr = 0.5`` is found by bisection; the target is unreachable
    when even equal-power taps stay above 0.5, in which case a ValueError
    states the achievable range; :meth:`LinkConfig.violations` reports it as
    a config violation.
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
        bracket = (mid, hi) if corr(mid) > 0.5 else (lo, mid)
        if bracket == (lo, hi):  # a fixed point: every later step repeats this one
            break
        lo, hi = bracket
    p = np.exp(-ell / np.sqrt(lo * hi))
    return tuple(p / p.sum())


def _channel_profile(cfg: LinkConfig) -> tuple:
    """The config's tap powers, at its coherence bandwidth over the sample rate."""
    return _tap_profile(cfg.taps, cfg.coherence_bw / (cfg.n_c * SUBCARRIER_SPACING))


def _rayleigh_channel(cfg: LinkConfig, draws: np.ndarray) -> np.ndarray:
    """Channel responses ``H`` of a block from standard normal tap draws.

    ``draws`` is ``(B, 2, taps)``: per channel, the real parts' draws, then
    the imaginary parts'.  The taps ``h`` are scaled to the exponential
    profile whose decay constant is solved from the coherence bandwidth
    (:func:`_channel_profile`), unit total power on average.  Returns their
    DFTs, ``(B, n_c)``: ``H_k = sum_n h[n] exp(-2j*pi*k*n/n_c)`` (plain
    unnormalized DFT), so ``sum_k |H_k|^2 = n_c * sum_n |h[n]|^2``.
    """
    p = np.asarray(_channel_profile(cfg))
    h = np.sqrt(p / 2) * (draws[:, 0] + 1j * draws[:, 1])
    return np.fft.fft(h, cfg.n_c)


def _apply_phase_noise(x: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Apply the unitary rotation ``V = F diag(exp(1j*theta)) F^H`` via FFTs.

    ``x`` and ``theta`` are blocks of one shape, ``(B, n)``: each row of
    ``x`` is rotated by the same row of ``theta``.
    """
    return np.fft.fft(np.exp(1j * theta) * np.fft.ifft(x))


def compensate(r, delta_hat) -> np.ndarray:
    """De-rotate a block of received vectors with estimated spectral vectors.

    Computes ``y = V_hat^H r`` where ``V_hat`` is the row-circulant matrix
    with first row ``delta_hat^H``; the adjoint is the circular convolution
    of ``delta_hat`` with ``r``.  ``r`` and ``delta_hat`` are blocks of one
    shape, ``(B, n)``: each row of ``r`` is de-rotated by the same row of
    ``delta_hat``, which must be finite and nonzero.
    """
    d = np.asarray(delta_hat, dtype=complex)
    r = np.asarray(r, dtype=complex)
    if r.shape != d.shape or r.ndim != 2:
        raise ValueError("r and delta_hat must share one block shape (B, n)")
    if not np.isfinite(d).all():
        raise ValueError("delta_hat must be finite")
    if not np.any(d != 0, axis=-1).all():
        raise ValueError("delta_hat must be nonzero")
    return np.fft.ifft(np.fft.fft(d) * np.fft.fft(r))


@dataclass(frozen=True)
class OfdmFrame:
    """One simulated OFDM symbol: what the receiver sees plus the truth.

    ``pilot_idx``, ``pilot_values`` and ``data_idx`` are the config's shared,
    read-only pilot layout.  The estimators read only frames, so the layout
    is checked once, here: a pilot value per pilot index and ``H`` as long
    as ``r``, or ``ValueError``.
    """

    info_bits: np.ndarray
    pilot_idx: np.ndarray
    pilot_values: np.ndarray
    data_idx: np.ndarray
    H: np.ndarray
    theta: np.ndarray
    r: np.ndarray
    sigma2: float

    def __post_init__(self):
        if self.pilot_idx.size != self.pilot_values.size:
            raise ValueError("pilot index/value length mismatch")
        if self.H.size != self.r.size:
            raise ValueError("H must match the symbol length")


def make_frame_pair(cfg: LinkConfig, seeds, next_symbol: bool = True) -> list[tuple]:
    """Simulate one pair of consecutive symbols per seed, sharing one channel.

    Within a pair the phase trajectory is continuous across the two symbols
    and they share one channel realization; noise and data are independent
    per symbol.  The per-sample step variance is referenced to one symbol
    length.  Each seed drives its own generator, with draws in a fixed
    order for reproducibility: the channel taps (real parts, then imaginary
    parts), the initial phase, the ``2*n_c - 1`` phase increments, then for
    symbol 0 and then symbol 1 the bits, the real noise and the imaginary
    noise.  Only these draws are made seed by seed.  Everything after them
    runs once over the block of ``B`` seeds: the tap scaling and channel DFT
    (:func:`_rayleigh_channel`; ``H`` is the plain DFT of taps with unit
    total power on average), the Wiener paths over ``(B, 2*n_c - 1)``
    increments, and the encoding, mapping and sending of every symbol as
    ``(B, 2, n_c)`` arrays, ``r = V (H s + n0)``, each row exactly as if
    built on its own; every frame's arrays are views of its row.

    Symbol 1 is built only when ``next_symbol`` is true, for the estimators
    that read it (:data:`pnofdm.estimators.NEXT_SYMBOL_IDS`).  Its bits and
    noise are each seed's last draws, so symbol 0 is the same either way.
    Returns one ``(frame0, frame1)`` per seed, in order, with ``frame1`` None
    when symbol 1 is not built; one pair is ``make_frame_pair(cfg, [seed])[0]``.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("make_frame_pair takes at least one seed")
    cfg.validate()
    n_c, n_pairs, n_sym = cfg.n_c, len(seeds), 2 if next_symbol else 1
    pilot_idx, pilot_values, data_idx = _layout(n_c, cfg.pilot_fraction)
    n_info = 2 * data_idx.size - 6
    step_sd = np.sqrt(WIENER_VARIANCE_FACTOR * cfg.rho / n_c)
    tap_draws = np.empty((n_pairs, 2, cfg.taps))
    theta0 = np.empty(n_pairs)
    steps = np.empty((n_pairs, 2 * n_c - 1))
    info_bits = np.empty((n_pairs, n_sym, n_info), dtype=int)
    noise = np.empty((n_pairs, n_sym, 2, n_c))  # [pair, symbol, real or imaginary part, subcarrier]
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        rng.standard_normal(out=tap_draws[i])
        theta0[i] = rng.uniform(-np.pi, np.pi)
        steps[i] = rng.normal(0.0, step_sd, 2 * n_c - 1)
        for k in range(n_sym):
            info_bits[i, k] = rng.integers(0, 2, n_info)
            rng.standard_normal(out=noise[i, k])
    H = _rayleigh_channel(cfg, tap_draws)
    theta = np.zeros((n_pairs, n_sym * n_c))  # Wiener paths: theta0 + [0, cumsum(steps)]
    np.cumsum(steps[:, : n_sym * n_c - 1], axis=1, out=theta[:, 1:])
    theta = (theta + theta0[:, None]).reshape(n_pairs, n_sym, n_c)
    s = np.empty((n_pairs, n_sym, n_c), dtype=complex)
    s[..., pilot_idx] = pilot_values
    s[..., data_idx] = qam16_map(conv_encode(info_bits.reshape(-1, n_info))).reshape(n_pairs, n_sym, -1)
    w = H[:, None] * s
    sigma2 = np.mean(np.abs(w) ** 2, axis=-1) / 10 ** (cfg.snr_db / 10)
    n0 = np.sqrt(sigma2 / 2)[..., None] * (noise[:, :, 0] + 1j * noise[:, :, 1])
    r = _apply_phase_noise((w + n0).reshape(-1, n_c), theta.reshape(-1, n_c)).reshape(n_pairs, n_sym, n_c)

    def frame(i, k):
        return OfdmFrame(info_bits[i, k], pilot_idx, pilot_values, data_idx, H[i], theta[i, k], r[i, k],
                         float(sigma2[i, k]))

    return [(frame(i, 0), frame(i, 1) if next_symbol else None) for i in range(n_pairs)]


@dataclass(frozen=True)
class BerRecord:
    """Aggregated coded-BER result of one estimator under one model at one SNR;
    :func:`ber_records` keys it by ``(estimator, (t_kind, n))``, or
    ``(estimator, None)`` for an id that reads no model."""

    snr_db: float
    frames: int
    bit_errors: int
    ber: float
    ci95_low: float
    ci95_high: float
    flagged_frames: int
    frame_errors: np.ndarray = field(repr=False)


def _ci95(samples, high=np.inf) -> tuple:
    """``(mean, low, high)``: the 95% normal interval of the mean of ``samples``.

    The mean plus or minus 1.96 standard errors (``ddof=1``, and zero for a
    single sample), clipped below at 0 and above at ``high``.
    """
    mean = float(np.mean(samples))
    se = float(np.std(samples, ddof=1) / np.sqrt(samples.size)) if samples.size > 1 else 0.0
    return mean, max(0.0, mean - 1.96 * se), min(high, mean + 1.96 * se)


def _ber_record(cfg: LinkConfig, frame_errors, bits_per_frame: int, flagged: int) -> BerRecord:
    """One run's record of its per-frame bit errors, in trial order.

    The interval is :func:`_ci95` of the per-frame BERs, clipped to ``[0, 1]``.
    It is not a binomial (Wilson) interval: with zero errors in every frame
    the standard error is zero and the interval collapses to ``[0, 0]``.
    """
    _, low, high = _ci95(frame_errors / bits_per_frame, high=1.0)
    return BerRecord(
        snr_db=cfg.snr_db, frames=frame_errors.size, bit_errors=int(frame_errors.sum()),
        ber=float(frame_errors.sum() / (bits_per_frame * frame_errors.size)),
        ci95_low=low, ci95_high=high, flagged_frames=flagged, frame_errors=frame_errors,
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


def _distinct(key: str, values) -> list[str]:
    """The violation of a list key that is empty or holds a value twice."""
    repeats = not values or len(set(values)) < len(values)
    return [f"{key} must be at least one distinct value, got {list(values)}"] if repeats else []


def _runs_under(t_kind: str, estimators) -> list:
    """The estimators that run under model ``t_kind``: those in ``PPT_ONLY_IDS`` under ``ppt`` alone."""
    return [est for est in estimators if t_kind == "ppt" or est not in PPT_ONLY_IDS]


def run_violations(cfg: LinkConfig, estimators, models) -> list[str]:
    """Every rule a run must meet, each broken one once, or ``[]``: the link's
    own violations, an unknown id, an empty or repeating list of ids, a model
    ``(t_kind, n)`` with ``n < 1``, more coefficients than a valid link has
    pilots or that :func:`make_model` cannot build, and a model under which no
    requested estimator runs (``MODEL_FREE_IDS`` run under all).  No estimator
    checks these again.  The list of models itself is the caller's:
    :func:`simulate` checks it as ``models``, a config as ``t_kind`` and ``n``."""
    out = cfg.violations()
    link_valid = not out
    for t_kind, n in models:
        if n < 1:
            out.append(f"n must be >= 1, got {n}")
        elif link_valid:  # the layout and the model can be built
            pilots = _layout(cfg.n_c, cfg.pilot_fraction)[0].size
            if pilots < n:
                out.append(f"pilot count {pilots} is below the model size n = {n}")
            try:
                make_model(t_kind, cfg.n_c, n)
            except ValueError as exc:
                out.append(str(exc))
    out += [f"unknown estimator {est!r}; expected one of {ESTIMATOR_IDS}"
            for est in estimators if est not in ESTIMATOR_IDS]
    out += _distinct("estimators", estimators)
    out += [f"{'/'.join(estimators)} requires a geometry-preserving model: nothing runs under t_kind = {t_kind!r}"
            for t_kind, _ in models if estimators and not _runs_under(t_kind, estimators)]
    return list(dict.fromkeys(out))


def simulate(cfg: LinkConfig, estimators, trials: int, seed, models=(DEFAULT_MODEL,)):
    """Run every estimator under every model on ``trials`` common random frame pairs, yielded a block at a time.

    Trial ``i`` draws its frame pair from child ``i`` of
    ``np.random.SeedSequence(seed).spawn(trials)``, with the draws in the
    order :func:`make_frame_pair` documents.  Each block of up to
    ``DECODE_BLOCK`` trials is built in one :func:`make_frame_pair` call,
    whatever the number of estimators and ``(t_kind, n)`` models, with each
    pair's second symbol only when an estimator in
    :data:`pnofdm.estimators.NEXT_SYMBOL_IDS` is requested (symbol 0 is the
    same either way), estimated frame by frame and yielded once as
    ``(frames, results)``: the first symbol of each pair, in trial order,
    and ``results[est, model]`` with one ``(output, flagged)`` per frame,
    keyed model by model and, within a model, in the order of
    ``estimators``.  An id in ``PPT_ONLY_IDS`` runs under ``ppt`` only, and
    an id in ``MODEL_FREE_IDS`` once per frame, keyed ``(est, None)`` where
    it first appears.  An estimator that raises :class:`EstimationError` on
    a frame gets the common-phase-only fit instead, flagged.  A run that
    :func:`run_violations` refuses, or an empty or repeating list of models,
    raises ``ValueError`` when iteration starts, before any frame is built.
    """
    estimators, models = tuple(estimators), tuple(models)
    problems = run_violations(cfg, estimators, models) + _distinct("models", models)
    if problems:
        raise ValueError("invalid run: " + "; ".join(problems))
    if trials < 1:
        raise ValueError("trials must be positive")
    runs = list(dict.fromkeys((est, None if est in MODEL_FREE_IDS else model)
                              for model in models for est in _runs_under(model[0], estimators)))
    lifts = {(t_kind, n): make_model(t_kind, cfg.n_c, n) for t_kind, n in models}  # a model-free run reads None
    children = np.random.SeedSequence(seed).spawn(trials)
    next_symbol = any(est in NEXT_SYMBOL_IDS for est in estimators)
    for start in range(0, trials, DECODE_BLOCK):
        frames, results = [], {run: [] for run in runs}
        for f0, f1 in make_frame_pair(cfg, children[start : start + DECODE_BLOCK], next_symbol=next_symbol):
            frames.append(f0)
            for est, model in runs:
                try:
                    out = (estimate_frame(est, f0, f1, lifts.get(model)), False)
                except EstimationError:
                    out = (cpe_only(f0), True)
                results[est, model].append(out)
        yield frames, results


def ber_records(cfg: LinkConfig, estimators, n_frames: int, seed, models=(DEFAULT_MODEL,)) -> dict[tuple, BerRecord]:
    """Coded BER of each estimator under each model over the same ``n_frames`` trials of :func:`simulate`.

    One pass: each block's frames are built once, and each run's block is
    decoded in one :func:`decode_frame` call.  A frame on which an estimator
    fails is decoded with the common-phase-only fallback and counted in its
    ``flagged_frames``, never dropped.  Returns one record per run, keyed
    and ordered as :func:`simulate`'s results, so an id that reads no model
    is decoded once; ``frame_errors`` keeps trial order.
    """
    errors, flagged = defaultdict(list), Counter()
    for frames, results in simulate(cfg, estimators, n_frames, seed, models=models):
        sent = np.stack([frame.info_bits for frame in frames])
        for run, outputs in results.items():
            decoded = decode_frame(frames, [out.delta_hat for out, _ in outputs])
            errors[run].append(np.count_nonzero(decoded != sent, axis=1))
            flagged[run] += sum(bad for _, bad in outputs)
    return {run: _ber_record(cfg, np.concatenate(blocks), sent.shape[1], flagged[run])
            for run, blocks in errors.items()}


def run_link(cfg: LinkConfig, estimator, n_frames: int, seed) -> BerRecord:
    """Coded BER of one estimator under :data:`DEFAULT_MODEL`: the record :func:`ber_records` gives it alone."""
    (record,) = ber_records(cfg, (estimator,), n_frames, seed).values()
    return record
