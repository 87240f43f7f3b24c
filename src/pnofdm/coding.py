"""Rate-1/2 convolutional code (generators 133/171 octal, constraint length 7)
with exact maximum-likelihood soft-decision Viterbi decoding.

Codewords are zero-tail terminated: six flush zeros are appended so the
encoder returns to the all-zero state, and the decoder runs a full-block
traceback from that state (which is ML for the terminated code; the effective
decision depth is the whole block).

LLR convention: ``llr = log P(bit = 0) / P(bit = 1)``, so positive values
favor bit 0.

Decoder structure.  One call decodes a block of ``B`` codewords of equal
length, with the batch on the innermost axis of every array, so each ufunc
call below does the work of all ``B`` rows at once.  A trellis edge emits
one of only four coded pairs, so the
scores ``-(c1*l1 + c2*l2)`` of all four pairs at every step are computed in
one pass, shape ``(T, 4, B)``, and gathered into per-step branch metrics
indexed ``[predecessor k, input bit u, j, row]``, ``_GATHER_STEPS`` steps at
a time so the scratch stays small for large blocks.  The destination states
``j`` and ``j + 32`` share the predecessors ``2j`` and ``2j + 1`` (a
butterfly), so the ``(64, B)`` path metrics reshaped to ``(32, 2, B)`` and
transposed line up with those branch metrics by broadcasting, and each
add-compare-select step is two ufunc calls: the path metrics are added into
the step's gathered branch metrics in place, turning them into the two
candidates of every state, and their maximum is written to the path
metrics.  The candidates stay in the gathered buffer, so each gather's
decisions are taken afterwards in one comparison.  The comparison is
strict: ties go to the lower-numbered predecessor ``2j``, which selects the
all-zero path on all-zero input, row by row.  The traceback reads the
decisions where they were written and, once per row, follows the chosen
predecessors back from the zero state: the decision taken at step ``t`` is
the oldest register bit of the predecessor, which is information bit
``t - 6``.

The encoder is the shift register written out over the block: each row is
padded with six zeros in front (the all-zero start state) and six behind
(the flush tail), and each generator's output is the XOR of the padded
block's columns shifted by that generator's tap delays, ``(B, n + 6)`` at a
time.  The decoder's trellis is read off the encoder: each edge's pair is
the seventh output pair of the encoder fed the edge's seven register bits,
oldest first, so the generators enter the code only through their tap
delays.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["CONSTRAINT_LENGTH", "GENERATORS_OCTAL", "conv_encode", "viterbi_decode_soft"]

CONSTRAINT_LENGTH = 7
GENERATORS_OCTAL = (0o133, 0o171)

_MEM = CONSTRAINT_LENGTH - 1
_NSTATES = 1 << _MEM
_HALF = _NSTATES // 2  # butterflies per trellis step
# Trellis steps whose branch metrics are gathered at once: 32 KB per row.
_GATHER_STEPS = 32

# Per generator, the delays (0 = the newest bit .. 6) of its nonzero taps.
_TAP_DELAYS = tuple(tuple(d for d in range(CONSTRAINT_LENGTH) if g >> (_MEM - d) & 1) for g in GENERATORS_OCTAL)

# The four coded pairs (c1, c2), indexed 2*c1 + c2.
_PAIR_C1 = np.array([0, 0, 1, 1])
_PAIR_C2 = np.array([0, 1, 0, 1])


def conv_encode(bits) -> np.ndarray:
    """Encode a block of 0/1 bit sequences at rate 1/2 with zero-tail termination.

    ``bits`` holds ``B`` sequences of equal length, shape ``(B, n)``, one per
    row; each row is encoded from the all-zero state, so no row's register
    carries into the next.  Returns ``2 * (n + 6)`` coded bits per row, the
    two generator outputs interleaved per input bit: shape ``(B, 2(n + 6))``.
    An empty row yields the 12 flush bits.
    """
    bits = np.asarray(bits)
    if bits.ndim != 2:
        raise ValueError("bits must be a block (B, n)")
    if not np.all((bits == 0) | (bits == 1)):
        raise ValueError("bits must be 0/1")
    n_rows, n = bits.shape
    n_out = n + _MEM
    # Register contents over time: six zeros of start state, the bits, six flush zeros.
    u = np.zeros((n_rows, n_out + _MEM), dtype=np.uint8)
    u[:, _MEM:n_out] = bits
    coded = np.empty((n_rows, n_out, 2), dtype=int)
    for j, delays in enumerate(_TAP_DELAYS):
        # Input bit t sits in column t + 6, so the bit d steps older is column t + 6 - d.
        coded[:, :, j] = functools.reduce(np.bitwise_xor, [u[:, _MEM - d : n_out + _MEM - d] for d in delays])
    return coded.reshape(n_rows, -1)


def _edge_pairs():
    """``[k, u, j]``: the pair index ``2*c1 + c2`` emitted on the edge from
    predecessor ``2j + k`` with input bit ``u``, which enters state ``u*32 + j``.

    The register on that edge holds ``u`` above the predecessor's six bits,
    ``(u << 6) | (2j + k)``; fed to the encoder oldest bit first, those seven
    bits leave the edge's pair as the encoder's seventh output pair.
    """
    k, u, j = np.indices((2, 2, _HALF))
    register = ((u << _MEM) | (2 * j + k)).reshape(-1)
    coded = conv_encode(register[:, None] >> np.arange(CONSTRAINT_LENGTH) & 1)
    return (2 * coded[:, 2 * _MEM] + coded[:, 2 * _MEM + 1]).reshape(2, 2, _HALF)


_EDGE_PAIR = _edge_pairs()


def viterbi_decode_soft(llrs) -> np.ndarray:
    """ML decode soft LLRs of a block of zero-terminated codewords.

    ``llrs`` holds one finite value per coded bit of ``B`` codewords of equal
    length, shape ``(B, 2T)``, one per row.  The path score accumulates
    ``-sum(c * llr)`` over coded bits ``c``, maximized over the terminated
    trellis; ties are broken deterministically toward the lower-numbered
    predecessor, which selects the all-zero path on all-zero input.  Returns
    the information bits with the six tail bits removed: shape ``(B, T - 6)``.
    """
    llrs = np.asarray(llrs, dtype=float)
    if llrs.ndim != 2:
        raise ValueError("llrs must be a block (B, 2T)")
    n_rows, n_llrs = llrs.shape
    if n_llrs % 2 != 0:
        raise ValueError("llr length must be even")
    n_steps = n_llrs // 2
    if n_steps < _MEM:
        raise ValueError("codeword shorter than the flush tail")
    if not np.isfinite(llrs).all():
        raise ValueError("llrs must be finite")

    l1 = llrs[:, 0::2].T[:, None, :]
    l2 = llrs[:, 1::2].T[:, None, :]
    gamma = -(_PAIR_C1[:, None] * l1 + _PAIR_C2[:, None] * l2)  # (T, 4, B)

    pm = np.full((_NSTATES, n_rows), -np.inf)
    pm[0] = 0.0
    pm_by_pred = pm.reshape(_HALF, 2, n_rows).transpose(1, 0, 2)[:, None]  # [k, 1, j, b] = pm[2j + k, b]
    pm_next = pm.reshape(2, _HALF, n_rows)  # [u, j, b] = pm[u*32 + j, b]
    choices = np.empty((n_steps, 2, _HALF, n_rows), dtype=bool)
    # One gather buffer [step, k, u, j, b] for the whole call: a fresh one per gather read slower at B = 4.
    gathered = np.empty((min(_GATHER_STEPS, n_steps), 2, 2, _HALF, n_rows))
    for t0 in range(0, n_steps, _GATHER_STEPS):
        chunk = gamma[t0 : t0 + _GATHER_STEPS]
        # np.take copies whole rows of B values, where a fancy index copies element by element.
        # The indices are in range, so "clip" changes none; it lets take write into out
        # directly, where the default mode would buffer it.
        cand = np.take(chunk, _EDGE_PAIR, axis=1, out=gathered[: len(chunk)], mode="clip")
        for metric in cand:
            np.add(pm_by_pred, metric, out=metric)
            np.maximum(metric[0], metric[1], out=pm_next)
        np.greater(cand[:, 1], cand[:, 0], out=choices[t0 : t0 + _GATHER_STEPS])

    # choices is (T, 64, B) in C order: row b's decision at step t in state s
    # is byte t*64*B + s*B + b.  The predecessor of state s is
    # ((s << 1) & 63) | d, so d at step t is information bit t - 6, and steps
    # 0..5 (the zero start) need no traceback.
    flat = choices.tobytes()
    stride = _NSTATES * n_rows
    decoded = np.empty((n_rows, n_steps - _MEM), dtype=int)
    for b, row in enumerate(decoded):
        state = 0  # terminated codeword ends in the zero state
        bits = []
        for pos in range(b + (n_steps - 1) * stride, b + (_MEM - 1) * stride, -stride):
            d = flat[pos + state * n_rows]
            bits.append(d)
            state = ((state << 1) & (_NSTATES - 1)) | d
        row[::-1] = bits
    return decoded
