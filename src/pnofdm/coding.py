"""Rate-1/2 convolutional code (generators 133/171 octal, constraint length 7)
with exact maximum-likelihood soft-decision Viterbi decoding.

Codewords are zero-tail terminated: six flush zeros are appended so the
encoder returns to the all-zero state, and the decoder runs a full-block
traceback from that state (which is ML for the terminated code; the effective
decision depth is the whole block).

LLR convention: ``llr = log P(bit = 0) / P(bit = 1)``, so positive values
favor bit 0.

Decoder structure.  A trellis edge emits one of only four coded pairs, so the
scores ``-(c1*l1 + c2*l2)`` of all four pairs at every step are computed in
one pass and gathered once into per-step branch metrics indexed
``[predecessor k, input bit u, j]``.  The destination states ``j`` and
``j + 32`` share the predecessors ``2j`` and ``2j + 1`` (a butterfly), so the
path metrics reshaped to ``(32, 2)`` and transposed line up with those branch
metrics by broadcasting, and each add-compare-select step is three ufunc
calls into preallocated buffers.  The comparison is strict: ties go to the
lower-numbered predecessor ``2j``, which selects the all-zero path on
all-zero input.  The traceback packs each step's 64 decisions into one
Python int and follows the chosen predecessors from the zero state.
"""

from __future__ import annotations

import numpy as np

__all__ = ["CONSTRAINT_LENGTH", "GENERATORS_OCTAL", "conv_encode", "viterbi_decode_soft"]

CONSTRAINT_LENGTH = 7
GENERATORS_OCTAL = (0o133, 0o171)

_MEM = CONSTRAINT_LENGTH - 1
_NSTATES = 1 << _MEM
_HALF = _NSTATES // 2  # butterflies per trellis step

# Tap vectors, most recent bit first (delay 0 .. 6).
_TAPS1 = np.array([(GENERATORS_OCTAL[0] >> (CONSTRAINT_LENGTH - 1 - i)) & 1 for i in range(CONSTRAINT_LENGTH)])
_TAPS2 = np.array([(GENERATORS_OCTAL[1] >> (CONSTRAINT_LENGTH - 1 - i)) & 1 for i in range(CONSTRAINT_LENGTH)])


def _parity(x):
    x = np.asarray(x)
    out = np.zeros_like(x)
    while np.any(x):
        out ^= x & 1
        x = x >> 1
    return out


def _build_trellis():
    s = np.arange(_NSTATES)
    u = np.array([[0], [1]])
    reg = (u << _MEM) | s  # shape (2, 64): newest bit at the top of the register
    out1 = _parity(reg & GENERATORS_OCTAL[0]).T  # (64, 2)
    out2 = _parity(reg & GENERATORS_OCTAL[1]).T
    # Predecessors of state sp: the input bit on any edge into sp is its MSB,
    # and the two predecessors differ in their oldest bit.
    sp = np.arange(_NSTATES)
    pred0 = (sp & (_HALF - 1)) << 1
    pred1 = pred0 + 1
    ubit = sp >> (_MEM - 1)
    return out1, out2, pred0, pred1, ubit


_OUT1, _OUT2, _PRED0, _PRED1, _UBIT = _build_trellis()

# The four coded pairs (c1, c2), indexed 2*c1 + c2.
_PAIR_C1 = np.array([0, 0, 1, 1])
_PAIR_C2 = np.array([0, 1, 0, 1])
# _EDGE_PAIR[k, u, j]: pair emitted on the edge from predecessor 2j + k with
# input bit u, which enters state u*32 + j.
_EDGE_PAIR = (2 * _OUT1 + _OUT2)[
    np.stack([_PRED0, _PRED1]).reshape(2, 2, _HALF),
    _UBIT.reshape(2, _HALF),
]


def conv_encode(bits) -> np.ndarray:
    """Encode a bit sequence at rate 1/2 with zero-tail termination.

    Returns ``2 * (len(bits) + 6)`` coded bits, the two generator outputs
    interleaved per input bit.  An empty input yields the 12 flush bits.
    """
    bits = np.asarray(bits, dtype=int).ravel()
    if bits.size and not np.all((bits == 0) | (bits == 1)):
        raise ValueError("bits must be 0/1")
    u = np.concatenate([bits, np.zeros(_MEM, dtype=int)])
    c1 = np.convolve(u, _TAPS1)[: u.size] % 2
    c2 = np.convolve(u, _TAPS2)[: u.size] % 2
    out = np.empty(2 * u.size, dtype=int)
    out[0::2] = c1
    out[1::2] = c2
    return out


def viterbi_decode_soft(llrs) -> np.ndarray:
    """ML decode soft LLRs of a zero-terminated codeword.

    ``llrs`` must contain one finite value per coded bit (even length).  The
    path score accumulates ``-sum(c * llr)`` over coded bits ``c``, maximized
    over the terminated trellis; ties are broken deterministically toward the
    lower-numbered predecessor, which selects the all-zero path on all-zero
    input.  Returns the information bits with the six tail bits removed.
    """
    llrs = np.asarray(llrs, dtype=float).ravel()
    if llrs.size % 2 != 0:
        raise ValueError("llr length must be even")
    n_steps = llrs.size // 2
    if n_steps < _MEM:
        raise ValueError("codeword shorter than the flush tail")
    if not np.isfinite(llrs).all():
        raise ValueError("llrs must be finite")

    l1 = llrs[0::2, None]
    l2 = llrs[1::2, None]
    gamma = -(_PAIR_C1 * l1 + _PAIR_C2 * l2)  # (T, 4)
    metrics = gamma[:, _EDGE_PAIR]  # (T, k, u, 32)

    pm = np.full(_NSTATES, -np.inf)
    pm[0] = 0.0
    pm_by_pred = pm.reshape(_HALF, 2).T[:, None, :]  # [k, 1, j] = pm[2j + k]
    pm_next = pm.reshape(2, _HALF)  # [u, j] = pm[u*32 + j]
    cand = np.empty((2, 2, _HALF))
    cand0, cand1 = cand
    choices = np.empty((n_steps, 2, _HALF), dtype=bool)
    for metric, choice in zip(metrics, choices):
        np.add(pm_by_pred, metric, out=cand)
        np.greater(cand1, cand0, out=choice)
        np.maximum(cand0, cand1, out=pm_next)

    # Bit s of took1[t] is set when state s took predecessor 2(s mod 32) + 1.
    took1 = np.packbits(choices.reshape(n_steps, _NSTATES), axis=1, bitorder="little")
    took1 = took1.view("<u8").ravel().tolist()
    state = 0  # terminated codeword ends in the zero state
    decoded = [0] * n_steps
    for t in range(n_steps - 1, -1, -1):
        decoded[t] = state >> (_MEM - 1)
        state = ((state & (_HALF - 1)) << 1) | ((took1[t] >> state) & 1)
    return np.array(decoded[: n_steps - _MEM], dtype=int)
