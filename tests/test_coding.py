"""Tests for the convolutional encoder and soft Viterbi decoder."""

import itertools

import numpy as np
import pytest

from pnofdm.coding import conv_encode, viterbi_decode_soft

# Information bits per frame on the default link: 118 data subcarriers carry
# 472 coded bits, i.e. 236 trellis steps of which 6 are the flush tail.
LINK_INFO_BITS = 230


def to_llrs(coded, magnitude=10.0):
    return magnitude * (1.0 - 2.0 * np.asarray(coded, dtype=float))


def reference_trellis():
    """The 64-state trellis, walked forward from each state.

    State ``s`` holds the six newest input bits, newest on top; input ``u``
    makes the register ``(u << 6) | s``, emits the parity of the register
    masked by each generator, and moves to ``register >> 1``.  Returns the
    coded bits of edge ``(s, u)``, shape ``(64, 2, 2)``, and for each state
    its two incoming edges in increasing source order: their source states
    and input bits, each shape ``(64, 2)``.
    """
    registers = np.array([[(u << 6) | s for u in (0, 1)] for s in range(64)])
    bits = np.array([[[bin(r & g).count("1") % 2 for g in (0o133, 0o171)] for r in row] for row in registers])
    # Edge e = 2s + u; a stable sort by destination lists each state's edges
    # in increasing source order.
    edges = np.argsort((registers >> 1).ravel(), kind="stable").reshape(64, 2)
    return bits, edges // 2, edges % 2


REF_BITS, REF_SOURCE, REF_INPUT = reference_trellis()


def reference_decode(llrs):
    """Reference oracle: a plain per-step add-compare-select over all 64
    states on :func:`reference_trellis`, ties to the lower source state."""
    llrs = np.asarray(llrs, dtype=float).ravel()
    n_steps = llrs.size // 2
    edge_bits = REF_BITS[REF_SOURCE, REF_INPUT]  # (64 states, 2 edges, 2 coded bits)
    pm = np.full(64, -np.inf)
    pm[0] = 0.0
    choices = np.empty((n_steps, 64), dtype=int)
    for t in range(n_steps):
        l1, l2 = llrs[2 * t], llrs[2 * t + 1]
        cand = pm[REF_SOURCE] - (edge_bits[..., 0] * l1 + edge_bits[..., 1] * l2)
        choices[t] = cand[:, 1] > cand[:, 0]
        pm = cand.max(axis=1)
    state = 0
    decoded = np.empty(n_steps, dtype=int)
    for t in range(n_steps - 1, -1, -1):
        k = choices[t, state]
        decoded[t] = REF_INPUT[state, k]
        state = REF_SOURCE[state, k]
    return decoded[: n_steps - 6]


def reference_encode(info_bits):
    """Reference encoder: one sequence, one convolution per generator."""
    taps = [[(g >> (6 - i)) & 1 for i in range(7)] for g in (0o133, 0o171)]
    u = np.concatenate([np.asarray(info_bits, dtype=int), np.zeros(6, dtype=int)])
    out = np.empty(2 * u.size, dtype=int)
    out[0::2] = np.convolve(u, taps[0])[: u.size] % 2
    out[1::2] = np.convolve(u, taps[1])[: u.size] % 2
    return out


def encode_one(bits):
    """One sequence through the encoder, as a one-row block."""
    return conv_encode([bits])[0]


def decode_one(llrs):
    """One codeword through the decoder, as a one-row block."""
    return viterbi_decode_soft([llrs])[0]


def correlation(info_bits, llrs):
    """Path score ``-sum(c * llr)`` of the codeword of ``info_bits``."""
    return -float(np.dot(encode_one(info_bits), llrs))


class TestEncoder:
    def test_empty_input_flush_only(self):
        out = encode_one([])
        assert out.size == 12
        assert not out.any()

    def test_all_zero_codeword(self):
        assert not encode_one(np.zeros(10, dtype=int)).any()

    def test_impulse_response_matches_generators(self):
        out = encode_one([1, 0, 0, 0, 0, 0, 0])
        # interleaved streams reproduce the octal 133/171 tap patterns
        assert np.array_equal(out[0:14:2], [1, 0, 1, 1, 0, 1, 1])
        assert np.array_equal(out[1:14:2], [1, 1, 1, 1, 0, 0, 1])

    def test_rate_and_termination(self):
        bits = np.random.default_rng(0).integers(0, 2, 37)
        assert encode_one(bits).size == 2 * (37 + 6)

    @pytest.mark.parametrize("n_rows", [1, 2, 5])
    @pytest.mark.parametrize("n_bits", [0, 1, LINK_INFO_BITS])
    def test_block_rows_match_single_encodes(self, n_rows, n_bits):
        rng = np.random.default_rng(100 * n_rows + n_bits)
        bits = rng.integers(0, 2, (n_rows, n_bits))
        bits[0] = 1  # a full register at the end of a row must not leak into the next
        coded = conv_encode(bits)
        assert coded.shape == (n_rows, 2 * (n_bits + 6))
        for row, got in zip(bits, coded):
            assert np.array_equal(got, reference_encode(row))
            assert np.array_equal(got, encode_one(row))

    def test_rejects_non_binary_and_higher_rank_input(self):
        with pytest.raises(ValueError, match="0/1"):
            conv_encode([[0, 1], [2, 0]])
        with pytest.raises(ValueError, match="block"):
            conv_encode(np.zeros((2, 2, 3), dtype=int))
        with pytest.raises(ValueError, match="block"):
            conv_encode(np.zeros(3, dtype=int))  # one sequence is a one-row block

    def test_rejects_fractional_bits(self):
        # Cast to int first, 0.7 would encode as 0.
        with pytest.raises(ValueError, match="0/1"):
            conv_encode([[0.7, 1]])


class TestViterbi:
    def test_noiseless_inversion(self):
        rng = np.random.default_rng(1)
        for trial in range(5):
            bits = rng.integers(0, 2, 80 + trial)
            decoded = decode_one(to_llrs(encode_one(bits)))
            assert np.array_equal(decoded, bits)

    def test_single_flip_corrected(self):
        # Free distance 10 of this code absorbs one hard flip easily.
        rng = np.random.default_rng(2)
        bits = rng.integers(0, 2, 100)
        llrs = to_llrs(encode_one(bits))
        for pos in (0, 37, 150):
            corrupted = llrs.copy()
            corrupted[pos] = -corrupted[pos]
            assert np.array_equal(decode_one(corrupted), bits)

    def test_all_zero_llrs_tie_break(self):
        decoded = decode_one(np.zeros(80))
        assert not decoded.any()

    def test_soft_beats_hard_scaling(self):
        # LLR magnitudes matter: a strongly trusted wrong bit flanked by
        # weakly trusted corrections still decodes.
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, 60)
        llrs = to_llrs(encode_one(bits), magnitude=1.0)
        noisy = llrs + 0.45 * rng.standard_normal(llrs.size)
        assert np.array_equal(decode_one(noisy), bits)

    def test_output_dtype_and_shape(self):
        # One codeword per row.
        for n_rows in (1, 2):
            out = viterbi_decode_soft(np.ones((n_rows, 40)))
            assert out.dtype == np.dtype(int)
            assert out.shape == (n_rows, 14)

    def test_rejects_higher_rank_input(self):
        with pytest.raises(ValueError, match="block"):
            viterbi_decode_soft(np.ones((2, 2, 40)))
        with pytest.raises(ValueError, match="block"):
            viterbi_decode_soft(np.ones(40))  # one codeword is a one-row block

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_llrs(self, bad):
        llrs = np.ones((1, 40))
        llrs[0, 17] = bad
        with pytest.raises(ValueError, match="finite"):
            viterbi_decode_soft(llrs)

    def test_rejects_odd_and_short_input(self):
        with pytest.raises(ValueError, match="even"):
            viterbi_decode_soft(np.ones((1, 13)))
        with pytest.raises(ValueError, match="flush tail"):
            viterbi_decode_soft(np.ones((1, 10)))


class TestBlockDecode:
    """A block call decodes each row exactly as a one-row block of that row."""

    @pytest.mark.parametrize("n_rows", [1, 3, 17])
    def test_rows_match_single_decodes(self, n_rows):
        rng = np.random.default_rng(300 + n_rows)
        bits = rng.integers(0, 2, (n_rows, LINK_INFO_BITS))
        coded = conv_encode(bits)
        # Integer LLRs at mixed noise levels exercise the tie-break per row.
        sigma = rng.choice([0.7, 1.5, 4.0], size=(n_rows, 1))
        llrs = np.round(to_llrs(coded, 1.0) + sigma * rng.standard_normal(coded.shape))
        decoded = viterbi_decode_soft(llrs)
        assert decoded.shape == (n_rows, LINK_INFO_BITS)
        for row, got in zip(llrs, decoded):
            assert np.array_equal(got, decode_one(row))

    def test_all_zero_rows_among_noisy_rows(self):
        rng = np.random.default_rng(310)
        llrs = rng.normal(0.0, 2.0, (5, 2 * (LINK_INFO_BITS + 6)))
        llrs[[0, 2, 4]] = 0.0
        decoded = viterbi_decode_soft(llrs)
        assert not decoded[[0, 2, 4]].any()
        for row in (1, 3):
            assert np.array_equal(decoded[row], reference_decode(llrs[row]))

    @pytest.mark.parametrize("row", [0, 2, 3])
    def test_rejects_non_finite_value_in_any_row(self, row):
        llrs = np.ones((4, 40))
        llrs[row, 11] = np.nan
        with pytest.raises(ValueError, match="finite"):
            viterbi_decode_soft(llrs)

    def test_block_checks_length_and_tail(self):
        with pytest.raises(ValueError, match="even"):
            viterbi_decode_soft(np.ones((3, 13)))
        with pytest.raises(ValueError, match="flush tail"):
            viterbi_decode_soft(np.ones((3, 10)))


class TestViterbiMatchesReference:
    """The butterfly decoder returns exactly the per-step loop's bits."""

    def test_tie_heavy_inputs(self):
        # Integer LLRs make equal path metrics common, so every tie-break is
        # exercised; a zero LLR ties its two branches outright.
        rng = np.random.default_rng(41)
        ties = 0
        for _ in range(320):
            n_steps = int(rng.integers(6, 121))
            llrs = np.round(rng.normal(0.0, rng.choice([0.7, 1.5, 4.0]), 2 * n_steps))
            ties += int(np.count_nonzero(llrs == 0))
            expected = reference_decode(llrs)
            decoded = decode_one(llrs)
            assert decoded.dtype == expected.dtype
            assert decoded.shape == expected.shape
            assert np.array_equal(decoded, expected)
        assert ties > 1000

    # Block sizes of link-gls and link-fast calls, link.DECODE_BLOCK and one
    # more; 236 steps is a default link frame, 6 steps the bare flush tail.
    @pytest.mark.parametrize("n_steps", [6, 7, 65, 236])
    @pytest.mark.parametrize("n_rows", [4, 6, 32, 33])
    def test_block_rows_tie_heavy(self, n_rows, n_steps):
        # The traceback reads row b's decision at step t from its own offset
        # in the decision buffer; every row and step is checked on its own.
        rng = np.random.default_rng(1000 * n_rows + n_steps)
        sigma = rng.choice([0.7, 1.5, 4.0], size=(n_rows, 1))
        llrs = np.round(sigma * rng.standard_normal((n_rows, 2 * n_steps)))
        llrs[n_rows // 2] = 0.0
        decoded = viterbi_decode_soft(llrs)
        assert decoded.shape == (n_rows, n_steps - 6)
        for row, got in zip(llrs, decoded):
            assert np.array_equal(got, reference_decode(row))

    def test_noisy_link_length_codewords(self):
        rng = np.random.default_rng(42)
        for sigma in (0.5, 1.0, 1.5):
            for _ in range(8):
                bits = rng.integers(0, 2, LINK_INFO_BITS)
                llrs = to_llrs(encode_one(bits), 1.0) + sigma * rng.standard_normal(2 * (LINK_INFO_BITS + 6))
                decoded = decode_one(llrs)
                assert decoded.shape == (LINK_INFO_BITS,)
                assert np.array_equal(decoded, reference_decode(llrs))


class TestViterbiIsMaximumLikelihood:
    @pytest.mark.parametrize("k", range(1, 9))
    def test_exhaustive_short_blocks(self, k):
        rng = np.random.default_rng(100 + k)
        words = [np.array(w) for w in itertools.product((0, 1), repeat=k)]
        for trial in range(4):
            # Half the trials use integer LLRs, where the maximum is often tied.
            llrs = rng.normal(0.0, 2.0, 2 * (k + 6))
            if trial % 2:
                llrs = np.round(llrs)
            best = max(correlation(w, llrs) for w in words)
            decoded = decode_one(llrs)
            assert decoded.shape == (k,)
            assert correlation(decoded, llrs) == pytest.approx(best, rel=1e-12, abs=1e-12)
