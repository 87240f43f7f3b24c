"""Walkthrough: one OFDM symbol, five phase-noise estimators.

Simulates a single desk-scale frame (128 subcarriers, 10 scattered pilots,
30 dB, moderate phase noise) and runs every estimator on the same received
vector.  For each estimate the script reports the squared distance to the
true spectral vector, the pilot-fit cost, the geometry residual, and the
amplitude/phase error split of the inverse-transform samples.
"""

import numpy as np

from pnofdm.estimators import error_decomposition, estimate_frame
from pnofdm.link import DEFAULT_MODEL, LinkConfig, decode_frame, make_frame_pair, make_model
from pnofdm.spectral import spectral_vector

cfg = LinkConfig(snr_db=30.0, rho=0.02)
t_kind, n = DEFAULT_MODEL  # the receiver's reduction model
model = make_model(t_kind, cfg.n_c, n)
frame, lookahead = make_frame_pair(cfg, [2024])[0]
delta_true = spectral_vector(frame.theta)

print(f"frame: {cfg.n_c} subcarriers, pilots at {frame.pilot_idx.tolist()}")
print(f"info bits {frame.info_bits.size}, noise variance {frame.sigma2:.2e}\n")

print(f"{'estimator':10s} {'|d_hat-d|^2':>12s} {'pilot cost':>11s} "
      f"{'geo resid':>10s} {'max|1-kappa|':>13s} {'med|omega|':>11s} {'bit err':>8s}")
for name in ("cpe", "uls", "nls", "gls", "cis", "genie"):
    out = estimate_frame(name, frame, lookahead, model)
    err = np.sum(np.abs(out.delta_hat - delta_true) ** 2)
    dec = error_decomposition(out.delta_hat, frame.theta)
    bits = decode_frame([frame], [out.delta_hat])[0]
    nerr = int(np.count_nonzero(bits != frame.info_bits))
    cost = "-" if out.diagnostics.cost is None else f"{out.diagnostics.cost:.5f}"
    print(f"{name:10s} {err:12.6f} {cost:>11s} {out.diagnostics.geometry_residual:10.2e} "
          f"{np.max(np.abs(dec.eps)):13.4f} {np.median(np.abs(dec.omega)):11.4f} {nerr:8d}")

print("""
Reading the table:
 * cpe corrects the shared rotation only: its inter-carrier leakage shows up
   as the largest spectral error.
 * uls fits all reduced components but its amplitude factors drift from 1
   (nonzero 1-kappa): the estimate has left the geometry set.
 * nls and gls are exactly on the geometry (residual ~1e-15, kappa = 1 by
   construction after the constant-modulus projection).
 * gls additionally minimizes the pilot cost over the geometry, so its cost
   sits between uls (unconstrained optimum) and nls (heuristic projection).
""")
