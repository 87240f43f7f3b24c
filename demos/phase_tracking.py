"""Walkthrough: what each estimator's phase trajectory actually looks like.

Reconstructs the estimated phase trajectory theta_hat from each estimator's
spectral vector on a single frame and prints a coarse text plot.  The
low-frequency model yields a smooth approximation, the piecewise-constant
geometry-preserving model a staircase, and the common-phase interpolation a
straight line; none can follow the fast wiggles, which is exactly the
dimensionality reduction at work.
"""

import numpy as np

from pnofdm.estimators import estimate_frame
from pnofdm.link import DEFAULT_MODEL, LinkConfig, make_frame_pair, make_model
from pnofdm.spectral import phase_trajectory

cfg = LinkConfig(snr_db=30.0, rho=0.02)
frame, lookahead = make_frame_pair(cfg, [88])[0]

traces = {"true": np.unwrap(frame.theta)}
for t_kind, name in (("lft", "uls"), ("ppt", "uls"), ("ppt", "gls")):
    model = make_model(t_kind, cfg.n_c, DEFAULT_MODEL[1])
    out = estimate_frame(name, frame, lookahead, model)
    traces[f"{name}/{t_kind}"] = np.unwrap(phase_trajectory(out.delta_hat))
out = estimate_frame("cis", frame, lookahead, None)
traces["cis"] = np.unwrap(phase_trajectory(out.delta_hat))

# Align everything to the true trace modulo 2*pi for display.
ref = traces["true"]
for key, tr in traces.items():
    shift = 2 * np.pi * np.round(np.mean(tr - ref) / (2 * np.pi))
    traces[key] = tr - shift

print("sample   " + "".join(f"{k:>12s}" for k in traces))
for n in range(0, cfg.n_c, 8):
    print(f"{n:6d}   " + "".join(f"{traces[k][n]:12.3f}" for k in traces))

rms = {k: np.sqrt(np.mean((traces[k] - ref) ** 2)) for k in traces if k != "true"}
print("\nrms tracking error (radians):")
for k, v in sorted(rms.items(), key=lambda kv: kv[1]):
    print(f"  {k:10s} {v:.4f}")
