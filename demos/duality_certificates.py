"""Walkthrough: how closely the constrained fit is solved by its convex dual.

The geometry-constrained least-squares problem is non-convex (quadratic
equalities).  Its dual semidefinite program gives a certified lower bound
(weak duality); that the bound is attained is not proven, but measured.
The script has five sections:

1. the duality gap on random instances: a certified oracle for the primal
   minimum (branch-and-bound on the torus of time phases) brackets it from
   both sides to 1e-9 relative, so each instance is either tight or has a
   proven gap,
2. the interior-point dual solve with its feasibility certificate, and the
   estimate recovered from it,
3. the dual bound and the oracle's certified lower bound as hard floors:
   no random feasible point costs less, and the points sampled are
   feasible to rounding,
4. the regularity construction behind the zero-gap argument, checked at
   machine precision for odd and even n, the link's n = 8 included,
5. how often `gls` needs the dual at all on the coded link: a Newton solve
   on the time phases is certified globally optimal by its closed-form
   Lagrange multipliers on most frames, and only the rest go through the
   interior-point solve, which reports the measured gap.
"""

import numpy as np

from pnofdm.estimators import build_ls_system, gls
from pnofdm.link import DEFAULT_MODEL, LinkConfig, make_frame_pair, make_model
from pnofdm.sdp import kkt_recover, solve_dual
from pnofdm.sproc import (
    GAP_KINDS,
    duality_gap,
    primal_oracle,
    random_gram_instance,
    regularity_matrix,
)

print("=== 1. Duality gap on random instances ===")
kinds = dict.fromkeys(GAP_KINDS, 0)
# The last instance is the acceptance suite's worst one.
for n, k, seed in ((3, 6, 0), (3, 6, 1), (5, 10, 2), (5, 10, 72_000)):
    M, b = random_gram_instance(n, k, seed)
    g = duality_gap(M, b)
    kinds[g.kind] += 1
    print(f"n={n}: {g.lower:+.8f} <= p* <= {g.p_star:+.8f}  d*={g.d_star:+.8f}  "
          f"relative gap={abs(g.relative):.1e}  {g.kind}")
print(", ".join(f"{v} {k}" for k, v in kinds.items()))

print("\n=== 2. Certificate and recovery on one instance ===")
M, b = random_gram_instance(5, 10, 7)
sol = solve_dual(M, b)
print(f"status={sol.status}, Newton steps={sol.iterations}, "
      f"LMI min eigenvalue={sol.min_eig:.2e} (certified feasible)")
x, _ = kkt_recover(M, b, sol)
print(f"recovered estimate norm={np.linalg.norm(x):.9f} (feasible is 1)")
oracle = primal_oracle(M, b)
print(f"distance to oracle argmin: {np.linalg.norm(x - oracle.x):.2e}")

print("\n=== 3. The dual bound is a hard floor for feasible points ===")
rng = np.random.default_rng(0)
phases = rng.uniform(0, 2 * np.pi, (100_000, 5))
x5 = np.exp(1j * phases) / np.sqrt(5)  # feasible time samples
J = np.einsum("bi,ij,bj->b", x5.conj(), M, x5).real - 2 * np.real(x5 @ b.conj())
print(f"worst feasibility defect max|n|x_i|^2 - 1| of the samples: {np.max(np.abs(5 * np.abs(x5) ** 2 - 1)):.1e}")
print(f"min cost over 1e5 random feasible points: {J.min():+.10f} >= tau = {sol.tau:+.10f}, "
      f"oracle lower = {oracle.lower:+.10f}")

print("\n=== 4. Regularity construction ===")
for n in (3, 4, 8, 9):
    Q = regularity_matrix(n)
    rank = np.linalg.matrix_rank(Q, tol=1e-10)
    colsum = np.max(np.abs(Q @ np.ones(n + 1)))
    print(f"n={n}: rank(Q)={rank} (target {n}), |Q·1|={colsum:.1e}")

print("\n=== 5. Local certificate on link frames ===")
for snr_db in (10.0, 30.0):
    cfg = LinkConfig(snr_db=snr_db)
    model = make_model("ppt", cfg.n_c, DEFAULT_MODEL[1])
    certified, gap, rel_gap = 0, 0.0, 0.0
    for frame, _ in make_frame_pair(cfg, np.random.SeedSequence([2024, int(snr_db)]).spawn(20)):
        sys = build_ls_system(frame, model)
        diag = gls(sys, model).diagnostics
        certified += diag.certified
        gap = max(gap, diag.gap)
        rel_gap = max(rel_gap, diag.gap / (1 + abs(diag.solver.tau)))
    print(f"{snr_db:g} dB: {certified} of 20 frames certified locally, {20 - certified} "
          f"through the dual SDP; worst gap {gap:.2e} (relative {rel_gap:.1e})")
