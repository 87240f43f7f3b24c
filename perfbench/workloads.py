"""The benchmark's workloads: set-up, one round of work, and output checks.

A workload runs in rounds.  A round calls the public entry point once per
cell, with inputs derived only from ``(seed, round, cell)``, so a run replays
exactly from its seed and two passes over the same rounds see the same
inputs.  ``round_s`` is a round's nominal time on a 2.1 GHz Xeon core; a run
of ``seconds`` does a fixed number of rounds derived from it, so the work
done, its outputs and its failures depend only on the seed and ``seconds``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from pnofdm import estimators, link, sproc

SNRS_DB = (10.0, 30.0)
SETUP_SEED = 20240601

# Tolerances of the output checks.
GEOMETRY_TOL = 1e-9  # geometry residual of every nls/gls estimate
MIN_EIG_TOL = 1e-8  # times (1 + ||M||_2): certificate of every optimal dual
WEAK_DUALITY_TOL = 1e-6  # primal cost minus dual bound may not go below -this
GAP_REL_FAIL = 1e-3  # duality-check instance fails above this relative gap
ABOVE_BOUND_REL = 1e-6  # gls cost above tau by more than this counts as a miss


@dataclass
class CellRun:
    """One call into the program for one cell of one round."""

    cell: str
    ops: int
    failed: int
    outputs: tuple  # what must replay exactly on the same seed
    bit_errors: int = 0
    rel_gap: float = 0.0


@dataclass
class Checks:
    """Output-check failures and the per-estimate facts the checks read."""

    problems: list = field(default_factory=list)
    gls_rel_gap: dict = field(default_factory=lambda: {snr: [] for snr in SNRS_DB})
    snr: float | None = None

    def dual_certificate(self, where, sol, M):
        if sol.status == "optimal" and sol.min_eig < -MIN_EIG_TOL * (1 + np.linalg.norm(M, 2)):
            self.problems.append(f"{where}: dual min_eig {sol.min_eig:.3e} breaks the certificate")

    def hook_estimators(self, patches):
        """Check every nls/gls estimate where ``estimate_frame`` calls them."""

        def make_nls(fn):
            def nls(sys, model, **kw):
                out = fn(sys, model, **kw)
                self._geometry("nls", out)
                return out

            return nls

        def make_gls(fn):
            def gls(sys, model, **kw):
                out = fn(sys, model, **kw)
                self._geometry("gls", out)
                sol = out.diagnostics.solver
                self.dual_certificate(f"gls@{self.snr:g}dB", sol, sys.M)
                gap = out.diagnostics.cost - sys.const_term - sol.tau
                if gap < -WEAK_DUALITY_TOL:
                    self.problems.append(f"gls@{self.snr:g}dB: cost {gap:.3e} below the dual bound")
                self.gls_rel_gap[self.snr].append(gap / (1 + abs(sol.tau)))
                return out

            return gls

        patches.replace(estimators, "nls", make_nls)
        patches.replace(estimators, "gls", make_gls)

    def _geometry(self, name, out):
        res = out.diagnostics.geometry_residual
        if not res <= GEOMETRY_TOL:
            self.problems.append(f"{name}@{self.snr:g}dB: geometry residual {res:.3e}")


class LinkWorkload:
    """Coded BER cells ``run_link(estimator, snr)``, common frames per SNR."""

    def __init__(self, ids, frames_per_call, round_s):
        self.round_s = round_s
        self.cells = [(est, snr) for snr in SNRS_DB for est in ids]
        self.frames_per_call = frames_per_call
        self.configs = {snr: link.LinkConfig(snr_db=snr) for snr in SNRS_DB}

    def setup(self):
        """Model build, channel-profile cache and the first frame of every cell."""
        for est, snr in self.cells:
            link.run_link(self.configs[snr], est, 1, SETUP_SEED)

    def run_round(self, seed, rnd, checks: Checks, tracer=None):
        runs = []
        for est, snr in self.cells:
            cell = f"{est}@{snr:g}dB"
            checks.snr = snr
            if tracer is not None:
                tracer.cell = f"{cell}/r{rnd}"
            rec = link.run_link(self.configs[snr], est, self.frames_per_call,
                                [seed, rnd, SNRS_DB.index(snr)])
            runs.append(CellRun(cell, rec.frames, rec.flagged_frames,
                                tuple(int(e) for e in rec.frame_errors),
                                bit_errors=rec.bit_errors))
        return runs


class DualityWorkload:
    """``duality_gap`` on random Gram instances, two n=3 to one n=5 per round.

    The 2:1 mix follows the acceptance suite's strong-duality criterion.
    """

    sizes = ((3, 6), (3, 6), (5, 10))
    round_s = 4.8

    def setup(self):
        sproc.duality_gap(*sproc.random_gram_instance(3, 6, SETUP_SEED))

    def run_round(self, seed, rnd, checks: Checks, tracer=None):
        runs = []
        for j, (n, k) in enumerate(self.sizes):
            cell = f"n{n}k{k}"
            if tracer is not None:
                tracer.cell = f"{cell}/r{rnd}/{j}"
            M, b = sproc.random_gram_instance(n, k, [seed, rnd, j])
            g = sproc.duality_gap(M, b)
            sol = g.solution
            where = f"{cell} seed={[seed, rnd, j]}"
            checks.dual_certificate(where, sol, M)
            if sol.status == "optimal" and g.gap < -WEAK_DUALITY_TOL:
                checks.problems.append(f"{where}: gap {g.gap:.3e} breaks weak duality")
            failed = sol.status != "optimal" or g.relative > GAP_REL_FAIL or g.gap < -WEAK_DUALITY_TOL
            runs.append(CellRun(cell, 1, int(failed), (g.p_star, g.d_star, sol.status),
                                rel_gap=float(g.relative)))
        return runs


WORKLOADS = {
    "link-fast": lambda: LinkWorkload(("cpe", "cis", "uls", "nls", "genie"), frames_per_call=6, round_s=0.35),
    "link-gls": lambda: LinkWorkload(("gls",), frames_per_call=4, round_s=0.38),
    "duality-check": DualityWorkload,
}

# Spans that must record at least one call in a traced run of each workload.
_LINK_SPANS = ("link.run_link", "link.make_frame_pair", "coding.conv_encode", "qam.qam16_map",
               "link.decode_frame", "link.compensate", "qam.qam16_llr",
               "coding.viterbi_decode_soft")
EXPECTED_SPANS = {
    "link-fast": _LINK_SPANS + ("estimators.build_ls_system",) + tuple(
        f"estimators.estimate_frame.{i}" for i in ("cpe", "cis", "uls", "nls", "genie")),
    "link-gls": _LINK_SPANS + ("estimators.build_ls_system", "estimators.estimate_frame.gls",
                               "sdp.solve_dual", "sdp.kkt_recover"),
    "duality-check": ("sproc.duality_gap", "sproc.primal_oracle.n3", "sproc.primal_oracle.n5",
                      "sdp.solve_dual"),
}


def install_trace(tracer, patches):
    """Wrap each layer's public functions where their caller module looks them up."""
    for module, attr, name in (
        (link, "run_link", "link.run_link"),
        (link, "make_frame_pair", "link.make_frame_pair"),
        (link, "conv_encode", "coding.conv_encode"),
        (link, "qam16_map", "qam.qam16_map"),
        (link, "decode_frame", "link.decode_frame"),
        (link, "compensate", "link.compensate"),
        (link, "qam16_llr", "qam.qam16_llr"),
        (link, "viterbi_decode_soft", "coding.viterbi_decode_soft"),
        (estimators, "build_ls_system", "estimators.build_ls_system"),
        (sproc, "duality_gap", "sproc.duality_gap"),
    ):
        tracer.wrap(patches, module, attr, name)
    tracer.wrap(patches, link, "estimate_frame", lambda a: f"estimators.estimate_frame.{a[0]}")
    tracer.wrap(patches, sproc, "primal_oracle", lambda a: f"sproc.primal_oracle.n{len(a[1])}",
                note=lambda a, r: {"grid_points": r.grid_points ** len(a[1]), "sweeps": r.sweeps})
    solve_note = lambda a, r: {"steps": r.iterations, "status": r.status}  # noqa: E731
    tracer.wrap(patches, estimators, "solve_dual", "sdp.solve_dual", note=solve_note)
    tracer.wrap(patches, sproc, "solve_dual", "sdp.solve_dual", note=solve_note)
    tracer.wrap(patches, estimators, "kkt_recover", "sdp.kkt_recover",
                note=lambda a, r: {"full_rank": bool(r[1].full_rank)})
