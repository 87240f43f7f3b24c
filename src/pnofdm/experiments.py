"""Configuration-driven Monte-Carlo studies and the verification suite.

Scenarios reproduce the qualitative studies at desk scale (128 subcarriers by
default) and emit CSV files whose header comments carry the full config echo,
its hash, the master seed, and the seed-splitting rule, so every output is
reproducible byte for byte from its own metadata.

Config format: flat ``key = value`` lines, ``#`` comments, unknown keys are
errors.  The only required key is ``scenario``; every other key overrides the
scenario's defaults.  ``snr_db`` and ``rho`` take one or more comma-separated
values; only the key a scenario sweeps (:attr:`Scenario.sweep`: ``snr_db`` for
the BER scenarios, ``rho`` for ``mse-vs-bandwidth``) may hold more than one,
and every value is checked as a link config.  A key the scenario does not
read may only repeat its default, the value the CSV metadata echoes:
``phase-error-pdf`` (``uls`` under both models) rejects any other
``estimators`` or ``t_kind``, ``ber-model-compare`` (both models) any other
``t_kind``, and ``trajectory-traces`` (one frame, both models) any other
``trials`` or ``t_kind``.  One tap (``taps = 1``) has a flat channel
profile, so no scenario then reads ``f_sub`` or ``coherence_bw``.  A
coherence bandwidth the taps cannot reach and a negative ``seed`` are config
errors too, caught before anything runs.

``gls`` needs the geometry-preserving model, so every scenario leaves it out
of the runs under ``t_kind = lft`` (:func:`_runnable`): no ``gls`` row or
column is written for that model.  ``estimators`` must hold at least one
id, each once, and one that runs under each model the scenario runs.  Each
operating point is one :func:`pnofdm.link.simulate` pass over all of them.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .dimred import pc_ppt, validate_ppt
from .estimators import ESTIMATOR_IDS, error_decomposition, estimate_frame
from .link import LinkConfig, ber_records, make_frame_pair, make_model, simulate
from .phasenoise import phase_trajectory, spectral_vector, wiener_realization
from .spectral import geometry_residual
from .sproc import GAP_KINDS, duality_gap, qmatnew_nullspace, random_gram_instance, regularity_matrix

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "SCENARIOS",
    "VerifyReport",
    "parse_config",
    "run_scenario",
    "verify",
]

SEED_RULE = "numpy SeedSequence(master_seed).spawn(trial_index)"


class ConfigError(ValueError):
    """Invalid experiment configuration; the message lists every violation."""


def _parse_float_list(text: str):
    return tuple(float(v) for v in text.split(","))


def _parse_str_list(text: str):
    return tuple(v.strip() for v in text.split(",") if v.strip())


_KEY_PARSERS = {
    "scenario": str,
    "n_c": int,
    "n": int,
    "t_kind": str,
    "pilot_fraction": float,
    "f_sub": float,
    "taps": int,
    "coherence_bw": float,
    "rho": _parse_float_list,
    "snr_db": _parse_float_list,
    "estimators": _parse_str_list,
    "trials": int,
    "seed": int,
}


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str
    n_c: int = LinkConfig.n_c
    n: int = LinkConfig.n_est
    t_kind: str = LinkConfig.t_kind
    pilot_fraction: float = LinkConfig.pilot_fraction
    f_sub: float = LinkConfig.f_sub
    taps: int = LinkConfig.taps
    coherence_bw: float = LinkConfig.coherence_bw
    rho: tuple = (LinkConfig.rho,)
    snr_db: tuple = (LinkConfig.snr_db,)
    estimators: tuple = ("cpe", "uls", "nls", "gls")
    trials: int = 500
    seed: int = 20240801

    def link_config(self, *, snr_db=None, rho=None, t_kind=None) -> LinkConfig:
        """The link at one value of each list key; a key not passed must hold one value."""
        (snr_db,) = self.snr_db if snr_db is None else (snr_db,)
        (rho,) = self.rho if rho is None else (rho,)
        return LinkConfig(
            n_c=self.n_c,
            f_sub=self.f_sub,
            pilot_fraction=self.pilot_fraction,
            snr_db=snr_db,
            taps=self.taps,
            coherence_bw=self.coherence_bw,
            rho=rho,
            n_est=self.n,
            t_kind=self.t_kind if t_kind is None else t_kind,
        )

    def violations(self) -> list[str]:
        out = []
        scenario = SCENARIOS.get(self.scenario)
        if scenario is None:
            out.append(f"unknown scenario {self.scenario!r}; see list-scenarios")
        if self.trials < 1:
            out.append("trials must be positive")
        if self.seed < 0:
            out.append("seed must be non-negative")
        bad = [e for e in self.estimators if e not in ESTIMATOR_IDS]
        if bad:
            out.append(f"unknown estimators {bad}; valid ids are {sorted(ESTIMATOR_IDS)}")
        if len(set(self.estimators)) < len(self.estimators) or not self.estimators:
            out.append(f"estimators must be at least one distinct id, got {list(self.estimators)}")
        elif scenario is not None:  # a scenario that does not read t_kind runs both models
            for t_kind in ("ppt", "lft") if "t_kind" in scenario.unread else (self.t_kind,):
                if not _runnable(self.estimators, t_kind):
                    out.append(f"estimators {list(self.estimators)} run nothing under t_kind = {t_kind!r}")
        for key in ("snr_db", "rho"):
            if len(getattr(self, key)) > 1 and scenario is not None and key != scenario.sweep:
                out.append(f"scenario {self.scenario!r} takes one value of key {key!r}")
        links = [self.link_config(snr_db=s, rho=r) for s in self.snr_db for r in self.rho]
        out.extend(dict.fromkeys(v for link in links for v in link.violations()))
        return out

    def echo_lines(self) -> list[str]:
        items = []
        for key in _KEY_PARSERS:
            value = getattr(self, key)
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            items.append(f"{key} = {value}")
        return items

    def config_hash(self) -> str:
        return hashlib.sha256("\n".join(self.echo_lines()).encode()).hexdigest()[:16]


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat key-value format, rejecting unknown or repeated keys."""
    values = {}
    problems = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            problems.append(f"line {lineno}: expected 'key = value', got {raw!r}")
            continue
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _KEY_PARSERS:
            problems.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in values:
            problems.append(f"line {lineno}: duplicate key {key!r}")
            continue
        try:
            values[key] = _KEY_PARSERS[key](val)
        except ValueError:
            problems.append(f"line {lineno}: cannot parse value for {key!r}: {val!r}")
    if "scenario" not in values and not problems:
        problems.append("missing required key 'scenario'")
    if problems:
        raise ConfigError("; ".join(problems))
    scenario = values.pop("scenario")
    base = SCENARIOS.get(scenario)
    cfg = (base.defaults if base else ExperimentConfig(scenario=scenario))
    cfg = replace(cfg, scenario=scenario, **values)
    if base:
        unread = base.unread
        if cfg.taps == 1:
            unread += ("f_sub", "coherence_bw")  # one tap: the channel profile is flat
        ignored = [k for k in unread if getattr(cfg, k) != getattr(base.defaults, k)]
        problems = [f"scenario {scenario!r} does not read key {k!r}" for k in ignored]
    problems += cfg.violations()
    if problems:
        raise ConfigError("; ".join(problems))
    return cfg


def _format(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    text = str(value)
    if any(ch in text for ch in ',"\n'):
        text = '"' + text.replace('"', '""') + '"'
    return text


def write_csv(path: Path, meta: dict, columns, rows) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"# {k} = {v}" for k, v in meta.items()]
    lines.append(",".join(columns))
    lines.extend(",".join(_format(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")
    return path


def _meta(cfg: ExperimentConfig) -> dict:
    meta = {
        "generator": f"pnofdm {__version__}",
        "scenario": cfg.scenario,
        "config_hash": cfg.config_hash(),
        "seed": cfg.seed,
        "seed_rule": SEED_RULE,
    }
    for line in cfg.echo_lines():
        key, _, value = line.partition(" = ")
        meta[f"cfg.{key}"] = value
    return meta


def _runnable(estimators, t_kind: str) -> tuple:
    """``estimators`` that can run under ``t_kind``: ``gls`` requires ``ppt``."""
    return tuple(est for est in estimators if est != "gls" or t_kind == "ppt")


def _run_ber(cfg: ExperimentConfig, out_dir: Path, *, t_kind=None, filename="ber_vs_snr.csv"):
    rows = []
    for snr in cfg.snr_db:
        link = cfg.link_config(snr_db=snr, t_kind=t_kind)
        for r in ber_records(link, _runnable(cfg.estimators, link.t_kind), cfg.trials, cfg.seed).values():
            rows.append((r.snr_db, r.estimator, r.frames, r.bit_errors, r.ber, r.ci95_low, r.ci95_high))
    columns = ("snr_db", "estimator", "frames", "bit_errors", "ber", "ci95_low", "ci95_high")
    return [write_csv(out_dir / filename, _meta(cfg), columns, rows)]


def _run_ber_compare(cfg: ExperimentConfig, out_dir: Path):
    return (
        _run_ber(cfg, out_dir, t_kind="ppt", filename="ber_vs_snr_ppt.csv")
        + _run_ber(cfg, out_dir, t_kind="lft", filename="ber_vs_snr_lft.csv")
    )


def _scores(cfg: ExperimentConfig, link: LinkConfig, estimators, score) -> dict:
    """``score(output, frame)`` on every trial of one :func:`simulate` pass, one array per estimator."""
    scores = {est: [] for est in estimators}
    for frames, results in simulate(link, estimators, cfg.trials, cfg.seed):
        for est, outputs in results.items():
            scores[est] += [score(res, frame) for (res, _), frame in zip(outputs, frames)]
    return {est: np.array(vals) for est, vals in scores.items()}


def _mse_trials(cfg: ExperimentConfig, rho: float):
    """Per-trial squared reduced-spectrum errors for each estimator."""
    link = cfg.link_config(rho=rho)
    Th = make_model(link).T.conj().T

    def squared_error(res, frame):
        gamma_hat = res.gamma_hat if res.gamma_hat is not None else Th @ res.delta_hat
        return float(np.sum(np.abs(gamma_hat - Th @ spectral_vector(frame.theta)) ** 2))

    return _scores(cfg, link, _runnable(cfg.estimators, link.t_kind), squared_error)


def _run_mse(cfg: ExperimentConfig, out_dir: Path):
    rows = []
    for rho in cfg.rho:
        per_est = _mse_trials(cfg, rho)
        for est, vals in per_est.items():
            se = float(np.std(vals, ddof=1) / np.sqrt(vals.size)) if vals.size > 1 else 0.0
            mean = float(np.mean(vals))
            rows.append((rho, est, vals.size, mean, mean - 1.96 * se, mean + 1.96 * se))
    columns = ("rho", "estimator", "trials", "mse", "ci95_low", "ci95_high")
    return [write_csv(out_dir / "mse_vs_rho.csv", _meta(cfg), columns, rows)]


def _fd_histogram(label, samples: np.ndarray) -> list:
    """Freedman-Diaconis histogram rows ``(label, bin_left, bin_right, count, density)``."""
    counts, edges = np.histogram(samples, bins="fd")
    density = counts / (counts.sum() * np.diff(edges))
    return [(label, edges[i], edges[i + 1], int(counts[i]), density[i]) for i in range(counts.size)]


def _omega_samples(cfg: ExperimentConfig, t_kind: str) -> np.ndarray:
    """Per-sample ``uls`` phase errors of every trial, concatenated."""
    omega = _scores(cfg, cfg.link_config(t_kind=t_kind), ("uls",),
                    lambda res, frame: error_decomposition(res.delta_hat, frame.theta).omega)
    return omega["uls"].ravel()


def _run_omega(cfg: ExperimentConfig, out_dir: Path):
    rows = [row for t in ("ppt", "lft") for row in _fd_histogram(t, _omega_samples(cfg, t))]
    columns = ("t_kind", "bin_left", "bin_right", "count", "density")
    return [write_csv(out_dir / "omega_pdf.csv", _meta(cfg), columns, rows)]


def _run_errpdf(cfg: ExperimentConfig, out_dir: Path):
    samples = _scores(cfg, cfg.link_config(), _runnable(cfg.estimators, cfg.t_kind),
                      lambda res, frame: float(np.sum(np.abs(res.delta_hat - spectral_vector(frame.theta)) ** 2)))
    rows = [row for est, vals in samples.items() for row in _fd_histogram(est, vals)]
    columns = ("estimator", "bin_left", "bin_right", "count", "density")
    return [write_csv(out_dir / "error_pdf.csv", _meta(cfg), columns, rows)]


def _run_realization(cfg: ExperimentConfig, out_dir: Path):
    link = cfg.link_config()
    child = np.random.SeedSequence(cfg.seed).spawn(1)[0]
    f0, f1 = make_frame_pair(link, [child])[0]
    columns = ["index", "theta"]
    traces = [np.arange(link.n_c), f0.theta]
    for t_kind in ("lft", "ppt"):
        model = make_model(cfg.link_config(t_kind=t_kind))
        for est in _runnable(cfg.estimators, t_kind):
            res = estimate_frame(est, f0, f1, model)
            columns.append(f"theta_hat_{est}_{t_kind}")
            traces.append(phase_trajectory(res.delta_hat))
    rows = list(zip(*traces))
    return [write_csv(out_dir / "realization.csv", _meta(cfg), columns, rows)]


@dataclass(frozen=True)
class Scenario:
    run: Callable[[ExperimentConfig, Path], list[Path]]
    description: str
    defaults: ExperimentConfig
    sweep: str | None = None  # the one list key the runner iterates over
    unread: tuple = ()  # keys the runner ignores; a config may only repeat their default


SCENARIOS = {
    "ber-vs-snr": Scenario(
        _run_ber,
        "Coded BER vs SNR for cpe/uls/nls/gls with the geometry-preserving model",
        ExperimentConfig(
            scenario="ber-vs-snr",
            snr_db=(10.0, 15.0, 20.0, 25.0, 30.0),
            estimators=("cpe", "uls", "nls", "gls", "cis", "genie"),
            trials=500,
        ),
        sweep="snr_db",
    ),
    "ber-model-compare": Scenario(
        _run_ber_compare,
        "Coded BER vs SNR for uls/nls under the geometry-preserving vs low-frequency model",
        ExperimentConfig(
            scenario="ber-model-compare",
            snr_db=(10.0, 20.0, 30.0),
            estimators=("uls", "nls"),
            trials=400,
        ),
        sweep="snr_db",
        unread=("t_kind",),  # runs both models
    ),
    "mse-vs-bandwidth": Scenario(
        _run_mse,
        "Reduced-spectrum MSE vs phase-noise bandwidth at 30 dB",
        ExperimentConfig(
            scenario="mse-vs-bandwidth",
            rho=(0.005, 0.02, 0.1, 0.2),
            estimators=("uls", "nls", "gls", "cis"),
            trials=300,
        ),
        sweep="rho",
    ),
    "phase-error-pdf": Scenario(
        _run_omega,
        "Empirical density of the per-sample phase estimation error at 30 dB",
        ExperimentConfig(scenario="phase-error-pdf", estimators=("uls",), trials=300),
        unread=("estimators", "t_kind"),  # runs uls under both models
    ),
    "estimate-error-pdf": Scenario(
        _run_errpdf,
        "Empirical density of the squared estimate error at 30 dB",
        ExperimentConfig(
            scenario="estimate-error-pdf",
            estimators=("cpe", "uls", "nls", "gls", "cis"),
            trials=400,
        ),
    ),
    "estimate-error-pdf-10db": Scenario(
        _run_errpdf,
        "Empirical density of the squared estimate error at 10 dB",
        ExperimentConfig(
            scenario="estimate-error-pdf-10db",
            snr_db=(10.0,),
            estimators=("cpe", "uls", "nls", "gls", "cis"),
            trials=400,
        ),
    ),
    "trajectory-traces": Scenario(
        _run_realization,
        "True vs estimated phase trajectory for one frame (both model kinds)",
        ExperimentConfig(
            scenario="trajectory-traces",
            estimators=("uls", "cis"),
            trials=1,
        ),
        unread=("trials", "t_kind"),  # one frame under both models
    ),
}


def run_scenario(cfg: ExperimentConfig, out_dir) -> list[Path]:
    """Run one scenario and return the paths written."""
    problems = cfg.violations()
    if problems:
        raise ConfigError("; ".join(problems))
    return SCENARIOS[cfg.scenario].run(cfg, Path(out_dir))


@dataclass(frozen=True)
class VerifyReport:
    rows: tuple  # (suite, passed, detail)
    passed: bool

    def lines(self) -> list[str]:
        out = [
            f"[{'PASS' if ok else 'FAIL'}] {suite}: {detail}" for suite, ok, detail in self.rows
        ]
        out.append("verification " + ("passed" if self.passed else "FAILED"))
        return out

    def to_csv(self, path) -> Path:
        rows = [(suite, "pass" if ok else "fail", detail) for suite, ok, detail in self.rows]
        return write_csv(
            Path(path),
            {"generator": f"pnofdm {__version__}", "passed": self.passed},
            ("suite", "result", "detail"),
            rows,
        )


# The five structural checks, each defined once: ``verify`` and acceptance
# criteria 1, 2, 5, 7 and 8 run them on their own seeds.  Each returns
# ``(passed, detail)``.


def _check_geometry(seed: int, count: int) -> tuple:
    """Constant-modulus geometry of ``delta`` on ``count`` Wiener trajectories per length."""
    worst = max(
        geometry_residual(spectral_vector(wiener_realization(n_c, 0.05, seed + trial))).max_abs
        for n_c in (16, 64)
        for trial in range(count)
    )
    return worst < 1e-12, f"max geometry residual over {2 * count} trajectories: {worst:.2e}"


def _check_ppt(seed: int, count: int) -> tuple:
    """Validity of three ``pc_ppt`` models, and ``count`` geometry-preserving lifts
    of each, drawn from seed ``seed + n_c``."""
    passed = True
    worst_cond = worst_lift = 0.0
    for n_c, n in ((16, 4), (64, 8), (128, 8)):
        model = pc_ppt(n_c, n)
        rep = validate_ppt(model.Ttilde)
        passed &= rep.passed
        worst_cond = max(worst_cond, rep.unitarity, rep.off_diagonal, rep.trace_sum)
        rng = np.random.default_rng(seed + n_c)
        for _ in range(count):
            gamma = spectral_vector(rng.uniform(-np.pi, np.pi, n))
            worst_lift = max(worst_lift, geometry_residual(model.T @ gamma).max_abs)
    passed = bool(passed) and worst_lift < 1e-10
    return passed, f"worst core condition {worst_cond:.2e}, worst lifted residual {worst_lift:.2e}"


def _check_regularity(sizes) -> tuple:
    """Rank ``n`` and zero column sums of each regularity matrix, and its nullspace report."""
    passed = True
    details = []
    for n in sizes:
        Q = regularity_matrix(n)
        rank = int(np.linalg.matrix_rank(Q, tol=1e-10))
        colsum = float(np.max(np.abs(Q @ np.ones(n + 1))))
        passed &= rank == n and colsum < 1e-13 and qmatnew_nullspace(n).ok
        details.append(f"n={n}: rank {rank}, |Q1|={colsum:.1e}")
    return bool(passed), "; ".join(details)


def _check_duality(instances) -> tuple:
    """Duality gaps of ``random_gram_instance(n, k, base + i)``, ``i < count``, for
    each ``(n, k, count, base)``; returns ``(passed, detail, worst relative gap)``.

    The relaxation is not tight on every instance, so a proven gap is
    reported, not failed: the check fails on a dual solve that is not optimal,
    a broken weak duality, or an instance the oracle leaves open.
    """
    worst_rel, worst_gap, optimal = 0.0, np.inf, True
    kinds = dict.fromkeys(GAP_KINDS, 0)
    for n, k, count, base in instances:
        for i in range(count):
            g = duality_gap(*random_gram_instance(n, k, base + i))
            worst_rel = max(worst_rel, abs(g.relative))
            worst_gap = min(worst_gap, g.gap)
            optimal &= g.solution.status == "optimal"
            kinds[g.kind] += 1
    passed = bool(optimal and worst_gap > -1e-6 and kinds["unresolved"] == 0)
    counts = ", ".join(f"{v} {k}" for k, v in kinds.items())
    detail = f"worst relative gap {worst_rel:.2e}; most negative gap {worst_gap:.2e}; {counts}"
    return passed, detail, worst_rel


def _check_error_identity(seed: int, count: int) -> tuple:
    """Closed-form total error against the direct sum on ``count`` random pairs of length 8-128."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(count):
        n = int(rng.integers(8, 129))
        theta = rng.uniform(-np.pi, np.pi, n)
        dec = error_decomposition(rng.standard_normal(n) + 1j * rng.standard_normal(n), theta)
        worst = max(worst, abs(dec.total - dec.direct_total))
    return worst < 1e-12, f"worst closed-form vs direct-sum defect over {count} pairs: {worst:.2e}"


def verify(*, quick: bool = False) -> VerifyReport:
    """Run the five numerical verification suites.

    Acceptance criteria 1, 2, 5, 7 and 8 run the same checks on other seeds.
    ``quick`` shrinks three of them: the lifts per ppt model from 100 to 20,
    the error-identity pairs from 1000 to 100, and the duality-gap instances
    from 20 at n = 3 and 10 at n = 5 to 5 and 2.
    """
    instances = ((3, 6, 5 if quick else 20, 100), (5, 10, 2 if quick else 10, 200))
    rows = (
        ("geometry-construction", *_check_geometry(9000, 100)),
        ("ppt-validation", *_check_ppt(77, 20 if quick else 100)),
        ("regularity", *_check_regularity((3, 5, 7, 9))),
        ("duality-gap", *_check_duality(instances)[:2]),
        ("error-identity", *_check_error_identity(4242, 100 if quick else 1000)),
    )
    return VerifyReport(rows, all(ok for _, ok, _ in rows))
