"""Configuration-driven Monte-Carlo studies and the verification suite.

Scenarios reproduce the qualitative studies at desk scale (128 subcarriers by
default) and emit CSV files whose header comments carry the full config echo,
its hash, the master seed, and the seed-splitting rule, so every output is
reproducible byte for byte from its own metadata.

Config format: flat ``key = value`` lines, ``#`` comments, unknown keys are
errors.  The only required key is ``scenario``; every other key overrides the
scenario's defaults.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .dimred import pc_ppt, validate_ppt
from .estimators import ESTIMATOR_IDS, error_decomposition, estimate_frame
from .link import BerRecord, LinkConfig, make_frame_pair, make_model, run_link, simulate
from .phasenoise import phase_trajectory, spectral_vector, wiener_realization
from .spectral import geometry_residual
from .sproc import duality_gap, qmatnew_nullspace, random_gram_instance, regularity_matrix

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
    return tuple(float(v) for v in text.split(",") if v.strip())


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
    "tap_decay": float,
    "rho": float,
    "rho_list": _parse_float_list,
    "snr_db": float,
    "snr_list": _parse_float_list,
    "estimators": _parse_str_list,
    "trials": int,
    "seed": int,
}


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str
    n_c: int = 128
    n: int = 8
    t_kind: str = "ppt"
    pilot_fraction: float = 0.08
    f_sub: float = 15e3
    taps: int = 4
    coherence_bw: float = 800e3
    tap_decay: float | None = None
    rho: float = 0.02
    rho_list: tuple = ()
    snr_db: float = 30.0
    snr_list: tuple = ()
    estimators: tuple = ("cpe", "uls", "nls", "gls")
    trials: int = 500
    seed: int = 20240801

    def link_config(self, *, snr_db=None, rho=None, t_kind=None) -> LinkConfig:
        return LinkConfig(
            n_c=self.n_c,
            f_sub=self.f_sub,
            pilot_fraction=self.pilot_fraction,
            snr_db=self.snr_db if snr_db is None else snr_db,
            taps=self.taps,
            coherence_bw=self.coherence_bw,
            tap_decay=self.tap_decay,
            rho=self.rho if rho is None else rho,
            n_est=self.n,
            t_kind=self.t_kind if t_kind is None else t_kind,
        )

    def violations(self) -> list[str]:
        out = []
        if self.scenario not in SCENARIOS:
            out.append(f"unknown scenario {self.scenario!r}; see list-scenarios")
        if self.trials < 1:
            out.append("trials must be positive")
        bad = [e for e in self.estimators if e not in ESTIMATOR_IDS]
        if bad:
            out.append(f"unknown estimators {bad}; valid ids are {sorted(ESTIMATOR_IDS)}")
        out.extend(self.link_config().violations())
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
    problems = cfg.violations()
    if problems:
        raise ConfigError("; ".join(problems))
    return cfg


@dataclass(frozen=True)
class Scenario:
    kind: str
    description: str
    defaults: ExperimentConfig


SCENARIOS = {
    "ber-vs-snr": Scenario(
        "ber_vs_snr",
        "Coded BER vs SNR for cpe/uls/nls/gls with the geometry-preserving model",
        ExperimentConfig(
            scenario="ber-vs-snr",
            snr_list=(10.0, 15.0, 20.0, 25.0, 30.0),
            estimators=("cpe", "uls", "nls", "gls", "cis", "genie"),
            trials=500,
        ),
    ),
    "ber-model-compare": Scenario(
        "ber_tcompare",
        "Coded BER vs SNR for uls/nls under the geometry-preserving vs low-frequency model",
        ExperimentConfig(
            scenario="ber-model-compare",
            snr_list=(10.0, 20.0, 30.0),
            estimators=("uls", "nls"),
            trials=400,
        ),
    ),
    "mse-vs-bandwidth": Scenario(
        "mse_vs_rho",
        "Reduced-spectrum MSE vs phase-noise bandwidth at 30 dB",
        ExperimentConfig(
            scenario="mse-vs-bandwidth",
            rho_list=(0.005, 0.02, 0.1, 0.2),
            estimators=("uls", "nls", "gls", "cis"),
            trials=300,
        ),
    ),
    "phase-error-pdf": Scenario(
        "omega_pdf",
        "Empirical density of the per-sample phase estimation error at 30 dB",
        ExperimentConfig(scenario="phase-error-pdf", estimators=("uls",), trials=300),
    ),
    "estimate-error-pdf": Scenario(
        "error_pdf",
        "Empirical density of the squared estimate error at 30 dB",
        ExperimentConfig(
            scenario="estimate-error-pdf",
            estimators=("cpe", "uls", "nls", "gls", "cis"),
            trials=400,
        ),
    ),
    "estimate-error-pdf-10db": Scenario(
        "error_pdf",
        "Empirical density of the squared estimate error at 10 dB",
        ExperimentConfig(
            scenario="estimate-error-pdf-10db",
            snr_db=10.0,
            estimators=("cpe", "uls", "nls", "gls", "cis"),
            trials=400,
        ),
    ),
    "trajectory-traces": Scenario(
        "realization",
        "True vs estimated phase trajectory for one frame (both model kinds)",
        ExperimentConfig(
            scenario="trajectory-traces",
            estimators=("uls", "cis"),
            trials=1,
        ),
    ),
}


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


def _ber_rows(records: list[BerRecord]):
    return [
        (r.snr_db, r.estimator, r.frames, r.bit_errors, r.ber, r.ci95_low, r.ci95_high)
        for r in records
    ]


_BER_COLUMNS = ("snr_db", "estimator", "frames", "bit_errors", "ber", "ci95_low", "ci95_high")


def _run_ber(cfg: ExperimentConfig, out_dir: Path, *, t_kind=None, filename="ber_vs_snr.csv"):
    records = []
    snrs = cfg.snr_list or (cfg.snr_db,)
    for snr in snrs:
        link = cfg.link_config(snr_db=snr, t_kind=t_kind)
        for est in cfg.estimators:
            if est == "gls" and link.t_kind != "ppt":
                continue  # the constrained estimator requires the geometry-preserving model
            records.append(run_link(link, est, cfg.trials, cfg.seed))
    return write_csv(Path(out_dir) / filename, _meta(cfg), _BER_COLUMNS, _ber_rows(records))


def _mse_trials(cfg: ExperimentConfig, rho: float):
    """Per-trial squared reduced-spectrum errors for each estimator."""
    link = cfg.link_config(rho=rho)
    Th = make_model(link).T.conj().T
    out = {est: np.empty(cfg.trials) for est in cfg.estimators}
    for i, (frame, results) in enumerate(simulate(link, cfg.estimators, cfg.trials, cfg.seed)):
        gamma_true = Th @ spectral_vector(frame.theta).values
        for est, (res, _) in results.items():
            gamma_hat = (
                res.gamma_hat.values if res.gamma_hat is not None else Th @ res.delta_hat.values
            )
            out[est][i] = float(np.sum(np.abs(gamma_hat - gamma_true) ** 2))
    return out


def _run_mse(cfg: ExperimentConfig, out_dir: Path):
    rows = []
    rhos = cfg.rho_list or (cfg.rho,)
    for rho in rhos:
        per_est = _mse_trials(cfg, rho)
        for est, vals in per_est.items():
            se = float(np.std(vals, ddof=1) / np.sqrt(vals.size)) if vals.size > 1 else 0.0
            mean = float(np.mean(vals))
            rows.append((rho, est, vals.size, mean, mean - 1.96 * se, mean + 1.96 * se))
    return write_csv(
        Path(out_dir) / "mse_vs_rho.csv",
        _meta(cfg),
        ("rho", "estimator", "trials", "mse", "ci95_low", "ci95_high"),
        rows,
    )


def _fd_histogram(samples: np.ndarray):
    """Freedman-Diaconis histogram; returns (edges, counts, densities)."""
    counts, edges = np.histogram(samples, bins="fd")
    widths = np.diff(edges)
    density = counts / (counts.sum() * widths)
    return edges, counts, density


def _omega_samples(cfg: ExperimentConfig, t_kind: str) -> np.ndarray:
    """Per-sample ``uls`` phase errors of every trial, concatenated."""
    trials = simulate(cfg.link_config(t_kind=t_kind), ("uls",), cfg.trials, cfg.seed)
    return np.concatenate([
        error_decomposition(results["uls"][0].delta_hat, frame.theta).omega
        for frame, results in trials
    ])


def _run_omega(cfg: ExperimentConfig, out_dir: Path):
    rows = []
    for t_kind in ("ppt", "lft"):
        edges, counts, density = _fd_histogram(_omega_samples(cfg, t_kind))
        rows.extend(
            (t_kind, edges[i], edges[i + 1], int(counts[i]), density[i])
            for i in range(counts.size)
        )
    return write_csv(
        Path(out_dir) / "omega_pdf.csv",
        _meta(cfg),
        ("t_kind", "bin_left", "bin_right", "count", "density"),
        rows,
    )


def _run_errpdf(cfg: ExperimentConfig, out_dir: Path):
    samples = {est: np.empty(cfg.trials) for est in cfg.estimators}
    trials = simulate(cfg.link_config(), cfg.estimators, cfg.trials, cfg.seed)
    for i, (frame, results) in enumerate(trials):
        delta_true = spectral_vector(frame.theta).values
        for est, (res, _) in results.items():
            samples[est][i] = float(np.sum(np.abs(res.delta_hat.values - delta_true) ** 2))
    rows = []
    for est, vals in samples.items():
        edges, counts, density = _fd_histogram(vals)
        rows.extend(
            (est, edges[i], edges[i + 1], int(counts[i]), density[i])
            for i in range(counts.size)
        )
    return write_csv(
        Path(out_dir) / "error_pdf.csv",
        _meta(cfg),
        ("estimator", "bin_left", "bin_right", "count", "density"),
        rows,
    )


def _run_realization(cfg: ExperimentConfig, out_dir: Path):
    link = cfg.link_config()
    child = np.random.SeedSequence(cfg.seed).spawn(1)[0]
    f0, f1 = make_frame_pair(link, child)
    columns = ["index", "theta"]
    traces = [np.arange(link.n_c), f0.theta]
    for t_kind in ("lft", "ppt"):
        model = make_model(cfg.link_config(t_kind=t_kind))
        for est in cfg.estimators:
            if est == "gls" and t_kind != "ppt":
                continue
            res = estimate_frame(est, f0, f1, model)
            columns.append(f"theta_hat_{est}_{t_kind}")
            traces.append(phase_trajectory(res.delta_hat.values))
    rows = list(zip(*traces))
    return write_csv(Path(out_dir) / "realization.csv", _meta(cfg), columns, rows)


def run_scenario(cfg: ExperimentConfig, out_dir) -> list[Path]:
    """Run one scenario and return the paths written."""
    problems = cfg.violations()
    if problems:
        raise ConfigError("; ".join(problems))
    out_dir = Path(out_dir)
    kind = SCENARIOS[cfg.scenario].kind
    if kind == "ber_vs_snr":
        return [_run_ber(cfg, out_dir)]
    if kind == "ber_tcompare":
        return [
            _run_ber(cfg, out_dir, t_kind="ppt", filename="ber_vs_snr_ppt.csv"),
            _run_ber(cfg, out_dir, t_kind="lft", filename="ber_vs_snr_lft.csv"),
        ]
    if kind == "mse_vs_rho":
        return [_run_mse(cfg, out_dir)]
    if kind == "omega_pdf":
        return [_run_omega(cfg, out_dir)]
    if kind == "error_pdf":
        return [_run_errpdf(cfg, out_dir)]
    if kind == "realization":
        return [_run_realization(cfg, out_dir)]
    raise ConfigError(f"scenario kind {kind!r} has no runner")


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


def verify(*, quick: bool = False, corrupt_ppt: bool = False) -> VerifyReport:
    """Run the numerical verification suites.

    ``quick`` shrinks the duality-gap experiment.  ``corrupt_ppt`` injects a
    deliberate fault into the model-validation suite (negative control for
    the exit-status contract).
    """
    rows = []

    residuals = []
    for n_c in (16, 64):
        for trial in range(100):
            theta = wiener_realization(n_c, 0.05, 9000 + trial)
            residuals.append(spectral_vector(theta).residual_max)
    worst = max(residuals)
    rows.append(("geometry-construction", worst < 1e-12, f"worst residual {worst:.2e}"))

    worst_ppt = 0.0
    for n_c, n in ((16, 4), (64, 8), (128, 8)):
        model = pc_ppt(n_c, n)
        Tt = model.Ttilde.copy()
        if corrupt_ppt:
            Tt[0, 0] += 0.05
        rep = validate_ppt(Tt)
        worst_ppt = max(worst_ppt, rep.unitarity, rep.off_diagonal, rep.trace_sum)
        lift_worst = 0.0
        rng = np.random.default_rng(77)
        for _ in range(100 if not quick else 20):
            gamma = spectral_vector(rng.uniform(-np.pi, np.pi, n)).values
            lift_worst = max(lift_worst, geometry_residual(model.T @ gamma).max_abs)
        worst_ppt = max(worst_ppt, 0.0 if lift_worst < 1e-10 else lift_worst)
    rows.append(("ppt-validation", worst_ppt < 1e-12, f"worst violation {worst_ppt:.2e}"))

    reg_ok = True
    detail = []
    for n in (3, 5, 7, 9):
        Q = regularity_matrix(n)
        rank = np.linalg.matrix_rank(Q, tol=1e-10)
        colsum = float(np.max(np.abs(Q @ np.ones(n + 1))))
        ns = qmatnew_nullspace(n)
        reg_ok &= rank == n and colsum < 1e-13 and ns.ok
        detail.append(f"n={n}: rank {rank}, |Q1| {colsum:.1e}")
    rows.append(("regularity", bool(reg_ok), "; ".join(detail)))

    n3 = 5 if quick else 20
    n5 = 2 if quick else 10
    worst_rel = 0.0
    weak_ok = True
    for i in range(n3):
        M, b = random_gram_instance(3, 6, 100 + i)
        g = duality_gap(M, b)
        worst_rel = max(worst_rel, abs(g.relative))
        weak_ok &= g.gap > -1e-6
    for i in range(n5):
        M, b = random_gram_instance(5, 10, 200 + i)
        g = duality_gap(M, b)
        worst_rel = max(worst_rel, abs(g.relative))
        weak_ok &= g.gap > -1e-6
    rows.append(
        ("duality-gap", worst_rel < 1e-3 and weak_ok, f"worst relative gap {worst_rel:.2e}")
    )

    rng = np.random.default_rng(4242)
    worst_id = 0.0
    for _ in range(1000 if not quick else 100):
        n = int(rng.integers(8, 65))
        theta = rng.uniform(-np.pi, np.pi, n)
        delta_hat = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        dec = error_decomposition(delta_hat, theta)
        worst_id = max(worst_id, abs(dec.total - dec.direct_total))
    rows.append(("error-identity", worst_id < 1e-12, f"worst identity defect {worst_id:.2e}"))

    passed = all(ok for _, ok, _ in rows)
    return VerifyReport(tuple(rows), passed)
