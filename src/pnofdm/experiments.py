"""Configuration-driven Monte-Carlo studies and the verification suite.

Scenarios reproduce the qualitative studies at desk scale (128 subcarriers by
default) and emit CSV files whose header comments carry the full config echo,
its hash, the master seed, and the seed-splitting rule, so every output is
reproducible byte for byte from its own metadata.

Config format: flat ``key = value`` lines, ``#`` comments, unknown keys are
errors.  The only required key is ``scenario``; every other key overrides the
scenario's defaults.  ``snr_db``, ``rho``, ``t_kind`` and ``n`` take one or
more comma-separated values, each once; only the keys a scenario sweeps
(:attr:`Scenario.sweep`) may hold more than one, each is a column of its
CSV, and every value is checked as a link config.  A key the scenario does
not read may only repeat its default, the value the CSV metadata echoes:
``phase-error-pdf`` (``uls`` only) rejects any other ``estimators``, and
``trajectory-traces`` (one frame) any other ``trials``.  One tap
(``taps = 1``) has a flat channel profile, so no scenario then reads
``coherence_bw``.  A coherence bandwidth
the taps cannot reach, more taps than ``n_c``, an ``snr_db`` outside
``[-1000, 1000]`` dB, a ``rho`` whose ``4*pi*rho`` overflows and a negative
``seed`` are config errors, caught before anything runs.

Each key is a field of :class:`ExperimentConfig` and parses as its default's
type (a tuple default as a comma-separated list of its items' type).  Every
rule above is :meth:`ExperimentConfig.violations`, which :func:`parse_config`
and :func:`run_scenario` both apply, so a config built in code starts from
``SCENARIOS[id].defaults``: a bare ``ExperimentConfig(scenario="phase-error-pdf")``
carries the generic ``estimators`` and is refused.

The receiver's reduction models are every ``(t_kind, n)`` pair of the two
list keys.  :func:`pnofdm.link.simulate` leaves ``gls`` (``PPT_ONLY_IDS``)
out of the runs under ``t_kind = lft``, and runs each id that reads no model
(``MODEL_FREE_IDS``) once, so each writes one row or column with no model.
Every operating point must pass :func:`pnofdm.link.run_violations`, and is
one :func:`pnofdm.link.simulate` pass over every estimator and model, so its
frames are built once.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from collections.abc import Callable
from dataclasses import MISSING, asdict, dataclass, fields, replace
from itertools import product
from pathlib import Path

import numpy as np

from . import __version__
from .dimred import validate_ppt
from .estimators import error_decomposition
from .link import DEFAULT_MODEL, LinkConfig, _ci95, _distinct, ber_records, make_model, run_violations, simulate
from .spectral import GEOMETRY_TOL, geometry_residual, phase_trajectory, spectral_vector
from .sproc import GAP_KINDS, duality_gap, random_gram_instance, regularity_matrix

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "SCENARIOS",
    "VerifyReport",
    "parse_config",
    "run_scenario",
    "verify",
]

# Trial i seeds from child i of SeedSequence(master_seed).spawn(n), for any n > i.
SEED_RULE = "numpy SeedSequence(master_seed, spawn_key=(trial_index,))"


class ConfigError(ValueError):
    """Invalid experiment configuration; the message lists every violation."""


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str
    n_c: int = LinkConfig.n_c
    n: tuple = (DEFAULT_MODEL[1],)
    t_kind: tuple = (DEFAULT_MODEL[0],)
    pilot_fraction: float = LinkConfig.pilot_fraction
    taps: int = LinkConfig.taps
    coherence_bw: float = LinkConfig.coherence_bw
    rho: tuple = (LinkConfig.rho,)
    snr_db: tuple = (LinkConfig.snr_db,)
    estimators: tuple = ("cpe", "uls", "nls", "gls")
    trials: int = 500
    seed: int = 20240801

    def link_config(self, *, snr_db=None, rho=None) -> LinkConfig:
        """The link at one value of ``snr_db`` and ``rho`` (a key not passed must
        hold one value); :func:`simulate` takes the receiver's :attr:`models`."""
        (snr_db,) = self.snr_db if snr_db is None else (snr_db,)
        (rho,) = self.rho if rho is None else (rho,)
        values = {f.name: getattr(self, f.name) for f in fields(LinkConfig)}
        return LinkConfig(**{**values, "snr_db": snr_db, "rho": rho})

    @property
    def models(self) -> tuple:
        """The receiver's reduction models, every ``(t_kind, n)`` pair, ``t_kind`` by ``t_kind``."""
        return tuple(product(self.t_kind, self.n))

    def violations(self) -> list[str]:
        out = []
        scenario = SCENARIOS.get(self.scenario)
        if scenario is None:
            out.append(f"unknown scenario {self.scenario!r}; see list-scenarios")
        else:  # a key the runner ignores may only repeat the default the CSV echoes
            unread = scenario.unread + (("coherence_bw",) if self.taps == 1 else ())  # one tap: a flat profile
            out += [f"scenario {self.scenario!r} does not read key {k!r}" for k in unread
                    if getattr(self, k) != getattr(scenario.defaults, k)]
        if self.trials < 1:
            out.append("trials must be positive")
        if self.seed < 0:
            out.append("seed must be non-negative")
        for key in ("snr_db", "rho", "t_kind", "n"):
            if len(getattr(self, key)) > 1 and scenario is not None and key not in scenario.sweep:
                out.append(f"scenario {self.scenario!r} takes one value of key {key!r}")
            out += _distinct(key, getattr(self, key))
        links = [self.link_config(snr_db=s, rho=r) for s in self.snr_db for r in self.rho]
        out.extend(dict.fromkeys(v for link in links for v in run_violations(link, self.estimators, self.models)))
        return out

    def echo(self) -> dict:
        """Every key's value as the config file writes it (lists comma-separated)."""
        return {k: ",".join(map(str, v)) if isinstance(v, tuple) else v for k, v in asdict(self).items()}

    def config_hash(self) -> str:
        text = "\n".join(f"{key} = {value}" for key, value in self.echo().items())
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def _key_parser(default):
    """A key's parser, from its field's default: a tuple parses as a
    comma-separated list of its items' type, each stripped (an empty item
    raises ``ValueError``), a plain default as its own type, and no default
    (``scenario``) as a string."""
    if default is MISSING:
        return str
    if not isinstance(default, tuple):
        return type(default)

    def parse(text: str) -> tuple:
        items = [v.strip() for v in text.split(",")]
        if not all(items):
            raise ValueError("empty list item")
        return tuple(map(type(default[0]), items))

    return parse


_KEY_PARSERS = {f.name: _key_parser(f.default) for f in fields(ExperimentConfig)}


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
    base = SCENARIOS.get(values["scenario"])
    cfg = replace(base.defaults, **values) if base else ExperimentConfig(**values)
    problems = cfg.violations()
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
    return {
        "generator": f"pnofdm {__version__}",
        "scenario": cfg.scenario,
        "config_hash": cfg.config_hash(),
        "seed": cfg.seed,
        "seed_rule": SEED_RULE,
        **{f"cfg.{key}": value for key, value in cfg.echo().items()},
    }


def _run_ber(cfg: ExperimentConfig, out_dir: Path):
    rows = []
    for snr in cfg.snr_db:
        records = ber_records(cfg.link_config(snr_db=snr), cfg.estimators, cfg.trials, cfg.seed, models=cfg.models)
        rows += [(r.snr_db, *(model or ("", "")), est, r.frames, r.bit_errors, r.ber, r.ci95_low, r.ci95_high,
                  r.flagged_frames) for (est, model), r in records.items()]
    columns = ("snr_db", "t_kind", "n", "estimator", "frames", "bit_errors", "ber", "ci95_low", "ci95_high",
               "flagged_frames")
    return [write_csv(out_dir / "ber_vs_snr.csv", _meta(cfg), columns, rows)]


def _scores(cfg: ExperimentConfig, link: LinkConfig, estimators, score) -> dict:
    """``score(output, frame)`` on every trial of one :func:`simulate` pass under
    every model of ``cfg``, one array per run, keyed as :func:`simulate` keys it."""
    scores = defaultdict(list)
    for frames, results in simulate(link, estimators, cfg.trials, cfg.seed, models=cfg.models):
        for run, outputs in results.items():
            scores[run] += [score(res, frame) for (res, _), frame in zip(outputs, frames)]
    return {run: np.array(vals) for run, vals in scores.items()}


def _mse_trials(cfg: ExperimentConfig, rho: float):
    """Per-trial squared reduced errors for each estimator (one model): on the
    time samples ``T^H delta``, and by Parseval on the reduced spectrum."""
    link = cfg.link_config(rho=rho)
    ((t_kind, n),) = cfg.models
    Th = make_model(t_kind, cfg.n_c, n).conj().T

    def squared_error(res, frame):
        return float(np.sum(np.abs(Th @ res.delta_hat - Th @ spectral_vector(frame.theta)) ** 2))

    return {est: vals for (est, _), vals in _scores(cfg, link, cfg.estimators, squared_error).items()}


def _run_mse(cfg: ExperimentConfig, out_dir: Path):
    rows = [(rho, est, vals.size, *_ci95(vals)) for rho in cfg.rho for est, vals in _mse_trials(cfg, rho).items()]
    columns = ("rho", "estimator", "trials", "mse", "ci95_low", "ci95_high")
    return [write_csv(out_dir / "mse_vs_rho.csv", _meta(cfg), columns, rows)]


def _fd_histogram(label, samples: np.ndarray) -> list:
    """Freedman-Diaconis histogram rows ``(label, bin_left, bin_right, count, density)``."""
    counts, edges = np.histogram(samples, bins="fd")
    density = counts / (counts.sum() * np.diff(edges))
    return [(label, edges[i], edges[i + 1], int(counts[i]), density[i]) for i in range(counts.size)]


def _omega_samples(cfg: ExperimentConfig) -> dict:
    """Per-sample ``uls`` phase errors of every trial, concatenated, one array per model of ``cfg``."""
    omega = _scores(cfg, cfg.link_config(), ("uls",),
                    lambda res, frame: error_decomposition(res.delta_hat, frame.theta).omega)
    return {t_kind: vals.ravel() for (_, (t_kind, _)), vals in omega.items()}


def _run_omega(cfg: ExperimentConfig, out_dir: Path):
    rows = [row for t_kind, samples in _omega_samples(cfg).items() for row in _fd_histogram(t_kind, samples)]
    columns = ("t_kind", "bin_left", "bin_right", "count", "density")
    return [write_csv(out_dir / "omega_pdf.csv", _meta(cfg), columns, rows)]


def _run_errpdf(cfg: ExperimentConfig, out_dir: Path):
    def squared_error(res, frame):
        return float(np.sum(np.abs(res.delta_hat - spectral_vector(frame.theta)) ** 2))

    rows = []
    for snr in cfg.snr_db:
        samples = _scores(cfg, cfg.link_config(snr_db=snr), cfg.estimators, squared_error)
        rows += [(snr, *row) for (est, _), vals in samples.items() for row in _fd_histogram(est, vals)]
    columns = ("snr_db", "estimator", "bin_left", "bin_right", "count", "density")
    return [write_csv(out_dir / "error_pdf.csv", _meta(cfg), columns, rows)]


def _run_realization(cfg: ExperimentConfig, out_dir: Path):
    """Trial 0's true trajectory and each run's (:func:`simulate`'s keys), from one :func:`simulate` pass."""
    ((frames, results),) = simulate(cfg.link_config(), cfg.estimators, 1, cfg.seed, models=cfg.models)
    traces = {f"theta_hat_{est}" + (f"_{model[0]}" if model else ""): phase_trajectory(res.delta_hat)
              for (est, model), ((res, _),) in results.items()}
    columns = ["index", "theta", *traces]
    rows = list(zip(np.arange(cfg.n_c), frames[0].theta, *traces.values()))
    return [write_csv(out_dir / "realization.csv", _meta(cfg), columns, rows)]


@dataclass(frozen=True)
class Scenario:
    run: Callable[[ExperimentConfig, Path], list[Path]]
    description: str
    defaults: ExperimentConfig
    sweep: tuple  # the list keys the runner iterates over, each a column of its CSV
    unread: tuple = ()  # keys the runner ignores; a config may only repeat their default


SCENARIOS = {
    "ber-vs-snr": Scenario(
        _run_ber,
        "Coded BER vs SNR for cpe/uls/nls/gls/cis/genie, by default with the geometry-preserving model",
        ExperimentConfig(
            scenario="ber-vs-snr",
            snr_db=(10.0, 15.0, 20.0, 25.0, 30.0),
            estimators=("cpe", "uls", "nls", "gls", "cis", "genie"),
            trials=500,
        ),
        sweep=("snr_db", "t_kind", "n"),
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
        sweep=("rho",),
    ),
    "phase-error-pdf": Scenario(
        _run_omega,
        "Empirical density of the per-sample uls phase error at 30 dB under each model",
        ExperimentConfig(scenario="phase-error-pdf", t_kind=("ppt", "lft"), estimators=("uls",), trials=300),
        sweep=("t_kind",),
        unread=("estimators",),  # runs uls
    ),
    "estimate-error-pdf": Scenario(
        _run_errpdf,
        "Empirical density of the squared estimate error at 10 and 30 dB",
        ExperimentConfig(
            scenario="estimate-error-pdf",
            snr_db=(10.0, 30.0),
            estimators=("cpe", "uls", "nls", "gls", "cis"),
            trials=400,
        ),
        sweep=("snr_db",),
    ),
    "trajectory-traces": Scenario(
        _run_realization,
        "True vs estimated phase trajectory for one frame under each model",
        ExperimentConfig(
            scenario="trajectory-traces",
            t_kind=("ppt", "lft"),
            estimators=("uls", "cis"),
            trials=1,
        ),
        sweep=("t_kind",),
        unread=("trials",),  # one frame
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
    """Constant-modulus geometry of the estimates that claim it, on ``count`` link frames at each of 10 and 30 dB.

    ``nls`` and ``gls`` run under the geometry-preserving model and ``nls``
    also under the low-frequency one, in one :func:`simulate` pass per SNR.
    Every estimate must be the estimator's own (no ``cpe`` fallback), and the
    worst geometry residual must stay below ``GEOMETRY_TOL``.  ``uls`` under
    the geometry-preserving model is the negative control: the detail reports
    the share of its estimates above the tolerance, so that a reader sees the
    check can fail.
    """
    worst, fallbacks, uls_off = 0.0, 0, []
    for snr_db in (10.0, 30.0):
        for _, results in simulate(LinkConfig(snr_db=snr_db), ("uls", "nls", "gls"), count, seed,
                                   models=(DEFAULT_MODEL, ("lft", DEFAULT_MODEL[1]))):
            for (name, (t_kind, _)), outputs in results.items():
                residuals = [out.diagnostics.geometry_residual for out, _ in outputs]
                if name != "uls":
                    worst = max(worst, *residuals)
                    fallbacks += sum(flagged for _, flagged in outputs)
                elif t_kind == "ppt":
                    uls_off += [res > GEOMETRY_TOL for res in residuals]
    passed = worst < GEOMETRY_TOL and fallbacks == 0
    return passed, (
        f"max geometry residual of nls/gls (ppt) and nls (lft) over {6 * count} estimates: {worst:.2e}"
        f" ({fallbacks} cpe fallbacks); uls above {GEOMETRY_TOL:.0e}: {np.mean(uls_off):.0%}"
    )


def _check_ppt(seed: int, count: int) -> tuple:
    """Validity of three ``ppt`` models, the ones the link lifts with, and
    ``count`` geometry-preserving lifts of each, drawn from seed ``seed + n_c``."""
    passed = True
    worst_cond = worst_lift = 0.0
    for n_c, n in ((16, 4), (64, 8), (128, 8)):
        T = make_model("ppt", n_c, n)
        rep = validate_ppt(T)
        passed &= rep.passed
        worst_cond = max(worst_cond, rep.unitarity, rep.off_diagonal, rep.trace_sum)
        rng = np.random.default_rng(seed + n_c)
        for _ in range(count):
            x = np.exp(-1j * rng.uniform(-np.pi, np.pi, n)) / np.sqrt(n)  # feasible time samples
            worst_lift = max(worst_lift, geometry_residual(T @ x))
    passed = bool(passed) and worst_lift < GEOMETRY_TOL
    return passed, f"worst core condition {worst_cond:.2e}, worst lifted residual {worst_lift:.2e}"


def _check_regularity(sizes) -> tuple:
    """Rank ``n`` and zero row sums of each regularity matrix."""
    passed = True
    details = []
    for n in sizes:
        Q = regularity_matrix(n)
        rank = int(np.linalg.matrix_rank(Q, tol=1e-10))
        colsum = float(np.max(np.abs(Q @ np.ones(n + 1))))
        passed &= rank == n and colsum < 1e-13
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
        delta_hat = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        direct = float(np.sum(np.abs(np.fft.ifft(delta_hat) - np.exp(-1j * theta) / n) ** 2))
        worst = max(worst, abs(error_decomposition(delta_hat, theta).total - direct))
    return worst < 1e-12, f"worst closed-form vs direct-sum defect over {count} pairs: {worst:.2e}"


def verify() -> VerifyReport:
    """Run the five numerical verification suites.

    Acceptance criteria 1, 2, 5, 7 and 8 run the same checks on other seeds.
    The sizes are fixed: 32 link frames at each of 10 and 30 dB, 100 lifts
    per ppt model, 30 duality-gap instances (20 at n = 3 and 10 at n = 5)
    and 1000 error-identity pairs.
    """
    rows = (
        ("geometry-construction", *_check_geometry(9000, 32)),
        ("ppt-validation", *_check_ppt(77, 100)),
        ("regularity", *_check_regularity((3, 4, 5, 7, 8, 9))),
        ("duality-gap", *_check_duality(((3, 6, 20, 100), (5, 10, 10, 200)))[:2]),
        ("error-identity", *_check_error_identity(4242, 1000)),
    )
    return VerifyReport(rows, all(ok for _, ok, _ in rows))
