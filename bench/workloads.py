"""The benchmark workloads: inputs made from a seed (``setup``), the timed
section (``run``), and the outputs with the invariants they must satisfy at
any seed (``outcome``).

Every workload calls into smoothmask through module attributes looked up at
call time (``cli.main``, ``glm.bootstrap_ci``), so the tracing wrappers that
``tracer.Tracer`` installs are the functions that run.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from smoothmask import cli, glm, kernels


@dataclass
class Outcome:
    """What one timed section did and produced."""

    items: int                     # work units for items_per_s
    attempted: int                 # operations attempted
    failed: int                    # operations that failed
    values: dict                   # outputs compared against the reference
    problems: list[str] = field(default_factory=list)   # invariant violations


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return str(path)


def _finite(v) -> bool:
    return isinstance(v, (int, float)) and math.isfinite(v)


# ---------------------------------------------------------------------------
# study: the paper's replicated experiment through `smoothmask simulate`

class Study:
    """Radial field, ring and euclidean kernels, default 20-value lambda grid.

    Fit-dominated (R * (2 + cells) IRLS fits) and holds all 40 dense n x n
    operators at once, so it shows batched fits, distance caching and
    operator streaming.
    """

    n = 1000
    replicates = 50
    kernels = {"ring": {"family": "ring"}, "euclidean": {"family": "euclidean"}}
    n_lambdas = 20                 # the default grid, left out of the config

    @property
    def cells(self) -> int:
        return len(self.kernels) * self.n_lambdas

    def setup(self, seed: int, workdir: Path) -> dict:
        config = {
            "field": {"type": "radial"},
            "kernels": self.kernels,
            "mu": -25.0,
            "beta": 4.0,
            "n_locations": self.n,
            "replicates": self.replicates,
            "seed": seed,
            "scenario": {"ap_columns": ["x"], "u_columns": ["y"], "mc_draws": 100,
                         "seed": seed},
        }
        return {"config": _write_json(workdir / "study.json", config),
                "out": str(workdir / "results")}

    def run(self, inputs: dict) -> int:
        return cli.main(["simulate", "--config", inputs["config"], "--out", inputs["out"]])

    def outcome(self, inputs: dict, rc: int) -> Outcome:
        fits = self.replicates * (2 + self.cells)
        risks = 1 + self.cells
        if rc != 0:
            return Outcome(fits, fits + risks, fits + risks, {},
                           [f"simulate exited with code {rc}"])
        with open(Path(inputs["out"]) / "study.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        values = {"rows": [
            {"kernel": r["kernel"], "lam": float(r["lam"]) if r["lam"] else None,
             "mean_estimate": float(r["mean_estimate"]), "mse": float(r["mse"]),
             "risk": float(r["risk"]) if r["risk"] else None,
             "n_failed": int(r["n_failed"])}
            for r in rows]}
        scored = [r for r in values["rows"] if r["kernel"] != "aggregated"]
        failed = (sum(r["n_failed"] for r in values["rows"])
                  + sum(r["risk"] is None for r in scored))
        problems = []
        if len(rows) != 2 + self.cells:
            problems.append(f"study.csv has {len(rows)} rows, expected {2 + self.cells}")
        for r in scored:
            if r["risk"] is not None and not 0.0 <= r["risk"] <= 1.0:
                problems.append(f"risk {r['risk']} of {r['kernel']}@{r['lam']} outside [0, 1]")
        for r in values["rows"]:
            if not (_finite(r["mean_estimate"]) and _finite(r["mse"])):
                problems.append(f"non-finite summary for {r['kernel']}@{r['lam']}")
        return Outcome(fits, fits + risks, failed, values, problems)

    def expected_counts(self) -> dict:
        return {
            "glm.fit.calls": self.replicates * (2 + self.cells),
            "masking.build_operator.calls": self.cells,
            "risk.risk_report.calls": 1 + self.cells,
            "risk.ap_components.calls": self.n * (1 + self.cells),
        }


# ---------------------------------------------------------------------------
# release: the data custodian's mask -> risk -> fit path through the CLI

class Release:
    """One dataset with regressors x1 and x2, masked with ring_angle at 0.1.

    Risk-dominated: sought columns (x2, y) take the u_dim > 1 Monte Carlo path
    of `risk.u_components`, so a vectorised risk engine shows here and
    study-side optimisations should not.
    """

    n = 1000
    lam = 0.1

    def setup(self, seed: int, workdir: Path) -> dict:
        rng = np.random.default_rng([seed, 1])
        locs = rng.uniform(-1.0, 1.0, size=(self.n, 2))
        x1 = 7.0 * np.exp(-(locs ** 2).sum(axis=1) / 2.5)
        x2 = rng.standard_normal(self.n)
        y = rng.poisson(np.exp(-10.0 + 2.0 * x1 + 0.3 * x2)).astype(float)
        data = workdir / "data.csv"
        with open(data, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "s1", "s2", "x1", "x2", "y"])
            for i in range(self.n):
                writer.writerow([f"r{i:06d}"] + [repr(float(v)) for v in
                                                 (locs[i, 0], locs[i, 1], x1[i], x2[i], y[i])])
        return {
            "data": str(data),
            "kernel": _write_json(workdir / "kernel.json", {"family": "ring_angle"}),
            "scenario": _write_json(workdir / "scenario.json",
                                    {"ap_columns": ["x1"], "u_columns": ["x2", "y"],
                                     "mc_draws": 100, "seed": seed}),
            "model": _write_json(workdir / "model.json",
                                 {"family": "poisson-log", "regressors": ["x1", "x2"]}),
            "masked": str(workdir / "masked.csv"),
            "risk": str(workdir / "risk.json"),
            "fit": str(workdir / "fit.json"),
        }

    def run(self, inputs: dict) -> list[int]:
        return [
            cli.main(["mask", "--in", inputs["data"], "--kernel", inputs["kernel"],
                      "--lambda", repr(self.lam), "--x-cols", "x1,x2",
                      "--out", inputs["masked"]]),
            cli.main(["risk", "--masked", inputs["masked"], "--truth", inputs["data"],
                      "--scenario", inputs["scenario"], "--out", inputs["risk"]]),
            cli.main(["fit", "--in", inputs["masked"], "--model", inputs["model"],
                      "--out", inputs["fit"]]),
        ]

    def outcome(self, inputs: dict, codes: list[int]) -> Outcome:
        failed = sum(c != 0 for c in codes)
        if failed:
            return Outcome(self.n, len(codes), failed, {},
                           [f"release exit codes {codes}"])
        risk = json.loads(Path(inputs["risk"]).read_text(encoding="utf-8"))
        fit = json.loads(Path(inputs["fit"]).read_text(encoding="utf-8"))
        values = {"expected_correct_rate": risk["expected_correct_rate"],
                  "coefficients": fit["coefficients"]}
        problems = []
        if not 0.0 <= risk["expected_correct_rate"] <= 1.0:
            problems.append(f"expected_correct_rate {risk['expected_correct_rate']} outside [0, 1]")
        if len(risk["per_target"]) != self.n:
            problems.append(f"risk report has {len(risk['per_target'])} targets, expected {self.n}")
        if not fit["converged"]:
            problems.append("fit on the masked release did not converge")
        if not all(_finite(v) for v in fit["coefficients"].values()):
            problems.append(f"non-finite coefficients {fit['coefficients']}")
        return Outcome(self.n, len(codes), failed, values, problems)

    def expected_counts(self) -> dict:
        return {
            "masking.build_operator.calls": 1,
            "glm.fit.calls": 1,
            "risk.risk_report.calls": 1,
            "risk.ap_components.calls": self.n,
            "dataset.load_csv.calls": 4,
            "dataset.write_csv.calls": 1,
        }


# ---------------------------------------------------------------------------
# bootstrap_remask: bootstrap CI of the population log odds ratio, remasking
# every resample

class BootstrapRemask:
    """Binomial-logit on a group fraction g and a covariate z, b remasked refits.

    Builds one new operator per replicate on resampled locations: the opposite
    use of the operator layer from `study`, so distance caching across lambda
    and batching fits over a shared design should leave it unchanged.
    """

    n = 800
    b = 200
    trials = 25.0   # constant, so a masked outcome (a convex combination) never exceeds it
    remask = (kernels.BivariateNormalKernel(1.0, 1.0, 0.3), 0.05)

    def setup(self, seed: int, workdir: Path) -> dict:
        rng = np.random.default_rng([seed, 2])
        locs = rng.uniform(-1.0, 1.0, size=(self.n, 2))
        g = 1.0 / (1.0 + np.exp(-3.0 * locs[:, 0] + rng.normal(0.0, 0.5, self.n)))
        z = rng.standard_normal(self.n)
        p = 1.0 / (1.0 + np.exp(1.0 - 0.8 * g - 0.4 * z))
        trials = np.full(self.n, self.trials)
        y = rng.binomial(trials.astype(int), p).astype(float)
        return {"x": np.column_stack([g, z]), "y": y, "trials": trials, "locs": locs,
                "seed": seed}

    def run(self, inputs: dict):
        model = glm.ModelSpec("binomial-logit", ("g", "z"))
        try:
            return glm.bootstrap_ci(model, inputs["x"], inputs["y"], statistic="log_or",
                                    b=self.b, seed=inputs["seed"], trials=inputs["trials"],
                                    locs=inputs["locs"], remask=self.remask, group="g")
        except RuntimeError as err:   # more than a tenth of the refits failed
            return err

    def outcome(self, inputs: dict, res) -> Outcome:
        if isinstance(res, RuntimeError):
            return Outcome(self.b, self.b, self.b, {}, [str(res)])
        values = {"se": res.se, "lower": res.lower, "upper": res.upper,
                  "n_failed": res.n_failed}
        problems = []
        if res.n_replicates != self.b:
            problems.append(f"{res.n_replicates} replicates, expected {self.b}")
        if not (_finite(res.se) and res.se > 0.0 and res.lower < res.upper):
            problems.append(f"degenerate interval {values}")
        return Outcome(self.b, self.b, res.n_failed, values, problems)

    def expected_counts(self) -> dict:
        return {"masking.build_operator.calls": self.b, "glm.fit.calls": self.b}


WORKLOADS = {"study": Study(), "release": Release(), "bootstrap_remask": BootstrapRemask()}

