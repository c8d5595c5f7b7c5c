"""The four benchmark workloads.

All use the paper's 42-day design: 5 decisions per day (T = 210),
randomization probability 0.4, and a day-quadratic effect peaking on day 29.
Each workload has three streams of operations:

* ``primary`` -- the in-process unit of work behind ``op_ms.*``;
* ``alt``     -- a second in-process path over the same inputs
  (``alt_op_ms.p50``);
* ``cli``     -- one command-line subprocess (``cli_s``).

``build`` makes the inputs from the seed and runs in the set-up process; the
program only ever sees those inputs.  A round of a stream times each of its
units of work with a ``HostClock`` and returns a sha256 digest of its
canonical numeric output, which the runner compares with the digest recorded
for the seed (or, for other seeds, with the stream's first round).
"""

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field

import numpy as np

import mrtpower as m
import mrtpower.cli  # noqa: F401  (binds m.cli)

DAYS, PER_DAY, RHO, MAX_DAY = 42, 5, 0.4, 29
ALPHA0 = 0.05

# Acceptance criterion 01: (average effect, constant availability) -> n at
# alpha0 = 0.05 and power 0.80.
FROZEN_N = {
    (0.10, 0.7): 32, (0.10, 0.6): 36, (0.10, 0.5): 42, (0.10, 0.4): 52,
    (0.09, 0.7): 38, (0.09, 0.6): 44, (0.09, 0.5): 51, (0.09, 0.4): 63,
    (0.08, 0.7): 47, (0.08, 0.6): 54, (0.08, 0.5): 64, (0.08, 0.4): 78,
    (0.07, 0.7): 60, (0.07, 0.6): 69, (0.07, 0.5): 81, (0.07, 0.4): 101,
    (0.06, 0.7): 79, (0.06, 0.6): 92, (0.06, 0.5): 109, (0.06, 0.4): 135,
    (0.05, 0.7): 112, (0.05, 0.6): 130, (0.05, 0.5): 155, (0.05, 0.4): 193,
}
PAPER_EFFECTS = (0.10, 0.09, 0.08, 0.07, 0.06, 0.05)
PAPER_AVAILS = (0.7, 0.6, 0.5, 0.4)


@dataclass
class Round:
    """One round of a stream.

    ``times`` maps each timed item (a sizing cell, a replicate batch, ...)
    to its scaled latency per unit of work, in ms (in s for the CLI stream), and
    ``units`` maps it to the units it did.  ``bad`` counts units that failed
    a semantic check.
    """

    stream: str
    times: dict
    units: dict
    digest: str
    bad: int = 0
    problems: list = field(default_factory=list)

    @property
    def seconds(self):
        """Scaled time spent inside the program during the round."""
        scale = 1.0 if self.stream == "cli" else 1e-3
        return sum(self.times[k] * self.units[k] for k in self.times) * scale


def digest(obj):
    canon = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def text_digest(text):
    return hashlib.sha256(text.encode() if isinstance(text, str) else text).hexdigest()


def paper_design():
    return m.TrialDesign(days=DAYS, decisions_per_day=PER_DAY, rho=RHO)


def base_config():
    return {
        "design": {"days": DAYS, "decisions_per_day": PER_DAY, "rho": RHO},
        "alpha0": ALPHA0,
    }


class Workload:
    shares = {"primary": 0.5, "alt": 0.2, "cli": 0.3}
    # Streams run in one traced cycle.
    traced = ("primary",)

    def __init__(self, inputs, workdir, seed, clock):
        self.inputs = inputs
        self.workdir = workdir
        self.seed = seed
        self.clock = clock

    def run_cli(self, *args):
        """Run ``mrtpower`` in a fresh interpreter; returns (seconds, stdout)."""
        proc, elapsed = self.clock.time(
            subprocess.run, [sys.executable, "-m", "mrtpower.cli", *args],
            capture_output=True, text=True, cwd=self.workdir, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"mrtpower {args[0]} exited {proc.returncode}: {proc.stderr}")
        return elapsed, proc.stdout

    def cli_round(self, elapsed, stdout, problems):
        return Round("cli", {"cli": elapsed}, {"cli": 1}, text_digest(stdout),
                     len(problems), problems)

    def write_config(self, name, config):
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        return path


class SizeGrid(Workload):
    """96 sizing cells: availability x effect average x (alpha0, power).

    Bypasses the estimator, the generator and the CSV layer entirely.
    """

    AVAILS = (0.4, 0.5, 0.6, 0.7)
    EFFECTS = (0.05, 0.06, 0.07, 0.08, 0.09, 0.10)
    TESTS = ((0.05, 0.80), (0.05, 0.90), (0.01, 0.80), (0.01, 0.90))
    unit = "cell"

    @classmethod
    def build(cls, seed, small):
        design = paper_design()
        cells = [
            (avail, effect, alpha0, target)
            for avail in cls.AVAILS
            for effect in cls.EFFECTS
            for alpha0, target in cls.TESTS
        ]
        if small:
            cells = [c for c in cells if c[0] in (0.5, 0.7) and c[1] == 0.10][:4]
        order = np.random.default_rng(seed).permutation(len(cells))
        return {
            "design": design,
            "features": m.build_quadratic_features(design),
            "cells": [cells[i] for i in order],
        }

    def __init__(self, inputs, workdir, seed, clock):
        super().__init__(inputs, workdir, seed, clock)
        self.trace_units = len(inputs["cells"])
        self.solved = {}
        self.sizing = {}
        config = base_config()
        config.update(
            availability={"kind": "constant", "average": 0.5},
            effect={"form": "quadratic", "initial": 0.0, "average": 0.1, "max_day": MAX_DAY},
            power=0.80,
            grid={"effect_averages": list(PAPER_EFFECTS),
                  "availability_averages": list(PAPER_AVAILS)},
        )
        self.config = self.write_config("size.json", config)

    def _inputs(self, cell):
        avail, effect, alpha0, target = cell
        design = self.inputs["design"]
        return m.SizingInputs(
            design=design,
            features=self.inputs["features"],
            tau=m.make_availability("constant", avail, design),
            effect=m.elicit_quadratic_effect(0.0, effect, MAX_DAY, design),
            alpha0=alpha0,
            power_target=target,
        )

    def primary(self):
        """Build each cell's inputs and solve for the minimal n."""
        times, out = {}, {}
        for cell in self.inputs["cells"]:
            result, elapsed = self.clock.time(lambda: m.solve_sample_size(self._inputs(cell)))
            times[cell] = elapsed * 1e3
            out[cell] = (result.n, result.achieved_power, result.power_at_n_minus_1)
        problems = []
        for cell, (n, achieved, below) in out.items():
            avail, effect, alpha0, target = cell
            frozen = FROZEN_N.get((effect, avail)) if (alpha0, target) == (0.05, 0.80) else None
            if not (achieved >= target > below) or frozen not in (None, n):
                problems.append(f"cell {cell}: n={n} power={achieved} at n-1={below}")
        self.solved = out
        rows = [[*cell, *out[cell]] for cell in sorted(out)]
        return Round("primary", times, dict.fromkeys(times, 1), digest(rows),
                     len(problems), problems)

    def alt(self):
        """Analytic power at each cell's solved n (the ``power`` command's path)."""
        if not self.sizing:
            self.sizing = {cell: self._inputs(cell) for cell in self.inputs["cells"]}
        times, out = {}, {}
        for cell in self.inputs["cells"]:
            out[cell], elapsed = self.clock.time(m.power, self.solved[cell][0], self.sizing[cell])
            times[cell] = elapsed * 1e3
        problems = [f"power({self.solved[c][0]}) at {c} differs from the solver's"
                    for c in out if out[c] != self.solved[c][1]]
        rows = [[*cell, out[cell]] for cell in sorted(out)]
        return Round("alt", times, dict.fromkeys(times, 1), digest(rows),
                     len(problems), problems)

    def cli(self):
        elapsed, stdout = self.run_cli("size", self.config, "--grid")
        got = json.loads(stdout)["n"]
        want = [[FROZEN_N[(e, a)] for a in PAPER_AVAILS] for e in PAPER_EFFECTS]
        problems = [] if got == want else [f"size --grid n table {got} != criterion 01"]
        return self.cli_round(elapsed, stdout, problems)


class _MonteCarlo(Workload):
    """``monte_carlo`` at N = 42 subjects.

    The primary stream runs ``batches`` small 1-worker batches, each on its
    own seed.  ``alt_batch`` sizes the alt stream.
    """

    N = 42
    unit = "replicate"

    def __init__(self, inputs, workdir, seed, clock):
        super().__init__(inputs, workdir, seed, clock)
        self.batch, self.batches, self.alt_batch = inputs["sizes"]
        self.trace_units = self.batch * self.batches
        self.alt_report = None

    def _run(self, reps, seed, threads):
        timer = self.clock.time_parallel if threads > 1 else self.clock.time
        report, elapsed = timer(m.monte_carlo, self.inputs["model"], self.N, reps, ALPHA0,
                                seed=seed, threads=threads)
        return elapsed * 1e3 / reps, report

    def primary(self):
        times, reports, failures = {}, [], 0
        for j in range(self.batches):
            times[j], report = self._run(self.batch, self.seed * 100 + j, 1)
            reports.append(report.to_dict())
            failures += report.failures
        problems = [f"{failures} replicate(s) failed"] if failures else []
        return Round("primary", times, dict.fromkeys(times, self.batch), digest(reports),
                     failures, problems)


class McIidNull(_MonteCarlo):
    """The paper's type-I cell: working-true model, iid-normal errors, zero
    effect, availability 0.5, N = 42, alpha0 = 0.05.

    The alt stream runs one larger batch with 2 workers, whose report must
    equal the 1-worker report for the same batch.
    """

    def alt(self):
        if self.alt_report is None:
            self.alt_report = self._run(self.alt_batch, self.seed, 1)[1].to_dict()
        per_rep, report = self._run(self.alt_batch, self.seed, 2)
        problems = []
        if report.to_dict() != self.alt_report:
            problems.append("2-worker report differs from the 1-worker report")
        return Round("alt", {0: per_rep}, {0: self.alt_batch}, digest(report.to_dict()),
                     self.alt_batch * len(problems), problems)

    @classmethod
    def build(cls, seed, small):
        design = paper_design()
        model = m.GenerativeModel.working_true(
            design,
            m.EffectPath.quadratic(np.zeros(3), design),
            m.make_availability("constant", 0.5, design),
            m.ErrorProcess("iid-normal"),
        )
        return {"model": model, "sizes": (1, 2, 2) if small else (2, 10, 20)}

    def cli(self):
        # The bundled type-I preset runs this model at availability 0.5 and
        # 0.7; its 0.5 cell must reproduce the alt stream's report.
        elapsed, stdout = self.run_cli("simulate", "--paper-table", "typeI-6wk",
                                       "--reps", str(self.alt_batch), "--seed", str(self.seed))
        cell = json.loads(stdout)["reports"][0][0]
        problems = []
        if self.alt_report is not None and cell != json.loads(json.dumps(self.alt_report)):
            problems.append("simulate --paper-table report differs from monte_carlo")
        return self.cli_round(elapsed, stdout, problems)


class McFeedbackAr5(_MonteCarlo):
    """Treatment feedback (eta1 = eta2 = gamma1 = gamma2 = 0.1) with AR(5)
    errors, effect average 0.10, availability 0.5, N = 42; sigma* is
    calibrated in set-up.

    The alt stream repeats a ``calibrate_sigma_star`` of ``alt_batch``
    replicates, which the set-up also runs.
    """

    FEEDBACK = {"eta1": 0.1, "eta2": 0.1, "gamma1": 0.1, "gamma2": 0.1}
    CALIBRATION_REPS = 2000
    # Fewer would leave some decision point under calibration's sample floor.
    CLI_CALIBRATION_REPS = 400
    CLI_REPS = 4

    @classmethod
    def build(cls, seed, small):
        design = paper_design()
        model = m.GenerativeModel.treatment_feedback(
            design,
            m.elicit_quadratic_effect(0.0, 0.10, MAX_DAY, design),
            m.make_availability("constant", 0.5, design),
            m.ErrorProcess("ar5", 0.6),
            **cls.FEEDBACK,
        )
        reps = cls.CLI_CALIBRATION_REPS if small else cls.CALIBRATION_REPS
        return {
            "model": m.calibrate_sigma_star(model, reps, seed=seed),
            "sizes": (1, 2, cls.CLI_CALIBRATION_REPS) if small
            else (2, 4, cls.CLI_CALIBRATION_REPS),
        }

    def __init__(self, inputs, workdir, seed, clock):
        super().__init__(inputs, workdir, seed, clock)
        config = base_config()
        config.update(
            availability={"kind": "constant", "average": 0.5},
            effect={"form": "quadratic", "initial": 0.0, "average": 0.10, "max_day": MAX_DAY},
            errors={"family": "ar5", "phi": 0.6},
            scenario={"name": "treatment-feedback", **self.FEEDBACK,
                      "calibration_reps": self.CLI_CALIBRATION_REPS},
            n=self.N,
            reps=self.CLI_REPS,
            seed=seed,
        )
        self.config = self.write_config("simulate.json", config)

    def alt(self):
        model, elapsed = self.clock.time(m.calibrate_sigma_star, self.inputs["model"],
                                         self.alt_batch, seed=self.seed)
        out = [model.sigma_star, model.c_mean_avail.tolist()]
        problems = [] if 0.0 < model.sigma_star <= 1.0 else [f"sigma* = {model.sigma_star}"]
        return Round("alt", {0: elapsed * 1e3 / self.alt_batch}, {0: self.alt_batch},
                     digest(out), self.alt_batch * len(problems), problems)

    def cli(self):
        elapsed, stdout = self.run_cli("simulate", self.config)
        report = json.loads(stdout)
        ok = report["failures"] == 0 and report["requested"] == self.CLI_REPS
        return self.cli_round(elapsed, stdout, [] if ok else [f"simulate report {report}"])


class AnalyzeCsv(Workload):
    """One N = 400 trial (working-true model, AR(1) errors, effect 0.10,
    availability 0.5) exported to CSV, read back and tested.

    The primary stream is ``read_dataset`` + ``hypothesis_test``; the alt
    stream is ``write_dataset``; the CLI runs ``analyze`` on the same file.
    """

    shares = {"primary": 0.4, "alt": 0.3, "cli": 0.3}
    traced = ("alt", "primary")
    unit = "call"
    trace_units = 1

    @classmethod
    def build(cls, seed, small):
        design = paper_design()
        model = m.GenerativeModel.working_true(
            design,
            m.elicit_quadratic_effect(0.0, 0.10, MAX_DAY, design),
            m.make_availability("constant", 0.5, design),
            m.ErrorProcess("ar1", 0.6),
        )
        return {
            "features": m.build_quadratic_features(design),
            "dataset": m.generate_dataset(model, 20 if small else 400, seed=seed),
        }

    def __init__(self, inputs, workdir, seed, clock):
        super().__init__(inputs, workdir, seed, clock)
        self.csv = os.path.join(workdir, "trial.csv")
        self.config = self.write_config("analyze.json", base_config())
        self.result = None
        m.cli.write_dataset(inputs["dataset"], self.csv)
        self.round_trip_ok = _same_dataset(inputs["dataset"], m.cli.read_dataset(self.csv))

    def primary(self):
        result, elapsed = self.clock.time(
            lambda: m.hypothesis_test(m.cli.read_dataset(self.csv), self.inputs["features"],
                                      ALPHA0))
        self.result = json.loads(json.dumps(result.to_dict()))
        problems = [] if self.round_trip_ok else ["CSV round trip changed the dataset"]
        return Round("primary", {0: elapsed * 1e3}, {0: 1}, digest(self.result),
                     len(problems), problems)

    def alt(self):
        _, elapsed = self.clock.time(m.cli.write_dataset, self.inputs["dataset"], self.csv)
        with open(self.csv, "rb") as fh:
            data = fh.read()
        return Round("alt", {0: elapsed * 1e3}, {0: 1}, text_digest(data))

    def cli(self):
        elapsed, stdout = self.run_cli("analyze", self.csv, self.config)
        payload = json.loads(stdout)
        payload.pop("config_digest")
        problems = []
        if self.result is not None and payload != self.result:
            problems.append("analyze stdout differs from hypothesis_test")
        return self.cli_round(elapsed, stdout, problems)


def _same_dataset(a, b):
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        for name in ("avail", "action", "prob"):
            if not np.array_equal(getattr(x, name), getattr(y, name)):
                return False
        if not np.array_equal(x.outcome, y.outcome, equal_nan=True):
            return False
    return True


WORKLOADS = {
    "size-grid": SizeGrid,
    "mc-iid-null": McIidNull,
    "mc-feedback-ar5": McFeedbackAr5,
    "analyze-csv": AnalyzeCsv,
}
