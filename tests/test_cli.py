"""
Tests for the command-line front end.

Tolerance strategy
------------------
The CLI is plumbing: everything underneath is covered by the module suites,
so these tests pin exact exit codes, exact JSON payload structure, frozen
sample-size cells, and bit-identical round trips (CSV export -> analyze must
reproduce the in-memory test result, and repeated runs with one seed must
produce byte-identical output).  No statistical bands are needed here.
"""

import hashlib
import json
import re

import numpy as np
import pytest
from click.testing import CliRunner

from _reference_csv import reference_read_dataset
from mrtpower.cli import DATASET_HEADER, _READ_BLOCK, main, read_dataset, write_dataset
from mrtpower.design import (
    TrialDesign,
    build_quadratic_features,
    elicit_quadratic_effect,
    make_availability,
)
from mrtpower import simulate
from mrtpower.estimator import Dataset, hypothesis_test
from mrtpower.exceptions import ConfigError
from mrtpower.simulate import ErrorProcess, GenerativeModel, generate_dataset

TINY_DESIGN = {"days": 3, "decisions_per_day": 4, "rho": 0.4}
TINY_EFFECT = {"form": "quadratic", "initial": 0.0, "average": 0.3, "max_day": 2}
SIZED_DESIGN = {"days": 42, "decisions_per_day": 5, "rho": 0.4}
SIZED_EFFECT = {"form": "quadratic", "initial": 0.0, "average": 0.10, "max_day": 29}


@pytest.fixture()
def runner():
    return CliRunner()


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def tiny_sim_config(**overrides):
    doc = {
        "design": dict(TINY_DESIGN),
        "availability": {"kind": "constant", "average": 0.6},
        "effect": dict(TINY_EFFECT),
        "errors": {"family": "iid-normal"},
        "scenario": {"name": "working-true"},
        "n": 9,
        "alpha0": 0.05,
        "reps": 12,
        "seed": 3,
    }
    doc.update(overrides)
    return doc


def tiny_model():
    design = TrialDesign(days=3, decisions_per_day=4, rho=0.4)
    return GenerativeModel.working_true(
        design,
        elicit_quadratic_effect(0.0, 0.3, 2, design),
        make_availability("constant", 0.6, design),
        ErrorProcess("iid-normal"),
    ), design


# =====================================================================
# Configuration validation
# =====================================================================


class TestConfigValidation:
    def size_doc(self):
        return {
            "design": dict(SIZED_DESIGN),
            "availability": {"kind": "constant", "average": 0.7},
            "effect": dict(SIZED_EFFECT),
            "alpha0": 0.05,
            "power": 0.8,
        }

    def test_unknown_top_level_key(self, runner, tmp_path):
        doc = self.size_doc()
        doc["powerr"] = 0.8
        res = runner.invoke(main, ["size", write_json(tmp_path / "c.json", doc)])
        assert res.exit_code == 2
        assert "unknown configuration key" in res.stderr
        assert "'powerr'" in res.stderr

    def test_unknown_nested_key_reports_the_path(self, runner, tmp_path):
        doc = self.size_doc()
        doc["design"]["dayz"] = 1
        res = runner.invoke(main, ["size", write_json(tmp_path / "c.json", doc)])
        assert res.exit_code == 2
        assert "'design.dayz'" in res.stderr

    def test_missing_key_reports_the_path(self, runner, tmp_path):
        doc = self.size_doc()
        del doc["availability"]["average"]
        res = runner.invoke(main, ["size", write_json(tmp_path / "c.json", doc)])
        assert res.exit_code == 2
        assert "'availability.average'" in res.stderr

    def test_wrong_type_reports_the_path(self, runner, tmp_path):
        doc = self.size_doc()
        doc["design"]["days"] = "42"
        res = runner.invoke(main, ["size", write_json(tmp_path / "c.json", doc)])
        assert res.exit_code == 2
        assert "design.days" in res.stderr and "integer" in res.stderr

    def test_out_of_range_value(self, runner, tmp_path):
        doc = self.size_doc()
        doc["alpha0"] = 0.7
        res = runner.invoke(main, ["size", write_json(tmp_path / "c.json", doc)])
        assert res.exit_code == 2
        assert "alpha0" in res.stderr

    @pytest.mark.parametrize("command", ["size", "power", "simulate", "analyze"])
    def test_alpha0_without_a_double_precision_test(self, runner, tmp_path, command):
        # 1 - 1e-17 rounds to 1.0: one error line, exit 2, for every command
        doc = {
            "size": self.size_doc(),
            "power": TestPower().power_doc(42),
            "simulate": tiny_sim_config(),
            "analyze": {"design": dict(TINY_DESIGN), "alpha0": 0.05},
        }[command]
        doc["alpha0"] = 1e-17
        config = write_json(tmp_path / "c.json", doc)
        args = [command, str(tmp_path / "data.csv"), config] if command == "analyze" else [
            command, config]
        res = runner.invoke(main, args)
        assert res.exit_code == 2
        assert res.stderr == (
            "error: alpha0 must leave 1 - alpha0 below 1.0 in double precision, got 1e-17\n"
        )

    def test_invalid_json_reports_position(self, runner, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"design": }')
        res = runner.invoke(main, ["size", str(path)])
        assert res.exit_code == 2
        assert "not valid JSON" in res.stderr and "line 1" in res.stderr

    @pytest.mark.parametrize(
        "digits,message",
        [
            (400, "power must be a number, got an integer too large for a float"),
            (4400, "cannot read config: Exceeds the limit (4300 digits)"),
        ],
        ids=["float-overflow", "digit-limit"],
    )
    def test_oversized_integer_is_config_error(self, runner, tmp_path, digits, message):
        # 10**digits overflows a float; past 4300 digits json.load cannot parse it
        path = tmp_path / "c.json"
        text = json.dumps(self.size_doc())
        path.write_text(text.replace('"power": 0.8', '"power": 1' + "0" * digits))
        res = runner.invoke(main, ["size", str(path)])
        assert res.exit_code == 2
        assert res.stderr.startswith(f"error: {message}")
        assert res.stderr.count("\n") == 1 and "0" * 50 not in res.stderr

    def test_non_utf8_config_is_config_error(self, runner, tmp_path):
        path = tmp_path / "c.json"
        path.write_bytes(b'{"alpha0": "\xff"}')
        res = runner.invoke(main, ["size", str(path)])
        assert res.exit_code == 2
        assert res.stderr.startswith("error: cannot read config: 'utf-8' codec")

    def test_empty_rho_list_reports_the_path(self, runner, tmp_path):
        doc = self.size_doc()
        doc["design"]["rho"] = []
        res = runner.invoke(main, ["size", write_json(tmp_path / "c.json", doc)])
        assert res.exit_code == 2
        assert res.stderr == "error: design.rho must be a non-empty array of numbers, got []\n"

    @pytest.mark.parametrize(
        "availability,message",
        [
            (
                {"kind": "constant", "average": 0.5, "amplitude": 0.9},
                "unknown configuration key(s): 'availability.amplitude'",
            ),
            (
                {"kind": "linear", "average": 0.5, "amplitude": 0.2, "break_day": 7},
                "unknown configuration key(s): 'availability.break_day'",
            ),
            (
                {"kind": "piecewise", "average": 0.5, "amplitude": 0.2, "break_day": 7.5},
                "availability.break_day must be an integer, got 7.5",
            ),
            (
                {"kind": "piecewise", "average": 0.5, "amplitude": 0.2, "break_day": 7.0},
                "availability.break_day must be an integer, got 7.0",
            ),
            (
                {"kind": "piecewise", "average": 0.5, "amplitude": 0.2},
                "missing required configuration key 'availability.break_day'",
            ),
        ],
        ids=["amplitude-on-constant", "break_day-on-linear", "fractional-break_day",
             "integral-float-break_day", "piecewise-without-break_day"],
    )
    def test_shape_keys_follow_the_kind(self, runner, tmp_path, availability, message):
        doc = self.size_doc()
        doc["availability"] = availability
        res = runner.invoke(main, ["size", write_json(tmp_path / "c.json", doc)])
        assert res.exit_code == 2
        assert res.stderr == f"error: {message}\n"

    def test_missing_config_file(self, runner):
        res = runner.invoke(main, ["size", "does-not-exist.json"])
        assert res.exit_code == 2
        assert "cannot read config" in res.stderr

    # Each config breaks two keys; the error is the one its command meets first.
    # size and power build the design's features as soon as they read it, and
    # no command builds availability, effect or model before its last key.
    @pytest.mark.parametrize(
        "command,breaks,message",
        [
            ("size", {"design.days": 2, "availability.kind": "bogus"},
             "quadratic day features need at least 3 days (u^2 = u on days 0 and 1), got days=2"),
            ("size", {"availability.average": 0, "effect.form": "zzz"},
             "availability.average must be a number in (0, 1], got 0"),
            ("size", {"effect.max_day": 0, "alpha0": 0.7},
             "effect.max_day must be an integer >= 1, got 0"),
            ("size", {"foo": 1, "power": 2}, "power must be a number in (0, 1), got 2"),
            ("size", {"effect.average": 0.0, "effect.max_day": 100},
             "no solution: null effect (a zero average standardized effect can never reach "
             "the power target)"),
            ("size", {"effect.average": 0.0, "foo": 1}, "unknown configuration key(s): 'foo'"),
            ("power", {"design.days": 2, "effect.form": "zzz"},
             "quadratic day features need at least 3 days (u^2 = u on days 0 and 1), got days=2"),
            ("power", {"effect.average": 0.0, "effect.max_day": 100},
             "max_day must satisfy 1 < max_day <= days=42, got 100"),
            ("power", {"errors.family": "ar9", "scenario.name": "nope"},
             "errors.family must be one of iid-normal, iid-t3-scaled, iid-exp-centered, ar1, "
             "ar5; got 'ar9'"),
            ("power", {"n": 0, "errors.phi": 2}, "n must be an integer >= 1, got 0"),
            ("power", {"scenario.theta": 1, "reps": 0},
             "unknown configuration key(s): 'scenario.theta'"),
            ("power", {"alpha0": 0.7, "design.extra": 1},
             "unknown configuration key(s): 'design.extra'"),
            ("simulate", {"design.days": 2, "effect.form": "zzz"},
             "effect.form must be one of quadratic, shaped; got 'zzz'"),
            ("simulate", {"errors.phi": 2, "n": 0}, "phi must be a number in (-1, 1), got 2.0"),
            ("simulate", {"scenario.name": "nope", "alpha0": 0.7},
             "scenario.name must be one of working-true, availability-feedback, weekend-mean, "
             "nonquadratic-effect, heteroscedastic, treatment-feedback; got 'nope'"),
            ("simulate", {"n": 0, "alpha0": 0.7}, "n must be an integer >= 1, got 0"),
            ("simulate", {"availability.kind": "linear", "availability.amplitude": 1.5, "foo": 1},
             "unknown configuration key(s): 'foo'"),
            ("simulate", {"effect.max_day": 100, "reps": 0}, "reps must be an integer >= 1, got 0"),
        ],
    )
    def test_first_error_comes_from_the_first_key_read(
            self, runner, tmp_path, command, breaks, message):
        doc = {
            "size": self.size_doc(),
            "power": dict(self.size_doc(), n=42, errors={"family": "ar1", "phi": 0.5},
                          scenario={"name": "working-true"}),
            "simulate": tiny_sim_config(errors={"family": "ar1", "phi": 0.5}),
        }[command]
        for key, value in breaks.items():
            *blocks, last = key.split(".")
            target = doc
            for block in blocks:
                target = target[block]
            target[last] = value
        res = runner.invoke(main, [command, write_json(tmp_path / "c.json", doc)])
        assert res.exit_code == 2
        assert res.stderr == f"error: {message}\n"


# =====================================================================
# size
# =====================================================================


class TestSize:
    def test_single_cell(self, runner, tmp_path):
        doc = TestConfigValidation().size_doc()
        res = runner.invoke(main, ["size", write_json(tmp_path / "c.json", doc)])
        assert res.exit_code == 0
        payload = json.loads(res.stdout)
        assert payload["n"] == 32
        assert payload["achieved_power"] >= 0.8 > payload["power_at_n_minus_1"]
        assert len(payload["config_digest"]) == 64
        assert "minimal sample size n = 32" in res.stderr

    def test_grid(self, runner, tmp_path):
        doc = TestConfigValidation().size_doc()
        doc["grid"] = {
            "effect_averages": [0.10, 0.06],
            "availability_averages": [0.5, 0.7],
        }
        res = runner.invoke(main, ["size", write_json(tmp_path / "c.json", doc), "--grid"])
        assert res.exit_code == 0
        payload = json.loads(res.stdout)
        assert payload["n"] == [[42, 32], [109, 79]]
        for i in range(2):
            for j in range(2):
                assert payload["achieved_power"][i][j] >= 0.8
                assert payload["power_at_n_minus_1"][i][j] < 0.8
        # the stderr table carries every cell, right-aligned
        assert "109" in res.stderr and "32" in res.stderr

    def test_grid_flag_requires_grid_block(self, runner, tmp_path):
        doc = TestConfigValidation().size_doc()
        res = runner.invoke(main, ["size", write_json(tmp_path / "c.json", doc), "--grid"])
        assert res.exit_code == 2
        assert "grid" in res.stderr

    def test_null_effect(self, runner, tmp_path):
        doc = TestConfigValidation().size_doc()
        doc["effect"]["average"] = 0.0
        res = runner.invoke(main, ["size", write_json(tmp_path / "c.json", doc)])
        assert res.exit_code == 2
        assert "no solution: null effect" in res.stderr

    def test_zero_average_with_nonzero_initial_is_not_null(self, runner, tmp_path):
        doc = TestConfigValidation().size_doc()
        doc["availability"]["average"] = 0.5
        doc["effect"] = {"form": "quadratic", "initial": 0.3, "average": 0.0, "max_day": 3}
        res = runner.invoke(main, ["size", write_json(tmp_path / "c.json", doc)])
        assert res.exit_code == 0
        assert json.loads(res.stdout)["n"] == 12
        assert "minimal sample size n = 12" in res.stderr

    def test_unrepresentable_design_length_is_config_error(self, runner, tmp_path):
        doc = TestConfigValidation().size_doc()
        doc["design"]["days"] = 10**30
        res = runner.invoke(main, ["size", write_json(tmp_path / "c.json", doc)])
        assert res.exit_code == 2
        assert res.stderr.startswith(f"error: the design has T = {5 * 10**30} decision times")
        assert len(res.stderr.splitlines()) == 1

    def test_fewer_than_three_days_is_config_error(self, runner, tmp_path):
        # with two days u^2 = u, so the quadratic day features are singular
        doc = TestConfigValidation().size_doc()
        doc["design"]["days"] = 2
        doc["effect"]["max_day"] = 2
        res = runner.invoke(main, ["size", write_json(tmp_path / "c.json", doc)])
        assert res.exit_code == 2
        assert "at least 3 days" in res.stderr


def long_size_doc(days, availability):
    # one decision a day; the effect peaks halfway through the trial
    return {
        "design": {"days": days, "decisions_per_day": 1, "rho": 0.4},
        "availability": availability,
        "effect": {"form": "quadratic", "initial": 0.0, "average": 0.10, "max_day": days // 2},
        "alpha0": 0.05,
        "power": 0.8,
    }


CONSTANT_HALF = {"kind": "constant", "average": 0.5}
LINEAR_HALF = {"kind": "linear", "average": 0.5, "amplitude": 1.0}


class TestLongDesigns:
    # The Gram guards test the unit-diagonal (equilibrated) matrix, so trial
    # length is not capped by the growth of the u^2 feature column.

    @pytest.mark.parametrize(
        "days, availability, digest",
        [
            (864, CONSTANT_HALF,
             "50882b28e87faf0afef22abad5dc361aaf888c9ddaff3ebfbe68c112dff78b60"),
            (537, LINEAR_HALF,
             "a93225a78a9baf882205743cce10ad2cd2bc002ac71de5ab27b07232a388ed03"),
        ],
        ids=["864-constant", "537-linear"],
    )
    def test_stdout_pinned_below_the_old_length_limit(
        self, runner, tmp_path, days, availability, digest
    ):
        doc = long_size_doc(days, availability)
        res = runner.invoke(main, ["size", write_json(tmp_path / "c.json", doc)])
        assert res.exit_code == 0
        assert hashlib.sha256(res.stdout.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "days, availability",
        [(1000, CONSTANT_HALF), (538, LINEAR_HALF)],
        ids=["1000-constant", "538-linear"],
    )
    def test_long_design_sizes_with_a_certificate(self, runner, tmp_path, days, availability):
        doc = long_size_doc(days, availability)
        res = runner.invoke(main, ["size", write_json(tmp_path / "c.json", doc)])
        assert res.exit_code == 0, res.stderr
        payload = json.loads(res.stdout)
        assert payload["achieved_power"] >= doc["power"] > payload["power_at_n_minus_1"]


# =====================================================================
# power
# =====================================================================


class TestPower:
    def power_doc(self, n):
        return {
            "design": dict(SIZED_DESIGN),
            "availability": {"kind": "constant", "average": 0.5},
            "effect": dict(SIZED_EFFECT),
            "alpha0": 0.05,
            "n": n,
        }

    def test_analytic_power_at_the_sized_n(self, runner, tmp_path):
        res = runner.invoke(
            main, ["power", write_json(tmp_path / "c.json", self.power_doc(42))]
        )
        assert res.exit_code == 0
        payload = json.loads(res.stdout)
        assert payload["analytic_power"] >= 0.80
        assert payload["noncentrality"] > 0.0
        assert "monte_carlo" not in payload

    def test_size_then_power_consistency(self, runner, tmp_path):
        sized = TestConfigValidation().size_doc()
        res = runner.invoke(main, ["size", write_json(tmp_path / "s.json", sized)])
        n = json.loads(res.stdout)["n"]
        doc = self.power_doc(n)
        doc["availability"]["average"] = 0.7
        res = runner.invoke(main, ["power", write_json(tmp_path / "p.json", doc)])
        assert json.loads(res.stdout)["analytic_power"] >= sized["power"]

    @pytest.mark.parametrize("target,reached", [(None, True), (0.8, True), (0.95, False)])
    def test_power_target_is_reported(self, runner, tmp_path, target, reached):
        doc = self.power_doc(42)
        if target is not None:
            doc["power"] = target
        res = runner.invoke(main, ["power", write_json(tmp_path / "c.json", doc)])
        assert res.exit_code == 0
        payload = json.loads(res.stdout)
        assert payload["power_target"] == (0.8 if target is None else target)
        assert payload["target_reached"] is reached
        assert payload["target_reached"] == (payload["analytic_power"] >= payload["power_target"])
        verdict = "reaches" if reached else "misses"
        assert f"({verdict} the target {payload['power_target']:g})" in res.stderr

    def test_degrees_of_freedom_guard(self, runner, tmp_path):
        res = runner.invoke(
            main, ["power", write_json(tmp_path / "c.json", self.power_doc(6))]
        )
        assert res.exit_code == 2
        assert "degrees of freedom" in res.stderr

    def test_mc_is_deterministic(self, runner, tmp_path):
        doc = {
            "design": dict(TINY_DESIGN),
            "availability": {"kind": "constant", "average": 0.6},
            "effect": dict(TINY_EFFECT),
            "alpha0": 0.05,
            "n": 10,
        }
        path = write_json(tmp_path / "c.json", doc)
        args = ["power", path, "--mc", "--reps", "25", "--seed", "7"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.exit_code == 0
        assert first.stdout == second.stdout
        payload = json.loads(first.stdout)
        mc = payload["monte_carlo"]
        assert mc["requested"] == 25 and mc["seed"] == 7
        assert mc["ci95"][0] <= mc["rate"] <= mc["ci95"][1]


# =====================================================================
# dataset CSV round trip
# =====================================================================


class TestDatasetIO:
    def test_round_trip_is_bit_exact(self, tmp_path):
        model, _ = tiny_model()
        data = generate_dataset(model, 5, seed=11)
        path = tmp_path / "d.csv"
        write_dataset(data, path)
        back = read_dataset(path)
        assert len(back) == len(data)
        for a, b in zip(data, back):
            assert a.avail.tobytes() == b.avail.tobytes()
            assert a.action.tobytes() == b.action.tobytes()
            assert a.prob.tobytes() == b.prob.tobytes()
            on = a.avail == 1
            assert a.outcome[on].tobytes() == b.outcome[on].tobytes()
            assert np.all(np.isnan(b.outcome[~on]))

    def test_unavailable_rows_have_empty_outcome_field(self, tmp_path):
        model, _ = tiny_model()
        path = tmp_path / "d.csv"
        write_dataset(generate_dataset(model, 3, seed=11), path)
        for line in path.read_text().splitlines()[1:]:
            fields = line.split(",")
            assert (fields[2] == "0") == (fields[5] == "")

    def write_lines(self, tmp_path, lines):
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_unwritable_path_is_config_error(self, tmp_path):
        data = generate_dataset(tiny_model()[0], 9, seed=1)
        with pytest.raises(ConfigError, match="cannot write dataset"):
            write_dataset(data, str(tmp_path / "missing" / "d.csv"))

    def test_bad_header(self, tmp_path):
        path = self.write_lines(tmp_path, ["subject,t,avail,action,p,outcome"])
        with pytest.raises(ConfigError, match="line 1"):
            read_dataset(path)

    def test_field_count(self, tmp_path):
        path = self.write_lines(
            tmp_path,
            ["subject,t,avail,action,prob,outcome", "0,1,1,0,0.4"],
        )
        with pytest.raises(ConfigError, match="line 2: expected 6"):
            read_dataset(path)

    def test_probability_out_of_range(self, tmp_path):
        path = self.write_lines(
            tmp_path,
            [
                "subject,t,avail,action,prob,outcome",
                "0,1,1,0,0.4,1.5",
                "0,2,1,1,1.5,0.2",
            ],
        )
        with pytest.raises(ConfigError, match=r"line 3.*\(0, 1\)"):
            read_dataset(path)

    def test_outcome_must_be_empty_when_unavailable(self, tmp_path):
        path = self.write_lines(
            tmp_path,
            ["subject,t,avail,action,prob,outcome", "0,1,0,0,0.4,1.0"],
        )
        with pytest.raises(ConfigError, match="line 2.*empty"):
            read_dataset(path)

    def test_subject_contiguity(self, tmp_path):
        path = self.write_lines(
            tmp_path,
            [
                "subject,t,avail,action,prob,outcome",
                "0,1,1,0,0.4,1.0",
                "2,1,1,0,0.4,1.0",
            ],
        )
        with pytest.raises(ConfigError, match="line 3.*contiguous"):
            read_dataset(path)

    def test_decision_time_sequence(self, tmp_path):
        path = self.write_lines(
            tmp_path,
            [
                "subject,t,avail,action,prob,outcome",
                "0,1,1,0,0.4,1.0",
                "0,3,1,0,0.4,1.0",
            ],
        )
        with pytest.raises(ConfigError, match="line 3: expected decision time 2"):
            read_dataset(path)

    def test_ragged_subjects(self, tmp_path):
        path = self.write_lines(
            tmp_path,
            [
                "subject,t,avail,action,prob,outcome",
                "0,1,1,0,0.4,1.0",
                "0,2,1,0,0.4,1.0",
                "1,1,1,0,0.4,1.0",
            ],
        )
        with pytest.raises(ConfigError, match="subject 1 has 1 rows"):
            read_dataset(path)

    # read-block boundaries: bodies longer than one block text of the reader

    def long_body(self, n_sub=5, n_t=1000):
        # with 1000 rows per subject, subject 3's block spans rows 3000-3999,
        # across the end of the first _READ_BLOCK characters after row 3994
        return [DATASET_HEADER] + [
            f"{s},{t},1,{t % 3 == 0:d},0.4,{0.5 + s}" if (s + t) % 2
            else f"{s},{t},0,{t % 3 == 0:d},0.4,"
            for s in range(n_sub) for t in range(1, n_t + 1)
        ]

    def second_text_line(self, lines):
        # the first line that does not end in the first _READ_BLOCK characters
        return "\n".join(lines)[:_READ_BLOCK].count("\n") + 1

    def test_block_spanning_two_chunks_reads_like_the_oracle(self, tmp_path):
        lines = self.long_body()
        assert len("\n".join(lines)) > _READ_BLOCK
        path = self.write_lines(tmp_path, lines)
        new, old = read_dataset(path), reference_read_dataset(path)
        assert new.avail.shape == (5, 1000)
        for name in ("avail", "action", "prob", "outcome"):
            a, b = getattr(new, name), getattr(old, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_bad_line_first_in_second_chunk(self, tmp_path):
        lines = self.long_body()
        line_no = self.second_text_line(lines)
        lines[line_no - 1] = lines[line_no - 1].replace(",0.4,", ",1.5,")
        path = self.write_lines(tmp_path, lines)
        with pytest.raises(ConfigError, match=rf"^line {line_no}: randomization probability"):
            read_dataset(path)

    def test_subject_beyond_int64_in_second_chunk_reads_like_the_oracle(self, tmp_path):
        lines = self.long_body()
        line_no = self.second_text_line(lines)
        fields = lines[line_no - 1].split(",")
        lines[line_no - 1] = ",".join(["99999999999999999999"] + fields[1:])
        path = self.write_lines(tmp_path, lines)
        with pytest.raises(ConfigError) as expected:
            reference_read_dataset(path)
        assert str(expected.value).startswith(f"line {line_no}: ")
        with pytest.raises(ConfigError) as got:
            read_dataset(path)
        assert str(got.value) == str(expected.value)

    def test_ragged_last_block(self, tmp_path):
        lines = self.long_body()[:-1]
        path = self.write_lines(tmp_path, lines)
        with pytest.raises(
            ConfigError,
            match=rf"^line {len(lines)}: subject 4 has 999 rows but subject 0 has 1000$",
        ):
            read_dataset(path)

    def test_short_middle_block_reported_where_the_next_block_starts(self, tmp_path):
        lines = self.long_body()
        del lines[4000]  # subject 3, t = 1000
        path = self.write_lines(tmp_path, lines)
        with pytest.raises(
            ConfigError, match=r"^line 4001: subject 3 has 999 rows but subject 0 has 1000$"
        ):
            read_dataset(path)

    @pytest.mark.parametrize(
        "first,first_message",
        [
            ("0,7,1,0,0.4,1.0", "expected decision time 8 for subject 0, got 7"),
            ("0,8,1,2,0.4,1.0", "action must be 0 or 1, got '2'"),
        ],
        ids=["block-rule", "field-check"],
    )
    def test_earlier_of_two_bad_lines_in_different_chunks(self, tmp_path, first, first_message):
        lines = self.long_body()
        lines[8] = first  # line 9: subject 0, t = 8
        lines[self.second_text_line(lines) + 50] = "4,1,1,0,0.4"  # a field-count error, later
        path = self.write_lines(tmp_path, lines)
        with pytest.raises(ConfigError, match=rf"^line 9: {re.escape(first_message)}$"):
            read_dataset(path)


# =====================================================================
# analyze
# =====================================================================


class TestAnalyze:
    def analyze_doc(self):
        return {"design": dict(TINY_DESIGN), "alpha0": 0.05}

    def test_matches_in_memory_result_bit_identically(self, runner, tmp_path):
        model, design = tiny_model()
        data = generate_dataset(model, 9, seed=3)
        csv_path = tmp_path / "d.csv"
        write_dataset(data, csv_path)
        res = runner.invoke(
            main,
            ["analyze", str(csv_path), write_json(tmp_path / "c.json", self.analyze_doc())],
        )
        assert res.exit_code == 0
        payload = json.loads(res.stdout)
        payload.pop("config_digest")
        expected = hypothesis_test(data, build_quadratic_features(design), 0.05)
        assert payload == expected.to_dict()

    def test_respects_adjustment_switches(self, runner, tmp_path):
        model, design = tiny_model()
        data = generate_dataset(model, 9, seed=3)
        csv_path = tmp_path / "d.csv"
        write_dataset(data, csv_path)
        doc = self.analyze_doc()
        doc["adjusted"] = False
        res = runner.invoke(
            main, ["analyze", str(csv_path), write_json(tmp_path / "c.json", doc)]
        )
        payload = json.loads(res.stdout)
        assert payload["adjustment"] == "none"
        expected = hypothesis_test(data, build_quadratic_features(design), 0.05, False)
        assert payload["statistic"] == expected.statistic

    def test_schema_error_exits_2(self, runner, tmp_path):
        csv_path = tmp_path / "d.csv"
        csv_path.write_text("subject,t,avail,action,prob,outcome\n0,1,1,0,2.0,1.0\n")
        res = runner.invoke(
            main,
            ["analyze", str(csv_path), write_json(tmp_path / "c.json", self.analyze_doc())],
        )
        assert res.exit_code == 2
        assert "line 2" in res.stderr

    def test_non_utf8_dataset_exits_2(self, runner, tmp_path):
        csv_path = tmp_path / "d.csv"
        csv_path.write_bytes(b"subject,t,avail,action,prob,outcome\n0,1,1,0,0.4,\xff\n")
        res = runner.invoke(
            main,
            ["analyze", str(csv_path), write_json(tmp_path / "c.json", self.analyze_doc())],
        )
        assert res.exit_code == 2
        assert res.stderr.startswith("error: cannot read dataset: 'utf-8' codec")

    def test_numeric_failure_exits_3(self, runner, tmp_path):
        shape = (8, 12)
        records = Dataset(
            avail=np.zeros(shape, dtype=np.int8),
            action=np.zeros(shape, dtype=np.int8),
            prob=np.full(shape, 0.4),
            outcome=np.full(shape, np.nan),
        )
        csv_path = tmp_path / "d.csv"
        write_dataset(records, csv_path)
        res = runner.invoke(
            main,
            ["analyze", str(csv_path), write_json(tmp_path / "c.json", self.analyze_doc())],
        )
        assert res.exit_code == 3
        assert "singular" in res.stderr


# =====================================================================
# simulate
# =====================================================================


class TestSimulate:
    def test_deterministic_and_thread_invariant(self, runner, tmp_path):
        path = write_json(tmp_path / "c.json", tiny_sim_config())
        base = runner.invoke(main, ["simulate", path])
        again = runner.invoke(main, ["simulate", path])
        threaded = runner.invoke(main, ["simulate", path, "--threads", "3"])
        assert base.exit_code == 0
        assert base.stdout == again.stdout == threaded.stdout
        payload = json.loads(base.stdout)
        assert payload["requested"] == 12 and payload["seed"] == 3
        assert len(payload["config_digest"]) == 64

    def test_averaged_gram_thread_invariant(self, runner, tmp_path):
        # at T = 12 some replicates have a subject whose (I - H) is singular
        # under the averaged Gram, so the run mixes tests and guard failures
        path = write_json(tmp_path / "c.json", tiny_sim_config(gram="averaged"))
        one = runner.invoke(main, ["simulate", path, "--threads", "1"])
        two = runner.invoke(main, ["simulate", path, "--threads", "2"])
        assert one.exit_code == 0
        assert one.stdout == two.stdout
        payload = json.loads(one.stdout)
        assert payload["replicates"] == 5 and payload["failures"] == 7

    def test_flags_override_config(self, runner, tmp_path):
        path = write_json(tmp_path / "c.json", tiny_sim_config())
        res = runner.invoke(main, ["simulate", path, "--reps", "5", "--seed", "9"])
        payload = json.loads(res.stdout)
        assert payload["requested"] == 5 and payload["seed"] == 9

    def test_export_round_trip(self, runner, tmp_path):
        path = write_json(tmp_path / "c.json", tiny_sim_config(reps=4))
        out_dir = tmp_path / "out"
        res = runner.invoke(main, ["simulate", path, "--export", str(out_dir)])
        assert res.exit_code == 0
        files = sorted(out_dir.iterdir())
        assert [f.name for f in files] == [f"replicate-000{r}.csv" for r in range(4)]
        model, design = tiny_model()
        for replicate in (0, 3):
            analyze_doc = {"design": dict(TINY_DESIGN), "alpha0": 0.05}
            res = runner.invoke(
                main,
                [
                    "analyze",
                    str(files[replicate]),
                    write_json(tmp_path / "a.json", analyze_doc),
                ],
            )
            payload = json.loads(res.stdout)
            payload.pop("config_digest")
            data = generate_dataset(model, 9, seed=3, replicate=replicate)
            expected = hypothesis_test(data, build_quadratic_features(design), 0.05)
            assert payload == expected.to_dict()

    def test_export_bytes_equal_per_replicate_writes(self, runner, tmp_path):
        # n = 9 gives engine blocks of 96 // 9 = 10 replicates: 10, 10 and 3
        path = write_json(tmp_path / "c.json", tiny_sim_config(reps=23))
        out_dir = tmp_path / "out"
        res = runner.invoke(main, ["simulate", path, "--export", str(out_dir)])
        assert res.exit_code == 0
        model, _ = tiny_model()
        files = sorted(out_dir.iterdir())
        assert len(files) == 23
        for replicate, exported in enumerate(files):
            single = tmp_path / "single.csv"
            write_dataset(generate_dataset(model, 9, seed=3, replicate=replicate), single)
            assert exported.name == f"replicate-{replicate:04d}.csv"
            assert exported.read_bytes() == single.read_bytes()

    @pytest.mark.parametrize("threads, generated_here", [(1, 9 * 23), (2, 9 * 12)])
    def test_export_generates_each_replicate_once(
        self, runner, tmp_path, monkeypatch, threads, generated_here
    ):
        # rows generated in this process: every one with one worker; with
        # two, share 0's 12 replicates, while a child generates, tests and
        # writes the other 11.  Every process logs each replicate it
        # generates to one file, and each of the 23 appears there once.
        rows = []
        log = tmp_path / "generated.txt"

        def counting(model, streams):
            out = generate(model, streams)
            rows.append(out[0].shape[0])
            return out

        def logged(model, n, seed, replicates):
            for replicate, arrays in zip(replicates, replicate_arrays(model, n, seed, replicates)):
                with open(log, "a") as f:
                    f.write(f"{replicate}\n")
                yield arrays

        generate = simulate._generate
        replicate_arrays = simulate._replicate_arrays
        monkeypatch.setattr(simulate, "_generate", counting)
        monkeypatch.setattr(simulate, "_replicate_arrays", logged)
        path = write_json(tmp_path / "c.json", tiny_sim_config(reps=23))
        out_dir = tmp_path / "out"
        res = runner.invoke(
            main, ["simulate", path, "--threads", str(threads), "--export", str(out_dir)]
        )
        assert res.exit_code == 0
        assert sum(rows) == generated_here
        assert sorted(map(int, log.read_text().split())) == list(range(23))
        assert len(list(out_dir.iterdir())) == 23

    def test_export_is_thread_invariant(self, runner, tmp_path):
        path = write_json(tmp_path / "c.json", tiny_sim_config(reps=23))
        one = runner.invoke(main, ["simulate", path, "--export", str(tmp_path / "one")])
        two = runner.invoke(
            main, ["simulate", path, "--threads", "2", "--export", str(tmp_path / "two")]
        )
        assert one.exit_code == two.exit_code == 0
        assert one.stdout == two.stdout
        ones = sorted((tmp_path / "one").iterdir())
        twos = sorted((tmp_path / "two").iterdir())
        assert [f.name for f in ones] == [f.name for f in twos]
        assert len(ones) == 23
        for a, b in zip(ones, twos):
            assert a.read_bytes() == b.read_bytes(), a.name

    def test_all_failures_keep_the_export(self, runner, tmp_path):
        doc = tiny_sim_config(n=7, reps=6)
        doc["availability"]["average"] = 0.04
        out_dir = tmp_path / "out"
        res = runner.invoke(
            main, ["simulate", write_json(tmp_path / "c.json", doc), "--export", str(out_dir)]
        )
        assert res.exit_code == 3
        assert res.stdout == ""
        assert res.stderr.startswith("error: every replicate failed")
        assert len(res.stderr.splitlines()) == 1
        files = sorted(out_dir.iterdir())
        assert [f.name for f in files] == [f"replicate-000{r}.csv" for r in range(6)]
        # each exported dataset replays its replicate's failure
        analyze_doc = {"design": dict(TINY_DESIGN), "alpha0": 0.05}
        res = runner.invoke(
            main, ["analyze", str(files[0]), write_json(tmp_path / "a.json", analyze_doc)]
        )
        assert res.exit_code == 3

    @pytest.mark.parametrize("threads", [1, 2])
    def test_write_failure_in_a_worker_is_config_error(self, runner, tmp_path, threads):
        # a directory where replicate 1's file goes: worker 1 of 2 fails to open it
        path = write_json(tmp_path / "c.json", tiny_sim_config(reps=4))
        out_dir = tmp_path / "out"
        (out_dir / "replicate-0001.csv").mkdir(parents=True)
        res = runner.invoke(
            main, ["simulate", path, "--threads", str(threads), "--export", str(out_dir)]
        )
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr.startswith("error: cannot write dataset")
        assert len(res.stderr.splitlines()) == 1

    def test_export_to_a_file_is_config_error(self, runner, tmp_path):
        path = write_json(tmp_path / "c.json", tiny_sim_config(reps=4))
        target = tmp_path / "taken"
        target.write_text("")
        res = runner.invoke(main, ["simulate", path, "--export", str(target)])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr.startswith("error: cannot create export directory")
        assert len(res.stderr.splitlines()) == 1

    def test_wrong_length_rho_is_config_error(self, runner, tmp_path):
        doc = tiny_sim_config()
        doc["design"]["rho"] = [0.4, 0.5]
        res = runner.invoke(main, ["simulate", write_json(tmp_path / "c.json", doc)])
        assert res.exit_code == 2
        assert res.stderr.startswith("error: rho must")
        assert "length 12" in res.stderr
        assert len(res.stderr.splitlines()) == 1

    def test_scenario_configs_parse_and_run(self, runner, tmp_path):
        scenarios = [
            {"name": "weekend-mean", "theta": 0.3},
            {"name": "heteroscedastic", "variance_ratio": 1.2, "variance_trend": "weekend"},
            {"name": "availability-feedback", "eta": -0.2},
            {
                "name": "treatment-feedback",
                "eta1": -0.1,
                "eta2": -0.1,
                "gamma1": -0.3,
                "gamma2": -0.1,
                "calibration_reps": 400,
            },
        ]
        for scenario in scenarios:
            doc = tiny_sim_config(scenario=scenario, reps=4)
            res = runner.invoke(main, ["simulate", write_json(tmp_path / "c.json", doc)])
            assert res.exit_code == 0, (scenario["name"], res.stderr)
            payload = json.loads(res.stdout)
            assert payload["requested"] == 4

    def test_overflowing_treatment_feedback_is_one_error_line(self, runner, tmp_path):
        scenario = {"name": "treatment-feedback", "eta1": 1e308, "eta2": 0.1,
                    "gamma1": 0.1, "gamma2": 0.1, "calibration_reps": 400}
        doc = tiny_sim_config(scenario=scenario, reps=4)
        res = runner.invoke(main, ["simulate", write_json(tmp_path / "c.json", doc)])
        assert res.exit_code == 2
        assert res.stderr == (
            "error: availability probability left [0, 1]; the feedback "
            "parameterization (eta1, eta2) is too strong for this tau\n"
        )

    def test_overflowing_availability_feedback_is_one_error_line(self, runner, tmp_path):
        doc = tiny_sim_config(scenario={"name": "availability-feedback", "eta": 1e308}, reps=4)
        res = runner.invoke(main, ["simulate", write_json(tmp_path / "c.json", doc)])
        assert res.exit_code == 2
        assert res.stderr == (
            "error: eta = 1e+308 is too strong: the availability-feedback term "
            "eta * s overflows (|s| can reach 3.8 in this design)\n"
        )

    def test_nonquadratic_scenario_uses_shaped_effect(self, runner, tmp_path):
        doc = tiny_sim_config(
            scenario={"name": "nonquadratic-effect"},
            effect={"form": "shaped", "average": 0.3, "max_day": 2, "plateau_fraction": 0.5},
            reps=4,
        )
        res = runner.invoke(main, ["simulate", write_json(tmp_path / "c.json", doc)])
        assert res.exit_code == 0

    def test_reps_zero_rejected(self, runner, tmp_path):
        path = write_json(tmp_path / "c.json", tiny_sim_config(reps=0))
        res = runner.invoke(main, ["simulate", path])
        assert res.exit_code == 2
        assert "reps" in res.stderr

    def test_all_failures_exit_3(self, runner, tmp_path):
        doc = tiny_sim_config(n=7, reps=6)
        doc["availability"]["average"] = 0.04
        res = runner.invoke(main, ["simulate", write_json(tmp_path / "c.json", doc)])
        assert res.exit_code == 3

    def test_missing_config_argument(self, runner):
        res = runner.invoke(main, ["simulate"])
        assert res.exit_code == 2


class TestPaperTables:
    def test_preset_shape_and_determinism(self, runner, tmp_path):
        args = ["simulate", "--paper-table", "typeI-6wk", "--reps", "6", "--seed", "3"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.exit_code == 0
        assert first.stdout == second.stdout
        payload = json.loads(first.stdout)
        assert payload["table"] == "typeI-6wk"
        assert payload["col_values"] == [0.5, 0.7]
        assert len(payload["rates"]) == 1 and len(payload["rates"][0]) == 2
        assert payload["reports"][0][0]["requested"] == 6

    def test_hetero_preset_shape(self, runner):
        res = runner.invoke(
            main, ["simulate", "--paper-table", "power-hetero", "--reps", "4", "--seed", "3"]
        )
        assert res.exit_code == 0
        payload = json.loads(res.stdout)
        assert payload["row_values"] == [1.2, 1.0, 0.8]
        assert payload["col_values"] == ["constant", "increasing", "decreasing"]
        assert [len(row) for row in payload["rates"]] == [3, 3, 3]

    @pytest.mark.parametrize(
        "name, stdout_digest, stderr_digest",
        [
            ("typeI-6wk",
             "a74fa5afee785d6abc6ac4e284d0594800b0e627bfae84bc0df17104b7b4a2e2",
             "b7a923f61601421639b6986e63bb2ec51e7a5044303fde0ecdbadf5cc4427c16"),
            ("power-hetero",
             "78430b3fbf31aa06f8a2326be1f65f338e9b6f01cea09960dcd0e16744ecd006",
             "d6ad181639bf653640ffadd4af911c0b46537b9c6b613c447e21f22a061054f5"),
        ],
        ids=["typeI-6wk", "power-hetero"],
    )
    def test_preset_output_pinned(self, runner, name, stdout_digest, stderr_digest):
        res = runner.invoke(
            main, ["simulate", "--paper-table", name, "--reps", "4", "--seed", "3"]
        )
        assert res.exit_code == 0
        assert hashlib.sha256(res.stdout.encode()).hexdigest() == stdout_digest
        assert hashlib.sha256(res.stderr.encode()).hexdigest() == stderr_digest

    def test_unknown_preset(self, runner):
        res = runner.invoke(main, ["simulate", "--paper-table", "nope"])
        assert res.exit_code == 2
        assert "unknown table id" in res.stderr

    def test_preset_refuses_a_config_file(self, runner, tmp_path):
        path = write_json(tmp_path / "c.json", tiny_sim_config())
        res = runner.invoke(main, ["simulate", path, "--paper-table", "typeI-6wk"])
        assert res.exit_code == 2
        assert "self-contained" in res.stderr

    def test_preset_refuses_export(self, runner, tmp_path):
        out_dir = tmp_path / "exp"
        res = runner.invoke(
            main, ["simulate", "--paper-table", "typeI-6wk", "--reps", "3",
                   "--export", str(out_dir)]
        )
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr.startswith("error: --paper-table presets run several cells")
        assert len(res.stderr.splitlines()) == 1
        assert not out_dir.exists()
