"""End-to-end command line behavior: files, formats, exit codes, determinism."""

from __future__ import annotations

import csv
import filecmp
import json
import re
import warnings

import numpy as np
import pytest

from conftest import two_recipient_instance
from donormatch import cli
from donormatch.cli import main
from donormatch.graph import (
    Donor,
    Recipient,
    build_scenario,
    load_scenario,
    save_scenario,
    validate_scenario,
)
from donormatch.policies import CHUNK_CELLS, PolicySpec, parse_policy
from donormatch.simulate import monte_carlo_evaluate
from donormatch.synthgen import generate_city, load_bundled_config


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture()
def small_city(tmp_path):
    path = tmp_path / "city.json"
    save_scenario(generate_city(load_bundled_config("city_small")), path)
    return path


@pytest.fixture()
def tiny(tmp_path):
    path = tmp_path / "tiny.json"
    save_scenario(two_recipient_instance(), path)
    return path


# ---------------------------------------------------------------------------
# generate


def test_generate_writes_a_valid_scenario(tmp_path):
    out = tmp_path / "g"
    assert main(["generate", "city_small", "--out-dir", str(out)]) == 0
    s = load_scenario(out / "scenario.json")
    assert s.n_donors == 12 and s.n_recipients == 8
    assert validate_scenario(s) == []


def test_generate_twice_gives_identical_files(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["generate", "city_small", "--out-dir", str(a)]) == 0
    assert main(["generate", "city_small", "--out-dir", str(b)]) == 0
    assert filecmp.cmp(a / "scenario.json", b / "scenario.json", shallow=False)


def test_generate_rejects_bad_configs(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"donor_count": 0}')
    assert main(["generate", str(bad), "--out-dir", str(tmp_path)]) == 2
    assert main(["generate", str(tmp_path / "missing.json"), "--out-dir", str(tmp_path)]) == 2
    assert main(["generate", "atlantis", "--out-dir", str(tmp_path)]) == 2
    notjson = tmp_path / "c.json"
    notjson.write_text("{not json")
    assert main(["generate", str(notjson), "--out-dir", str(tmp_path)]) == 2


def test_a_bare_name_is_a_bundled_city_whatever_the_working_directory_holds(
    tmp_path, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    for _ in range(2):  # the first run leaves a directory named like the city
        assert main(["generate", "city_small", "--out-dir", "city_small"]) == 0
    assert main(["generate", "city_small", "--out-dir", "again"]) == 0
    assert filecmp.cmp("city_small/scenario.json", "again/scenario.json", shallow=False)
    (tmp_path / "riverton").write_text("{}")
    assert main(["generate", "riverton", "--out-dir", "out"]) == 0
    assert load_scenario("out/scenario.json").n_donors == 90


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "city_small", "--seed", "5", "--out-dir", "{tmp}"],
        ["generate", "city_small", "--mode", "rate", "--out-dir", "{tmp}"],
        ["generate", "city_small", "--trials", "9", "--out-dir", "{tmp}"],
        ["oracle", "{tiny}", "--trials", "5"],
        ["oracle", "{tiny}", "--out-dir", "{tmp}"],
    ],
    ids=["generate-seed", "generate-mode", "generate-trials", "oracle-trials", "oracle-out-dir"],
)
def test_a_subcommand_refuses_the_flags_it_does_not_read(argv, tiny, tmp_path, capsys):
    argv = [a.format(tiny=tiny, tmp=tmp_path / "out") for a in argv]
    assert main(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "doc",
    [
        {},
        {"donors": [], "recipients": [], "edges": [], "weights": [], "horizon": None},
        {"donors": [{"id": "u", "first_notfy": 2}], "recipients": [], "edges": [],
         "weights": [], "horizon": 1, "rate_limit": 1},
        {"donors": [], "recipients": [], "edges": [], "weights": [], "horizon": 1,
         "rate_limit": 1, "normalisation": {}},
        {"donors": [], "recipients": [{"id": "A"}, {"id": "B"}], "edges": [], "weights": [],
         "horizon": 1, "rate_limit": 1, "normalization": {"A": 1.0}},
    ],
    ids=[
        "missing-keys", "null-horizon", "unknown-donor-key", "unknown-top-level-key",
        "partial-score-map",
    ],
)
@pytest.mark.parametrize(
    "command", [["run", "rand"], ["sweep"], ["oracle"]], ids=["run", "sweep", "oracle"]
)
def test_a_malformed_scenario_file_is_an_input_error(command, doc, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    argv = [command[0], str(path), *command[1:]]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("input error:")


def test_a_config_value_of_the_wrong_type_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "c.json"
    disc = {"uniform_disc": {"center": [0.0, 0.0], "radius_km": 1.0}}
    path.write_text(json.dumps({"donor_count": None, "recipient_count": 2, "population": disc}))
    assert main(["generate", str(path), "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("config error:")


# ---------------------------------------------------------------------------
# run


def test_run_reproduces_the_in_memory_aggregates(tiny, tmp_path):
    """The written CSVs carry the exact evaluation at %.9g precision."""
    out = tmp_path / "r"
    assert main(["run", str(tiny), "rand", "--trials", "7", "--seed", "5",
                 "--out-dir", str(out)]) == 0

    s = two_recipient_instance()
    expected = monte_carlo_evaluate(
        s, PolicySpec("rand"), trials=7, realization_mode="resampled",
        rng=np.random.default_rng([5, 1]),
    )
    rows = read_csv(out / "trials.csv")
    assert [r["trial"] for r in rows] == [str(i + 1) for i in range(7)]
    assert [r["total_weight"] for r in rows] == ["%.9g" % t for t in expected.totals]
    assert set(rows[0]) == {"trial", "policy", "gamma", "total_weight", "A", "B"}

    agg_rows = read_csv(out / "aggregate.csv")
    assert len(agg_rows) == 1
    assert agg_rows[0]["policy"] == "rand"
    assert agg_rows[0]["mean_total_weight"] == "%.9g" % expected.mean_total_weight
    assert float(agg_rows[0]["mean_total_weight"]) == pytest.approx(
        expected.mean_total_weight, rel=1e-8
    )


def csv_writer_trials(path, policy, agg, ids):
    """trials.csv as a csv.writer with %.9g per number writes it."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["trial", "policy", "gamma", "total_weight"] + ids)
        for i in range(agg.trial_count):
            numbers = [agg.totals[i], *agg.recipient_totals[i]]
            writer.writerow(
                [str(i + 1), policy.kind, "%.9g" % policy.gamma] + ["%.9g" % x for x in numbers]
            )


@pytest.mark.parametrize("policy", ["rand", "randmax:0.3"])
def test_trials_csv_is_what_csv_writer_writes(policy, tmp_path):
    # A recipient id holding a comma, which the header must quote; totals of
    # 1e-10 ("tiny") and 0 ("idle" is never up).
    s = build_scenario(
        donors=[Donor("u0", 0.0, 0.0), Donor("u1", 0.0, 0.0)],
        recipients=[
            Recipient("v,1", 0.0, 0.0),
            Recipient("tiny", 0.0, 0.0),
            Recipient("idle", 0.0, 0.0, kind="dynamic"),
        ],
        edges=[("u0", "v,1"), ("u0", "idle"), ("u1", "tiny"), ("u1", "v,1")],
        weights=[[0.7, 0.3], [1.0, 1.0], [1e-10, 0.0], [0.123456789123, 0.25]],
        availability={"idle": 0.0},
        horizon=2,
        rate_limit=1,
        normalization={"v,1": 1.0, "tiny": 1.0, "idle": 1.0},
    )
    path = tmp_path / "s.json"
    save_scenario(s, path)
    out = tmp_path / "r"
    assert main(["run", str(path), policy, "--trials", "9", "--seed", "2",
                 "--out-dir", str(out)]) == 0
    spec = parse_policy(policy)
    agg = monte_carlo_evaluate(
        s, spec, trials=9, realization_mode="resampled", rng=np.random.default_rng([2, 1])
    )
    csv_writer_trials(tmp_path / "want.csv", spec, agg, ["v,1", "tiny", "idle"])
    got = (out / "trials.csv").read_bytes()
    assert got == (tmp_path / "want.csv").read_bytes()
    assert got.startswith(b'trial,policy,gamma,total_weight,"v,1",tiny,idle\n')
    rows = [line.split(b",") for line in got.splitlines()[1:]]
    assert {r[-1] for r in rows} == {b"0"} and b"1e-10" in {r[-2] for r in rows}


def test_run_tags_policy_and_gamma(tiny, tmp_path):
    out = tmp_path / "r"
    assert main(["run", str(tiny), "adaptmatch:0.5", "--trials", "4",
                 "--out-dir", str(out)]) == 0
    agg = read_csv(out / "aggregate.csv")[0]
    assert agg["policy"] == "adaptmatch" and float(agg["gamma_param"]) == 0.5
    assert all(r["policy"] == "adaptmatch" for r in read_csv(out / "trials.csv"))


def test_run_max_has_zero_std_err_without_ties(tiny, tmp_path):
    out = tmp_path / "r"
    assert main(["run", str(tiny), "max", "--trials", "6", "--out-dir", str(out)]) == 0
    agg = read_csv(out / "aggregate.csv")[0]
    assert float(agg["std_err_total"]) == 0.0
    assert float(agg["mean_total_weight"]) == pytest.approx(1.0)


def test_run_is_deterministic_under_the_seed(small_city, tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    base = ["run", str(small_city), "rand", "--trials", "10"]
    assert main(base + ["--seed", "3", "--out-dir", str(a)]) == 0
    assert main(base + ["--seed", "3", "--out-dir", str(b)]) == 0
    assert main(base + ["--seed", "4", "--out-dir", str(c)]) == 0
    for name in ("trials.csv", "aggregate.csv"):
        assert filecmp.cmp(a / name, b / name, shallow=False)
    assert not filecmp.cmp(a / "trials.csv", c / "trials.csv", shallow=False)


def test_run_supports_the_rate_protocol(small_city, tmp_path):
    out = tmp_path / "r"
    assert main(["run", str(small_city), "nadaplp_rate:gamma=0", "--mode", "rate",
                 "--trials", "3", "--out-dir", str(out)]) == 0
    assert read_csv(out / "aggregate.csv")[0]["mode"] == "rate"


@pytest.mark.parametrize("policy", ["rand", "nadaplp_rate:0.5"])
def test_rate_runs_are_byte_identical_under_the_seed(policy, small_city, tmp_path):
    # 150 trials of city_small fill more than one chunk of the kernel.
    s = load_scenario(small_city)
    assert CHUNK_CELLS // (s.n_donors * s.horizon) < 150
    for tag in ("a", "b"):
        assert main(["run", str(small_city), policy, "--mode", "rate", "--trials", "150",
                     "--seed", "11", "--out-dir", str(tmp_path / tag)]) == 0
    for name in ("trials.csv", "aggregate.csv"):
        assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name, shallow=False)


def test_run_rejects_bad_inputs(tiny, tmp_path):
    assert main(["run", str(tiny), "bogus", "--out-dir", str(tmp_path)]) == 2
    assert main(["run", str(tiny), "nadapopt:0.5", "--mode", "rate",
                 "--out-dir", str(tmp_path)]) == 2
    assert main(["run", str(tmp_path / "nope.json"), "max",
                 "--out-dir", str(tmp_path)]) == 2
    assert main(["run", str(tiny), "max", "--trials", "0",
                 "--out-dir", str(tmp_path / "zero")]) == 2
    assert not (tmp_path / "zero").exists()


@pytest.mark.parametrize("rate_limit", [0, -2])
@pytest.mark.parametrize("command", ["run", "sweep", "oracle"])
def test_a_rate_limit_below_one_is_refused(command, rate_limit, tiny, tmp_path, capsys):
    path = tmp_path / "k.json"
    path.write_text(json.dumps({**json.loads(tiny.read_text()), "rate_limit": rate_limit}))
    rest = {"run": ["max", "--out-dir", str(tmp_path)], "sweep": ["--out-dir", str(tmp_path)]}
    assert main([command, str(path), *rest.get(command, [])]) == 2
    assert f"rate_limit {rate_limit} < 1" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep


def test_sweep_emits_thirteen_rows_for_eleven_gammas(tiny, tmp_path):
    out = tmp_path / "s"
    assert main(["sweep", str(tiny), "--trials", "20", "--out-dir", str(out)]) == 0
    rows = read_csv(out / "sweep.csv")
    assert len(rows) == 13
    assert [r["policy"] for r in rows[:2]] == ["max", "rand"]
    adapt = rows[2:]
    assert all(r["policy"] == "adaptmatch" for r in adapt)
    assert [float(r["gamma_param"]) for r in adapt] == pytest.approx(
        [0.1 * i for i in range(11)]
    )
    assert float(rows[0]["weight_fraction_of_max"]) == 1.0
    # the unconstrained bound caps everything on this one-donor instance,
    # and tightening gamma can only shrink the constrained LP value
    bound0 = float(rows[0]["lp_bound"])
    assert all(float(r["total_weight"]) <= bound0 + 1e-9 for r in rows)
    adapt_bounds = [float(r["lp_bound"]) for r in adapt]
    assert all(b <= a + 1e-9 for a, b in zip(adapt_bounds, adapt_bounds[1:]))


def test_sweep_rand_row_sits_near_full_proportionality(tiny, tmp_path):
    """With exact scores attached, Rand's normalized ratios stay balanced."""
    out = tmp_path / "s"
    assert main(["sweep", str(tiny), "--gammas", "0.5", "--trials", "400",
                 "--seed", "11", "--out-dir", str(out)]) == 0
    rand_row = [r for r in read_csv(out / "sweep.csv") if r["policy"] == "rand"][0]
    assert float(rand_row["gamma_empirical"]) > 0.8


def test_sweep_svg_is_self_contained(tiny, tmp_path):
    out = tmp_path / "s"
    assert main(["sweep", str(tiny), "--gammas", "0,1", "--trials", "10",
                 "--out-dir", str(out)]) == 0
    svg = (out / "sweep.svg").read_text(encoding="utf-8")
    assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")
    assert svg.count("<circle") == 2 + 1  # two gamma points plus the legend marker
    assert "Max" in svg and "Rand" in svg and "AdaptMatch" in svg
    assert "href" not in svg and "<script" not in svg


def test_sweep_is_deterministic_under_the_seed(tiny, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    base = ["sweep", str(tiny), "--gammas", "0,0.5", "--trials", "15", "--seed", "2"]
    assert main(base + ["--out-dir", str(a)]) == 0
    assert main(base + ["--out-dir", str(b)]) == 0
    assert filecmp.cmp(a / "sweep.csv", b / "sweep.csv", shallow=False)
    assert filecmp.cmp(a / "sweep.svg", b / "sweep.svg", shallow=False)


def test_sweep_rejects_the_rate_mode_and_bad_gammas(tiny, tmp_path):
    assert main(["sweep", str(tiny), "--mode", "rate", "--out-dir", str(tmp_path)]) == 2
    assert main(["sweep", str(tiny), "--gammas", "1.5", "--out-dir", str(tmp_path)]) == 2
    assert main(["sweep", str(tiny), "--gammas", ",", "--out-dir", str(tmp_path)]) == 2
    assert main(["sweep", str(tiny), "--trials", "-3",
                 "--out-dir", str(tmp_path / "neg")]) == 2
    assert not (tmp_path / "neg").exists()


@pytest.fixture()
def dead(tmp_path):
    # B's only edge is never available, so its estimated score is 0: it
    # has no place on the Gamma scale, and the gamma > 0 formulations
    # leave it out of their proportionality band.
    path = tmp_path / "dead.json"
    save_scenario(
        build_scenario(
            donors=[Donor("u", 0.0, 0.0)],
            recipients=[Recipient("A", 0.0, 0.0), Recipient("B", 0.0, 0.1, kind="dynamic")],
            edges=[("u", "A"), ("u", "B")],
            weights=[0.9, 1.0],
            availability={"B": 0.0},
            horizon=1,
            rate_limit=1,
        ),
        path,
    )
    return path


def test_sweep_reports_a_failed_solve_in_one_line(tmp_path, capsys, monkeypatch):
    def refuse(s, gamma):
        raise ValueError("fixedtime_lp refused for the test")

    monkeypatch.setattr(cli, "solve_fixedtime_lp", refuse)
    path = tmp_path / "two.json"
    save_scenario(two_recipient_instance(), path)
    argv = ["sweep", str(path), "--gammas", "0,0.5", "--trials", "5"]
    assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    failed = [line for line in err if line.startswith("sweep failed:")]
    assert len(failed) == 1 and "refused for the test" in failed[0]
    assert not any(line.startswith("Traceback") for line in err)


@pytest.mark.parametrize(
    "command, target",
    [
        (["run", "adaptmatch:0.5"], "donormatch.policies.solve_nadapopt_lp"),
        (["sweep", "--gammas", "0,0.5"], "donormatch.cli.solve_fixedtime_lp"),
        (["oracle", "--gamma", "0.5"], "donormatch.cli.solve_offline_opt"),
    ],
    ids=["run", "sweep", "oracle"],
)
def test_a_solver_failure_ends_in_one_line(command, target, tiny, tmp_path, capsys, monkeypatch):
    from donormatch.ipm import IpmError

    def fail(*args):
        raise IpmError("no certified solution for the test")

    monkeypatch.setattr(target, fail)
    argv = [command[0], str(tiny), *command[1:]]
    if command[0] != "oracle":  # oracle takes neither flag
        argv += ["--trials", "5", "--out-dir", str(tmp_path / "out")]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    failed = [line for line in err if line.startswith(f"{command[0]} failed:")]
    assert len(failed) == 1 and "for the test" in failed[0]
    assert not any(line.startswith("Traceback") for line in err)


def test_run_solves_a_city_rate_lp(tmp_path, capsys):
    # Riverton's rate-limited LP, which the dense simplex once refused,
    # solves on the interior point.
    path = tmp_path / "riverton.json"
    save_scenario(generate_city(load_bundled_config("riverton")), path)
    argv = ["run", str(path), "nadaplp_rate:0.5", "--mode", "rate", "--trials", "5"]
    assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 0
    err = capsys.readouterr().err.splitlines()
    assert not any(line.startswith("Traceback") for line in err)


@pytest.mark.parametrize(
    "command",
    [
        ["run", "rand"],
        ["sweep", "--gammas", "0"],
        ["run", "adaptmatch:0.5"],
        ["run", "nadaplp_rate:0.5", "--mode", "rate"],
        ["sweep", "--gammas", "0,0.5,1"],
    ],
    ids=["run", "sweep", "run-adaptmatch", "run-rate", "sweep-gammas"],
)
def test_unscored_recipients_are_named_in_one_line(dead, tmp_path, capsys, command):
    argv = [command[0], str(dead), *command[1:], "--trials", "5"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len([line for line in err if re.search(r"\bB\b", line)]) == 1


# ---------------------------------------------------------------------------
# oracle


def test_oracle_agrees_on_a_small_scenario(tiny):
    assert main(["oracle", str(tiny), "--gamma", "0.5"]) == 0
    assert main(["oracle", str(tiny), "--mode", "rate", "--gamma", "0"]) == 0


def test_oracle_estimates_missing_normalization_scores(tmp_path):
    import dataclasses

    bare = dataclasses.replace(two_recipient_instance(), normalization=None)
    path = tmp_path / "bare.json"
    save_scenario(bare, path)
    assert main(["oracle", str(path), "--gamma", "0.5"]) == 0


def test_oracle_refuses_an_oversized_scenario(small_city):
    assert main(["oracle", str(small_city)]) == 2
