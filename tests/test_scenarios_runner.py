import json

import numpy as np
import pytest

from drsplit import (
    ConfigError,
    DimensionMismatchError,
    MonotoneOperator,
    OperatorContractError,
    PossiblyInconsistentError,
    check_identities,
    build_scenario,
    iterate,
    list_scenarios,
    make_config,
    normal_cone,
    operator_pair_library,
    parse_config_file,
    rotator,
    run,
)
import drsplit.cli
import drsplit.runner
from drsplit.cli import main as cli_main
from drsplit.runner import REL_TOL, SLACK_TOL, PairEntry
from drsplit.scenarios import _perturbed_start, get_scenario
from drsplit.space import NonnegativeOrthant

REQUIRED = {
    "rotator-cone",
    "shifted-subspace",
    "parallel-lines",
    "disjoint-balls",
    "affine-consistent",
    "points-1d",
    "random-1d",
    "random-affine",
}


def test_registry_contains_required_scenarios():
    names = {name for name, _, _ in list_scenarios()}
    assert REQUIRED <= names


def test_registry_anchors_nonempty():
    for name, description, anchor in list_scenarios():
        assert description.strip()
        assert anchor.strip(), name


def test_unknown_scenario_rejected():
    with pytest.raises(ConfigError):
        build_scenario("no-such-scenario")


def test_operator_pair_library_covers_dims_1_to_5():
    dims = {entry.dim for entry in operator_pair_library()}
    assert dims == {1, 2, 3, 4, 5}


@pytest.mark.parametrize("name", sorted(REQUIRED - {"random-affine", "affine-consistent"}))
def test_light_scenarios_all_checks_pass(name, tmp_path):
    cfg = make_config(
        scenario=name,
        seed=11,
        out_trace=str(tmp_path / "t.csv"),
        out_summary=str(tmp_path / "s.json"),
    )
    if name == "random-1d":
        cfg.max_iters = 3000
    summary, trace = run(cfg)
    assert summary.all_passed, {k: v.verdict for k, v in summary.checks.items()}
    assert (tmp_path / "t.csv").exists() and (tmp_path / "s.json").exists()
    parsed = json.loads((tmp_path / "s.json").read_text())
    assert set(parsed) == {
        "scenario",
        "iters",
        "v_estimate",
        "final_step_norm",
        "shadow_limit",
        "checks",
        "wall_ms",
    }
    assert parsed["iters"] == summary.iterations
    for payload in parsed["checks"].values():
        assert set(payload) == {"verdict", "worst_value", "witness_index"}


def test_rotator_summary_reports_exact_growth_values():
    summary, _ = run(make_config(scenario="rotator-cone"))
    assert abs(summary.checks["counterexample_pair_growth"].worst_value - 0.5) <= 1e-12
    assert abs(summary.checks["counterexample_primal_growth"].worst_value - 1.25) <= 1e-12


def test_rotator_counterexample_checks_reuse_the_images_of_the_build(monkeypatch):
    # T x and the shadows of x and T x are computed once, when the scenario
    # is built; every resolvent evaluation, alone or inside dr_apply, goes
    # through _checked_map
    calls = []
    checked_map = MonotoneOperator._checked_map

    def counting_map(self, x):
        calls.append(x.shape)
        return checked_map(self, x)

    monkeypatch.setattr(MonotoneOperator, "_checked_map", counting_map)
    inst = build_scenario("rotator-cone", a=2.0)
    assert calls
    trace = iterate(inst.problem, max_iters=10, step_tol=0.0)
    checks = dict(inst.checks)
    calls.clear()
    names = (
        "splitting_step_value",
        "counterexample_pair_growth",
        "counterexample_primal_growth",
        "primal_only_fejer_fails",
    )
    results = [checks[name](trace) for name in names]
    assert calls == []
    assert all(result.verdict for result in results)
    assert results[1].worst_value == pytest.approx(0.5 * 4.0, abs=1e-12)
    assert results[2].worst_value == pytest.approx(1.25 * 4.0, abs=1e-12)


def test_trace_csv_layout(tmp_path):
    cfg = make_config(scenario="shifted-subspace", iters=45, out_trace=str(tmp_path / "t.csv"))
    summary, trace = run(cfg)
    lines = (tmp_path / "t.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header == [
        "n", "g0", "g1", "s0", "s1", "ds0", "ds1", "bs0", "bs1", "step_norm", "v0", "v1",
    ]
    assert len(lines) == 46
    # shadow columns must follow the exact halving law
    for n, line in enumerate(lines[1:42]):
        cells = line.split(",")
        assert int(cells[0]) == n
        s = np.array([float(cells[3]), float(cells[4])])
        assert np.linalg.norm(s - np.array([0.5**n, 0.0])) <= 1e-10


def test_run_summary_wall_time_positive_but_not_persisted(tmp_path):
    cfg = make_config(scenario="points-1d", out_summary=str(tmp_path / "s.json"))
    summary, _ = run(cfg)
    assert summary.wall_ms > 0
    assert json.loads((tmp_path / "s.json").read_text())["wall_ms"] is None


def test_byte_identical_reruns(tmp_path):
    paths = []
    for tag in ("one", "two"):
        cfg = make_config(
            scenario="random-1d",
            seed=5,
            iters=500,
            out_trace=str(tmp_path / f"{tag}.csv"),
            out_summary=str(tmp_path / f"{tag}.json"),
        )
        run(cfg)
        paths.append((tmp_path / f"{tag}.csv", tmp_path / f"{tag}.json"))
    assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
    assert paths[0][1].read_bytes() == paths[1][1].read_bytes()


def test_config_file_merging(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(
        "# experiment defaults\n"
        "scenario = parallel-lines\n"
        "iters = 32\n"
        "x0 = 3,5\n"
        "seed = 4\n"
    )
    values = parse_config_file(str(cfgfile))
    cfg = make_config(values, iters=16)  # flag overrides the file
    assert cfg.scenario == "parallel-lines"
    assert cfg.max_iters == 16
    assert cfg.x0 == (3.0, 5.0)
    summary, trace = run(cfg)
    assert summary.iterations == 16


def test_config_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("scenario parallel-lines\n")
    with pytest.raises(ConfigError):
        parse_config_file(str(bad))
    with pytest.raises(ConfigError):
        make_config({"scenario": "parallel-lines", "iters": "many"})
    with pytest.raises(ConfigError):
        make_config({})


def test_scenario_dimension_validation():
    with pytest.raises(ConfigError):
        build_scenario("rotator-cone", dim=3)


SCENARIO_NAMES = [name for name, _, _ in list_scenarios()]
FIXED_DIM_CASES = [
    (name, dim)
    for name in SCENARIO_NAMES
    for dim in (-1, 0, 1, 2, 3, 5)
    if get_scenario(name).dim not in (None, dim)
]


def test_registry_records_each_fixed_dimension():
    dims = {name: get_scenario(name).dim for name in SCENARIO_NAMES}
    assert dims == {
        "rotator-cone": 2,
        "shifted-subspace": 2,
        "parallel-lines": 2,
        "disjoint-balls": 2,
        "affine-consistent": 2,
        "points-1d": 1,
        "random-1d": 1,
        "random-affine": None,
    }


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_registry_dimension_equals_no_dimension(name):
    dim = get_scenario(name).dim
    explicit, implicit = build_scenario(name, dim=dim), build_scenario(name)
    assert explicit.problem.x0.tobytes() == implicit.problem.x0.tobytes()
    summaries = [run(make_config(scenario=name, dim=d, iters=300))[0] for d in (dim, None)]
    assert summaries[0].to_json_text() == summaries[1].to_json_text()


@pytest.mark.parametrize("name, dim", FIXED_DIM_CASES)
def test_other_dimension_is_a_config_error(name, dim, capsys):
    message = f"{name} lives in dimension {get_scenario(name).dim}"
    with pytest.raises(ConfigError) as err:
        build_scenario(name, dim=dim)
    assert str(err.value) == message
    assert cli_main(["--scenario", name, "--dim", str(dim)]) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"


def test_random_affine_defaults_to_dimension_five():
    assert build_scenario("random-affine").problem.dim == 5


@pytest.mark.parametrize("dim", [0, 1, -2])
def test_random_affine_below_dimension_two_exits_two(dim, tmp_path, capsys):
    out = tmp_path / "s.json"
    assert cli_main(["--scenario", "random-affine", "--dim", str(dim), "--out-summary", str(out)]) == 2
    assert capsys.readouterr().err == "configuration error: need dim >= 2\n"
    assert not out.exists()


def test_run_builds_through_build_scenario(monkeypatch):
    calls = []

    def spy(name, **kwargs):
        calls.append((name, kwargs["dim"]))
        return build_scenario(name, **kwargs)

    monkeypatch.setattr(drsplit.runner, "build_scenario", spy)
    run(make_config(scenario="points-1d"))
    run(make_config(scenario="random-affine", dim=2, iters=10))
    assert calls == [("points-1d", None), ("random-affine", 2)]


def test_identity_sweep_deterministic():
    a = check_identities(seed=7, samples=3)
    b = check_identities(seed=7, samples=3)
    for attr in ("worst", "slack_worst"):
        recs = [{n: (r.value, r.pair, r.sample) for n, r in getattr(s, attr).items()} for s in (a, b)]
        assert recs[0] == recs[1]
    assert a.passed


def _corrupted_sweep():
    # negating a resolvent must flip the monotone slack and fail the sweep
    good = normal_cone(NonnegativeOrthant(2))
    corrupted = MonotoneOperator(
        resolvent_map=lambda x: -good.resolvent_map(x), dim=2, label="negated"
    )
    return check_identities(seed=7, samples=50, pairs=[PairEntry("corrupted", corrupted, rotator())])


def test_identity_sweep_fault_injection():
    assert not _corrupted_sweep().passed


def test_cli_check_identities_exits_one_when_the_sweep_fails(monkeypatch, capsys):
    sweep = _corrupted_sweep()
    monkeypatch.setattr("drsplit.cli.check_identities", lambda **kwargs: sweep)
    assert cli_main(["--check-identities"]) == 1
    out = capsys.readouterr().out
    assert out.rstrip().endswith("FAIL") and "FAIL resolvent_energy_slack" in out


def test_identity_sweep_tolerances_are_criterion_2_thresholds():
    assert REL_TOL == 1e-9
    assert SLACK_TOL == 1e-10


def test_pair_entry_dim_is_the_operators_dim():
    for entry in operator_pair_library():
        assert entry.dim == entry.A.dim == entry.B.dim, entry.label


def test_cli_list_exits_zero(capsys):
    assert cli_main(["--list"]) == 0
    out = capsys.readouterr().out
    for name in REQUIRED:
        assert name in out


def test_cli_run_success_and_failure_codes(tmp_path, capsys):
    code = cli_main(
        ["--scenario", "points-1d", "--out-trace", str(tmp_path / "p.csv")]
    )
    assert code == 0
    assert cli_main(["--scenario", "bogus"]) == 2
    assert cli_main([]) == 2
    # unwritable output path is a configuration error
    assert (
        cli_main(
            ["--scenario", "points-1d", "--out-trace", str(tmp_path / "nodir" / "x.csv")]
        )
        == 2
    )


def test_cli_dimension_mismatch_is_config_error(tmp_path):
    assert cli_main(["--scenario", "rotator-cone", "--x0", "1,2,3"]) == 2
    assert cli_main(["--scenario", "rotator-cone", "--dim", "7"]) == 2


@pytest.mark.parametrize(
    "argv, kwargs",
    [([], {}), (["--samples", "3"], {"samples": 3}), (["--seed", "2"], {"seed": 2})],
)
def test_cli_check_identities_defaults_are_the_sweeps_own(argv, kwargs, capsys):
    # a flag the user does not give leaves check_identities' default in place
    assert cli_main(["--check-identities", *argv]) == 0
    out = capsys.readouterr().out
    drsplit.cli._print_sweep(check_identities(**kwargs))
    assert out == capsys.readouterr().out


def test_cli_check_identities_smoke(capsys):
    assert cli_main(["--check-identities", "--samples", "2", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_cli_failed_check_exits_one(capsys):
    # starving the ball scenario of iterations leaves its shadow-limit and
    # displacement checks unmet, which must surface as exit status 1
    code = cli_main(["--scenario", "disjoint-balls", "--iters", "40"])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_cli_numerical_breakdown_exits_four(capsys):
    code = cli_main(["--scenario", "shifted-subspace", "--x0=1.7e308,1.0", "--iters", "10"])
    assert code == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines() == [
        "numerical breakdown: non-finite values encountered at iteration 0"
    ]


def test_cli_stagnated_fixed_point_search_exits_four(monkeypatch, capsys):
    # a start of 1e200 makes the build's fixed-point search stagnate after
    # 10^5 steps; raising at once keeps the test fast
    def stagnated(problem, tol=1e-12, max_iters=100_000):
        raise PossiblyInconsistentError(step_norm=float("inf"), v_estimate=np.zeros(problem.dim))

    monkeypatch.setattr("drsplit.scenarios.find_fixed_point", stagnated)
    code = cli_main(["--scenario", "random-affine", "--dim", "3", "--x0=1e200,1e200,1e200"])
    assert code == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines() == [
        "numerical breakdown: no fixed point found: step norm stagnated at inf; "
        "the problem is possibly inconsistent (see v_estimate)"
    ]


def test_cli_misshapen_operator_exits_three(monkeypatch, capsys):
    # a resolvent whose image has the wrong shape breaks the operator
    # contract: exit 3, not a configuration error
    def misshapen_cone(S, label=""):
        return MonotoneOperator(resolvent_map=lambda x: np.zeros(2), dim=S.dim, label="misshapen")

    monkeypatch.setattr("drsplit.scenarios.normal_cone", misshapen_cone)
    code = cli_main(["--scenario", "points-1d", "--iters", "8"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines() == [
        "operator contract violated: resolvent of misshapen returned shape (2,) for input of shape (1,)"
    ]
    assert not issubclass(OperatorContractError, DimensionMismatchError)


@pytest.mark.parametrize("name", ["random-affine", "random-1d", "affine-consistent"])
def test_cli_one_record_run_gets_verdicts(name, tmp_path, capsys):
    # one record is a valid run: every check gives a verdict on it
    summary_path = tmp_path / "s.json"
    code = cli_main(
        ["--scenario", name, "--iters", "1", "--out-trace", str(tmp_path / "t.csv"),
         "--out-summary", str(summary_path)]
    )
    assert code == 1
    assert capsys.readouterr().err == ""
    checks = json.loads(summary_path.read_text())["checks"]
    assert list(checks) == [check_name for check_name, _ in build_scenario(name).checks]
    assert checks["step_converged"]["verdict"] is False
    assert checks["summability"]["verdict"] is False
    assert checks["shadow_trailing_diameter"] == {"verdict": True, "worst_value": 0.0, "witness_index": None}


def test_overflowing_run_passes_no_check_on_nan():
    # the orbit stays finite, but its distances overflow to NaN: every check
    # that reads them must fail, not pass; under filterwarnings = error the
    # run also proves that the library emits no RuntimeWarning
    summary, _ = run(make_config(scenario="random-affine", dim=2, x0="1e200,-1e200", iters=200))
    checks = summary.checks
    for name in ("shadow_trailing_diameter", "pair_fejer_wrt_solution_pairs"):
        assert np.isnan(checks[name].worst_value)
        assert checks[name].verdict is False
    assert not summary.all_passed


def test_summability_fails_when_the_second_start_equals_the_first():
    # x0 + uniform(-1, 1) rounds back to a start of size 1e200: the two orbits
    # coincide, every series vanishes, and that certifies nothing
    summary, _ = run(make_config(scenario="random-affine", dim=2, x0="1e200,-1e200", iters=200))
    check = summary.checks["summability"]
    assert check.verdict is False
    assert np.isnan(check.worst_value)


def test_perturbed_start_that_rounds_away_is_dropped():
    x0 = np.array([1e200, -1e200])
    assert _perturbed_start(x0, np.random.default_rng(0)) is None
    moved = _perturbed_start(np.array([1.0, -1.0]), np.random.default_rng(0))
    assert moved is not None and not np.array_equal(moved, [1.0, -1.0])
    # the fixed-point sample keeps only the orbit from x0 itself, instead of
    # three copies of one row
    fix_t = build_scenario("random-affine", dim=2, x0=tuple(x0)).solutions.fix_t
    assert len(fix_t) == 1


def test_cli_x0_override(tmp_path):
    code = cli_main(
        [
            "--scenario",
            "parallel-lines",
            "--x0",
            "4,9",
            "--iters",
            "8",
            "--out-summary",
            str(tmp_path / "s.json"),
        ]
    )
    assert code == 0
    parsed = json.loads((tmp_path / "s.json").read_text())
    assert parsed["shadow_limit"] == [4.0, 1.0]


def test_run_returns_trace_matching_summary():
    cfg = make_config(scenario="points-1d", iters=12)
    summary, trace = run(cfg)
    assert summary.iterations == len(trace) == 12
    assert np.allclose(summary.shadow_limit, trace.shadow[-1], atol=0)


def test_run_respects_step_tolerance_override():
    # a tolerance above the constant step norm stops the walk immediately
    cfg = make_config(scenario="points-1d", tol=10.0, iters=64)
    summary, trace = run(cfg)
    assert summary.iterations == 1


def test_check_identities_rejects_zero_samples():
    with pytest.raises(ValueError):
        check_identities(samples=0)


@pytest.mark.parametrize("tol", ["nan", "inf", "-1e-9"])
def test_config_rejects_nonfinite_or_negative_tol(tol):
    with pytest.raises(ConfigError, match="tol"):
        make_config({"scenario": "affine-consistent", "tol": tol})


def test_cli_nan_tol_exits_two(capsys):
    assert cli_main(["--scenario", "affine-consistent", "--tol", "nan"]) == 2
    assert "nan" in capsys.readouterr().err


def test_config_rejects_unknown_scenario_parameter(tmp_path, capsys):
    cfgfile = tmp_path / "typo.cfg"
    cfgfile.write_text("scenario = rotator-cone\niterations = 5\n")
    with pytest.raises(ConfigError, match="'iterations'.*'rotator-cone'"):
        make_config(parse_config_file(str(cfgfile)))
    assert cli_main(["--config", str(cfgfile)]) == 2
    assert "iterations" in capsys.readouterr().err


def test_scenario_parameters_still_accepted():
    assert make_config({"scenario": "rotator-cone", "a": "2"}).params == {"a": 2.0}
    summary, _ = run(make_config({"scenario": "parallel-lines", "gap": "3"}))
    assert np.allclose(summary.v_estimate, [0.0, 3.0], atol=1e-9)


def test_config_rejects_empty_x0_coordinate(capsys):
    with pytest.raises(ConfigError, match="empty coordinate"):
        make_config(scenario="parallel-lines", x0="1,,2")
    assert cli_main(["--scenario", "parallel-lines", "--x0", "1,,2"]) == 2
    # the parser's own message, with no second prefix
    assert capsys.readouterr().err == "configuration error: invalid x0 '1,,2': empty coordinate\n"
    # other bad values keep the generic wrapper
    with pytest.raises(ConfigError, match="^invalid configuration value: could not convert"):
        make_config(scenario="parallel-lines", x0=("one",))
