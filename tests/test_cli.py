"""Unit tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.workload import (
    load_instance,
    load_schedule,
    make_scenario,
    random_unrelated_instance,
    save_instance,
)


@pytest.fixture
def instance_file(tmp_path):
    instance = make_scenario("bursty-batch", seed=3)
    path = tmp_path / "instance.json"
    save_instance(instance, path)
    return path


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        text = parser.format_help()
        for command in ("info", "scenario", "solve", "simulate", "campaign", "stream",
                        "store", "divisibility"):
            assert command in text

    def test_missing_command_is_an_error(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestInfoAndScenario:
    def test_info_lists_policies_and_scenarios(self, capsys):
        assert main(["info"]) == 0
        output = capsys.readouterr().out
        assert "mct" in output and "small-cluster" in output

    def test_info_lp_backends_lists_the_inventory(self, capsys):
        assert main(["info", "--lp-backends"]) == 0
        output = capsys.readouterr().out
        assert "scipy-highs" in output
        assert "simplex-revised" in output
        assert "warm-start" in output
        assert "tableau" not in output

    def test_scenario_list(self, capsys):
        assert main(["scenario", "list"]) == 0
        output = capsys.readouterr().out
        assert "hotspot" in output

    def test_scenario_build_writes_instance(self, tmp_path, capsys):
        target = tmp_path / "built.json"
        assert main(["scenario", "build", "small-cluster", "--seed", "7",
                     "--output", str(target)]) == 0
        built = load_instance(target)
        assert built.num_jobs > 0
        assert "jobs" in capsys.readouterr().out

    def test_unknown_scenario_is_a_clean_error(self, capsys):
        assert main(["scenario", "build", "no-such-scenario"]) == 1
        assert "error:" in capsys.readouterr().err


class TestSolve:
    def test_solve_max_weighted_flow(self, instance_file, tmp_path, capsys):
        output = tmp_path / "schedule.json"
        code = main(["solve", str(instance_file), "--output", str(output), "--gantt"])
        assert code == 0
        text = capsys.readouterr().out
        assert "optimal max weighted flow" in text
        assert "legend:" in text  # the Gantt chart was printed
        schedule = load_schedule(output)
        schedule.validate()

    def test_solve_makespan_objective(self, instance_file, capsys):
        assert main(["solve", str(instance_file), "--objective", "makespan"]) == 0
        assert "optimal makespan" in capsys.readouterr().out

    def test_solve_max_stretch_preemptive(self, instance_file, capsys):
        assert main(["solve", str(instance_file), "--objective", "max-stretch",
                     "--preemptive"]) == 0
        assert "optimal max stretch" in capsys.readouterr().out

    def test_every_advertised_backend_name_drives_online_offline(self, tmp_path, capsys):
        # 'info --lp-backends' prints one accepted name per backend, and each
        # must be an accepted backend= value of online-offline.
        assert main(["info", "--lp-backends"]) == 0
        names = [line.split()[0] for line in capsys.readouterr().out.splitlines()[1:]]
        assert names == ["scipy", "revised"]
        path = tmp_path / "tiny.json"
        save_instance(random_unrelated_instance(4, 2, seed=5), path)
        for name in names:
            assert main(["simulate", str(path), "--policy", f"online-offline:backend={name}"]) == 0
            assert capsys.readouterr().out.splitlines()[-1].startswith("online-offline")

    def test_solve_takes_no_backend(self, instance_file, capsys):
        with pytest.raises(SystemExit):
            main(["solve", str(instance_file), "--backend", "revised"])
        assert "unrecognized arguments: --backend" in capsys.readouterr().err

    def test_missing_instance_file_is_a_clean_error(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "missing.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_corrupt_instance_file_is_a_clean_error(self, tmp_path, capsys):
        path = tmp_path / "corrupt.json"
        path.write_text("{not json")
        assert main(["solve", str(path)]) == 1
        assert "error:" in capsys.readouterr().err


class TestSimulate:
    def test_simulate_single_policy(self, instance_file, capsys):
        assert main(["simulate", str(instance_file), "--policy", "mct"]) == 0
        output = capsys.readouterr().out
        assert "mct" in output and "vs optimum" in output

    def test_simulate_scenario_name_with_all_policies(self, capsys):
        assert main(["simulate", "bursty-batch", "--seed", "3", "--all-policies"]) == 0
        output = capsys.readouterr().out
        assert "online-offline" in output and "fifo" in output

    def test_unknown_policy_is_a_clean_error(self, instance_file, capsys):
        assert main(["simulate", str(instance_file), "--policy", "nope"]) == 1
        assert "error:" in capsys.readouterr().err


class TestCampaign:
    def test_campaign_runs_and_writes_json(self, tmp_path, capsys):
        out = tmp_path / "campaign.json"
        code = main(
            ["campaign", "--scenarios", "unrelated-stress", "--policies", "mct,fifo",
             "--seeds", "3,4", "--output", str(out)]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "offline-optimal" in text and "scenarios/s" in text
        payload = json.loads(out.read_text())
        # 2 seeds x (offline + mct + fifo) records.
        assert len(payload["records"]) == 6
        # One shared probe per workload, strictly fewer than workloads x policies.
        assert payload["stats"]["probe_constructions"] == 2
        assert {record["workload"] for record in payload["records"]} == {
            "unrelated-stress#3",
            "unrelated-stress#4",
        }

    def test_campaign_base_seed_matches_across_dispatch_modes(self, capsys):
        args = ["campaign", "--scenarios", "unrelated-stress", "--policies", "mct",
                "--base-seed", "7", "--num-seeds", "2"]
        assert main(args) == 0
        sequential = capsys.readouterr().out
        assert main(args + ["--max-workers", "2", "--chunk-size", "1"]) == 0
        parallel = capsys.readouterr().out
        # The summary tables (all metric digits) agree between dispatch modes.
        assert sequential.splitlines()[:5] == parallel.splitlines()[:5]

    def test_campaign_malformed_seeds_are_a_clean_error(self, capsys):
        assert main(["campaign", "--scenarios", "unrelated-stress",
                     "--policies", "mct", "--seeds", "3,x"]) == 1
        assert "comma-separated integers" in capsys.readouterr().err

    def test_campaign_num_seeds_without_base_seed_is_a_clean_error(self, capsys):
        assert main(["campaign", "--scenarios", "unrelated-stress",
                     "--policies", "mct", "--num-seeds", "5"]) == 1
        assert "--base-seed" in capsys.readouterr().err

    def test_campaign_unknown_policy_is_a_clean_error(self, capsys):
        assert main(["campaign", "--scenarios", "unrelated-stress",
                     "--policies", "nope"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_campaign_unknown_scenario_is_a_clean_error(self, capsys):
        assert main(["campaign", "--scenarios", "no-such", "--policies", "mct"]) == 1
        assert "error:" in capsys.readouterr().err


class TestStoreCommands:
    @pytest.fixture
    def store_path(self, tmp_path):
        """A store holding two identical campaign runs."""
        path = tmp_path / "experiments.sqlite"
        base = ["campaign", "--scenarios", "unrelated-stress", "--policies", "mct,fifo",
                "--seeds", "1,2", "--store", str(path)]
        assert main(base + ["--run-label", "first"]) == 0
        assert main(base + ["--resume", "--run-label", "second"]) == 0
        return path

    def test_campaign_store_reports_resume_skip_rate(self, store_path, capsys):
        assert main(["campaign", "--scenarios", "unrelated-stress",
                     "--policies", "mct,fifo", "--seeds", "1,2",
                     "--store", str(store_path), "--resume"]) == 0
        output = capsys.readouterr().out
        assert "skip rate 100%" in output
        assert "0 offline solves" in output

    def test_campaign_resume_without_store_is_a_clean_error(self, capsys):
        assert main(["campaign", "--scenarios", "unrelated-stress",
                     "--policies", "mct", "--resume"]) == 1
        assert "--store" in capsys.readouterr().err

    def test_store_ls(self, store_path, capsys):
        assert main(["store", "ls", str(store_path)]) == 0
        output = capsys.readouterr().out
        assert "first" in output and "second" in output
        assert "distinct cells" in output

    def test_store_show_with_records(self, store_path, capsys):
        assert main(["store", "show", str(store_path), "first", "--records"]) == 0
        output = capsys.readouterr().out
        assert "geo_mean_normalised" in output
        assert "offline-optimal" in output
        assert "unrelated-stress#1" in output

    def test_store_diff_is_clean_between_identical_runs(self, store_path, capsys):
        assert main(["store", "diff", str(store_path), "first", "second",
                     "--fail-on-regression"]) == 0
        output = capsys.readouterr().out
        assert "clean" in output and "flag" in output

    def test_store_diff_unknown_run_is_a_clean_error(self, store_path, capsys):
        assert main(["store", "diff", str(store_path), "first", "no-such-run"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_store_ls_missing_file_is_a_clean_error(self, tmp_path, capsys):
        assert main(["store", "ls", str(tmp_path / "absent.sqlite")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_store_diff_cells_joins_runs_on_workload_key(self, store_path, capsys):
        assert main(["store", "diff", str(store_path), "first", "second",
                     "--cells", "--fail-on-regression"]) == 0
        output = capsys.readouterr().out
        assert "Per-cell diff" in output
        assert "joined cells within tolerance" in output

    def test_store_gc_dry_run_and_apply(self, store_path, capsys):
        from repro.store import ExperimentStore

        # Orphan one record under an old epoch and kill one run.
        with ExperimentStore(store_path) as store:
            store.connection.execute(
                "UPDATE records SET code_epoch = '1999.1', "
                "digest = 'f' || substr(digest, 2) WHERE rowid = 1"
            )
            store.connection.execute(
                "UPDATE runs SET completed = 0 WHERE label = 'second'"
            )
            store.connection.commit()

        assert main(["store", "gc", str(store_path)]) == 0
        output = capsys.readouterr().out
        assert "dry-run" in output
        assert "stale epoch '1999.1': 1 record(s)" in output
        assert "incomplete run(s)" in output

        assert main(["store", "gc", str(store_path), "--apply"]) == 0
        assert "pruned and vacuumed" in capsys.readouterr().out
        with ExperimentStore(store_path) as store:
            assert not [run for run in store.runs() if not run.completed]

        assert main(["store", "gc", str(store_path)]) == 0
        assert "nothing to prune" in capsys.readouterr().out

    def test_store_gc_refuses_the_current_epoch(self, store_path, capsys):
        from repro.store import CODE_EPOCH

        assert main(["store", "gc", str(store_path), "--epoch", CODE_EPOCH]) == 1
        assert "current code epoch" in capsys.readouterr().err


class TestPolicyVariantsCLI:
    def test_campaign_accepts_variant_tokens_with_params(self, tmp_path, capsys):
        path = tmp_path / "variants.sqlite"
        argv = ["campaign", "--scenarios", "unrelated-stress", "--seeds", "1",
                "--policies",
                "mct,deadline-driven:lp_targets=1,online-offline:period=2,backend=revised",
                "--store", str(path)]
        assert main(argv) == 0
        output = capsys.readouterr().out
        assert "deadline-driven:lp_targets=true" in output
        assert "online-offline:backend=revised,period=2.0" in output
        # The same sweep resumes fully: variant digests are stable.
        assert main(argv + ["--resume"]) == 0
        assert "skip rate 100%" in capsys.readouterr().out

    def test_campaign_unknown_variant_param_is_a_clean_error(self, capsys):
        assert main(["campaign", "--scenarios", "unrelated-stress",
                     "--policies", "mct:warp=9"]) == 1
        assert "sweepable" in capsys.readouterr().err

    def test_campaign_bad_variant_value_is_a_clean_error(self, capsys):
        assert main(["campaign", "--scenarios", "unrelated-stress",
                     "--policies", "online-offline:period=fast"]) == 1
        assert "expects float" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "token, message",
        [
            ("online-offline:backend=highs", "unknown LP backend 'highs'"),
            ("online-offline:period=-1", "period must be positive"),
        ],
    )
    def test_campaign_rejected_value_fails_before_any_cell(
        self, tmp_path, capsys, token, message
    ):
        path = tmp_path / "s.sqlite"
        assert main(["campaign", "--scenarios", "small-cluster",
                     "--policies", f"mct,{token}", "--base-seed", "1",
                     "--num-seeds", "1", "--max-workers", "0",
                     "--store", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and message in err
        assert not path.exists()  # no store opened, no cell stored

    def test_simulate_rejected_value_is_a_clean_error(self, capsys):
        assert main(["simulate", "unrelated-stress", "--seed", "1",
                     "--policy", "deadline-driven:backend=highs"]) == 1
        assert "error: unknown LP backend 'highs'" in capsys.readouterr().err

    def test_simulate_accepts_a_variant_token(self, capsys):
        assert main(["simulate", "unrelated-stress", "--seed", "1",
                     "--policy", "deadline-driven:lp_targets=1"]) == 0
        assert "deadline-driven:lp_targets=true" in capsys.readouterr().out

    def test_info_lists_sweepable_parameters(self, capsys):
        assert main(["info"]) == 0
        output = capsys.readouterr().out
        assert "sweepable parameters" in output
        assert "online-offline: " in output
        assert "period=None (float)" in output
        knobs = [line for line in output.splitlines() if line.startswith("  ")]
        assert knobs == [
            "  deadline-driven: lp_targets=False (bool), backend='scipy' (str)",
            "  offline-optimal: preemptive=False (bool)",
            "  online-offline: preemptive=False (bool), backend='scipy' (str), "
            "period=None (float), parametric=True (bool)",
        ]


class TestDivisibility:
    def test_sequence_dimension(self, capsys):
        assert main(["divisibility", "--dimension", "sequences", "--repetitions", "2"]) == 0
        output = capsys.readouterr().out
        assert "fixed overhead" in output and "1.1" in output

    def test_motif_dimension(self, capsys):
        assert main(["divisibility", "--dimension", "motifs", "--repetitions", "2"]) == 0
        output = capsys.readouterr().out
        assert "10.5" in output


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "repro" in capsys.readouterr().out


def test_instance_file_is_plain_json(instance_file):
    payload = json.loads(instance_file.read_text())
    assert payload["format"] == "repro-instance"


class TestStream:
    _BASE = [
        "stream",
        "--scenario",
        "small-cluster",
        "--policies",
        "srpt,mct",
        "--rho",
        "0.4:0.8:2",
        "--arrivals",
        "250",
        "--seed",
        "3",
    ]

    def test_stream_sweep_runs_and_writes_json(self, tmp_path, capsys):
        output = tmp_path / "sweep.json"
        assert main(self._BASE + ["--output", str(output)]) == 0
        text = capsys.readouterr().out
        assert "Steady-state load sweep" in text
        assert "srpt" in text and "mct" in text
        payload = json.loads(output.read_text())
        assert len(payload["cells"]) == 4
        assert payload["stats"]["cells"] == 4
        assert {cell["rho"] for cell in payload["cells"]} == {0.4, 0.8}

    def test_stream_store_resume_reaches_full_skip_rate(self, tmp_path, capsys):
        store = tmp_path / "stream.sqlite"
        assert main(self._BASE + ["--store", str(store)]) == 0
        capsys.readouterr()
        assert main(self._BASE + ["--store", str(store), "--resume"]) == 0
        output = capsys.readouterr().out
        assert "skip rate 100%" in output
        assert "0 arrivals" in output

    def test_rho_accepts_comma_lists(self, capsys):
        argv = list(self._BASE)
        argv[argv.index("0.4:0.8:2")] = "0.5"
        assert main(argv) == 0
        assert "0.50" in capsys.readouterr().out

    def test_malformed_rho_is_a_clean_error(self, capsys):
        argv = list(self._BASE)
        argv[argv.index("0.4:0.8:2")] = "0.3:0.9"
        assert main(argv) == 1
        assert "start:stop:count" in capsys.readouterr().err

    def test_a_one_point_rho_range_is_its_start(self, capsys):
        argv = list(self._BASE)
        argv[argv.index("0.4:0.8:2")] = "0.6:0.9:1"
        assert main(argv) == 0
        output = capsys.readouterr().out
        assert "0.60" in output and "0.90" not in output

    def test_a_rho_range_needs_at_least_one_point(self, capsys):
        argv = list(self._BASE)
        argv[argv.index("0.4:0.8:2")] = "0.3:0.9:0"
        assert main(argv) == 1
        assert "at least 1" in capsys.readouterr().err

    def test_unknown_policy_is_a_clean_error(self, capsys):
        argv = list(self._BASE)
        argv[argv.index("srpt,mct")] = "srpt:no_such_param=1"
        assert main(argv) == 1
        assert "error" in capsys.readouterr().err

    def test_resume_without_store_is_a_clean_error(self, capsys):
        assert main(self._BASE + ["--resume"]) == 1
        assert "--store" in capsys.readouterr().err
