import json
import subprocess
import sys
from pathlib import Path

import pytest

from comsoc.cli import main
from comsoc.elections import Election
from comsoc.fileio import write_election
from comsoc.schemas import SCHEMAS, validate_json

from conftest import src_env

DATA = Path(__file__).parent / "data"
E4X3 = str(DATA / "election_4x3.soc")
E5X3 = str(DATA / "election_sp_5x3.soc")
CIRCUIT = str(DATA / "circuit_maj3.txt")
DENSITIES = str(DATA / "densities_2p.txt")
MAB = str(DATA / "mab_small.json")
SWAP_PRICES = str(DATA / "swap_prices.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    payload = json.loads(out)
    validate_json(payload, SCHEMAS[argv[0]])
    return code, payload


class TestSchemaValidator:
    def test_rejects_wrong_types(self):
        with pytest.raises(ValueError, match="expected integer"):
            validate_json({"score": "4", "ranking": [], "d_a": 0}, SCHEMAS["kemeny"])
        with pytest.raises(ValueError, match="missing required"):
            validate_json({"score": 4}, SCHEMAS["kemeny"])
        with pytest.raises(ValueError, match="unexpected keys"):
            validate_json(
                {"score": 4, "ranking": [0], "d_a": 0, "extra": 1}, SCHEMAS["kemeny"]
            )

    def test_booleans_are_not_integers(self):
        with pytest.raises(ValueError, match="boolean"):
            validate_json({"score": True, "ranking": [0], "d_a": 0}, SCHEMAS["kemeny"])


class TestWinners:
    def test_plurality(self, capsys):
        code, payload = run_json(capsys, "winners", "--in", E4X3)
        assert code == 0
        assert payload["winners"] == [0]
        assert payload["scores"] == [2, 0, 1, 0]
        assert payload["condorcet_winner"] == 0

    def test_borda(self, capsys):
        code, payload = run_json(capsys, "winners", "--in", E4X3, "--rule", "borda")
        assert payload["scores"] == [7, 6, 4, 1]

    def test_approval_needs_depth(self, capsys):
        code, _ = run(capsys, "winners", "--in", E4X3, "--rule", "approval")
        assert code == 2
        code, payload = run_json(
            capsys, "winners", "--in", E4X3, "--rule", "approval", "--d", "2"
        )
        assert payload["scores"] == [2, 3, 1, 0]


class TestKemeny:
    def test_doc_election(self, capsys):
        code, payload = run_json(capsys, "kemeny", "--in", E4X3)
        assert code == 0
        assert payload["score"] == 4
        assert payload["ranking"] == [0, 1, 2, 3]
        assert payload["d_a"] == 3

    def test_methods_agree(self, capsys):
        _, dp = run_json(capsys, "kemeny", "--in", E4X3, "--method", "dp")
        _, bf = run_json(capsys, "kemeny", "--in", E4X3, "--method", "brute-force")
        assert dp["score"] == bf["score"] and dp["ranking"] == bf["ranking"]


def over_limit(tmp_path, m):
    path = tmp_path / f"m{m}.soc"
    path.write_text(write_election(Election([tuple(range(m)), tuple(reversed(range(m)))])))
    return str(path)


class TestCapacityLimits:
    @pytest.mark.parametrize(
        "m, argv",
        [
            (9, ["kemeny", "--method", "brute-force"]),
            (25, ["kemeny"]),
            (11, ["structure", "--check", "sp"]),
        ],
    )
    def test_over_limit_input_is_capacity_error(self, tmp_path, capsys, m, argv):
        code = main(argv + ["--in", over_limit(tmp_path, m)])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("capacity error:") and captured.err.count("\n") == 1

    def test_separable_has_no_limit(self, tmp_path, capsys):
        code, payload = run_json(
            capsys, "structure", "--check", "separable", "--in", over_limit(tmp_path, 21)
        )
        assert code == 0
        assert payload == {"separable": True, "groups": [[0], list(range(1, 21))]}

    @pytest.mark.parametrize("argv", [["kemeny"], ["structure", "--check", "sp"]])
    def test_limit_flag_is_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv + ["--in", E4X3, "--limit-m", "30"])
        assert info.value.code == 2


class TestDodgson:
    def test_target_zero(self, capsys):
        code, payload = run_json(capsys, "dodgson", "--in", E4X3, "--target", "0")
        assert code == 0 and payload == {"score": 0, "target": 0}

    def test_all_targets(self, capsys):
        code, payload = run_json(capsys, "dodgson", "--in", E4X3)
        assert payload["scores"] == [0, 1, 2, 5]

    @pytest.mark.parametrize("target", [[], ["--target", "2"]])
    def test_no_solution_is_exit_code_not_traceback(self, capsys, monkeypatch, target):
        monkeypatch.setattr("comsoc.cli.dodgson_score", lambda e, c: None)
        code = main(["dodgson", "--in", E4X3, *target])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("no solution:") and captured.err.count("\n") == 1


class TestCcdv:
    def test_yes_instance(self, capsys):
        code, payload = run_json(
            capsys, "ccdv", "--in", E4X3, "--target", "0", "--d", "1", "--k", "1"
        )
        assert code == 0 and payload["yes"] is True

    def test_no_instance_exit_code(self, capsys):
        code, payload = run_json(
            capsys, "ccdv", "--in", E4X3, "--target", "3", "--d", "1", "--k", "0"
        )
        assert code == 1 and payload["yes"] is False and payload["deleted"] is None

    @pytest.mark.parametrize("d", ["0", "4", "9"])
    def test_depth_out_of_range_is_input_error(self, capsys, d):
        code = main(["ccdv", "--in", E4X3, "--target", "3", "--d", d, "--k", "1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("input error:") and captured.err.count("\n") == 1


class TestBribe:
    def test_unit_flavor(self, capsys):
        code, payload = run_json(
            capsys,
            "bribe",
            "--in",
            E4X3,
            "--flavor",
            "unit",
            "--target",
            "3",
            "--budget",
            "2",
            "--rule",
            "borda",
        )
        assert code == 0 and payload["yes"] is True
        assert payload["cost"] is not None

    def test_swap_flavor_with_prices(self, capsys):
        code, payload = run_json(
            capsys,
            "bribe",
            "--in",
            E4X3.replace("election_4x3", "election_4x3"),
            "--flavor",
            "swap",
            "--target",
            "1",
            "--budget",
            "0",
            "--rule",
            "plurality",
        )
        assert code == 1 and payload["yes"] is False

    def test_shift_flavor_default_tariffs(self, capsys):
        code, payload = run_json(
            capsys,
            "bribe",
            "--in",
            E4X3,
            "--flavor",
            "shift",
            "--target",
            "1",
            "--budget",
            "6",
            "--rule",
            "borda",
        )
        assert code == 0 and payload["yes"] is True

    @pytest.mark.parametrize("flavor", ["unit", "swap", "shift"])
    @pytest.mark.parametrize("target, budget", [("9", "2"), ("-1", "2"), ("0", "-1")])
    def test_bad_target_or_budget_is_input_error(self, capsys, flavor, target, budget):
        argv = ["bribe", "--in", E4X3, "--flavor", flavor, "--target", target, "--budget", budget]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("input error:") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "flavor, prices",
        [
            ("priced", [1, 2, 3]),
            ("swap", [1, 2, 3]),
            ("shift", [1, 2, 3]),
            ("priced", {"voter_prices": [1, 2]}),
            ("priced", {"voter_prices": [1, 2, 3, 4]}),
            ("priced", {"voter_prices": "12"}),
            ("swap", {"swap_prices": [5, [], []]}),
            ("swap", {"swap_prices": [[[0, 1, 1], [0, 2, 1], [0, 3, 1], [1, 2, 1], [1, 3, 1], [2, 3, 1]]]}),
            ("shift", {"shift_tariffs": [5, [0], [0]]}),
        ],
    )
    def test_malformed_prices_are_input_errors(self, tmp_path, capsys, flavor, prices):
        path = tmp_path / "prices.json"
        path.write_text(json.dumps(prices))
        argv = ["bribe", "--in", E4X3, "--flavor", flavor, "--target", "1", "--budget", "2"]
        code = main(argv + ["--prices", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("input error:") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("flavor", ["swap", "shift"])
    def test_too_many_voters_is_capacity_error(self, tmp_path, capsys, flavor):
        _, soc = run(
            capsys, "gen", "--model", "impartial-culture", "--m", "3", "--n", "1100",
            "--seed", "1", "--format", "soc"
        )
        path = tmp_path / "big.soc"
        path.write_text(soc)
        argv = ["bribe", "--in", str(path), "--flavor", flavor, "--target", "2", "--budget", "5"]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("capacity error:") and captured.err.count("\n") == 1


class TestStructure:
    def test_sp_search(self, capsys):
        code, payload = run_json(capsys, "structure", "--in", E5X3, "--check", "sp")
        assert code == 0
        assert payload["single_peaked"] is True
        assert payload["axis"] == [0, 1, 2, 3, 4]

    def test_sp_given_axis(self, capsys):
        _, payload = run_json(
            capsys, "structure", "--in", E5X3, "--check", "sp", "--axis", "3,2,1,0,4"
        )
        assert payload["single_peaked"] is True

    def test_sc_report(self, capsys):
        _, payload = run_json(capsys, "structure", "--in", E4X3, "--check", "sc")
        assert payload["single_crossing"] is False
        assert payload["max_crossings"] == 2

    def test_separable(self, capsys):
        _, payload = run_json(capsys, "structure", "--in", E4X3, "--check", "separable")
        assert payload["separable"] is False

    def test_deletion_distance(self, capsys):
        _, payload = run_json(capsys, "structure", "--in", E5X3, "--check", "sp-voters")
        assert payload == {"distance": 0, "witness": [], "mode": "voters"}


@pytest.mark.parametrize(
    "subcommand, payload",
    [
        ("winners", {"orders": 5}),
        ("winners", {"orders": [[0, 1]], "labels": 3}),
        ("winners", {"orders": [[0, 1]], "labels": "ab"}),
        ("winners", {"orders": [[0, "a"]]}),
        ("mab", {"m": 2, "ballots": 3}),
        ("mab", {"m": "x", "ballots": [[0]]}),
        ("mab", {"m": True, "ballots": [[0]]}),
        ("mab", {"m": 2, "ballots": [[[0]]]}),
        ("mab", {"m": 2, "ballots": [[0]], "agenda": 1}),
        ("mab", [2]),
    ],
)
def test_malformed_json_is_input_error(tmp_path, capsys, subcommand, payload):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    code = main([subcommand, "--in", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("input error:") and captured.err.count("\n") == 1


class TestMabWcsCake:
    def test_mab(self, capsys):
        code, payload = run_json(capsys, "mab", "--in", MAB)
        assert code == 0 and payload["yes"] is True
        assert 1 in payload["ballot"]

    def test_mab_unsat_exit(self, capsys):
        bad = json.dumps({"m": 2, "ballots": [[], []], "agenda": []})
        import io, sys as _sys

        _sys.stdin = io.StringIO(bad)
        try:
            code, payload = run_json(capsys, "mab", "--in", "-")
        finally:
            _sys.stdin = _sys.__stdin__
        assert code == 1 and payload["yes"] is False

    def test_wcs_weight(self, capsys):
        code, payload = run_json(capsys, "wcs", "--in", CIRCUIT, "--weight", "2")
        assert code == 0
        assert payload["assignment"] == ["x0", "x1"]

    def test_wcs_metrics(self, capsys):
        _, payload = run_json(capsys, "wcs", "--in", CIRCUIT, "--metrics")
        assert payload == {"depth": 1, "weft": 1}

    def test_wcs_unsat_exit(self, capsys):
        code, payload = run_json(capsys, "wcs", "--in", CIRCUIT, "--weight", "0")
        assert code == 1 and payload["yes"] is False

    def test_cake_protocols(self, capsys):
        for protocol in ("cut-and-choose", "last-diminisher"):
            code, payload = run_json(
                capsys, "cake", "--in", DENSITIES, "--protocol", protocol
            )
            assert code == 0
            assert payload["proportional"] is True


class TestGen:
    def test_json_output_validates(self, capsys):
        code, payload = run_json(
            capsys, "gen", "--model", "single-peaked", "--m", "5", "--n", "10", "--seed", "7"
        )
        assert code == 0
        assert payload["axis"] == [0, 1, 2, 3, 4]

    def test_soc_output_parses(self, capsys):
        code, out = run(
            capsys, "gen", "--model", "impartial-culture", "--m", "4", "--n", "3",
            "--seed", "1", "--format", "soc"
        )
        from comsoc.fileio import parse_election

        assert code == 0
        assert parse_election(out).n == 3

    def test_pipe_into_structure(self, capsys):
        import io, sys as _sys

        _, out = run(
            capsys, "gen", "--model", "single-peaked", "--m", "5", "--n", "10", "--seed", "7"
        )
        _sys.stdin = io.StringIO(out)
        try:
            code, payload = run_json(capsys, "structure", "--in", "-", "--check", "sp")
        finally:
            _sys.stdin = _sys.__stdin__
        assert code == 0 and payload["single_peaked"] is True

    def test_euclidean_positions_emitted(self, capsys):
        _, payload = run_json(
            capsys, "gen", "--model", "euclidean-1d", "--m", "3", "--n", "2", "--seed", "5"
        )
        assert "positions" in payload


class TestInputVariants:
    def test_preflib_flag(self, tmp_path, capsys):
        soc = tmp_path / "pref.soc"
        soc.write_text(
            "# NUMBER ALTERNATIVES: 3\n"
            "# ALTERNATIVE NAME 1: red\n"
            "# ALTERNATIVE NAME 2: green\n"
            "# ALTERNATIVE NAME 3: blue\n"
            "2: 1, 2, 3\n"
            "1: 3, 2, 1\n"
        )
        code, payload = run_json(capsys, "winners", "--in", str(soc), "--preflib")
        assert code == 0
        assert payload["n"] == 3
        assert payload["labels"] == ["red", "green", "blue"]
        assert payload["winners"] == [0]

    def test_preflib_huge_count_gives_capacity_error(self, tmp_path, capsys):
        soc = tmp_path / "huge.soc"
        soc.write_text("# NUMBER ALTERNATIVES: 3\n1000000000000: 1, 2, 3\n")
        code, out = run(capsys, "kemeny", "--in", str(soc), "--preflib")
        assert code == 3 and out == ""

    def test_json_input_with_labels(self, capsys):
        import io, sys as _sys

        payload_in = json.dumps(
            {"orders": [[1, 0], [1, 0]], "labels": ["no", "yes"]}
        )
        _sys.stdin = io.StringIO(payload_in)
        try:
            code, payload = run_json(capsys, "winners", "--in", "-")
        finally:
            _sys.stdin = _sys.__stdin__
        assert code == 0
        assert payload["winners"] == [1]
        assert payload["labels"] == ["no", "yes"]

    def test_sp_alternative_deletion_check(self, capsys):
        import io, sys as _sys

        # All six orders of three alternatives: not single-peaked, one
        # alternative deletion repairs it.
        text = "3 6\n" + "\n".join(
            " ".join(map(str, p)) for p in
            [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
        ) + "\n"
        _sys.stdin = io.StringIO(text)
        try:
            code, payload = run_json(capsys, "structure", "--in", "-", "--check", "sp-alts")
        finally:
            _sys.stdin = _sys.__stdin__
        assert code == 0
        assert payload["distance"] == 1 and payload["mode"] == "alternatives"

    def test_sp_alternative_deletion_single_alternative(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("1 2\n0\n0\n"))
        code, payload = run_json(capsys, "structure", "--in", "-", "--check", "sp-alts")
        assert code == 0
        assert payload == {"distance": 0, "witness": [], "mode": "alternatives"}


class TestErrorsAndSchemas:
    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.soc"
        bad.write_text("3 1\n0 0 1\n")
        code, _ = run(capsys, "kemeny", "--in", str(bad))
        assert code == 2

    def test_unknown_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["kemeny", "--nope"])
        assert info.value.code == 2

    def test_json_schema_flag(self, capsys):
        for command in SCHEMAS:
            argv = {
                "winners": ["winners"],
                "kemeny": ["kemeny"],
                "dodgson": ["dodgson"],
                "ccdv": ["ccdv", "--target", "0", "--d", "1", "--k", "1"],
                "bribe": ["bribe", "--flavor", "unit", "--target", "0", "--budget", "0"],
                "structure": ["structure", "--check", "sp"],
                "mab": ["mab"],
                "wcs": ["wcs"],
                "cake": ["cake", "--protocol", "cut-and-choose"],
                "gen": ["gen", "--model", "single-peaked", "--m", "3", "--n", "2", "--seed", "1"],
            }[command]
            code, out = run(capsys, *argv, "--json-schema")
            assert code == 0
            assert json.loads(out) == SCHEMAS[command]


def test_cli_determinism_across_processes():
    cmd = [
        sys.executable,
        "-m",
        "comsoc.cli",
        "gen",
        "--model",
        "impartial-culture",
        "--m",
        "6",
        "--n",
        "9",
        "--seed",
        "123",
    ]
    env = src_env()
    first = subprocess.run(cmd, capture_output=True, check=True, env=env)
    second = subprocess.run(cmd, capture_output=True, check=True, env=env)
    assert first.stdout == second.stdout
    assert first.stdout.endswith(b"\n")
