import json
import subprocess
import sys
import time
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
# Unit swap prices for every pair of E4X3's four alternatives.
FULL_SWAP = [[a, b, 1] for a in range(4) for b in range(a + 1, 4)]


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
        with pytest.raises(ValueError, match=r"^\$\.method: 'greedy' not in enum$"):
            validate_json(
                {"score": 4, "ranking": [0], "d_a": 0, "method": "greedy"}, SCHEMAS["kemeny"]
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

    @pytest.mark.parametrize("d", ["0", "5"])
    def test_approval_depth_out_of_range_is_input_error(self, capsys, d):
        code = main(["winners", "--in", E4X3, "--rule", "approval", "--d", d])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"input error: approval depth {d} out of range for m=4\n"

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

    def test_voter_deletion_past_limit_is_capacity_error(self, tmp_path, capsys):
        # m = 10 with 11 distinct orders: 10!/2 axes x 11 orders, one order
        # past the limit.
        orders = [tuple(range(k, 10)) + tuple(range(k)) for k in range(10)]
        path = tmp_path / "past.soc"
        path.write_text(write_election(Election(orders + [tuple(range(9, -1, -1))])))
        start = time.perf_counter()
        code = main(["structure", "--in", str(path), "--check", "sp-voters"])
        captured = capsys.readouterr()
        assert time.perf_counter() - start < 0.5
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
        monkeypatch.setattr("comsoc.dodgson.dodgson_score", lambda e, c: None)
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

    def test_shift_flavor_tariffs_from_prices(self, tmp_path, capsys):
        # Linear tariffs would shift voters 1 and 2 for 4; these charge 7.
        path = tmp_path / "tariffs.json"
        path.write_text(json.dumps({"shift_tariffs": [[0, 1, 5, 9], [0, 2, 3], [0, 4, 4, 8]]}))
        argv = ["bribe", "--in", E4X3, "--flavor", "shift", "--target", "3", "--rule", "borda"]
        code, payload = run_json(capsys, *argv, "--budget", "7", "--prices", str(path))
        assert code == 0
        assert payload == {"yes": True, "flavor": "shift", "cost": 7, "bribed": [1, 2]}
        code, payload = run_json(capsys, *argv, "--budget", "6", "--prices", str(path))
        assert code == 1 and payload["yes"] is False
        code, payload = run_json(capsys, *argv, "--budget", "6")
        assert code == 0 and payload["cost"] == 4

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
            ("swap", {"swap_prices": [[[0, 1]], [[0, 1]], [[0, 1]]]}),
            ("swap", {"swap_prices": [[[0, 1, 1, 1]], [[0, 1, 1, 1]], [[0, 1, 1, 1]]]}),
            ("priced", {"voter_prices": [True]}),
            ("shift", {"shift_tariffs": [[0, "1"]]}),
            # A complete table for each voter, plus one bad entry for voter 0:
            # an alternative outside 0..3, a self-pair, and a second price
            # for the pair {0, 1}.
            ("swap", {"swap_prices": [FULL_SWAP + [[0, 9, 5]], FULL_SWAP, FULL_SWAP]}),
            ("swap", {"swap_prices": [FULL_SWAP + [[2, 2, 5]], FULL_SWAP, FULL_SWAP]}),
            ("swap", {"swap_prices": [FULL_SWAP + [[1, 0, 7]], FULL_SWAP, FULL_SWAP]}),
            # Priced bribery with a prices file that holds no voter prices.
            ("priced", {"shift_tariffs": [[0, 1], [0, 1], [0, 1]]}),
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

    def test_voter_deletion_on_a_million_voters_in_three_orders(self, tmp_path, capsys):
        # The limit counts distinct orders, not voters: deleting the middle
        # row's 350,000 voters leaves two reversed orders.
        soc = tmp_path / "big.soc"
        soc.write_text(
            "# NUMBER ALTERNATIVES: 6\n"
            "400000: 1,2,3,4,5,6\n"
            "350000: 2,3,1,6,5,4\n"
            "250000: 6,5,4,3,2,1\n"
        )
        code, payload = run_json(
            capsys, "structure", "--in", str(soc), "--preflib", "--check", "sp-voters"
        )
        assert code == 0 and payload["distance"] == 350_000
        assert payload["witness"] == list(range(400_000, 750_000))


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
        ("winners", {"labels": ["a", "b"]}),
        ("mab", {"ballots": [[0]]}),
        ("mab", {"m": 2}),
        ("mab", {"m": 2, "ballots": [[0], [1, 2]]}),
        ("mab", {"m": 2, "ballots": [[0]], "agenda": [2]}),
        ("mab", {"m": 2, "ballots": []}),
    ],
)
def test_malformed_json_is_input_error(tmp_path, capsys, subcommand, payload):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    code = main([subcommand, "--in", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("input error:") and captured.err.count("\n") == 1


def test_input_error_names_json_path(tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"orders": [[0, "a"]]}))
    assert main(["winners", "--in", str(path)]) == 2
    assert capsys.readouterr().err == "input error: $.orders[0][1]: expected integer, got str\n"


DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize(
    "argv, text",
    [
        (["winners", "--in"], '{"orders": %s}' % DEEP),
        (["mab", "--in"], '{"m": 2, "ballots": %s}' % DEEP),
        (
            ["bribe", "--in", E4X3, "--flavor", "priced", "--target", "1", "--budget", "2", "--prices"],
            '{"voter_prices": %s}' % DEEP,
        ),
    ],
    ids=["winners", "mab", "bribe"],
)
def test_deeply_nested_json_is_input_error(tmp_path, capsys, argv, text):
    path = tmp_path / "deep.json"
    path.write_text(text)
    code = main(argv + [str(path)])
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

    def test_wcs_negative_weight_is_input_error(self, capsys):
        code = main(["wcs", "--in", CIRCUIT, "--weight", "-1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("input error:")

    def test_wcs_needs_weight_or_metrics(self, capsys):
        code = main(["wcs", "--in", CIRCUIT])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "input error: wcs needs --weight k or --metrics\n"

    def test_cake_protocols(self, capsys):
        for protocol in ("cut-and-choose", "last-diminisher"):
            code, payload = run_json(
                capsys, "cake", "--in", DENSITIES, "--protocol", protocol
            )
            assert code == 0
            assert payload["proportional"] is True

    def test_cake_welfare_is_the_own_piece_values(self, capsys):
        from comsoc.cake import cut_and_choose, last_diminisher, welfare
        from comsoc.fileio import format_fraction, parse_densities

        densities = parse_densities(Path(DENSITIES).read_text())
        for protocol, solve in (("cut-and-choose", cut_and_choose), ("last-diminisher", last_diminisher)):
            _, payload = run_json(capsys, "cake", "--in", DENSITIES, "--protocol", protocol)
            division = solve(densities)
            for kind in ("utilitarian", "egalitarian"):
                assert payload[kind] == format_fraction(welfare(division, densities, kind))

    def test_cake_too_many_pieces_is_capacity_error(self, tmp_path, capsys):
        from comsoc.cake import MAX_PIECES

        k = MAX_PIECES + 1
        lines = ["player 0", "piece 0 1 1", "player 1"]
        lines += [f"piece {i}/{k} {i + 1}/{k} 1" for i in range(k)]
        path = tmp_path / "many.txt"
        path.write_text("\n".join(lines) + "\n")
        code = main(["cake", "--in", str(path), "--protocol", "cut-and-choose"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("capacity error:") and captured.err.count("\n") == 1


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

    @pytest.mark.parametrize("model", ["impartial-culture", "single-peaked", "euclidean-1d"])
    def test_json_reads_as_its_soc_text(self, capsys, monkeypatch, model):
        import io

        gen = ["gen", "--model", model, "--m", "5", "--n", "9", "--seed", "3"]
        results = []
        for fmt in ("json", "soc"):
            _, out = run(capsys, *gen, "--format", fmt)
            monkeypatch.setattr("sys.stdin", io.StringIO(out))
            results.append(run(capsys, "winners", "--in", "-", "--rule", "borda"))
        assert results[0] == results[1] and results[0][0] == 0

    @pytest.mark.parametrize(
        "model, m, n, message",
        [
            # Every one of the 1-D Euclidean model's redraws ties here.
            ("euclidean-1d", 1000, 50, "m=1000, n=50"),
            ("impartial-culture", 1, 1_000_001, "limit 1000000"),
        ],
        ids=["euclidean-draws-tie", "cells-over-limit"],
    )
    def test_capacity_error_is_one_line(self, capsys, model, m, n, message):
        code = main(["gen", "--model", model, "--m", str(m), "--n", str(n), "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("capacity error:") and captured.err.count("\n") == 1
        assert message in captured.err

    def test_hopeless_euclidean_spec_refused_before_drawing(self, capsys):
        start = time.perf_counter()
        code = main(["gen", "--model", "euclidean-1d", "--m", "10000", "--n", "1", "--seed", "1"])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert elapsed < 0.5
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("capacity error:") and captured.err.count("\n") == 1
        assert "m=10000, n=1" in captured.err

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

    def test_preflib_bad_metadata_names_its_line(self, tmp_path, capsys):
        soc = tmp_path / "bad.soc"
        soc.write_text("# NUMBER ALTERNATIVES: three\n1: 1, 2, 3\n")
        code = main(["kemeny", "--in", str(soc), "--preflib"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.splitlines() == [
            "input error: line 1: non-integer in 'NUMBER ALTERNATIVES' metadata"
        ]

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


def fresh_modules(code):
    """The ``comsoc`` modules a fresh interpreter holds after running ``code``
    (which must leave stdout alone or end with a newline)."""
    script = code + "\nimport json, sys\nprint(json.dumps([m for m in sys.modules if m.startswith('comsoc')]))"
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, check=True, env=src_env(), timeout=60,
    ).stdout
    return set(json.loads(out.splitlines()[-1]))


# Every module that runs a solver; the command line imports each one only
# in the subcommands that call it.
SOLVER_MODULES = {
    f"comsoc.{name}"
    for name in (
        "bribery", "cake", "circuits", "control", "dodgson", "elections",
        "generators", "kemeny", "structure",
    )
}

# The package's public names at the time its exports became lazy.
EXPORTS = {
    "bribery": "BriberyBudget BriberyPlan ShiftPriceFunction SwapPriceFunction apply_swap_sequence"
    " min_cost_to_target shift_bribery swap_bribery unit_or_priced_bribery",
    "cake": "Division FairnessReport Piece PiecewisePolyDensity check_fairness cut_and_choose"
    " cut_query last_diminisher measure welfare",
    "circuits": "Circuit CircuitMetrics MabInstance mab_solve mab_to_majority_circuit wcs_solve",
    "control": "ApprovalView ControlInstance RelevanceSplit approval_view ccdv_bruteforce"
    " ccdv_fpt reduce_instance relevance_split",
    "dodgson": "DodgsonProgram DodgsonSolution build_program dodgson_bruteforce"
    " dodgson_decision dodgson_score",
    "elections": "Election MajorityMatrix PreferenceOrder ScoringResult ScoringVector"
    " condorcet_winner is_winner kendall_tau majority_matrix scoring_winners sum_kendall_tau",
    "errors": "CapacityError ParseError",
    "generators": "GeneratedElection GeneratorSpec generate",
    "kemeny": "KemenyResult avg_pairwise_distance kemeny_brute_force kemeny_decision kemeny_dp",
    "structure": "EuclideanEmbedding all_single_peaked_axes find_single_peaked_axis"
    " group_separable_split is_single_peaked_wrt peak_count single_crossing_report"
    " sp_deletion_distance verify_euclidean",
}


class TestStartup:
    def test_import_loads_no_solver(self):
        assert fresh_modules("import comsoc.cli") == {"comsoc", "comsoc.cli", "comsoc.errors"}

    def test_kemeny_loads_only_its_modules(self):
        loaded = fresh_modules(f"from comsoc.cli import main\nmain(['kemeny', '--in', {E4X3!r}])")
        assert loaded & SOLVER_MODULES == {"comsoc.elections", "comsoc.kemeny"}

    def test_package_exports_resolve(self):
        import importlib

        import comsoc

        names = [(module, name) for module, line in EXPORTS.items() for name in line.split()]
        assert sorted(comsoc.__all__) == sorted(name for _, name in names)
        listed = dir(comsoc)
        for module, name in names:
            assert name in listed
            expected = getattr(importlib.import_module(f"comsoc.{module}"), name)
            namespace = {}
            exec(f"from comsoc import {name}", namespace)
            assert namespace[name] is expected
        assert comsoc.__version__ == "0.1.0"
        with pytest.raises(AttributeError):
            comsoc.no_such_name

    def test_one_name_loads_one_solver(self):
        loaded = fresh_modules("from comsoc import kemeny_dp")
        assert loaded & SOLVER_MODULES == {"comsoc.elections", "comsoc.kemeny"}

    def test_one_process_matches_fresh_processes(self, capsys):
        # The parser built by the first call serves the rest, parse errors
        # included.
        calls = [
            ["kemeny", "--in", E4X3],
            ["winners", "--in", E5X3, "--rule", "borda"],
            ["kemeny", "--method", "bogus"],
            ["wcs", "--in", CIRCUIT, "--weight", "-1"],
            ["structure", "--in", E5X3, "--check", "sp"],
        ]
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as stop:
                code = stop.code
            here = capsys.readouterr()
            fresh = subprocess.run(
                [sys.executable, "-m", "comsoc.cli", *argv],
                capture_output=True, text=True, env=src_env(), timeout=60,
            )
            assert (code, here.out, here.err) == (fresh.returncode, fresh.stdout, fresh.stderr)
