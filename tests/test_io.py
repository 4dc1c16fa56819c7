import random
import tracemalloc
from fractions import Fraction

import pytest

from comsoc.cake import PiecewisePolyDensity
from comsoc.elections import Election
from comsoc.errors import CapacityError, ParseError
from comsoc.fileio import (
    format_fraction,
    parse_circuit,
    parse_densities,
    parse_election,
    parse_fraction,
    parse_preflib_soc,
    write_circuit,
    write_densities,
    write_election,
)
from comsoc.generators import (
    EUCLIDEAN_GRID,
    EUCLIDEAN_MAX_TIES,
    MAX_CELLS,
    MODELS,
    GeneratorSpec,
    generate,
)
from comsoc.structure import EuclideanEmbedding, is_single_peaked_wrt, verify_euclidean

from conftest import DOC_ELECTION_4X3, random_election


def fraction_euclidean_1d(rng, m, n):
    """The 1-D Euclidean model drawn and compared on ``Fraction`` positions.

    The generator compares integer grid positions instead; this is the
    form it had before, kept as the oracle for byte-identical output.
    """
    for _ in range(1000):
        alts = [Fraction(rng.randrange(EUCLIDEAN_GRID + 1), EUCLIDEAN_GRID) for _ in range(m)]
        voters_pos = [Fraction(rng.randrange(EUCLIDEAN_GRID + 1), EUCLIDEAN_GRID) for _ in range(n)]
        orders = []
        for vp in voters_pos:
            dists = [abs(alts[c] - vp) for c in range(m)]
            if len(set(dists)) != m:
                orders = None
                break
            orders.append(sorted(range(m), key=lambda c: dists[c]))
        if orders is not None:
            embedding = EuclideanEmbedding(1, [(x,) for x in alts], [(x,) for x in voters_pos])
            return Election(orders), embedding
    raise AssertionError("could not draw distinct Euclidean positions")


DOC_FILE_4X3 = """\
# four alternatives, three voters
4 3
0 1 2 3
0 1 3 2
2 1 0 3
"""


class TestElectionFormat:
    def test_doc_file_parses_to_doc_election(self):
        assert parse_election(DOC_FILE_4X3) == DOC_ELECTION_4X3

    def test_round_trip_is_byte_identical(self):
        rng = random.Random(81)
        for _ in range(20):
            e = random_election(rng, rng.randint(2, 6), rng.randint(1, 6))
            canonical = write_election(e)
            assert write_election(parse_election(canonical)) == canonical

    def test_labels_round_trip(self):
        e = Election([(1, 0)], labels=("left", "right"))
        text = write_election(e)
        assert "labels left right" in text
        assert parse_election(text) == e

    def test_duplicate_in_row_names_the_line(self):
        bad = "3 1\n0 0 1\n"
        with pytest.raises(ParseError, match="line 2.*duplicate"):
            parse_election(bad)

    def test_row_length_checked(self):
        with pytest.raises(ParseError, match="expected 3 alternatives"):
            parse_election("3 1\n0 1\n")

    def test_non_permutation_rejected(self):
        with pytest.raises(ParseError, match="permutation"):
            parse_election("3 1\n0 1 3\n")

    def test_missing_voters_rejected(self):
        with pytest.raises(ParseError, match="voter rows"):
            parse_election("3 2\n0 1 2\n")
        with pytest.raises(ParseError, match="empty"):
            parse_election("# nothing\n")

    def test_extra_rows_rejected(self):
        with pytest.raises(ParseError, match="voter rows"):
            parse_election("2 1\n0 1\n1 0\n")

    def test_bad_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_election("three voters\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("2 1\nlabels left\n0 1\n", "expected 2 labels, got 1"),
            ("2 1\nlabels left left\n0 1\n", "labels must be distinct"),
        ],
        ids=["count", "repeated"],
    )
    def test_bad_labels_name_their_line(self, text, message):
        with pytest.raises(ParseError, match=f"^line 2: {message}$") as err:
            parse_election(text)
        assert err.value.line == 2

    def test_malformed_inputs_raise_parse_errors_only(self):
        # The CLI maps ParseError to exit code 2; anything else escaping
        # the parser would break that contract.
        rng = random.Random(82)
        alphabet = "0123456789 ab#/\n-"
        for _ in range(60):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 60)))
            try:
                parse_election(text)
            except ParseError:
                pass
        for text in ["2 1\n0 x\n", "2 -1\n", "0 0\n", "2 1\n0 1 # ok\nextra\n"]:
            with pytest.raises(ParseError):
                parse_election(text)


class TestPreflibImport:
    TEXT = """\
# FILE NAME: example.soc
# DATA TYPE: soc
# NUMBER ALTERNATIVES: 3
# NUMBER VOTERS: 4
# ALTERNATIVE NAME 1: red
# ALTERNATIVE NAME 2: green
# ALTERNATIVE NAME 3: blue
2: 1, 2, 3
1: 3, 2, 1
1: 2, 1, 3
"""

    def test_parses_counts_and_names(self):
        e = parse_preflib_soc(self.TEXT)
        assert e.m == 3 and e.n == 4
        assert e.labels == ("red", "green", "blue")
        assert e.voters[0].ranking == (0, 1, 2)
        assert e.voters[1].ranking == (0, 1, 2)
        assert e.voters[2].ranking == (2, 1, 0)
        assert e.voters[3].ranking == (1, 0, 2)

    def test_incomplete_order_rejected(self):
        with pytest.raises(ParseError, match="strict order"):
            parse_preflib_soc("# NUMBER ALTERNATIVES: 3\n1: 1, 2\n")

    def test_no_rows_rejected(self):
        with pytest.raises(ParseError):
            parse_preflib_soc("# DATA TYPE: soc\n")

    def test_non_integer_alternative_count_names_its_line(self):
        with pytest.raises(ParseError, match="^line 2: .*NUMBER ALTERNATIVES") as err:
            parse_preflib_soc("# DATA TYPE: soc\n# NUMBER ALTERNATIVES: three\n1: 1, 2, 3\n")
        assert err.value.line == 2

    def test_non_integer_alternative_index_names_its_line(self):
        text = (
            "# NUMBER ALTERNATIVES: 1\n"
            "# ALTERNATIVE NAME 1: red\n"
            "# ALTERNATIVE NAME x: foo\n"
            "1: 1\n"
        )
        with pytest.raises(ParseError, match="^line 3: .*ALTERNATIVE NAME X") as err:
            parse_preflib_soc(text)
        assert err.value.line == 3

    @pytest.mark.parametrize(
        "text, message, line",
        [
            ("# NUMBER ALTERNATIVES: 3\n1 2 3\n", "expected 'count: order' row", 2),
            ("# NUMBER ALTERNATIVES: 3\ntwo: 1, 2, 3\n", "malformed PrefLib row", 2),
            ("# NUMBER ALTERNATIVES: 3\n1: 1, 2, x\n", "malformed PrefLib row", 2),
            ("# NUMBER ALTERNATIVES: 3\n0: 1, 2, 3\n", "row multiplicity must be positive", 2),
            ("# NUMBER ALTERNATIVES: 3\n", "no voters found", None),
            (
                "# NUMBER ALTERNATIVES: 2\n# ALTERNATIVE NAME 1: red\n1: 1, 2\n",
                "alternative names incomplete",
                None,
            ),
        ],
        ids=["no-colon", "bad-count", "bad-alternative", "zero-count", "no-voters", "names"],
    )
    def test_malformed_input_names_the_fault(self, text, message, line):
        with pytest.raises(ParseError, match=message) as err:
            parse_preflib_soc(text)
        assert err.value.line == line

    def test_huge_count_is_capacity_error(self):
        with pytest.raises(CapacityError, match="voters"):
            parse_preflib_soc("# NUMBER ALTERNATIVES: 3\n1000000000000: 1, 2, 3\n")

    def test_huge_declared_m_is_rejected_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match="strict order"):
                parse_preflib_soc("# NUMBER ALTERNATIVES: 1000000\n1: 1\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestCircuitFormat:
    TEXT = """\
# majority of three
x0 INPUT
x1 INPUT
x2 INPUT
m MAJ x0 x1 x2
OUTPUT m
"""

    def test_round_trip(self):
        c = parse_circuit(self.TEXT)
        assert c.variables == ("x0", "x1", "x2")
        canonical = write_circuit(c)
        assert write_circuit(parse_circuit(canonical)) == canonical

    def test_missing_output_rejected(self):
        with pytest.raises(ParseError, match="OUTPUT"):
            parse_circuit("x0 INPUT\n")

    def test_gate_after_output_rejected(self):
        with pytest.raises(ParseError, match="after OUTPUT"):
            parse_circuit("x0 INPUT\nOUTPUT x0\ng NOT x0\n")

    def test_structural_error_at_load(self):
        with pytest.raises(ParseError, match="undeclared"):
            parse_circuit("x0 INPUT\ng NOT ghost\nOUTPUT g\n")

    @pytest.mark.parametrize(
        "text, message, line",
        [
            ("# nothing but a comment\n", "empty circuit file", None),
            ("x0 INPUT\nOUTPUT\n", "expected 'OUTPUT gid'", 2),
            ("x0 INPUT\nOUTPUT x0\nOUTPUT x0\n", "multiple OUTPUT lines", 3),
            ("x0\nOUTPUT x0\n", "expected 'gid KIND [inputs...]'", 1),
            ("x0 INPUT\ng XOR x0\nOUTPUT g\n", "gate 'g': unknown kind 'XOR'", None),
            ("x0 INPUT\nx1 INPUT x0\nOUTPUT x1\n", "gate 'x1': INPUT takes no inputs", None),
        ],
        ids=["empty", "bare-output", "two-outputs", "one-token", "unknown-kind", "input-inputs"],
    )
    def test_malformed_file_names_the_fault(self, text, message, line):
        with pytest.raises(ParseError) as err:
            parse_circuit(text)
        assert err.value.line == line
        assert str(err.value).endswith(message)


class TestDensityFormat:
    def test_round_trip(self):
        densities = [
            PiecewisePolyDensity.uniform(),
            PiecewisePolyDensity([(0, Fraction(1, 2), (Fraction(3, 2),)), (Fraction(1, 2), 1, (Fraction(1, 2),))]),
        ]
        text = write_densities(densities)
        parsed = parse_densities(text)
        assert write_densities(parsed) == text
        assert parsed[1].pieces == densities[1].pieces

    def test_player_numbering_enforced(self):
        with pytest.raises(ParseError, match="player 0"):
            parse_densities("player 1\npiece 0 1 1\n")

    @pytest.mark.parametrize(
        "text, message, line",
        [
            ("# nothing but a comment\n", "empty density file", None),
            ("player\npiece 0 1 1\n", "expected 'player <index>'", 1),
            ("player first\npiece 0 1 1\n", "expected 'player <index>'", 1),
            ("piece 0 1 1\nplayer 0\n", "piece before any player line", 1),
            ("player 0\npiece 0 1\n", "expected 'piece lo hi c0 [c1 ...]'", 2),
            ("player 0\npiece 0 1 1\nslice 0 1 1\n", "unexpected directive 'slice'", 3),
        ],
        ids=["empty", "bare-player", "named-player", "orphan-piece", "short-piece", "directive"],
    )
    def test_malformed_file_names_the_fault(self, text, message, line):
        with pytest.raises(ParseError) as err:
            parse_densities(text)
        assert err.value.line == line
        assert str(err.value).endswith(message)

    def test_invalid_density_reported_with_player_line(self):
        with pytest.raises(ParseError, match="player block"):
            parse_densities("player 0\npiece 0 1 2\n")

    def test_fraction_literals(self):
        assert parse_fraction("3/4") == Fraction(3, 4)
        assert parse_fraction("2") == Fraction(2)
        assert format_fraction(Fraction(6, 8)) == "3/4"
        assert format_fraction(Fraction(4, 2)) == "2"
        with pytest.raises(ParseError):
            parse_fraction("x")
        with pytest.raises(ParseError):
            parse_fraction("1/0")


class TestGenerators:
    def test_same_seed_same_bytes(self):
        spec = GeneratorSpec("impartial-culture", 5, 7, 42)
        a = generate(spec)
        b = generate(spec)
        assert write_election(a.election) == write_election(b.election)

    def test_different_seeds_differ_somewhere(self):
        texts = {
            write_election(generate(GeneratorSpec("impartial-culture", 5, 7, s)).election)
            for s in range(10)
        }
        assert len(texts) > 1

    def test_single_peaked_model_guarantee(self):
        for seed in range(15):
            spec = GeneratorSpec("single-peaked", 6, 8, seed)
            result = generate(spec)
            assert result.axis == (0, 1, 2, 3, 4, 5)
            assert is_single_peaked_wrt(result.election, result.axis)

    def test_single_peaked_custom_axis(self):
        spec = GeneratorSpec("single-peaked", 4, 5, 3, axis=(2, 0, 3, 1))
        result = generate(spec)
        assert is_single_peaked_wrt(result.election, (2, 0, 3, 1))

    def test_euclidean_model_guarantee(self):
        for seed in range(10):
            result = generate(GeneratorSpec("euclidean-1d", 4, 5, seed))
            assert result.embedding is not None
            assert verify_euclidean(result.election, result.embedding)

    def test_euclidean_model_matches_fraction_oracle(self):
        rng = random.Random(2024)
        specs = [(1, 1), (2, 1), (14, 60)] + [(rng.randint(1, 14), rng.randint(1, 60)) for _ in range(60)]
        for seed, (m, n) in enumerate(specs):
            result = generate(GeneratorSpec("euclidean-1d", m, n, seed))
            election, embedding = fraction_euclidean_1d(random.Random(seed), m, n)
            assert write_election(result.election) == write_election(election), f"seed {seed}"
            assert result.embedding == embedding, f"seed {seed}"

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown model"):
            GeneratorSpec("mallows", 3, 3, 1)

    @pytest.mark.parametrize("m, n", [(0, 3), (3, 0)])
    def test_sizes_below_one_rejected(self, m, n):
        with pytest.raises(ValueError, match="m and n must be at least 1"):
            GeneratorSpec("impartial-culture", m, n, 1)

    def test_bad_axis_rejected(self):
        with pytest.raises(ValueError, match="axis"):
            GeneratorSpec("single-peaked", 3, 3, 1, axis=(0, 1))

    def test_cell_limit(self):
        # Checked on the spec, before anything is drawn.
        for model in MODELS:
            GeneratorSpec(model, 1, MAX_CELLS, 1)
            with pytest.raises(CapacityError, match="limit 1000000"):
                GeneratorSpec(model, 1, MAX_CELLS + 1, 1)

    def test_euclidean_tie_limit(self):
        # Checked on the spec: m(m - 1)(n + 2) / (4 * EUCLIDEAN_GRID) expected
        # ties per draw. At n = 1, m = 4320 expects 13.99 and m = 4321 14.0003.
        GeneratorSpec("euclidean-1d", 4320, 1, 1)
        for m, n in ((4321, 1), (10_000, 1), (1000, 100)):
            with pytest.raises(CapacityError, match=f"m={m}, n={n} .* limit {EUCLIDEAN_MAX_TIES}"):
                GeneratorSpec("euclidean-1d", m, n, 1)
        for model in ("impartial-culture", "single-peaked"):
            GeneratorSpec(model, 10_000, 1, 1)
