"""Text formats: elections, circuits, densities, and a PrefLib import shim.

Election format (canonical writer output, parser accepts comments)::

    # comment lines start with a hash and may appear anywhere
    m n
    labels name1 ... namem     (optional)
    <n rows, each a space-separated permutation of 0..m-1, best first>

Circuit format::

    <gid> KIND [input gids...]   one line per gate, inputs declared first
    OUTPUT <gid>                 exactly once, last

KIND is one of INPUT, NOT, AND2, OR2, ANDBIG, ORBIG, MAJ.

Density format (one block per player, players numbered from 0)::

    player 0
    piece <lo> <hi> <c0> [c1 ...]
    ...

Rational literals are ``p/q`` or plain integers. Writers emit canonical
text; ``write(parse(text))`` is byte-identical on canonical files.
"""

from __future__ import annotations

from fractions import Fraction

from .elections import Election, PreferenceOrder
from .errors import CapacityError, ParseError

PREFLIB_MAX_VOTERS = 10**6


def _significant_lines(text):
    """(line_number, content) pairs with comments and blanks removed."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((lineno, line))
    return out


def parse_election(text: str) -> Election:
    lines = _significant_lines(text)
    if not lines:
        raise ParseError("empty election file")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2:
        raise ParseError("expected header 'm n'", lineno)
    try:
        m, n = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError("expected integer header 'm n'", lineno) from None
    if m < 1 or n < 1:
        raise ParseError("m and n must be at least 1", lineno)
    body = lines[1:]
    labels = None
    if body and body[0][1].split()[0] == "labels":
        lineno, line = body[0]
        labels = tuple(line.split()[1:])
        if len(labels) != m:
            raise ParseError(f"expected {m} labels, got {len(labels)}", lineno)
        if len(set(labels)) != m:
            raise ParseError("labels must be distinct", lineno)
        body = body[1:]
    if len(body) < n:
        raise ParseError(f"expected {n} voter rows, found {len(body)}")
    if len(body) > n:
        raise ParseError(f"expected {n} voter rows, found {len(body)}", body[n][0])
    voters = []
    for lineno, line in body:
        tokens = line.split()
        if len(tokens) != m:
            raise ParseError(f"expected {m} alternatives in row, got {len(tokens)}", lineno)
        try:
            row = [int(t) for t in tokens]
        except ValueError:
            raise ParseError("non-integer alternative id", lineno) from None
        if len(set(row)) != m:
            raise ParseError("duplicate alternative in row", lineno)
        if sorted(row) != list(range(m)):
            raise ParseError(f"row is not a permutation of 0..{m - 1}", lineno)
        voters.append(PreferenceOrder(row))
    return Election(voters, labels=labels)


def write_election(e: Election) -> str:
    lines = [f"{e.m} {e.n}"]
    if e.labels is not None:
        lines.append("labels " + " ".join(e.labels))
    for v in e.voters:
        lines.append(" ".join(map(str, v)))
    return "\n".join(lines) + "\n"


def parse_preflib_soc(text: str) -> Election:
    """One-way import of PrefLib strict-order-complete (.soc) data.

    Understands the hash-metadata format: ``# NUMBER ALTERNATIVES: m``,
    optional ``# ALTERNATIVE NAME i: label`` lines, and body rows
    ``count: i1, i2, ...`` with 1-based alternative ids.

    Each row expands into ``count`` voters, so the counts are summed
    first: more than ``PREFLIB_MAX_VOTERS`` voters in total raises
    :class:`CapacityError` before anything is expanded.
    """
    m = None
    names = {}
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            meta = line.lstrip("#").strip()
            if ":" not in meta:
                continue
            key, value = meta.split(":", 1)
            key = key.strip().upper()
            value = value.strip()
            try:
                if key == "NUMBER ALTERNATIVES":
                    m = int(value)
                elif key.startswith("ALTERNATIVE NAME"):
                    names[int(key.rsplit(None, 1)[1])] = value
            except ValueError:
                raise ParseError(f"non-integer in '{key}' metadata", lineno) from None
            continue
        if ":" not in line:
            raise ParseError("expected 'count: order' row", lineno)
        count_part, order_part = line.split(":", 1)
        try:
            count = int(count_part.strip())
            order = [int(t.strip()) for t in order_part.split(",")]
        except ValueError:
            raise ParseError("malformed PrefLib row", lineno) from None
        if count < 1:
            raise ParseError("row multiplicity must be positive", lineno)
        rows.append((lineno, count, order))
    if m is None:
        if not rows:
            raise ParseError("no alternatives and no rows")
        m = len(rows[0][2])
    total = sum(count for _, count, _ in rows)
    if total > PREFLIB_MAX_VOTERS:
        raise CapacityError(f"PrefLib data has {total} voters, limit {PREFLIB_MAX_VOTERS}")
    voters = []
    for lineno, count, order in rows:
        # Length first: the declared m may be huge, the row is not.
        if len(order) != m or sorted(order) != list(range(1, m + 1)):
            raise ParseError("row is not a complete strict order", lineno)
        voters.extend([PreferenceOrder([a - 1 for a in order])] * count)
    if not voters:
        raise ParseError("no voters found")
    labels = None
    if names:
        if sorted(names) != list(range(1, m + 1)):
            raise ParseError("alternative names incomplete")
        labels = tuple(names[i] for i in range(1, m + 1))
    return Election(voters, labels=labels)


def parse_circuit(text: str) -> Circuit:
    from .circuits import Circuit

    lines = _significant_lines(text)
    if not lines:
        raise ParseError("empty circuit file")
    gates = []
    output = None
    for lineno, line in lines:
        tokens = line.split()
        if tokens[0] == "OUTPUT":
            if len(tokens) != 2:
                raise ParseError("expected 'OUTPUT gid'", lineno)
            if output is not None:
                raise ParseError("multiple OUTPUT lines", lineno)
            output = tokens[1]
            continue
        if output is not None:
            raise ParseError("gate declared after OUTPUT", lineno)
        if len(tokens) < 2:
            raise ParseError("expected 'gid KIND [inputs...]'", lineno)
        gates.append((tokens[0], tokens[1], tuple(tokens[2:])))
    if output is None:
        raise ParseError("missing OUTPUT line")
    try:
        return Circuit(gates, output)
    except ValueError as err:
        raise ParseError(str(err)) from None


def write_circuit(circuit: Circuit) -> str:
    lines = []
    for gid, kind, inputs in circuit.gates:
        lines.append(" ".join([gid, kind, *inputs]))
    lines.append(f"OUTPUT {circuit.output}")
    return "\n".join(lines) + "\n"


def parse_fraction(token: str, lineno=None) -> Fraction:
    try:
        if "/" in token:
            num, den = token.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(token))
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad rational literal {token!r}", lineno) from None


def format_fraction(value: Fraction) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def parse_densities(text: str):
    """List of per-player densities from the block format.

    A player with more than ``cake.MAX_PIECES`` pieces raises
    :class:`CapacityError` before any number is parsed.
    """
    from .cake import MAX_PIECES, PiecewisePolyDensity

    lines = _significant_lines(text)
    if not lines:
        raise ParseError("empty density file")
    count = 0
    for lineno, line in lines:
        directive = line.split(None, 1)[0]
        if directive == "player":
            count = 0
        elif directive == "piece":
            count += 1
            if count > MAX_PIECES:
                raise CapacityError(f"line {lineno}: density has more than {MAX_PIECES} pieces")
    players = []
    current = None
    for lineno, line in lines:
        tokens = line.split()
        if tokens[0] == "player":
            if len(tokens) != 2 or not tokens[1].isdigit():
                raise ParseError("expected 'player <index>'", lineno)
            if int(tokens[1]) != len(players):
                raise ParseError(
                    f"expected player {len(players)}, got {tokens[1]}", lineno
                )
            current = []
            players.append((lineno, current))
        elif tokens[0] == "piece":
            if current is None:
                raise ParseError("piece before any player line", lineno)
            if len(tokens) < 4:
                raise ParseError("expected 'piece lo hi c0 [c1 ...]'", lineno)
            lo = parse_fraction(tokens[1], lineno)
            hi = parse_fraction(tokens[2], lineno)
            coeffs = tuple(parse_fraction(t, lineno) for t in tokens[3:])
            current.append((lo, hi, coeffs))
        else:
            raise ParseError(f"unexpected directive {tokens[0]!r}", lineno)
    densities = []
    for lineno, pieces in players:
        try:
            densities.append(PiecewisePolyDensity(pieces))
        except ValueError as err:
            raise ParseError(f"player block: {err}", lineno) from None
    return densities


def write_densities(densities) -> str:
    lines = []
    for idx, density in enumerate(densities):
        lines.append(f"player {idx}")
        for lo, hi, coeffs in density.pieces:
            parts = ["piece", format_fraction(lo), format_fraction(hi)]
            parts.extend(format_fraction(c) for c in coeffs)
            lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"
