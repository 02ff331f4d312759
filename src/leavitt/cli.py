"""Command line front end.

One verb per invariant.  Reports go to stdout as human-readable text, or as
deterministic JSON with --json (keys sorted, so identical inputs give byte
identical output).  Exit codes separate the five outcomes: 0 success, 1 a
mathematical obstruction (still a successful computation), 2 input error,
3 a budget or cap was exhausted before a verdict, 4 an internal check
failed (a bug in this package, reported as ``internal error: ...`` on
stderr).
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from types import GeneratorType

from .filtered import _ROW_CAP, RowCapError, compare_fkbar, fkbar
from .graphs import Graph, GraphFormatError, parse_graph, parse_matrix
from .intlinalg import CoeffGroup, FgAbGroup, op_scope
from .ktheory import k0, k1, six_term_row, vdb_sequence
from .lattice import _LATTICE_CAP, LatticeCapError, enumerate_hsat, locally_closed_all, spectrum
from .monoid import graded_equal, parse_graded_element, parse_monoid_element, ungraded_equal
from .shifts import bowen_franks, det_invariant, shift_equivalent_bounded, verify_certificate

__all__ = ["main"]

EXIT_OK = 0
EXIT_OBSTRUCTION = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_graph(path: str) -> Graph:
    return parse_graph(_read(path))


def _coeff(field: str, reduced: bool) -> CoeffGroup:
    """Coefficient group named on the command line.

    ``reduced`` picks units-modulo-sign (for k1bar and everything built on
    it) instead of the full unit group.
    """
    if field == "symbolic":
        return CoeffGroup.symbolic("Gbar" if reduced else "kx")
    if field == "divisible":
        return CoeffGroup.divisible()
    try:
        q = int(field)
    except ValueError:
        raise ValueError(
            f"--field must be a prime power, 'divisible' or 'symbolic', not {field!r}"
        ) from None
    if reduced:
        return CoeffGroup.reduced_units_of_field(q)
    return CoeffGroup.units_of_field(q)


def _group_json(g: FgAbGroup) -> dict:
    return {
        "free_rank": g.free_rank,
        "torsion": list(g.torsion),
        "symbol": str(g),
    }


def _konebar_json(kb) -> dict:
    iso = kb.isomorphism_class()
    return {
        "symbol": kb.symbol(),
        "kernel_rank": kb.kernel_rank,
        "twisted": {
            "quotient_orders": list(kb.coker_part.quotient_orders),
            "free_rank": kb.coker_part.free_rank,
            "symbol": kb.coker_part.symbol(),
        },
        "isomorphism_class": str(iso) if iso is not None else None,
    }


def _body_json(body) -> dict:
    """The payload of a row's skeleton record: exactness, the K1bar and K0
    groups of its pair records and the node verdicts."""
    return {
        "exact": body.exact,
        "k1bar": [_konebar_json(pair.k1) for pair in body.pairs],
        "k0": [_group_json(pair.k0_group) for pair in body.pairs],
        "nodes": [
            {
                "name": n.name,
                "z_image_in_kernel": n.z_image_in_kernel,
                "z_kernel_in_image": n.z_kernel_in_image,
                "coeff_exact": n.coeff_exact,
            }
            for n in body.nodes
        ],
    }


def _row_json(row) -> dict:
    """The payload of a six-term row: its skeleton record's, and the vertex
    names of each set of its triple."""
    return dict(_body_json(row.body), triple=[list(names) for names in row.triple])


class _Text(str):
    """JSON text that :func:`_put_json` writes as it stands."""


def _row_texts(table, nl):
    """The text of each row of ``table`` as a value at indent ``nl``, in
    ``row_triples`` order: ``dict(_row_json(row), lattice_triple=[i, j,
    p])`` as :func:`_put_json` writes it there.

    A row's text is its skeleton record's (``body``, one per distinct
    skeleton in Smith coordinates of the table's store), around holes for
    its lattice triple and its vertex names; each lattice element's index
    and name list is encoded once, and a row joins those strings.  The
    record's text is encoded once: its payload reads the exactness and the
    node verdicts off the record, and the K1bar and K0 groups off its pair
    records, so rows of two shapes with one skeleton share one text.  A
    record hashes by identity, so a row's lookup hashes no matrix."""
    inner, deeper = nl + "  ", nl + "    "
    members = map(table.lattice.members, range(len(table.lattice)))
    names = [deeper + _json_text(list(m), deeper) for m in members]
    indices = [deeper + str(k) for k in range(len(names))]
    hole = _Text("\0")  # an encoded string escapes every NUL
    texts = {}
    for (i, j, p), body in zip(table.row_triples, table.bodies):
        text = texts.get(body)
        if text is None:
            payload = dict(_body_json(body), lattice_triple=hole, triple=hole)
            text = texts[body] = _json_text(payload, nl).split(hole)
        start, middle, end = text
        yield _Text(
            f"{start}[{indices[i]},{indices[j]},{indices[p]}{inner}]"
            f"{middle}[{names[i]},{names[j]},{names[p]}{inner}]{end}"
        )


def _json_text(payload, nl="\n") -> str:
    """``json.dumps(payload, sort_keys=True, indent=2)``, byte for byte,
    when ``nl`` is a newline alone; a longer ``nl`` indents the text as a
    value at that depth (see :func:`_put_json`)."""
    chunks = []
    _put_json(payload, nl, chunks.append)
    return "".join(chunks)


def _put_json(x, nl, put):
    """Write ``x`` through ``put`` as ``json.dumps(x, sort_keys=True,
    indent=2)`` writes it; ``nl`` is a newline and the indent of x.

    With ``indent`` set, CPython's ``json`` runs its pure-Python encoder.
    This writer emits the same layout as a stream of chunks and uses
    ``json`` only to escape strings.  A list of plain ints (not bools), the
    bulk of the matrix reports, is joined in one step.  A generator is
    written as the list of what it yields, consumed as it is written, and
    a :class:`_Text` as it stands, so it must be the text of a value at
    depth ``nl``.  Keys must be strings, and values dicts, lists, tuples,
    strings, ints, bools or None; anything else raises TypeError.
    """
    t = type(x)
    if t is str:
        put(encode_basestring_ascii(x))
    elif t is int:
        put(int.__repr__(x))
    elif x is None:
        put("null")
    elif x is True:
        put("true")
    elif x is False:
        put("false")
    elif t is _Text:
        put(x)
    elif t is list or t is tuple or t is GeneratorType:
        inner = nl + "  "
        if t is not GeneratorType and {*map(type, x)} == {int}:
            put("[" + inner + ("," + inner).join(map(repr, x)) + nl + "]")
            return
        sep = "[" + inner
        for v in x:
            put(sep)
            sep = "," + inner
            _put_json(v, inner, put)
        put("[]" if sep[0] == "[" else nl + "]")
    elif t is dict:
        if not x:
            put("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for k in sorted(x):
            if type(k) is not str:
                raise TypeError(f"keys must be str, not {type(k).__name__}")
            put(sep + encode_basestring_ascii(k) + ": ")
            sep = "," + inner
            _put_json(x[k], inner, put)
        put(nl + "}")
    else:
        raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def _split_vertices(text: str) -> tuple:
    return tuple(v.strip() for v in text.split(",") if v.strip())


# ---------------------------------------------------------------------------
# verb handlers: each returns (payload, human_lines, exit_code)
# ---------------------------------------------------------------------------


def _cmd_info(args):
    g = _load_graph(args.graph)
    payload = {
        "vertices": list(g.vertices),
        "edges": [[e.name, e.src, e.dst] for e in g.edges],
        "sinks": list(g.sinks),
        "regulars": list(g.regulars),
        "adjacency": g.adjacency().to_lists(),
    }
    lines = [
        f"vertices ({g.num_vertices}): {' '.join(g.vertices)}",
        f"edges ({len(g.edges)}): " + " ".join(f"{e.name}:{e.src}->{e.dst}" for e in g.edges),
        f"sinks: {' '.join(g.sinks) or '(none)'}",
        f"regulars: {' '.join(g.regulars) or '(none)'}",
    ]
    return payload, lines, EXIT_OK


def _cmd_hsat(args):
    g = _load_graph(args.graph)
    lattice = enumerate_hsat(g, cap=args.lattice_cap)
    payload = {
        "count": len(lattice),
        "elements": [list(lattice.members(i)) for i in range(len(lattice))],
    }
    lines = [f"{len(lattice)} hereditary saturated sets"]
    lines += [f"  [{i}] {{{','.join(lattice.members(i))}}}" for i in range(len(lattice))]
    return payload, lines, EXIT_OK


def _cmd_spec(args):
    g = _load_graph(args.graph)
    lattice = enumerate_hsat(g, cap=args.lattice_cap)
    topo = spectrum(lattice)
    pieces = locally_closed_all(topo)
    payload = {
        "elements": [list(lattice.members(i)) for i in range(len(lattice))],
        "primes": list(topo.primes),
        "prime_members": [list(lattice.members(p)) for p in topo.primes],
        "opens": [[p for p in range(len(topo.primes)) if o >> p & 1] for o in topo.opens],
        "pieces": [
            {
                "outer": list(lattice.members(pc.outer_index)),
                "inner": list(lattice.members(pc.inner_index)),
                "difference": sorted(pc.difference),
            }
            for pc in pieces
        ],
    }
    lines = [f"{len(topo.primes)} graded primes, {len(pieces)} locally closed pieces"]
    for pos, p in enumerate(topo.primes):
        lines.append(f"  prime {pos}: {{{','.join(lattice.members(p))}}}")
    for pc in pieces:
        outer = ",".join(lattice.members(pc.outer_index))
        inner = ",".join(lattice.members(pc.inner_index))
        lines.append(
            f"  piece primes={sorted(pc.difference)} outer={{{outer}}} inner={{{inner}}}"
        )
    return payload, lines, EXIT_OK


def _cmd_k0(args):
    g = _load_graph(args.graph)
    kz = k0(g)
    group = kz.invariants()
    payload = {
        "group": _group_json(group),
        "generators": list(g.vertices),
        "relations": kz.relations.to_lists(),
    }
    return payload, [f"K0 = {group}"], EXIT_OK


def _cmd_k1(args):
    g = _load_graph(args.graph)
    kb = k1(g, _coeff(args.field, reduced=False))
    return _konebar_json(kb), [f"K1 = {kb.symbol()}"], EXIT_OK


def _cmd_k1bar(args):
    g = _load_graph(args.graph)
    kb = k1(g, _coeff(args.field, reduced=True))
    return _konebar_json(kb), [f"Kbar1 = {kb.symbol()}"], EXIT_OK


def _cmd_monoid_eq(args):
    g = _load_graph(args.graph)
    verdict = ungraded_equal(g, parse_monoid_element(args.a), parse_monoid_element(args.b))
    payload = {
        "verdict": verdict.kind,
        "reason": verdict.reason,
        "ideal": list(verdict.ideal) if verdict.is_equal else None,
        "witness": dict(verdict.witness) if verdict.is_equal else None,
    }
    lines = [f"monoid equality: {verdict.kind}", f"  {verdict.reason}"]
    return payload, lines, EXIT_OK if verdict.is_equal else EXIT_OBSTRUCTION


def _cmd_graded_eq(args):
    g = _load_graph(args.graph)
    verdict = graded_equal(g, parse_graded_element(args.a), parse_graded_element(args.b))
    payload = {"verdict": verdict.kind, "reason": verdict.reason}
    lines = [f"graded equality: {verdict.kind}", f"  {verdict.reason}"]
    return payload, lines, EXIT_OK if verdict.is_equal else EXIT_OBSTRUCTION


def _cmd_fk(args):
    g = _load_graph(args.graph)
    coeff = _coeff(args.field, reduced=True)
    table = fkbar(
        g,
        coeff,
        lattice_cap=args.lattice_cap,
        row_cap=args.row_cap,
    )
    exact = table.all_rows_exact
    payload = {
        "lattice": [list(table.lattice.members(i)) for i in range(len(table.lattice))],
        "primes": list(table.topology.primes),
        "pieces": [
            {
                "difference": sorted(e.piece.difference),
                "outer": list(e.outer_members),
                "inner": list(e.inner_members),
                "k0": _group_json(e.pair.k0_group),
                "k1bar": _konebar_json(e.pair.k1),
            }
            for e in table.entries
        ],
        # the report's rows list is at depth 1, so each row at depth 2
        "rows": _row_texts(table, "\n    "),
        "all_rows_exact": exact,
    }
    lines = [
        f"filtered K-theory over a {len(table.lattice)}-element lattice, "
        f"{len(table.pieces)} pieces, {len(table.row_triples)} rows "
        f"({'all exact' if exact else 'EXACTNESS FAILURE'})"
    ]
    for e in table.entries:
        lines.append(
            f"  piece primes={sorted(e.piece.difference)}: "
            f"K0 = {e.pair.k0_group}, Kbar1 = {e.pair.k1.symbol()}"
        )
    code = EXIT_OK if exact else EXIT_OBSTRUCTION
    return payload, lines, code


def _cmd_compare(args):
    g1 = _load_graph(args.graph_a)
    g2 = _load_graph(args.graph_b)
    coeff = _coeff(args.field, reduced=True)
    intertwiner = None
    if args.se_r is not None:
        intertwiner = parse_matrix(_read(args.se_r))
    report = compare_fkbar(
        g1,
        g2,
        coeff,
        se_intertwiner=intertwiner,
        lattice_cap=args.lattice_cap,
        element_search=not args.no_element_search,
        row_cap=args.row_cap,
    )
    payload = {
        "consistent": report.consistent,
        "obstruction": report.obstruction,
        "lattice_iso": list(report.lattice_iso) if report.lattice_iso is not None else None,
        "group_matches": [
            {"difference": list(v.difference), "matched": v.matched, "detail": v.detail}
            for v in report.group_matches
        ],
        "map_matches": [
            {"triple": list(v.triple), "matched": v.matched, "detail": v.detail}
            for v in report.map_matches
        ],
        "certification": report.certification,
        "element_check": report.element_check,
        "note": report.note,
    }
    if report.consistent:
        lines = [
            f"consistent under lattice isomorphism {list(report.lattice_iso)}",
            f"certification: {report.certification}; element check: {report.element_check}",
            f"note: {report.note}",
        ]
        return payload, lines, EXIT_OK
    lines = [f"obstruction: {report.obstruction}", f"note: {report.note}"]
    return payload, lines, EXIT_OBSTRUCTION


def _cmd_shifteq(args):
    a = parse_matrix(_read(args.matrix_a))
    b = parse_matrix(_read(args.matrix_b))
    result = shift_equivalent_bounded(
        a, b, max_lag=args.max_lag, max_entry=args.max_entry
    )
    payload = {"kind": result.kind, "note": result.note}
    if result.certificate is not None:
        cert = result.certificate
        check = verify_certificate(a, b, cert)
        payload["certificate"] = {
            "lag": cert.lag,
            "r": cert.r.to_lists(),
            "s": cert.s.to_lists(),
            "verified": check.ok,
        }
    if result.obstructions:
        payload["obstructions"] = list(result.obstructions)
    if result.kind == "certificate":
        lines = [f"shift equivalent at lag {result.certificate.lag}"]
        code = EXIT_OK
    elif result.kind == "obstruction":
        lines = ["not shift equivalent:"] + [f"  {o}" for o in result.obstructions]
        code = EXIT_OBSTRUCTION
    else:
        lines = [f"unknown: {result.note}"]
        code = EXIT_BUDGET
    return payload, lines, code


def _cmd_bf(args):
    m = parse_matrix(_read(args.matrix))
    group = bowen_franks(m)
    det = det_invariant(m)
    payload = {"bowen_franks": _group_json(group), "det_invariant": det}
    lines = [f"BF = {group}", f"det(I - A) = {det}"]
    return payload, lines, EXIT_OK


def _cmd_vdb(args):
    g = _load_graph(args.graph)
    coeff = _coeff(args.field, reduced=False)
    report = vdb_sequence(g, coeff)
    payload = {
        "k1": _konebar_json(report.k1),
        "k0": _group_json(report.coker_phi),
        "ker_phi": _group_json(report.ker_phi),
        "coker_phi": _group_json(report.coker_phi),
        "kernel_maps_into_ker_phi": report.kernel_maps_into_ker_phi,
        "phi_composes_to_zero": report.phi_composes_to_zero,
        "lift_witnesses": [[v, w] for v, w in report.lift_witnesses],
        "consistent": report.consistent,
    }
    lines = [
        f"K1 = {report.k1.symbol()} -> graded K0 -> graded K0 -> K0 = {report.coker_phi} -> 0",
        f"ker(phi) = {report.ker_phi}, coker(phi) = {report.coker_phi}",
        f"consistent: {report.consistent}",
    ]
    return payload, lines, EXIT_OK if report.consistent else EXIT_OBSTRUCTION


def _cmd_sixterm(args):
    g = _load_graph(args.graph)
    coeff = _coeff(args.field, reduced=True)
    inner = _split_vertices(args.inner)
    middle = _split_vertices(args.middle)
    outer = (
        tuple(g.vertices) if args.outer == "*" else _split_vertices(args.outer)
    )
    row = six_term_row(g, inner, middle, outer, coeff)
    payload = _row_json(row)
    body = row.body
    lines = [
        "Kbar1: " + " -> ".join(pair.k1.symbol() for pair in body.pairs),
        "K0:   " + " -> ".join(str(pair.k0_group) for pair in body.pairs),
        f"exact: {body.exact}",
    ]
    for n in body.nodes:
        extra = "" if n.coeff_exact is None else f", coefficient level {n.coeff_exact}"
        lines.append(
            f"  node {n.name}: image in kernel {n.z_image_in_kernel}, "
            f"kernel in image {n.z_kernel_in_image}{extra}"
        )
    return payload, lines, EXIT_OK if body.exact else EXIT_OBSTRUCTION


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_field(p):
    p.add_argument(
        "--field",
        default="symbolic",
        help="coefficient field: a prime power q, 'divisible', or 'symbolic' (default)",
    )


def _add_lattice_cap(p):
    p.add_argument("--lattice-cap", type=int, default=_LATTICE_CAP, help="max lattice elements")


def _add_row_cap(p):
    p.add_argument(
        "--row-cap",
        type=int,
        default=_ROW_CAP,
        help="max nested ideal triples, one six-term row each",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leavitt",
        description="Exact K-theoretic and symbolic-dynamics invariants of finite directed graphs.",
    )
    parser.add_argument("--json", action="store_true", help="emit a JSON report")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("info", help="vertices, edges, adjacency")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("hsat", help="enumerate hereditary saturated sets")
    p.add_argument("graph")
    _add_lattice_cap(p)
    p.set_defaults(func=_cmd_hsat)

    p = sub.add_parser("spec", help="graded prime spectrum and its pieces")
    p.add_argument("graph")
    _add_lattice_cap(p)
    p.set_defaults(func=_cmd_spec)

    p = sub.add_parser("k0", help="K0 of the graph")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_k0)

    p = sub.add_parser("k1", help="K1 with unit-group coefficients")
    p.add_argument("graph")
    _add_field(p)
    p.set_defaults(func=_cmd_k1)

    p = sub.add_parser("k1bar", help="reduced K1 (units modulo sign)")
    p.add_argument("graph")
    _add_field(p)
    p.set_defaults(func=_cmd_k1bar)

    p = sub.add_parser("monoid-eq", help="decide equality in the graph monoid")
    p.add_argument("graph")
    p.add_argument("a", help="element, e.g. '2*v+w'")
    p.add_argument("b")
    p.set_defaults(func=_cmd_monoid_eq)

    p = sub.add_parser("graded-eq", help="decide equality in the graded monoid")
    p.add_argument("graph")
    p.add_argument("a", help="element, e.g. '2*v(0)+w(-1)'")
    p.add_argument("b")
    p.set_defaults(func=_cmd_graded_eq)

    p = sub.add_parser("fk", help="filtered K-theory table")
    p.add_argument("graph")
    _add_field(p)
    _add_lattice_cap(p)
    _add_row_cap(p)
    p.set_defaults(func=_cmd_fk)

    p = sub.add_parser("compare", help="compare two filtered K-theory tables")
    p.add_argument("graph_a")
    p.add_argument("graph_b")
    _add_field(p)
    _add_lattice_cap(p)
    _add_row_cap(p)
    p.add_argument(
        "--se-r",
        default=None,
        help="matrix file with a shift-equivalence intertwiner R to seed the lattice map",
    )
    p.add_argument(
        "--no-element-search",
        action="store_true",
        help="skip the element-level isomorphism search",
    )
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("shifteq", help="bounded shift-equivalence search")
    p.add_argument("matrix_a")
    p.add_argument("matrix_b")
    p.add_argument("--max-lag", type=int, default=6)
    p.add_argument("--max-entry", type=int, default=4)
    p.set_defaults(func=_cmd_shifteq)

    p = sub.add_parser("bf", help="Bowen-Franks group and det(I - A)")
    p.add_argument("matrix")
    p.set_defaults(func=_cmd_bf)

    p = sub.add_parser("vdb", help="the four-term sequence around graded K0")
    p.add_argument("graph")
    _add_field(p)
    p.set_defaults(func=_cmd_vdb)

    p = sub.add_parser("sixterm", help="one verified six-term row")
    p.add_argument("graph")
    p.add_argument("--inner", default="", help="comma separated vertices (default empty)")
    p.add_argument("--middle", required=True, help="comma separated vertices")
    p.add_argument("--outer", default="*", help="comma separated vertices, or * for all")
    _add_field(p)
    p.set_defaults(func=_cmd_sixterm)

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser every :func:`main` call in this process shares.

    Parsing keeps no state in the parser (each call gets a fresh namespace
    and no default is mutable), so building it once is safe.
    """
    return build_parser()


def main(argv=None) -> int:
    """Run one op.  Its Smith records live in one :func:`op_scope`, which
    ends with the op, whatever its exit: a CLI process runs one op, and
    between the ops of one process there is nothing to share."""
    with op_scope():
        args = _parser().parse_args(argv)
        try:
            payload, lines, code = args.func(args)
        except (GraphFormatError, ValueError, OSError, KeyError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
        except (LatticeCapError, RowCapError) as exc:
            print(f"cap exhausted: {exc}", file=sys.stderr)
            return EXIT_BUDGET
        except AssertionError as exc:
            print(f"internal error: {exc or 'assertion failed'}", file=sys.stderr)
            return EXIT_INTERNAL
        if args.json:
            _put_json(payload, "\n", sys.stdout.write)
            sys.stdout.write("\n")
        else:
            for line in lines:
                print(line)
        return code


if __name__ == "__main__":
    sys.exit(main())
