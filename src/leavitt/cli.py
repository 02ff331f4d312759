"""Command line front end.

One verb per invariant.  Reports go to stdout as human-readable text, or as
deterministic JSON with --json (keys sorted, so identical inputs give byte
identical output).  Exit codes separate the four outcomes: 0 success, 1 a
mathematical obstruction (still a successful computation), 2 input error,
3 a budget or cap was exhausted before a verdict.
"""

from __future__ import annotations

import argparse
import json
import sys

from .filtered import RowCapError, compare_fkbar, fkbar
from .graphs import Graph, GraphFormatError, parse_graph, parse_matrix
from .intlinalg import CoeffGroup, FgAbGroup
from .ktheory import k0, k1, six_term_row, vdb_sequence
from .lattice import LatticeCapError, enumerate_hsat, locally_closed_all, spectrum
from .monoid import (
    EqBudget,
    graded_equal,
    parse_graded_element,
    parse_monoid_element,
    ungraded_equal,
)
from .shifts import bowen_franks, det_invariant, shift_equivalent_bounded, verify_certificate

__all__ = ["main"]

EXIT_OK = 0
EXIT_OBSTRUCTION = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


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


def _row_json(row) -> dict:
    return {
        "triple": [list(part) for part in row.triple],
        "exact": row.exact,
        "k1bar": [_konebar_json(kb) for kb in row.k1bars],
        "k0": [_group_json(kz.invariants()) for kz in row.k0s],
        "nodes": [
            {
                "name": n.name,
                "z_image_in_kernel": n.z_image_in_kernel,
                "z_kernel_in_image": n.z_kernel_in_image,
                "coeff_exact": n.coeff_exact,
            }
            for n in row.nodes
        ],
    }


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
        "opens": [sorted(o) for o in topo.opens],
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
    payload = {
        "group": _group_json(kz.invariants()),
        "generators": list(kz.group.labels),
        "relations": kz.group.relations.to_lists(),
    }
    return payload, [f"K0 = {kz.invariants()}"], EXIT_OK


def _cmd_k1(args):
    g = _load_graph(args.graph)
    kb = k1(g, _coeff(args.field, reduced=False))
    payload = _konebar_json(kb)
    return payload, [f"K1 = {kb.symbol()}"], EXIT_OK


def _cmd_k1bar(args):
    g = _load_graph(args.graph)
    kb = k1(g, _coeff(args.field, reduced=True))
    payload = _konebar_json(kb)
    return payload, [f"Kbar1 = {kb.symbol()}"], EXIT_OK


def _verdict_payload(g, verdict):
    return {
        "verdict": verdict.kind,
        "reason": verdict.reason,
        "trace_a": [e.to_str(g) for e in verdict.trace_a],
        "trace_b": [e.to_str(g) for e in verdict.trace_b],
    }


def _cmd_monoid_eq(args):
    g = _load_graph(args.graph)
    a = parse_monoid_element(args.a)
    b = parse_monoid_element(args.b)
    budget = EqBudget(max_states=args.budget_states, max_mass=args.budget_mass)
    verdict = ungraded_equal(g, a, b, budget)
    payload = _verdict_payload(g, verdict)
    lines = [f"monoid equality: {verdict.kind}"]
    if verdict.reason:
        lines.append(f"  {verdict.reason}")
    code = {"equal": EXIT_OK, "not-equal": EXIT_OBSTRUCTION, "unknown": EXIT_BUDGET}[
        verdict.kind
    ]
    return payload, lines, code


def _cmd_graded_eq(args):
    g = _load_graph(args.graph)
    a = parse_graded_element(args.a)
    b = parse_graded_element(args.b)
    verdict = graded_equal(g, a, b)
    payload = _verdict_payload(g, verdict)
    lines = [f"graded equality: {verdict.kind}"]
    if verdict.reason:
        lines.append(f"  {verdict.reason}")
    code = EXIT_OK if verdict.is_equal else EXIT_OBSTRUCTION
    return payload, lines, code


def _cmd_fk(args):
    g = _load_graph(args.graph)
    coeff = _coeff(args.field, reduced=True)
    table = fkbar(
        g,
        coeff,
        lattice_cap=args.lattice_cap,
        order_cap=args.order_cap,
        row_cap=args.row_cap,
    )
    payload = {
        "lattice": [list(table.lattice.members(i)) for i in range(len(table.lattice))],
        "primes": list(table.topology.primes),
        "pieces": [
            {
                "difference": sorted(e.piece.difference),
                "outer": list(e.outer_members),
                "inner": list(e.inner_members),
                "k0": _group_json(e.kzero.invariants()),
                "k1bar": _konebar_json(e.konebar),
            }
            for e in table.entries
        ],
        "rows": [
            dict(_row_json(row), lattice_triple=list(trip))
            for trip, row in zip(table.row_triples, table.rows)
        ],
        "all_rows_exact": table.all_rows_exact,
    }
    lines = [
        f"filtered K-theory over a {len(table.lattice)}-element lattice, "
        f"{len(table.pieces)} pieces, {len(table.rows)} rows "
        f"({'all exact' if table.all_rows_exact else 'EXACTNESS FAILURE'})"
    ]
    for e in table.entries:
        lines.append(
            f"  piece primes={sorted(e.piece.difference)}: "
            f"K0 = {e.kzero.invariants()}, Kbar1 = {e.konebar.symbol()}"
        )
    code = EXIT_OK if table.all_rows_exact else EXIT_OBSTRUCTION
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
        order_cap=args.order_cap,
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
        "k0": _group_json(report.k0.invariants()),
        "ker_phi": _group_json(report.ker_phi),
        "coker_phi": _group_json(report.coker_phi),
        "kernel_maps_into_ker_phi": report.kernel_maps_into_ker_phi,
        "phi_composes_to_zero": report.phi_composes_to_zero,
        "lift_witnesses": [[v, w] for v, w in report.lift_witnesses],
        "consistent": report.consistent,
    }
    lines = [
        f"K1 = {report.k1.symbol()} -> graded K0 -> graded K0 -> K0 = {report.k0.invariants()} -> 0",
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
    row = six_term_row(g, inner, middle, outer, coeff, order_cap=args.order_cap)
    payload = _row_json(row)
    lines = [
        "Kbar1: " + " -> ".join(kb.symbol() for kb in row.k1bars),
        "K0:   " + " -> ".join(str(kz.invariants()) for kz in row.k0s),
        f"exact: {row.exact}",
    ]
    for n in row.nodes:
        extra = "" if n.coeff_exact is None else f", coefficient level {n.coeff_exact}"
        lines.append(
            f"  node {n.name}: image in kernel {n.z_image_in_kernel}, "
            f"kernel in image {n.z_kernel_in_image}{extra}"
        )
    return payload, lines, EXIT_OK if row.exact else EXIT_OBSTRUCTION


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
    p.add_argument("--lattice-cap", type=int, default=4096, help="max lattice elements")


def _add_row_cap(p):
    p.add_argument(
        "--row-cap",
        type=int,
        default=65_536,
        help="max nested ideal triples, one six-term row each",
    )


def _add_order_cap(p):
    p.add_argument(
        "--order-cap",
        type=int,
        default=10_000,
        help="largest finite group order enumerated element by element",
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
    p.add_argument("--budget-states", type=int, default=100_000)
    p.add_argument("--budget-mass", type=int, default=64)
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
    _add_order_cap(p)
    _add_row_cap(p)
    p.set_defaults(func=_cmd_fk)

    p = sub.add_parser("compare", help="compare two filtered K-theory tables")
    p.add_argument("graph_a")
    p.add_argument("graph_b")
    _add_field(p)
    _add_lattice_cap(p)
    _add_order_cap(p)
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
    _add_order_cap(p)
    p.set_defaults(func=_cmd_sixterm)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, lines, code = args.func(args)
    except (GraphFormatError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (LatticeCapError, RowCapError) as exc:
        print(f"cap exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
