"""Command-line front end: file formats, subcommands, reproducible runs.

Text formats (whitespace separated, '#' starts a comment):
  graphs       cg <n> <r>          then lines  e <u> <v> <c>   (repeats merge)
  hypergraphs  hg <n> <k> <r>      then lines  part <i> <v...> (optional)
                                   and         e <c> <v...>    (r > 0)
                                   or          e <v...>        (r = 0)
  covers       cover <mode> <count> then lines piece <color> <v...>
The graph and hypergraph parsers check only tokens and line shapes; every
rule on the values is the type's, and its error is reported at its line and field.

Exit codes: 0 success, 1 violation or counterexample found, 2 inconclusive,
3 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shlex
import sys

from . import __version__
from .core import ColoredMultigraph, GraphError, make_certificate, verify
from .duality import ColoredHypergraph, HypergraphError
from .exact import Inconclusive, Infeasible, SolveBudget


class FormatError(ValueError):
    def __init__(self, line_no, col, message):
        super().__init__(f"line {line_no}, field {col}: {message}")
        self.line = line_no
        self.col = col


class UsageError(ValueError):
    """A bad command-line value; reported without a traceback, exit 3."""


def _tokenize(text):
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield ln, line.split()


def _ints(ln, tokens, first_field):
    """The tokens as integers; a bad token is reported with its line and field."""
    out = []
    for field, tok in enumerate(tokens, start=first_field):
        try:
            out.append(int(tok))
        except ValueError:
            raise FormatError(ln, field, f"expected an integer, got {tok!r}") from None
    return out


def parse_graph(text: str) -> ColoredMultigraph:
    rows = list(_tokenize(text))
    if not rows or rows[0][1][0] != "cg":
        raise FormatError(rows[0][0] if rows else 1, 1, "expected 'cg <n> <r>' header")
    ln, header = rows[0]
    if len(header) != 3:
        raise FormatError(ln, 2, "header needs exactly n and r")
    n, r = _ints(ln, header[1:], 2)
    edges = []
    for ln, tok in rows[1:]:
        if tok[0] != "e" or len(tok) != 4:
            raise FormatError(ln, 1, "expected 'e <u> <v> <c>'")
        edges.append(tuple(_ints(ln, tok[1:], 2)))
    try:
        return ColoredMultigraph(n, r, edges)
    except GraphError as exc:
        # the type names the faulty edge (None: the header) and its field
        ln = rows[0 if exc.item is None else 1 + edges.index(exc.item)][0]
        raise FormatError(ln, 2 + exc.field, str(exc)) from None


def write_graph(g: ColoredMultigraph) -> str:
    out = [f"cg {g.n} {g.r}"]
    for u, v, cols in g.edges():
        for c in sorted(cols):
            out.append(f"e {u} {v} {c}")
    return "\n".join(out) + "\n"


def parse_hypergraph(text: str) -> ColoredHypergraph:
    rows = list(_tokenize(text))
    if not rows or rows[0][1][0] != "hg":
        raise FormatError(rows[0][0] if rows else 1, 1, "expected 'hg <n> <k> <r>' header")
    ln, header = rows[0]
    if len(header) != 4:
        raise FormatError(ln, 2, "header needs n, k and r")
    n, k, r = _ints(ln, header[1:], 2)
    part_at = {}  # part index -> (line, vertices)
    edges, edge_lines = [], []
    for ln, tok in rows[1:]:
        if tok[0] == "part":
            if len(tok) < 2:
                raise FormatError(ln, 2, "expected 'part <i> <v...>'")
            idx, *vs = _ints(ln, tok[1:], 2)
            if idx in part_at:
                raise FormatError(ln, 2, f"part {idx} given twice")
            part_at[idx] = (ln, vs)
        elif tok[0] == "e":
            vals = _ints(ln, tok[1:], 2)
            if r > 0 and len(vals) < 2:
                raise FormatError(ln, 2, "expected 'e <c> <v...>'")
            edges.append((vals[0], vals[1:]) if r > 0 else (None, vals))
            edge_lines.append(ln)
        else:
            raise FormatError(ln, 1, f"unknown directive {tok[0]!r}")
    parts = [part_at[i] for i in sorted(part_at)]
    try:
        return ColoredHypergraph(n, k, r, [vs for _, vs in parts] if parts else None, edges)
    except HypergraphError as exc:
        # the type names the faulty entry; map it to its line and field
        kind, i, j = exc.where
        lines = {"sizes": [rows[0][0]], "part": [ln for ln, _ in parts], "edge": edge_lines}
        first = {"sizes": 2, "part": 3, "edge": 2 if r > 0 else 1}
        raise FormatError(lines[kind][i], first[kind] + j, str(exc)) from None


def write_hypergraph(h: ColoredHypergraph) -> str:
    """The hg text of h.  The parser reads a color on every e line exactly
    when r > 0, and the edges are colored all or none, so colors are written
    when r > 0 and the first edge has one; otherwise r is written as 0 and
    the edges bare."""
    edges = h.edges()
    colored = h.r > 0 and (not edges or edges[0][0] is not None)
    out = [f"hg {h.n} {h.k} {h.r if colored else 0}"]
    if h.parts is not None:
        for i, p in enumerate(h.parts):
            out.append("part " + " ".join(str(v) for v in (i,) + tuple(p)))
    for c, vs in edges:
        out.append(" ".join(map(str, ("e", c, *vs) if colored else ("e", *vs))))
    return "\n".join(out) + "\n"


def parse_cover(text: str):
    rows = list(_tokenize(text))
    if not rows or rows[0][1][0] != "cover":
        raise FormatError(rows[0][0] if rows else 1, 1, "expected 'cover <mode> <count>'")
    ln, header = rows[0]
    if len(header) != 3:
        raise FormatError(ln, 2, "header needs exactly a mode and a count")
    mode = header[1]
    if mode not in ("cover", "partition"):
        raise FormatError(ln, 2, f"mode must be 'cover' or 'partition', got {mode!r}")
    (count,) = _ints(ln, header[2:], 3)
    pieces = []
    for ln, tok in rows[1:]:
        if tok[0] != "piece" or len(tok) < 2:
            raise FormatError(ln, 1, "expected 'piece <color> <v...>'")
        c, *vs = _ints(ln, tok[1:], 2)
        pieces.append((c, tuple(vs)))
    if len(pieces) != count:
        raise FormatError(rows[0][0], 3, f"header says {count} pieces, got {len(pieces)}")
    return make_certificate(pieces, mode=mode)


def write_cover(cert) -> str:
    out = [f"cover {cert.mode} {len(cert.pieces)}"]
    for c, vs in cert.pieces:
        out.append("piece " + " ".join(map(str, (c, *vs))))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 3, as the exit-code contract above says (argparse uses 2,
    the inconclusive code)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _read(path):
    with open(path) as f:
        return f.read()


def _parse_parts(spec_str, n):
    """'0,1;2,3' -> [[0, 1], [2, 3]]; the parts must partition 0..n-1."""
    if spec_str is None:
        raise UsageError("this command needs --parts")
    try:
        parts = [[int(v) for v in chunk.split(",") if v != ""]
                 for chunk in spec_str.split(";") if chunk]
    except ValueError:
        raise UsageError(f"--parts {spec_str!r}: vertices must be integers") from None
    if sorted(v for p in parts for v in p) != list(range(n)):
        raise UsageError(f"--parts {spec_str!r} must partition 0..{n - 1}")
    return parts


def _two_parts(spec_str, n):
    """_parse_parts for the commands that split the vertices into two sides."""
    parts = _parse_parts(spec_str, n)
    if len(parts) != 2:
        raise UsageError(f"--parts {spec_str!r}: this command needs exactly two "
                         f"parts, got {len(parts)}")
    return parts


def _emit(args, text, payload=None):
    sys.stdout.write(text if text.endswith("\n") else text + "\n")
    if args.manifest:
        manifest = {
            "command": shlex.join(args.argv),
            "budget_seconds": args.budget_seconds,
            "nodes": args.budget.nodes,
            "version": __version__,
            "digest": hashlib.sha256(text.encode()).hexdigest(),
        }
        if args.budget.counts:
            manifest["stats"] = args.budget.counts
        if payload:
            manifest.update(payload)
        with open(args.manifest, "w") as f:
            json.dump(manifest, f, indent=2, sort_keys=True)
            f.write("\n")


def cmd_tc(args):
    from .exact import tc_exact

    g = parse_graph(_read(args.input))
    size, cert = tc_exact(g, max_diam=args.max_diam,
                          allowed_colors=set(args.colors) if args.colors else None,
                          budget=args.budget)
    _emit(args, f"tc = {size}\n{write_cover(cert)}", {"tc": size})
    return 0


def cmd_tp(args):
    from .exact import tp_exact

    g = parse_graph(_read(args.input))
    size, cert = tp_exact(g, budget=args.budget)
    _emit(args, f"tp = {size}\n{write_cover(cert)}", {"tp": size})
    return 0


def cmd_taunu(args):
    from .exact import tau_nu

    h = parse_hypergraph(_read(args.input))
    tau, cover, nu, matching = tau_nu(h, args.budget)
    _emit(args, f"tau = {tau} cover = {' '.join(map(str, cover))}\n"
                f"nu = {nu} matching-edges = {' '.join(map(str, matching))}")
    return 0


def cmd_mc(args):
    from .exact import mc_graph

    g = parse_graph(_read(args.input))
    size, color, part = mc_graph(g)
    _emit(args, f"mc = {size} color = {color} vertices = "
                + " ".join(map(str, part)))
    return 0


def cmd_dualize(args):
    from .duality import graph_to_hypergraph

    g = parse_graph(_read(args.input))
    h, comps = graph_to_hypergraph(g)
    legend = "\n".join(f"# {i}: color {c} {list(vs)}" for i, (c, vs) in enumerate(comps))
    _emit(args, write_hypergraph(h) + legend)
    return 0


def cmd_classify(args):
    from .constructive import classify3, classify_bipartite2

    g = parse_graph(_read(args.input))
    if args.parts:
        parts = _two_parts(args.parts, g.n)
        cls, cert = classify_bipartite2(g, parts[0], parts[1])
        _emit(args, f"{cls.tag} {cls.data}\n{write_cover(cert)}")
    else:
        res = classify3(g)
        _emit(args, f"{res.tag} {res.data}")
    return 0


def cmd_cover(args):
    from .constructive import (classify_bipartite2, cover_alpha2,
                               cover_bipartite3, cover_complete,
                               cover_multipartite, restricted_cover)
    from .exact import tc_exact

    g = parse_graph(_read(args.input))
    m = args.method
    if m == "exact":
        size, cert = tc_exact(g, max_diam=args.max_diam, budget=args.budget)
    elif m in ("r2", "r3", "r4"):
        cert = cover_complete(g, int(m[1]), args.budget)
    elif m == "bip2":
        parts = _two_parts(args.parts, g.n)
        _, cert = classify_bipartite2(g, parts[0], parts[1])
    elif m == "bip3":
        parts = _two_parts(args.parts, g.n)
        cert = cover_bipartite3(g, parts[0], parts[1], args.budget)
    elif m == "alpha2":
        cert = cover_alpha2(g)
    elif m == "multipartite":
        parts = _parse_parts(args.parts, g.n)
        cert = cover_multipartite(g, parts, 2 if args.r is None else args.r, args.budget)
    else:
        if args.restrict_colors is None:
            raise UsageError("--method restricted needs --restrict-colors")
        cert = restricted_cover(g, g.r if args.r is None else args.r, args.restrict_colors,
                                args.budget)
    _emit(args, write_cover(cert), {"pieces": len(cert.pieces)})
    return 0


def cmd_signatures(args):
    from . import signatures as sg

    n, p = args.n, args.p
    if args.stage == "enumerate":
        sigs = sg.enumerate_signatures(n, p, args.budget)
    elif args.stage == "valid":
        sigs = sg.valid_signatures(n, p, args.budget)
    else:
        sigs = sg.residual_cases(n, p, args.budget)
    lines = [str(sig)[1:-1] for sig in sigs]  # the shapes, without the braces
    _emit(args, f"# {args.stage}({n},{p}) = {len(sigs)}\n" + "\n".join(lines),
          {"count": len(sigs)})
    return 0


def cmd_zrd(args):
    from .goodpart import z_exact

    out = z_exact(args.r, args.d, args.budget)
    witness = ""
    if out.witness is not None:
        witness = " ".join("".join(map(str, w)) for w in out.witness.sorted_words())
    if out.exact:
        text = f"Z({args.r},{args.d}) = {out.value}\nwitness: {witness}"
        code = 0
    else:
        text = f"Z({args.r},{args.d}) in [{out.lower},{out.upper}]\nwitness: {witness}"
        code = 2
    if args.format == "csv":
        text = "r,d,lower,upper,exact,witness\n" \
               f"{args.r},{args.d},{out.lower},{out.upper},{out.exact},{witness}"
    payload = {"lower": out.lower, "upper": out.upper}
    if not out.exact:
        payload["stats"] = out.stats
    _emit(args, text, payload)
    return code


def cmd_goodpart(args):
    from .goodpart import good_partition

    g = parse_graph(_read(args.input))
    got = good_partition(g, *_two_parts(args.parts, g.n), args.budget)
    if got is None:
        _emit(args, "no good partition")
        return 1
    _emit(args, "\n".join(f"Y_{i+1}: " + " ".join(map(str, part))
                          for i, part in enumerate(got)))
    return 0


def cmd_hyper(args):
    from .exact import tc_cl_exact
    from .hypercover import (cover_midrange, cover_product, kiraly_cover,
                             mc_cl, tight_spanning)

    h = parse_hypergraph(_read(args.input))
    c, ell = args.c, args.ell
    if args.method == "exact":
        size, comps = tc_cl_exact(h, c, ell, args.budget)
        _emit(args, f"tc^{{{c},{ell}}} = {size}")
    elif args.method == "kiraly":
        comps = kiraly_cover(h)
        _emit(args, f"kiraly cover size = {len(comps)}")
    elif args.method == "product":
        comps = cover_product(h, c, ell)
        _emit(args, f"product cover size = {len(comps)}")
    elif args.method == "midrange":
        comps = cover_midrange(h, c, ell, args.budget)
        _emit(args, f"midrange cover size = {len(comps)}")
    elif args.method == "tight":
        comp = tight_spanning(h)
        _emit(args, f"spanning tight component: color {comp.color}")
    else:
        size, color, _ = mc_cl(h, c, ell)
        _emit(args, f"mc^{{{c},{ell}}} = {size} color = {color}")
    return 0


def cmd_construct(args):
    from . import constructions as cn
    from .goodpart import badmulti_graph

    kind = args.kind
    if kind == "plane":
        if args.plane_kind == "truncated":
            # its (q+1)-partite classes go into the file as part lines
            h = cn.truncated_plane_hypergraph(args.q)
        else:
            h = cn.design_to_hypergraph(cn.galois_plane(args.q, args.plane_kind))
        _emit(args, write_hypergraph(h))
    elif kind == "affine-coloring":
        g = cn.affine_tc_coloring(args.r, args.alpha)
        _emit(args, write_graph(g))
    elif kind == "half-r":
        g = cn.half_r_example(args.r, args.block_size)
        _emit(args, write_graph(g))
    elif kind == "badmulti":
        g = badmulti_graph(args.k, args.t)
        _emit(args, write_graph(g))
    else:
        g = cn.multipartite_star_example(args.k, args.r)
        _emit(args, write_graph(g))
    return 0


def cmd_hunt(args):
    from .exact import hunt

    try:
        bound = int(args.bound)
    except ValueError:
        bound = args.bound  # a bound word, or hunt's ValueError
    got = hunt(args.n, args.r, bound, budget=args.budget)
    if got is None:
        _emit(args, "none")
        return 0
    cg, t = got
    _emit(args, f"counterexample: tc = {t}\n{write_graph(cg)}", {"tc": t})
    return 1


def cmd_verify(args):
    g = parse_graph(_read(args.input))
    cert = parse_cover(_read(args.cover))
    res = verify(g, cert)
    if res.ok:
        _emit(args, "accept")
        return 0
    _emit(args, f"violation: {res.reason}")
    return 1


def main(argv=None):
    ap = _Parser(prog="ryserlab", description="monochromatic cover workbench")
    ap.add_argument("--budget-seconds", type=float, default=600.0)
    ap.add_argument("--manifest", default=None)
    sub = ap.add_subparsers(dest="cmd", required=True)

    def add(name, fn):
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        return p

    p = add("tc", cmd_tc)
    p.add_argument("--input", required=True)
    p.add_argument("--max-diam", type=int, default=None)
    p.add_argument("--colors", type=int, nargs="+", default=None)

    p = add("tp", cmd_tp)
    p.add_argument("--input", required=True)

    p = add("taunu", cmd_taunu)
    p.add_argument("--input", required=True)

    p = add("mc", cmd_mc)
    p.add_argument("--input", required=True)

    p = add("dualize", cmd_dualize)
    p.add_argument("--input", required=True)

    p = add("classify", cmd_classify)
    p.add_argument("--input", required=True)
    p.add_argument("--parts", default=None)

    p = add("cover", cmd_cover)
    p.add_argument("--input", required=True)
    p.add_argument("--method", required=True,
                   choices=("exact", "r2", "r3", "r4", "bip2", "bip3", "alpha2",
                            "multipartite", "restricted"))
    p.add_argument("--parts", default=None)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--max-diam", type=int, default=None)
    p.add_argument("--restrict-colors", type=int, nargs=2, default=None)

    p = add("signatures", cmd_signatures)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--stage", choices=("enumerate", "valid", "residual"),
                   default="residual")

    p = add("zrd", cmd_zrd)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--format", choices=("csv", "plain"), default="plain")

    p = add("goodpart", cmd_goodpart)
    p.add_argument("--input", required=True)
    p.add_argument("--parts", required=True)

    p = add("hyper", cmd_hyper)
    p.add_argument("--input", required=True)
    p.add_argument("--c", type=int, default=1)
    p.add_argument("--ell", type=int, default=1)
    p.add_argument("--method", required=True,
                   choices=("exact", "kiraly", "product", "midrange", "tight", "mc"))

    p = add("construct", cmd_construct)
    p.add_argument("kind", choices=("plane", "affine-coloring", "half-r",
                                    "badmulti", "star"))
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--plane-kind", choices=("projective", "truncated", "affine"),
                   default="projective")
    p.add_argument("--r", type=int, default=3)
    p.add_argument("--alpha", type=int, default=1)
    p.add_argument("--block-size", type=int, default=None)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--t", type=int, default=1)

    p = add("hunt", cmd_hunt)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--bound", required=True)

    p = add("verify", cmd_verify)
    p.add_argument("--input", required=True)
    p.add_argument("--cover", required=True)

    argv = sys.argv[1:] if argv is None else list(argv)
    args = ap.parse_args(argv)
    args.argv = argv
    args.budget = SolveBudget(max_seconds=args.budget_seconds)
    try:
        return args.fn(args)
    except Infeasible as exc:
        _emit(args, f"infeasible: {exc}")
        return 1
    except Inconclusive as exc:
        _emit(args, f"inconclusive: {exc} {exc.stats}", {"stats": exc.stats})
        return 2
    except ValueError as exc:
        # FormatError, UsageError and every domain error: bad input, not a finding
        sys.stderr.write(f"error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
