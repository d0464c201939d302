"""Feynman-graph power counting for the Phi^4_3 singular products.

Graphs carry singleton vertices (time-free unless pinned to the reference
time), resonance triples (v*, v1, v2) of space-only, time-pinned points
contracted by the resonance kernel, and kernel edges with the fixed
homogeneity table

    L  = 3   (the parabolic inverse)
    Gp = p   (covariance powers, p = 1, 2, 3)
    DL = 5   (Laplacian of the parabolic inverse)
    Q  = 6 + 2 gamma when marked, 0 when unmarked (the regularity probe)

measured against the parabolic dimension 6 of the resonance kernel per
triple.  For every connected, bridgeless subgraph with at least one loop
(triples treated as contracted supernodes, and always included wholly) the
engine evaluates the weak-homogeneity sums

    a1 = -6 n_G' - sum_{e != Q} a_e,
    a2 = a1 - 6 - 2 gamma           (when the marked probe is inside),

and the weighted codimensions of the collapsed diagonal,

    codim_unmarked = 2 q' + 3 (n' - 1),     codim_marked = 2 q' + 3 n',

with q' the subgraph's free time variables and n' its space points (each
triple contributing three).  A subgraph is convergent when a + codim > 0,
renormalizable at the boundary when -1 <= a + codim <= 0, superdivergent
below, and shielded-exempt (no constraint, any gamma) when it contains a
triple one of whose distinguished legs v1, v2 carries no subgraph edge: the
dangling leg is integrated against a smooth remainder, which regularizes the
whole kernel.

gamma is kept symbolic (an exact rational affine expression), so the
admissible range gamma < gamma_max is solved exactly, never fitted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

__all__ = [
    "KERNEL_HOMOGENEITY",
    "GraphError",
    "Vertex",
    "Triple",
    "Edge",
    "FeynmanGraph",
    "parse_graph",
    "Affine",
    "SubgraphVerdict",
    "enumerate_relevant_subgraphs",
    "verdict",
    "gamma_range",
    "GammaRangeReport",
]

# kernel name -> parabolic homogeneity (gamma-free part); Q handled apart
KERNEL_HOMOGENEITY: dict[str, Fraction] = {
    "L": Fraction(3),
    "G1": Fraction(1),
    "G2": Fraction(2),
    "G3": Fraction(3),
    "DL": Fraction(5),
}
RESONANCE_HOMOGENEITY = Fraction(6)  # [o] kernel per triple
Q_MARKED_CONST = Fraction(6)  # marked probe: 6 + 2 gamma
# the enumeration scans every edge subset, so larger graphs are refused
MAX_VERTICES = 14


class GraphError(ValueError):
    """Parse or validation error with a 1-based line position, or with the
    index in `FeynmanGraph.edges` of the edge that failed validation."""

    def __init__(self, message: str, line: int | None = None, edge: int | None = None):
        self.line, self.edge = line, edge
        where = f"line {line}: " if line is not None else ""
        super().__init__(where + message)


@dataclass(frozen=True)
class Vertex:
    name: str
    pinned: bool = False  # time pinned to the reference time (J membership)


@dataclass(frozen=True)
class Triple:
    name: str
    star: str
    leg1: str
    leg2: str

    @property
    def members(self) -> tuple[str, str, str]:
        return (self.star, self.leg1, self.leg2)


@dataclass(frozen=True)
class Edge:
    kind: str
    a: str
    b: str
    time0: bool = False
    marked: bool = False

    @property
    def pair(self) -> frozenset:
        return frozenset((self.a, self.b))

    def __str__(self):
        flags = (" time0" if self.time0 else "") + (" mark" if self.marked else "")
        return f"{self.kind} {self.a} {self.b}{flags}"


@dataclass(frozen=True)
class FeynmanGraph:
    """Singleton vertices, resonance triples and the kernel edges between
    their points, validated on construction.  No two vertices, triples or
    triple members share a name.  `points` maps each point name (a vertex or
    a triple member) to its triple, None for a singleton."""

    vertices: tuple[Vertex, ...]  # singletons only
    triples: tuple[Triple, ...]
    edges: tuple[Edge, ...]
    points: dict[str, Triple | None] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        seen: set[str] = set()
        for name in [v.name for v in self.vertices] + [
            n for t in self.triples for n in (t.name,) + t.members
        ]:
            if name in seen:
                raise GraphError(
                    f"name {name!r} declared twice; vertices, triples and "
                    f"triple members each need a name of their own"
                )
            seen.add(name)
        points = {v.name: None for v in self.vertices}
        points.update((m, t) for t in self.triples for m in t.members)
        object.__setattr__(self, "points", points)
        pinned = {v.name for v in self.vertices if v.pinned}
        pairs: set[frozenset] = set()
        n_q = 0
        for i, e in enumerate(self.edges):
            for end in (e.a, e.b):
                if end not in points:
                    raise GraphError(
                        f"edge {e} references undeclared vertex {end!r}", edge=i
                    )
            if e.a == e.b:
                raise GraphError(f"edge {e} is a self-loop", edge=i)
            if e.pair in pairs:
                raise GraphError(f"parallel edge between {e.a!r} and {e.b!r}", edge=i)
            pairs.add(e.pair)
            ta = points[e.a]
            if ta is not None and ta is points[e.b]:
                raise GraphError(
                    f"edge {e} joins two members of triple {ta.name!r}", edge=i
                )
            if e.kind == "Q":
                n_q += 1
                if n_q > 1:
                    raise GraphError("at most one Q edge is allowed", edge=i)
                for end in (e.a, e.b):
                    t = points[end]
                    if t is not None and end != t.star:
                        raise GraphError(
                            f"Q endpoint {end!r} must be the star of "
                            f"triple {t.name!r}, not a distinguished leg", edge=i
                        )
                    if t is None and end not in pinned:
                        raise GraphError(
                            f"Q endpoint {end!r} must be time-pinned", edge=i
                        )
            elif e.kind not in KERNEL_HOMOGENEITY:
                raise GraphError(
                    f"unknown kernel kind {e.kind!r}; known: "
                    f"{sorted(KERNEL_HOMOGENEITY)} and Q", edge=i
                )


# ---------------------------------------------------------------------------
# DSL parser
# ---------------------------------------------------------------------------


def parse_graph(text: str) -> FeynmanGraph:
    """Parse the one-declaration-per-line graph DSL.

        vertex a [time=t]
        triple T1 = (s1, l1, l2)
        edge L a b
        edge G2 l1 m1 time0
        edge Q s1 s2 mark
        J = {a, b}

    '#' starts a comment.  Triple members are declared implicitly; 'time=t'
    or membership of J pins a singleton to the reference time.  Every name
    is declared once: no two vertices, triples or triple members share a
    name, and a repeated one raises GraphError.  The edge
    flag 'time0' labels an equal-time covariance between two points at the
    reference time (two triple legs, say); it is kept on the Edge but the
    power counting does not read it.
    """
    vertices: dict[str, bool] = {}
    triples: list[Triple] = []
    edges: list[tuple[Edge, int]] = []
    pinned_sets: list[tuple[list[str], int]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.replace("=", " = ").split()
        head = tokens[0]
        try:
            if head == "vertex":
                if len(tokens) < 2:
                    raise GraphError("vertex needs a name", lineno)
                name = tokens[1]
                if name in vertices:
                    raise GraphError(f"vertex {name!r} declared twice", lineno)
                rest = "".join(tokens[2:])
                if rest == "":
                    pinned = False
                elif rest == "time=t":
                    pinned = True
                else:
                    raise GraphError(f"unknown vertex flag {rest!r}", lineno)
                vertices[name] = pinned
            elif head == "triple":
                # triple T1 = (s1, l1, l2)
                body = line[len("triple"):].strip()
                if "=" not in body:
                    raise GraphError("triple needs '= (star, leg1, leg2)'", lineno)
                name, rhs = (s.strip() for s in body.split("=", 1))
                rhs = rhs.strip()
                if not (rhs.startswith("(") and rhs.endswith(")")):
                    raise GraphError("triple members must be parenthesized", lineno)
                members = [m.strip() for m in rhs[1:-1].split(",")]
                if len(members) != 3 or not all(members):
                    raise GraphError("triple needs exactly three members", lineno)
                triples.append(Triple(name, *members))
            elif head == "edge":
                if len(tokens) < 4:
                    raise GraphError("edge needs 'edge KIND a b [flags]'", lineno)
                kind, a, b = tokens[1], tokens[2], tokens[3]
                time0 = marked = False
                for f in tokens[4:]:
                    if f == "time0":
                        time0 = True
                    elif f == "mark":
                        if kind != "Q":
                            raise GraphError("only Q edges can be marked", lineno)
                        marked = True
                    else:
                        raise GraphError(f"unknown edge flag {f!r}", lineno)
                edges.append((Edge(kind, a, b, time0=time0, marked=marked), lineno))
            elif head == "J":
                # J = {a, b}
                rhs = line.split("=", 1)[1].strip()
                if not (rhs.startswith("{") and rhs.endswith("}")):
                    raise GraphError("J needs '= {a, b, ...}'", lineno)
                names = [n.strip() for n in rhs[1:-1].split(",") if n.strip()]
                pinned_sets.append((names, lineno))
            else:
                raise GraphError(f"unknown declaration {head!r}", lineno)
        except GraphError:
            raise
        except Exception as exc:  # defensive: malformed token structure
            raise GraphError(str(exc), lineno) from exc

    triple_members = {m for t in triples for m in t.members}
    for names, lineno in pinned_sets:
        for n in names:
            if n in triple_members:
                continue  # triples are pinned anyway
            if n not in vertices:
                raise GraphError(f"J references undeclared vertex {n!r}", lineno)
            vertices[n] = True

    graph_vertices = tuple(
        Vertex(name, pinned) for name, pinned in vertices.items()
    )
    try:
        return FeynmanGraph(graph_vertices, tuple(triples), tuple(e for e, _ in edges))
    except GraphError as exc:
        if exc.edge is None:
            raise
        raise GraphError(str(exc), edges[exc.edge][1]) from None


# ---------------------------------------------------------------------------
# Symbolic affine expressions in gamma
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Affine:
    """const + gamma_coeff * gamma with exact rational coefficients."""

    const: Fraction
    gamma_coeff: Fraction = Fraction(0)

    @property
    def is_constant(self) -> bool:
        return self.gamma_coeff == 0

    def __str__(self):
        if self.is_constant:
            return str(self.const)
        g = self.gamma_coeff
        sign = "+" if g > 0 else "-"
        mag = abs(g)
        gpart = "gamma" if mag == 1 else f"{mag}*gamma"
        if self.const == 0:
            return gpart if g > 0 else f"-{gpart}"
        return f"{self.const} {sign} {gpart}"


# ---------------------------------------------------------------------------
# Subgraph enumeration
# ---------------------------------------------------------------------------


def _closure(g: FeynmanGraph, edge_subset):
    """(links, triples, singleton names) of an edge subset: each edge as the
    pair of nodes it joins, with a triple contracted to one node (the Triple
    itself), and the triples and singletons the edges touch.  A triple is
    included wholly when any of its members is touched."""
    links = [tuple(g.points[end] or end for end in (e.a, e.b)) for e in edge_subset]
    nodes = {n for link in links for n in link}
    triples = {n for n in nodes if isinstance(n, Triple)}
    return links, triples, nodes - triples


def _connected(nodes: set, links) -> bool:
    adj: dict = {n: [] for n in nodes}
    for a, b in links:
        adj[a].append(b)
        adj[b].append(a)
    stack = [next(iter(nodes))]
    seen = set(stack)
    while stack:
        for nb in adj[stack.pop()]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return seen == nodes


def enumerate_relevant_subgraphs(g: FeynmanGraph) -> list[tuple[Edge, ...]]:
    """All connected, bridgeless, loop-carrying (b1 > 0) edge subsets, with
    triples completed; brute force over edge subsets.  A subset that stays
    connected without any one of its edges is connected and bridgeless
    (parallel supernode edges protect each other)."""
    if len(g.points) > MAX_VERTICES:
        raise GraphError(
            f"graph has {len(g.points)} vertices (cap {MAX_VERTICES}); "
            f"enumeration would scan 2^{len(g.edges)} = {2 ** len(g.edges)} subsets"
        )
    out = []
    for size in range(2, len(g.edges) + 1):
        for subset in combinations(g.edges, size):
            links, triples, singles = _closure(g, subset)
            nodes = triples | singles
            if len(links) - len(nodes) + 1 > 0 and all(
                _connected(nodes, links[:i] + links[i + 1:]) for i in range(len(links))
            ):
                out.append(subset)
    return out


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------


@dataclass
class SubgraphVerdict:
    edges: tuple[Edge, ...]
    triples: tuple[str, ...]
    singletons: tuple[str, ...]
    b1: int
    a1: Fraction
    a2: Affine | None  # only when the marked probe is inside
    codim_unmarked: Fraction
    codim_marked: Fraction
    shielded: bool
    verdict: str  # convergent | renormalizable | superdivergent |
    #               shielded-exempt | gamma-dependent
    gamma_upper: Fraction | None  # strict upper bound from this subgraph
    case_b: bool  # renormalizable at the boundary (gamma-free subgraphs)

    def describe(self) -> str:
        names = "{" + ", ".join(str(e) for e in self.edges) + "}"
        if self.shielded:
            tail = "shielded-exempt"
        elif self.gamma_upper is not None:
            tail = f"gamma < {self.gamma_upper}"
        else:
            tail = self.verdict
        a = self.a2 if self.a2 is not None else Affine(self.a1)
        codim = self.codim_marked if self.a2 is not None else self.codim_unmarked
        return f"{names}: a = {a}, codim = {codim} -> {tail}"


def verdict(g: FeynmanGraph, edge_subset) -> SubgraphVerdict:
    """Power-counting verdict of one subgraph, gamma symbolic."""
    subset = tuple(edge_subset)
    _, triples, singles = _closure(g, subset)
    b1 = len(subset) - len(singles) - len(triples) + 1

    q_edge = next((e for e in subset if e.kind == "Q"), None)
    a1 = -RESONANCE_HOMOGENEITY * len(triples)
    for e in subset:
        if e.kind != "Q":
            a1 -= KERNEL_HOMOGENEITY[e.kind]
    a2 = None
    if q_edge is not None and q_edge.marked:
        a2 = Affine(a1 - Q_MARKED_CONST, Fraction(-2))

    # weighted codimension: free times weigh 2, space points 3
    pinned = {v.name for v in g.vertices if v.pinned}
    n_space = 3 * len(triples) + len(singles)
    q_free = sum(1 for s in singles if s not in pinned)
    codim_unmarked = Fraction(2 * q_free + 3 * (n_space - 1))
    codim_marked = Fraction(2 * q_free + 3 * n_space)

    # shielding: a triple with a dangling distinguished leg
    touched = {end for e in subset for end in (e.a, e.b)}
    shielded = any(
        t.leg1 not in touched or t.leg2 not in touched for t in triples
    )

    gamma_upper = None
    case_b = False
    if shielded:
        label = "shielded-exempt"
    elif a2 is not None:
        # a2 + codim_marked > 0  <=>  gamma < (const + codim)/2
        gamma_upper = (a2.const + codim_marked) / 2
        label = "gamma-dependent"
        # the unmarked reading (probe of degree 0) must also converge
        margin_unmarked = a1 + codim_unmarked
        if margin_unmarked <= -1:
            label = "superdivergent"
            gamma_upper = None
        elif margin_unmarked <= 0:
            case_b = True
    else:
        margin = a1 + codim_unmarked
        if margin > 0:
            label = "convergent"
        elif margin >= -1:
            label = "renormalizable"
            case_b = True
        else:
            label = "superdivergent"

    return SubgraphVerdict(
        edges=subset,
        triples=tuple(sorted(t.name for t in triples)),
        singletons=tuple(sorted(singles)),
        b1=b1,
        a1=a1,
        a2=a2,
        codim_unmarked=codim_unmarked,
        codim_marked=codim_marked,
        shielded=shielded,
        verdict=label,
        gamma_upper=gamma_upper,
        case_b=case_b,
    )


@dataclass
class GammaRangeReport:
    gamma_max: Fraction | None  # None means unconstrained (any gamma)
    admissible: bool  # False when some subgraph is superdivergent
    verdicts: list[SubgraphVerdict]
    case_b_subgraphs: list[SubgraphVerdict]

    def __str__(self):
        if not self.admissible:
            return "no admissible gamma (superdivergent subgraph)"
        if self.gamma_max is None:
            return "gamma unconstrained"
        return f"gamma < {self.gamma_max}"


def gamma_range(g: FeynmanGraph) -> GammaRangeReport:
    """Intersect the verdicts of all relevant subgraphs: the admissible range
    is gamma < gamma_max, shielded subgraphs are exempt, gamma-free
    boundary subgraphs are flagged case-(b) renormalizable rather than
    failing."""
    verdicts = [
        verdict(g, subset) for subset in enumerate_relevant_subgraphs(g)
    ]
    gamma_max: Fraction | None = None
    admissible = True
    case_b = []
    for v in verdicts:
        if v.shielded:
            continue
        if v.verdict == "superdivergent":
            admissible = False
        if v.case_b:
            case_b.append(v)
        if v.gamma_upper is not None:
            gamma_max = v.gamma_upper if gamma_max is None else min(gamma_max, v.gamma_upper)
    return GammaRangeReport(
        gamma_max=gamma_max,
        admissible=admissible,
        verdicts=verdicts,
        case_b_subgraphs=case_b,
    )
