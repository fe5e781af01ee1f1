"""Independent computations the benchmark checks the program's outputs against.

Nothing here imports fuzzmin.  The partition is a plain signature
refinement over int degree ranks, the chain partition is known by
construction, and the evaluator is a sparse product-algebra evaluator
that closes `*` with a max-product Dijkstra search instead of the
program's dense matrix sweep.  Each `check_*` function returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import heapq
from fractions import Fraction

from inputs import Chains, Model

# --- coarsest stable partition ---------------------------------------------


def coarsest_partition(model: Model, inverse: bool) -> list[int]:
    """Block index of every element in the coarsest partition that is stable
    under every role (and every inverse role when `inverse`): members of a
    block agree on every concept rank and on the largest rank of an edge
    into each block.  Refines signatures until the block count is fixed."""
    n = model.n
    edges: list[tuple[int, int, int, int]] = []  # (source, label, target, rank)
    for label, triples in enumerate(model.roles.values()):
        edges.extend((x, 2 * label, y, k) for x, y, k in triples)
        if inverse:
            edges.extend((y, 2 * label + 1, x, k) for x, y, k in triples)
    columns = list(model.concepts.values())
    block = _renumber([tuple(col[x] for col in columns) for x in range(n)])
    count = max(block) + 1
    while True:
        best: list[dict[tuple[int, int], int]] = [{} for _ in range(n)]
        for x, label, y, k in edges:
            key = (label, block[y])
            if k > best[x].get(key, 0):
                best[x][key] = k
        refined = _renumber([(block[x], tuple(sorted(best[x].items()))) for x in range(n)])
        refined_count = max(refined) + 1
        if refined_count == count:
            return block
        block, count = refined, refined_count


def _renumber(keys: list) -> list[int]:
    ids: dict = {}
    return [ids.setdefault(key, len(ids)) for key in keys]


def blocks_of(block: list[int]) -> set[frozenset[int]]:
    groups: dict[int, set[int]] = {}
    for x, b in enumerate(block):
        groups.setdefault(b, set()).add(x)
    return {frozenset(g) for g in groups.values()}


# --- quotient outputs --------------------------------------------------------


def _output_blocks(model: Model, doc: dict, problems: list[str]) -> dict[str, frozenset[int]] | None:
    """Map each quotient element name ("{a,b}") to the input elements it merges."""
    ids = {name: x for x, name in enumerate(model.names)}
    by_name: dict[str, frozenset[int]] = {}
    seen: set[int] = set()
    for name in doc.get("domain", []):
        if not (isinstance(name, str) and name.startswith("{") and name.endswith("}")):
            problems.append(f"quotient element {name!r} is not a block name")
            return None
        members = name[1:-1].split(",")
        if any(m not in ids for m in members):
            problems.append(f"quotient element {name!r} names an unknown element")
            return None
        block = frozenset(ids[m] for m in members)
        if block & seen or len(block) != len(members):
            problems.append(f"quotient element {name!r} overlaps another block")
            return None
        seen |= block
        by_name[name] = block
    if len(seen) != model.n:
        problems.append(f"quotient blocks cover {len(seen)} of {model.n} elements")
        return None
    return by_name


def check_quotient(model: Model, expected: set[frozenset[int]], doc: dict) -> list[str]:
    """The quotient must have exactly the expected blocks; each block's
    concept degrees are those of its members and each role degree between
    two blocks is the largest degree between their members."""
    problems: list[str] = []
    by_name = _output_blocks(model, doc, problems)
    if by_name is None:
        return problems
    got = set(by_name.values())
    if got != expected:
        problems.append(
            f"partition differs: {len(got)} blocks, expected {len(expected)}; "
            f"{len(got - expected)} blocks not expected")
        return problems
    name_of = {}
    for name, block in by_name.items():
        for x in block:
            name_of[x] = name
    for t, s in model.twin_of.items():
        if name_of[t] != name_of[s]:
            problems.append(f"twin {model.names[t]} is not in the block of {model.names[s]}")
            break

    degrees = model.degrees
    for c, ranks in model.concepts.items():
        want = {}
        for name, block in by_name.items():
            k = ranks[min(block)]
            if any(ranks[x] != k for x in block):
                problems.append(f"block {name} mixes degrees of {c}")
            if k:
                want[name] = str(degrees[k - 1])
        if doc.get("concepts", {}).get(c, {}) != want:
            problems.append(f"concept {c} degrees of the quotient differ")
    for r, triples in model.roles.items():
        best: dict[tuple[str, str], int] = {}
        for x, y, k in triples:
            key = (name_of[x], name_of[y])
            if k > best.get(key, 0):
                best[key] = k
        want_role = {key: str(degrees[k - 1]) for key, k in best.items()}
        got_role = {(e[0], e[1]): e[2] for e in doc.get("roles", {}).get(r, [])}
        if got_role != want_role or len(doc.get("roles", {}).get(r, [])) != len(want_role):
            problems.append(f"role {r} degrees of the quotient differ")
    return problems


def check_social(model: Model, doc: dict) -> list[str]:
    return check_quotient(model, blocks_of(coarsest_partition(model, inverse=True)), doc)


def check_chains(chains: Chains, doc: dict) -> list[str]:
    """Blocks are the distances to the chain end, and the quotient is one
    chain whose edge into distance k has degree cycle[k % 4]."""
    by_distance: dict[int, set[int]] = {}
    for x, d in enumerate(chains.distance):
        by_distance.setdefault(d, set()).add(x)
    expected = {frozenset(b) for b in by_distance.values()}
    problems = check_quotient(chains.model, expected, doc)
    if problems:
        return problems
    ids = {name: x for x, name in enumerate(chains.model.names)}
    name = {}
    for block_name in doc["domain"]:
        first = ids[block_name[1:-1].split(",")[0]]
        name[chains.distance[first]] = block_name
    want = sorted([name[k + 1], name[k], str(chains.cycle[k % 4])] for k in range(len(name) - 1))
    if sorted(doc["roles"]["next"]) != want:
        problems.append("the quotient is not one chain with the cycled degrees")
    return problems


# --- product-algebra semantics --------------------------------------------

ONE = Fraction(1)


def _implies(a: Fraction, b: Fraction) -> Fraction:
    return ONE if a <= b else b / a


def _relation(model: Model, role) -> list[dict[int, Fraction]]:
    """Sparse fuzzy relation of a role shape: row x maps y to a positive degree."""
    n = model.n
    kind = role[0]
    if kind in ("r", "s"):
        rows: list[dict[int, Fraction]] = [{} for _ in range(n)]
        for x, y, k in model.roles[kind]:
            rows[x][y] = model.degrees[k - 1]
        return rows
    if kind == "inv":
        rows = [{} for _ in range(n)]
        for x, row in enumerate(_relation(model, role[1])):
            for y, d in row.items():
                rows[y][x] = d
        return rows
    if kind == "or":
        rows = [dict(row) for row in _relation(model, role[1])]
        for x, row in enumerate(_relation(model, role[2])):
            for y, d in row.items():
                if d > rows[x].get(y, 0):
                    rows[x][y] = d
        return rows
    if kind == "seq":
        left, right = _relation(model, role[1]), _relation(model, role[2])
        rows = [{} for _ in range(n)]
        for x in range(n):
            out = rows[x]
            for z, d in left[x].items():
                for y, e in right[z].items():
                    if d * e > out.get(y, 0):
                        out[y] = d * e
        return rows
    if kind == "star":
        step = _relation(model, role[1])
        return [_widest_paths(step, x) for x in range(n)]
    if kind == "test":
        values = concept_values(model, role[1])
        return [{x: v} if v else {} for x, v in enumerate(values)]
    raise ValueError(f"unknown role shape {role!r}")


def _widest_paths(step: list[dict[int, Fraction]], source: int) -> dict[int, Fraction]:
    """Largest product of degrees over paths from source (the empty path has
    degree 1).  Degrees are at most 1, so products never grow along a path
    and the search may settle the largest open value first."""
    best = {source: ONE}
    heap = [(-ONE, source)]
    done: set[int] = set()
    while heap:
        neg, x = heapq.heappop(heap)
        if x in done:
            continue
        done.add(x)
        for y, d in step[x].items():
            cand = -neg * d
            if cand > best.get(y, 0):
                best[y] = cand
                heapq.heappush(heap, (-cand, y))
    return best


def concept_values(model: Model, concept) -> list[Fraction]:
    """Degree of a concept shape at every element under the product algebra."""
    kind = concept[0]
    if kind == "name":
        return [model.degrees[k - 1] if k else Fraction(0) for k in model.concepts[concept[1]]]
    if kind == "and":
        return [a * b for a, b in zip(concept_values(model, concept[1]),
                                      concept_values(model, concept[2]))]
    if kind == "implies":
        return [_implies(a, b) for a, b in zip(concept_values(model, concept[1]),
                                               concept_values(model, concept[2]))]
    rows = _relation(model, concept[1])
    body = concept_values(model, concept[2])
    if kind == "some":
        return [max((d * body[y] for y, d in row.items()), default=Fraction(0)) for row in rows]
    if kind == "all":
        return [min((_implies(d, body[y]) for y, d in row.items()), default=ONE) for row in rows]
    raise ValueError(f"unknown concept shape {concept!r}")


def check_eval(model: Model, shape, at: int, printed: str) -> list[str]:
    want = concept_values(model, shape)[at]
    try:
        got = Fraction(printed.strip())
    except ValueError:
        return [f"eval printed {printed!r}, not a degree"]
    if got != want:
        return [f"eval at {model.names[at]} gave {got}, expected {want}"]
    return []


def check_bisimulation(model: Model, pairs) -> list[str]:
    """largest_bisimulation(I, I) must be the same-block relation of the
    coarsest partition stable under the roles and their inverses."""
    block = coarsest_partition(model, inverse=True)
    members: dict[int, list[int]] = {}
    for x, b in enumerate(block):
        members.setdefault(b, []).append(x)
    want = {(x, y) for group in members.values() for x in group for y in group}
    got = set(pairs)
    if got != want:
        return [f"largest bisimulation has {len(got)} pairs, expected {len(want)}; "
                f"{len(got - want)} unexpected"]
    return []


# --- verify ----------------------------------------------------------------

VERIFY_PROPERTIES = (
    "axiom/assertion preservation",
    "canonical bisimulation",
    "concept invariance",
    "idempotent domain size",
    "oracle equivalence",
    "stability",
)


def check_verify(code: int, stdout: str, cases: int) -> list[str]:
    """`fuzzmin verify` must exit 0 and count every property on every case."""
    problems = [] if code == 0 else [f"verify exited {code}"]
    counts = {}
    for line in stdout.splitlines():
        prop, sep, tally = line.rpartition(": ")
        if sep:
            counts[prop] = tally
    for prop in VERIFY_PROPERTIES:
        if counts.get(prop) != f"{cases}/{cases}":
            problems.append(f"verify property {prop!r} reads {counts.get(prop)!r}, expected {cases}/{cases}")
    return problems
