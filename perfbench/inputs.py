"""Seeded inputs for the three workloads.

Everything here is built from the workload seed alone, without importing
e6kit, so the program under test receives only the generated argv and
request data.  The same seed always gives the same inputs.
"""

from __future__ import annotations

import random
from collections import Counter

UNITS = ("i", "j", "k", "kl", "jl", "il", "l")


def label_texts() -> list[str]:
    """The 135 generator labels in the CLI's text syntax."""
    cores = ["B:t,z", "B:t,x"] + [f"B:t,{q}" for q in UNITS]
    cores += ["R:x,z"] + [f"R:x,{q}" for q in UNITS] + [f"R:z,{q}" for q in UNITS]
    cores += [f"{cat}:{q}" for cat in "AGS" for q in UNITS]
    return [core if t == 1 else f"{core}:{t}" for t in (1, 2, 3) for core in cores]


# ---------------------------------------------------------------------------
# CLI workloads

# The subalg involution sets all contain phi_hperp, so every fixed part and
# compact preimage has dimension 36 or 38 and costs about the same; the seed
# then changes the argv without changing the work by more than a few percent.
# Each entry: tokens, --part, expected (dim, signature, rank, names).
SUBALG_SETS = [
    (("hperp",), "fixed", (38, [24, 14, 0], 6, ["sl(3,H)+su(2,C)^C", "sl(2,1,H)+su(2,C)_2"])),
    (("hperp",), "compact", (36, [24, 12, 0], 4, ["su(3,1,H)"])),
    (("t", "hperp"), "fixed", (36, [24, 12, 0], 4, ["su(3,1,H)"])),
    (("t", "hperp"), "compact", (38, [24, 14, 0], 6, ["sl(3,H)+su(2,C)^C", "sl(2,1,H)+su(2,C)_2"])),
    (("23", "hperp"), "fixed", (38, [24, 14, 0], 6, ["sl(3,H)+su(2,C)^C", "sl(2,1,H)+su(2,C)_2"])),
    (("23", "hperp"), "compact", (36, [24, 12, 0], 4, ["su(3,1,H)"])),
    (("t", "23", "hperp"), "fixed", (36, [24, 12, 0], 4, ["su(3,1,H)"])),
    (("t", "23", "hperp"), "compact", (38, [24, 14, 0], 6, ["sl(3,H)+su(2,C)^C", "sl(2,1,H)+su(2,C)_2"])),
]
_ALIASES = {"23": ("23", "two_three"), "hperp": ("hperp", "h_perp"), "t": ("t",)}

CLI_VERBS = ("killing", "table", "verify", "stab-l", "subalg", "gellmann")


def cli_plan(seed: int) -> list[dict]:
    """One round of CLI invocations: each verb once, with only the flags it reads."""
    rng = random.Random(seed)
    tokens, part, expect = rng.choice(SUBALG_SETS)
    spelled = [rng.choice(_ALIASES[tok]) for tok in tokens]
    rng.shuffle(spelled)
    verify_seed = rng.randrange(1 << 16)
    subalg = ["subalg", "--auto", ",".join(spelled)]
    if part != "fixed" or rng.random() < 0.5:
        subalg += ["--part", part]
    argvs = {
        "killing": ["killing", "--out", "killing.json"],
        "table": ["table", "--out", "table.json"],
        "verify": ["verify", "--suite", "all", "--seed", str(verify_seed)],
        "stab-l": ["stab-l"],
        "subalg": subalg,
        "gellmann": ["gellmann"],
    }
    return [{"verb": verb, "argv": argvs[verb],
             "expect": expect if verb == "subalg" else None}
            for verb in CLI_VERBS]


def cli_summary(plan: list[dict]) -> dict:
    return {"argv": [" ".join(op["argv"]) for op in plan]}


# ---------------------------------------------------------------------------
# float-stream workload

# Root counts |Phi| of the diagrams offered by rootweight.diagram.
ROOT_COUNTS = {"A1": 2, "A2": 6, "A3": 12, "A4": 20, "A5": 30, "B2": 8, "B3": 18,
               "B4": 32, "C2": 8, "C3": 18, "C4": 32, "D3": 12, "D4": 24,
               "G2": 12, "F4": 48, "E6": 72}

# (algebra, highest-weight marks, number of distinct weights).  Small diagrams
# are dominated by per-weight overhead, large ones by the quadratic strut
# search.  The large diagrams cost within about 20% of each other, so the tail
# percentile, which falls among them, does not swing with the draw.
DIAGRAMS = {
    "small": [("A2", (1, 1), 7), ("B3", (1, 0, 0), 7), ("G2", (1, 0), 13),
              ("C3", (0, 1, 0), 13), ("A3", (0, 1, 1), 16), ("B4", (0, 0, 0, 1), 16),
              ("D4", (0, 1, 0, 0), 25), ("C4", (0, 0, 1, 0), 25),
              ("F4", (0, 0, 0, 1), 25), ("E6", (0, 0, 0, 0, 1, 0), 27)],
    "medium": [("B3", (0, 1, 1), 56), ("C3", (1, 1, 0), 62), ("G2", (2, 1), 73),
               ("E6", (0, 0, 0, 0, 0, 1), 73), ("A5", (1, 0, 1, 0, 0), 75),
               ("B4", (1, 0, 0, 1), 80), ("D4", (0, 1, 0, 1), 88),
               ("C4", (0, 0, 1, 1), 88), ("C3", (1, 1, 1), 135)],
    "large": [("B4", (1, 0, 1, 0), 233), ("B4", (0, 0, 1, 1), 240),
              ("C4", (0, 1, 1, 0), 248), ("C4", (1, 0, 1, 0), 265)],
}

# (diagram 1, diagram 2, does root system 1 embed in root system 2)
EMBED_PAIRS = [("A1", "A2", True), ("A2", "G2", True), ("B2", "C2", True),
               ("A2", "B2", False), ("A3", "A3", True), ("B2", "B3", True),
               ("A2", "B3", True), ("G2", "A2", False), ("A2", "A3", True),
               ("A3", "D3", True), ("C2", "B3", True), ("B2", "G2", False),
               ("A3", "C3", False)]

# Requests of each kind in one batch.  An apply or action request acts with a
# word of two labels, whose summed cost has a smooth distribution, so the
# median request does not sit on the step between cheap one-stage labels and
# six-stage ones.  A batch takes about 1 s on a 2-core Xeon; the two large
# diagrams take most of it and set the tail.
BATCH = {"apply": 40, "action": 4, "diagram-small": 4, "diagram-medium": 2,
         "diagram-large": 2, "embed": 2}

ALPHA_MAX = 3.0


class _Deck:
    """Draws items in seeded random order, each once per pass.

    Every run then sees nearly the same mix of labels and diagram sizes, so
    the seed changes which inputs come when, not how much work a run does.
    """

    def __init__(self, items: list, rng: random.Random):
        self.items, self.rng, self.order = list(items), rng, []

    def draw(self):
        if not self.order:
            self.order = self.items[:]
            self.rng.shuffle(self.order)
        return self.order.pop()


class FloatStream:
    """Seeded source of float-stream batches."""

    def __init__(self, seed: int):
        self.rng = rng = random.Random(seed)
        self.decks = {"label": _Deck(label_texts(), rng), "embed": _Deck(EMBED_PAIRS, rng)}
        for size, candidates in DIAGRAMS.items():
            self.decks[f"diagram-{size}"] = _Deck(candidates, rng)

    def batch(self) -> list[tuple]:
        """One shuffled batch with the fixed mix of kinds in BATCH."""
        rng, reqs = self.rng, []
        for kind, n in BATCH.items():
            for _ in range(n):
                if kind in ("apply", "action"):
                    coords = [rng.randint(-4, 4) / 2.0 for _ in range(27)]
                    word = tuple(self.decks["label"].draw() for _ in range(2))
                    alphas = tuple(rng.uniform(-ALPHA_MAX, ALPHA_MAX) for _ in word)
                    reqs.append((kind, word, alphas, coords))
                elif kind == "embed":
                    reqs.append((kind,) + self.decks[kind].draw())
                else:
                    name, marks, nweights = self.decks[kind].draw()
                    reqs.append((kind, name, marks, nweights, rng.randrange(1 << 16)))
        rng.shuffle(reqs)
        return reqs


def float_summary(batches: list[list[tuple]]) -> dict:
    """Shape of the generated stream: label/type histogram, alpha range, weights."""
    cats, types, alphas, weights = Counter(), Counter(), [], []
    for batch in batches:
        for req in batch:
            if req[0] in ("apply", "action"):
                for label, alpha in zip(req[1], req[2]):
                    parts = label.split(":")
                    cats[parts[0]] += 1
                    types[parts[2] if len(parts) == 3 else "1"] += 1
                    alphas.append(alpha)
            elif req[0].startswith("diagram"):
                weights.append(req[3])
    return {"batches": len(batches), "requests": sum(map(len, batches)),
            "label_categories": dict(sorted(cats.items())),
            "label_types": dict(sorted(types.items())),
            "alpha_range": [min(alphas), max(alphas)] if alphas else None,
            "weights_per_diagram": sorted(weights)}
