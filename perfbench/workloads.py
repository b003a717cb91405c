"""Workload inputs, generated from the seed.

A pair is one (program, model) verdict.  Every pair carries its program as
source text, so each timed call starts where a user of `memlit check` starts.
Ladder texts carry their known verdict as an `# expected:` annotation, so
ladder and corpus pairs are checked the same way.

The seed never changes the amount of work.  For the ladders it renames the two
locations and picks distinct non-zero store values, one per thread; for the
corpus it shuffles the file order of each pass.  This module does not import
memlit, so building inputs costs only what it costs here.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("corpus", "op-ladder", "cxx11-relaxed", "cxx11-seqcst")

# Each ladder round runs variant (round % VARIANTS), a separate renaming drawn
# from the seed, so every run checks that renaming leaves the work unchanged.
VARIANTS = 2

# Fixed candidate budget for every cxx11 ladder pair in a round.  The
# seq_cst 4x2 rung exits at it at the seed; every other rung in a round needs
# at most 3,851 (seq_cst 2+3+3).  The budget is low so that the frontier rung
# costs a round little; the baseline rungs run under memlit's default budget.
LADDER_CANDIDATES = 5_000

ORDERS = {  # ladder order name -> (store order, load order)
    "relaxed": ("relaxed", "relaxed"),
    "relacq": ("release", "acquire"),
    "acq": ("relaxed", "acquire"),
    "rel": ("release", "relaxed"),
    "seq_cst": ("seq_cst", "seq_cst"),
}


@dataclass(frozen=True)
class Rung:
    """One ladder program under one model.

    Thread t has lengths[t] instructions; instruction i: even i stores the
    thread's value to loc[(t + i//2) % 2], odd i loads r{i} from the other
    location.  With `fenced`, a seq_cst fence follows every store, which is
    the program `memlit.with_fences_after_stores` makes.  The condition is
    store buffering: every thread's r1 reads 0.  Every length is at least 2,
    so the verdict rests on each thread's first store and load alone.
    """

    model: str
    lengths: tuple[int, ...]
    orders: str = "relaxed"
    fenced: bool = False

    @property
    def shape(self) -> str:
        """3x4 for 3 threads of 4 instructions; 2+3+3 when the lengths differ."""
        if len(set(self.lengths)) == 1:
            return f"{len(self.lengths)}x{self.lengths[0]}"
        return "+".join(map(str, self.lengths))

    @property
    def name(self) -> str:
        fences = "+fences" if self.fenced else ""
        return f"{self.model}:{self.orders}{fences}:{self.shape}"

    @property
    def expected(self) -> str:
        """The verdict, known by hand.

        Store buffering needs every thread's load to pass its own earlier
        store.  SC never lets it; TSO does through the store buffer unless an
        mfence drains it; C++11 does for relaxed and release/acquire accesses,
        and forbids it once every access is seq_cst or seq_cst fences separate
        each store from the following load.
        """
        if self.model == "sc" or self.fenced or self.orders == "seq_cst":
            return "forbidden"
        return "allowed"

    @property
    def sc_relation(self) -> Optional[str]:
        """How the SC outcome set of the same program must relate to this one."""
        if self.model == "sc":
            return None
        if (self.model == "tso" and self.fenced) or (self.model == "cxx11" and self.orders == "seq_cst"):
            return "equal"  # fenced TSO = SC; all-seq_cst C++11 = SC (DRF-SC)
        return "subset"  # SC within TSO, SC within C++11


@dataclass(frozen=True)
class Pair:
    key: str  # stable across seeds: a rung name, or "<file stem>:<model>"
    model: str
    text: Union[str, bytes]
    budget: Optional[int] = None  # None: the backend's default budget
    sc_relation: Optional[str] = None
    check_witnesses: bool = False  # re-judge every witness with check_axioms
    export_dot: bool = False  # render every witness as Graphviz text
    # renamed name/value -> the name/value the digest uses, so digests agree across seeds
    locations: dict[str, str] = field(default_factory=dict)
    values: dict[int, int] = field(default_factory=dict)


def ladder_text(rung: Rung, locations: tuple[str, str], values: list[int]) -> str:
    store_order, load_order = ORDERS[rung.orders]
    name = "ladder_" + rung.shape.replace("+", "_")
    lines = [f"name: {name}", f"init: {locations[0]} = 0 {locations[1]} = 0"]
    for t, length in enumerate(rung.lengths):
        lines.append(f"thread P{t}:")
        for i in range(length):
            side = (t + i // 2) % 2
            if i % 2 == 0:
                lines.append(f"  store {locations[side]} {values[t]} {store_order}")
                if rung.fenced:
                    lines.append("  fence seq_cst")
            else:
                lines.append(f"  r{i} = load {locations[1 - side]} {load_order}")
    lines.append("exists: " + " /\\ ".join(f"P{t}:r1 = 0" for t in range(len(rung.lengths))))
    lines.append(f"# expected: {rung.model} {rung.expected}")
    return "\n".join(lines) + "\n"


def _ladder_pair(rung: Rung, rng: random.Random, budget: Optional[int] = LADDER_CANDIDATES) -> Pair:
    # A letter then digits never collides with a keyword of the litmus format.
    locations: list[str] = []
    while len(locations) < 2:
        name = rng.choice(string.ascii_lowercase) + str(rng.randrange(1000))
        if name not in locations:
            locations.append(name)
    values = rng.sample(range(1, 256), len(rung.lengths))
    return Pair(
        key=rung.name,
        model=rung.model,
        text=ladder_text(rung, (locations[0], locations[1]), values),
        budget=budget if rung.model == "cxx11" else None,
        sc_relation=rung.sc_relation,
        check_witnesses=rung.model == "cxx11",
        locations={locations[0]: "x", locations[1]: "y"},
        values={v: t + 1 for t, v in enumerate(values)},
    )


# Rung lists.  A run repeats every rung of its workload once per round and
# reports each rung's fastest repeat.  The fastest of many repeats is steady on
# a shared host, the fastest of a few is not, so a round is kept to about half
# a second and a run gets through 40 or more.  Rungs that take a second or more
# on their own are left to BASELINE below.  Each ladder has about 40 rungs, so
# that its tail percentile (ten rungs beyond it) sits near p75.
def _shapes(model: str, shapes: str, orders: str = "relaxed", fenced: bool = False) -> list[Rung]:
    """Rungs from shapes such as 3x4 (3 threads of 4) and 2+3+3 (one length per thread)."""
    rungs = []
    for shape in shapes.split():
        if "x" in shape:
            threads, length = map(int, shape.split("x"))
            lengths = (length,) * threads
        else:
            lengths = tuple(map(int, shape.split("+")))
        rungs.append(Rung(model, lengths, orders, fenced))
    return rungs


# memlit's validation caps a program at 4 threads of 8 instructions, fences
# included, so fenced rungs stop at length 5.
OP_LADDER = (
    _shapes("sc", "2x2 2x3 2x4 2x5 2x6 2x7 2x8 3x2 3x3 3x4 4x2 2+3 3+4 4+5 2+2+3 2+3+4 3+3+4")
    + _shapes("sc", "2x2 2x3 2x4 2x5 3x2 3x3 3+4 2+2+3", fenced=True)
    + _shapes("tso", "2x2 2x3 2x4 2x5 2x6 3x2 3+4 2+2+3")
    + _shapes("tso", "2x2 2x3 2x4 2x5 3x2 3+4 4+5 2+2+3", fenced=True)
)
CXX11_RELAXED = [
    rung
    for orders in ("relaxed", "relacq", "acq", "rel")
    for rung in _shapes("cxx11", "2x2 2x3 2x4 3x2 2+3 2+4 2+5 3+4 2+2+3 2+3+3", orders)
] + _shapes("cxx11", "2+2+4")
CXX11_SEQCST = (
    _shapes("cxx11", "2x2 2x3 2x4 3x2 2+3 2+4 2+5 3+4 2+2+3 2+3+3 4x2", "seq_cst")
    + [
        rung
        for orders in ("relaxed", "relacq", "acq", "rel")
        for rung in _shapes("cxx11", "2x2 2x3 3x2 2+3 2+4 2+5 3+4", orders, fenced=True)
    ]
)
LADDERS = {"op-ladder": OP_LADDER, "cxx11-relaxed": CXX11_RELAXED, "cxx11-seqcst": CXX11_SEQCST}

# Explored counts of the ROADMAP's baseline rungs.  Every run of the workload
# decides these once more after its timed rounds, off the clock, and checks
# the counts; the larger ones are too slow to repeat in every round.
BASELINE = {
    "op-ladder": [
        (Rung("sc", (6, 6)), 365), (Rung("tso", (6, 6)), 2_154), (Rung("sc", (4, 4, 4)), 3_489),
        (Rung("tso", (4, 4, 4)), 24_467), (Rung("sc", (6, 6, 6)), 102_799),
    ],
    "cxx11-relaxed": [(Rung("cxx11", (6, 6)), 14_580)],
}

CORPUS_MODELS = ("sc", "tso", "cxx11")


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    variants: list[list[Pair]]  # ladders: one list per renaming; corpus: one list
    baseline: list[tuple[Pair, int]] = field(default_factory=list)  # (pair, explored count)

    def round(self, index: int) -> list[Pair]:
        """The pairs of one round, in the order they run."""
        if self.name != "corpus":
            return self.variants[index % len(self.variants)]
        files = [self.variants[0][i:i + len(CORPUS_MODELS)] for i in range(0, len(self.variants[0]), len(CORPUS_MODELS))]
        random.Random(f"{self.seed}:{index}").shuffle(files)
        return [pair for group in files for pair in group]


def build(name: str, seed: int) -> Workload:
    if name == "corpus":
        paths = sorted((ROOT / "corpus").glob("*.lit"))
        if not paths:
            raise FileNotFoundError(f"no .lit files under {ROOT / 'corpus'}")
        pairs = []
        for path in paths:
            raw = path.read_bytes()
            pairs += [Pair(f"{path.stem}:{model}", model, raw, export_dot=True) for model in CORPUS_MODELS]
        return Workload(name, seed, [pairs])
    rng = random.Random(seed)
    variants = [[_ladder_pair(rung, rng) for rung in LADDERS[name]] for _ in range(VARIANTS)]
    baseline = [(_ladder_pair(rung, rng, budget=None), explored) for rung, explored in BASELINE.get(name, [])]
    return Workload(name, seed, variants, baseline)
