"""Synthetic planted-cluster dataset for desk-scale end-to-end runs.

Each generated event is deliberately ambiguous on its own: the words that
reveal which inference cluster it belongs to appear only in one planted
corpus paragraph that quotes the event verbatim.  About half the events also
get a short decoy paragraph that quotes the event but carries no cluster
signal, so plain top-rank retrieval conditions on an uninformative text for
those events.  Background paragraphs are written first (lowest doc ids) and
kept shorter than planted ones so that rank tails stay neutral.

make_toy_dataset writes the files and returns nothing: meta.jsonl, read back
by load_toy_meta, is the one record of the ground truth.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .textdata import DatasetError

CLUSTER_THEMES = (
    ("joy", ("glad", "cheerful", "smiling", "delighted", "sunny", "laughing",
             "beaming", "merry", "upbeat", "gleeful")),
    ("fear", ("afraid", "nervous", "trembling", "anxious", "dreadful",
              "panicked", "uneasy", "jumpy", "alarmed", "shaken")),
    ("anger", ("furious", "annoyed", "irritated", "fuming", "resentful",
               "seething", "bitter", "snappy", "livid", "grouchy")),
    ("sorrow", ("gloomy", "weeping", "mournful", "downcast", "heartbroken",
                "somber", "tearful", "forlorn", "aching", "dejected")),
    ("pride", ("proud", "accomplished", "triumphant", "boastful", "satisfied",
               "confident", "vindicated", "esteemed", "exultant", "honored")),
    ("calm", ("serene", "relaxed", "peaceful", "tranquil", "settled",
              "composed", "mellow", "soothed", "unhurried", "placid")),
    ("surprise", ("surprised", "astonished", "startled", "amazed", "stunned",
                  "speechless", "dumbfounded", "bewildered", "agog", "reeling")),
    ("longing", ("wistful", "yearning", "homesick", "nostalgic", "pining",
                 "craving", "lovesick", "dreamy", "restless", "envious")),
)

EVENT_VERBS = (
    "paints", "repairs", "borrows", "polishes", "carries", "sketches",
    "measures", "sharpens", "stacks", "waters", "folds", "mends", "tunes",
    "sweeps", "scrubs", "trims", "sorts", "labels", "weighs", "wraps",
    "hauls", "stitches", "glues", "sands", "primes", "welds", "rinses",
    "dries", "hangs", "stores", "counts", "bundles", "ships", "orders",
    "returns", "inspects", "cleans", "oils", "waxes", "buffs", "dusts",
    "varnishes", "engraves", "frames", "mounts", "patches", "braids",
    "grinds", "peels", "threads",
)

EVENT_NOUNS = (
    "mural", "ladder", "kettle", "violin", "saddle", "lantern", "plough",
    "anvil", "barrel", "basket", "bicycle", "canoe", "compass", "curtain",
    "dresser", "easel", "fiddle", "gate", "hammock", "harp", "jug", "quilt",
    "rake", "rocker", "shovel", "sled", "spindle", "stool", "tapestry",
    "telescope", "toolbox", "trellis", "trunk", "turbine", "vase", "wagon",
    "wheelbarrow", "windmill", "workbench", "yoke", "banjo", "bellows",
    "chisel", "dinghy", "drum", "flask", "griddle", "hinge", "loom",
    "mallet", "oar", "pulley", "punt", "scythe", "sundial", "tripod", "urn",
    "whisk", "awl", "stencil",
)

JUNK_WORDS = (
    "wanders", "drifts", "past", "old", "pier", "market", "ferry", "fog",
    "rolls", "over", "quiet", "harbor", "lane", "bells", "ring", "near",
    "mild", "evening", "breeze", "moves", "along", "shore", "gulls",
    "circle",
)

FILLER_WORDS = (
    "meanwhile", "villagers", "gather", "slowly", "nearby", "watching",
    "afternoon", "light", "settles", "around", "familiar", "courtyard",
    "voices", "carry", "softly", "beyond", "low", "wall",
)

# every pattern carries two slotted words so each inference holds equal
# cluster evidence; the scaffold words are shared across all clusters
PHRASE_PATTERNS = (
    "to feel {a} and {b}", "{a} and {b}", "very {a} and {b}",
    "to seem {a} and {b}", "quite {a} and {b}", "{a} and {b} at once",
    "to act {a} and {b}", "rather {a} and {b}", "to stay {a} and {b}",
    "somewhat {a} and {b}",
)

TOY_DIMENSIONS = ("xIntent", "xReact", "oReact")

N_JUNK = 16
PHRASES_PER_CLUSTER = 12
DEV_FRACTION = 0.25  # of each cluster's events


@dataclass
class ToyEvent:
    event: str
    dimension: str
    cluster: int
    inferences: list
    planted_doc: int
    herring_doc: int  # -1 when the event has no decoy paragraph
    split: str


def _extend(pool, need):
    pool = list(pool)
    base = len(pool)
    i = 2
    while len(pool) < need:
        pool.extend(f"{w}{i}" for w in pool[:base])
        i += 1
    return pool[:need]


def _cluster_phrases(words, rng) -> list[str]:
    out = []
    seen = set()
    guard = 0
    # cycle patterns in fixed order so every cluster shares the same
    # pattern-word profile; only the slotted words differ between clusters
    while len(out) < PHRASES_PER_CLUSTER and guard < 200:
        guard += 1
        pat = PHRASE_PATTERNS[len(out) % len(PHRASE_PATTERNS)]
        a, b = rng.choice(len(words), size=2, replace=False)
        phrase = pat.format(a=words[a], b=words[b])
        if phrase not in seen:
            seen.add(phrase)
            out.append(phrase)
    return out


def make_toy_dataset(seed: int, n_events: int, n_clusters: int, out_path) -> None:
    """Write dataset/corpus/split/meta files into out_path, deterministically.

    Files: dataset.jsonl (all records), train.jsonl, dev.jsonl, corpus.txt,
    meta.jsonl (header line, then one record per event with its planted
    ground truth).  Same seed, same arguments: byte-identical output.
    Arguments are checked before anything is created or written.
    """
    if n_events < 1:
        raise ValueError(f"n_events must be >= 1, got {n_events}")
    if not 2 <= n_clusters <= len(CLUSTER_THEMES):
        raise ValueError(f"n_clusters must be in 2..{len(CLUSTER_THEMES)}, "
                         f"got {n_clusters}")
    rng = np.random.default_rng([seed, 0x70])
    out = Path(out_path)
    out.mkdir(parents=True, exist_ok=True)

    themes = CLUSTER_THEMES[:n_clusters]
    inventories = [_cluster_phrases(words, rng) for _, words in themes]

    verbs = _extend(EVENT_VERBS, n_events)
    nouns = _extend(EVENT_NOUNS, n_events)
    verb_order = rng.permutation(len(verbs))
    noun_order = rng.permutation(len(nouns))

    # balanced cluster assignment, then shuffled
    clusters = np.array([i % n_clusters for i in range(n_events)])
    rng.shuffle(clusters)

    corpus: list[str] = []
    for j in range(N_JUNK):
        picks = rng.choice(len(JUNK_WORDS), size=6, replace=False)
        corpus.append(" ".join(["personx"] + [JUNK_WORDS[p] for p in picks]))

    events: list[ToyEvent] = []
    for i in range(n_events):
        cluster = int(clusters[i])
        event = f"personx {verbs[verb_order[i]]} the {nouns[noun_order[i]]}"
        n_inf = int(rng.integers(2, 5))
        inv = inventories[cluster]
        infs = [inv[p] for p in rng.choice(len(inv), size=n_inf, replace=False)]
        cwords = themes[cluster][1]
        cw = [cwords[p] for p in rng.choice(len(cwords), size=3, replace=False)]
        fill = [FILLER_WORDS[p] for p in rng.choice(len(FILLER_WORDS), size=9,
                                                    replace=False)]
        planted = (f"{event} and the mood turns {cw[0]} almost {cw[1]} as "
                   f"everyone feels {cw[2]} " + " ".join(fill))
        planted_doc = len(corpus)
        corpus.append(planted)
        herring_doc = -1
        if rng.random() < 0.5:
            hfill = [FILLER_WORDS[p] for p in rng.choice(len(FILLER_WORDS),
                                                         size=6, replace=False)]
            herring_doc = len(corpus)
            corpus.append(f"{event} " + " ".join(hfill))
        events.append(ToyEvent(
            event=event,
            dimension=TOY_DIMENSIONS[i % len(TOY_DIMENSIONS)],
            cluster=cluster,
            inferences=infs,
            planted_doc=planted_doc,
            herring_doc=herring_doc,
            split="train",
        ))

    # stratified event-level split so every cluster appears in both splits
    for c in range(n_clusters):
        idx = [i for i, ev in enumerate(events) if ev.cluster == c]
        if not idx:
            continue
        order = rng.permutation(len(idx))
        n_dev = max(1, int(round(DEV_FRACTION * len(idx)))) if len(idx) > 1 else 0
        for k in range(n_dev):
            events[idx[order[k]]].split = "dev"

    def record(ev: ToyEvent) -> str:
        return json.dumps({"event": ev.event, "dimension": ev.dimension,
                           "inferences": ev.inferences},
                          sort_keys=True, ensure_ascii=True)

    for name, splits in (("dataset", ("train", "dev")), ("train", ("train",)),
                         ("dev", ("dev",))):
        with open(out / f"{name}.jsonl", "w", encoding="utf-8") as fh:
            fh.writelines(record(ev) + "\n" for ev in events if ev.split in splits)
    with open(out / "corpus.txt", "w", encoding="utf-8") as fh:
        for line in corpus:
            fh.write(line + "\n")

    mean_inf = sum(len(ev.inferences) for ev in events) / float(n_events)
    with open(out / "meta.jsonl", "w", encoding="utf-8") as fh:
        fh.write(json.dumps({
            "kind": "header", "seed": seed, "n_events": n_events,
            "n_clusters": n_clusters, "n_junk": N_JUNK,
            "mean_inferences": mean_inf,
            "clusters": [name for name, _ in themes],
        }, sort_keys=True) + "\n")
        for ev in events:
            fh.write(json.dumps({
                "kind": "event", "event": ev.event, "dimension": ev.dimension,
                "cluster": ev.cluster, "planted_doc": ev.planted_doc,
                "herring_doc": ev.herring_doc, "split": ev.split,
            }, sort_keys=True) + "\n")


def load_toy_meta(path):
    """Read meta.jsonl back into (header dict, event records list).

    Every line is a JSON object and the first one alone is the header;
    anything else raises DatasetError naming the file and line.
    """
    records = []
    with open(Path(path), encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise DatasetError(f"{path}:{lineno}: malformed JSON ({e.msg})") from e
            if not isinstance(rec, dict):
                raise DatasetError(f"{path}:{lineno}: record is not a JSON object")
            if lineno == 1 and rec.get("kind") != "header":
                raise DatasetError(f"{path}:1: first line is not the header")
            if lineno > 1 and rec.get("kind") == "header":
                raise DatasetError(f"{path}:{lineno}: second header")
            records.append(rec)
    if not records:
        raise DatasetError(f"{path}:1: empty file, no header")
    return records[0], records[1:]
