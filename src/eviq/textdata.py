"""Word-level tokenizer, vocabulary, and JSONL dataset ingestion.

Records look like {"event": ..., "dimension": ..., "inferences": [...]}, one
per line.  Each (event, dimension, inference) triple becomes one Example;
examples sharing a normalized event and dimension form an EventGroup.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass

MAX_EVENT_TOKENS = 64
MAX_INFERENCE_TOKENS = 32
MAX_EVIDENCE_TOKENS = 64

DIMENSIONS = (
    "xIntent", "xNeed", "xAttr", "xEffect", "xReact", "xWant",
    "oEffect", "oReact", "oWant",
)

PAD, UNK, BOS, EOS, CLS, SEP, EMPTY = (
    "<pad>", "<unk>", "<bos>", "<eos>", "<cls>", "<sep>", "<empty>",
)
# reserved strings use angle brackets, which the tokenizer always splits,
# so raw text can never produce them
RESERVED = (PAD, UNK, BOS, EOS, CLS, SEP, EMPTY) + tuple(
    f"<{d}>" for d in DIMENSIONS
)

_TOKEN_RE = re.compile(r"'s\b|[a-z0-9]+|[^a-z0-9\s]")


class DatasetError(ValueError):
    pass


def tokenize(text: str) -> list[str]:
    """Lowercase word split; punctuation and possessive 's become tokens."""
    return _TOKEN_RE.findall(text.lower())


class Vocab:
    """Token/id bijection with a fixed reserved prefix."""

    def __init__(self, tokens: list[str]):
        if tuple(tokens[: len(RESERVED)]) != RESERVED:
            raise DatasetError("vocab must start with the reserved token block")
        self.id_to_token = list(tokens)
        self.token_to_id = {t: i for i, t in enumerate(tokens)}
        if len(self.token_to_id) != len(tokens):
            raise DatasetError("vocab contains duplicate tokens")
        self.unk_id = self.token_to_id[UNK]
        self.bos_id = self.token_to_id[BOS]
        self.eos_id = self.token_to_id[EOS]
        self.cls_id = self.token_to_id[CLS]
        self.sep_id = self.token_to_id[SEP]
        self.empty_id = self.token_to_id[EMPTY]

    @classmethod
    def build(cls, token_streams) -> "Vocab":
        """Deterministic vocabulary: reserved block, then (count desc, token asc)."""
        counts = Counter()
        for stream in token_streams:
            counts.update(stream)
        kept = sorted(
            (t for t in counts if t not in RESERVED),
            key=lambda t: (-counts[t], t),
        )
        return cls(list(RESERVED) + kept)

    def __len__(self) -> int:
        return len(self.id_to_token)

    def dim_id(self, dimension: str) -> int:
        tag = f"<{dimension}>"
        if tag not in self.token_to_id:
            raise DatasetError(
                f"unknown dimension {dimension!r}; valid: {', '.join(DIMENSIONS)}")
        return self.token_to_id[tag]

    def encode(self, tokens) -> list[int]:
        unk = self.unk_id
        return [self.token_to_id.get(t, unk) for t in tokens]

    def decode(self, ids) -> list[str]:
        return [self.id_to_token[i] for i in ids]


@dataclass(frozen=True)
class Example:
    event_raw: str
    dimension: str
    event_tokens: tuple
    inference_tokens: tuple

    @property
    def group_key(self) -> str:
        return " ".join(self.event_tokens) + "\t" + self.dimension


@dataclass
class EventGroup:
    key: str
    members: list


def make_example(event: str, dimension: str, inference: str) -> Example:
    if dimension not in DIMENSIONS:
        raise DatasetError(
            f"unknown dimension {dimension!r}; valid: {', '.join(DIMENSIONS)}")
    inf_tokens = tuple(tokenize(inference)[:MAX_INFERENCE_TOKENS])
    if not inf_tokens:
        raise DatasetError("inference tokenizes to nothing")
    return Example(
        event_raw=event,
        dimension=dimension,
        event_tokens=tuple(tokenize(event)[:MAX_EVENT_TOKENS]),
        inference_tokens=inf_tokens,
    )


def load_dataset(path) -> tuple[list[Example], list[EventGroup]]:
    """Parse a JSONL dataset file into Examples plus their EventGroups."""
    examples: list[Example] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise DatasetError(f"{path}:{lineno}: malformed JSON ({e.msg})") from e
            if (not isinstance(rec, dict)
                    or not isinstance(rec.get("event"), str)
                    or not isinstance(rec.get("dimension"), str)
                    or not isinstance(rec.get("inferences"), list)
                    or not rec["inferences"]
                    or not all(isinstance(s, str) for s in rec["inferences"])):
                raise DatasetError(
                    f"{path}:{lineno}: record needs event (str), dimension (str), "
                    f"inferences (non-empty list of str)")
            for inf in rec["inferences"]:
                try:
                    examples.append(make_example(rec["event"], rec["dimension"], inf))
                except DatasetError as e:
                    raise DatasetError(f"{path}:{lineno}: {e}") from e
    return examples, group_examples(examples)


def group_examples(examples: list[Example]) -> list[EventGroup]:
    groups: dict[str, EventGroup] = {}
    for ex in examples:
        g = groups.get(ex.group_key)
        if g is None:
            g = groups[ex.group_key] = EventGroup(key=ex.group_key, members=[])
        g.members.append(ex)
    return list(groups.values())
