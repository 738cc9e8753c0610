"""Post ingestion: parsing, relevance/bot filtering, tokenization, state inference."""

from __future__ import annotations

import csv
import json
import logging
import re
from collections import Counter
from typing import Iterable, NamedTuple, Optional

logger = logging.getLogger("relop")

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"

_URL_RE = re.compile(r"^(https?://|www\.)", re.IGNORECASE)
_EDGE_PUNCT_RE = re.compile(r"^\W+|\W+$", re.UNICODE)
_LEAD_PUNCT_RE = re.compile(r"^[^\w#@]+", re.UNICODE)
_TRAIL_PUNCT_RE = re.compile(r"[^\w]+$", re.UNICODE)
# fields every post record carries, none of them null
_REQUIRED = ("id", "text", "user_id", "client")


class Post(NamedTuple):
    # a tuple: cheaper to build than a frozen dataclass, which sets each
    # field through object.__setattr__, and parse_posts builds one per line
    id: str
    text: str
    user_id: str
    client: str
    geo_field: Optional[str] = None
    profile_location: Optional[str] = None
    timestamp: int = 0


class Token(NamedTuple):
    # a tuple, so hashing one (as the per-stage memos do) runs in C
    surface: str
    kind: str  # word | hashtag | mention | url


def parse_posts(lines: Iterable[str]) -> tuple[list[Post], int]:
    """Parse JSON-Lines post records.

    Each line must carry ``id``, ``text``, ``user_id``, ``client`` and ``ts``;
    ``geo`` and ``profile_location`` may be null. Malformed lines, null
    required fields among them, are counted and skipped with a warning.

    Returns
    -------
    (posts, skipped) : list of valid posts and the number of skipped lines.
    """
    decode = json.JSONDecoder().decode
    posts: list[Post] = []
    skipped = 0
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = decode(line)
            nulls = [key for key in _REQUIRED if rec[key] is None]
            if nulls:
                raise ValueError(f"null {', '.join(nulls)}")
            post = Post(
                id=str(rec["id"]),
                text=str(rec["text"]),
                user_id=str(rec["user_id"]),
                client=str(rec["client"]),
                geo_field=rec.get("geo"),
                profile_location=rec.get("profile_location"),
                timestamp=int(rec["ts"]),
            )
            if not post.id or not post.text.strip():
                raise ValueError("empty id or text")
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            logger.warning("skipping malformed record on line %d: %s", lineno, exc)
            skipped += 1
            continue
        posts.append(post)
    return posts, skipped


def _chunk_token(chunk: str) -> Optional[Token]:
    """The token one whitespace chunk makes, or None when it makes none."""
    if _URL_RE.match(chunk):
        return Token(chunk.lower(), "url")
    chunk = _LEAD_PUNCT_RE.sub("", chunk)
    if not chunk:
        return None
    if chunk[0] in "#@":
        surface = _TRAIL_PUNCT_RE.sub("", chunk).lower()
        if len(surface) <= 1:
            return None
        return Token(surface, "hashtag" if surface.startswith("#") else "mention")
    surface = _EDGE_PUNCT_RE.sub("", chunk).lower()
    return Token(surface, "word") if surface else None


def tokenize(text: str, memo: Optional[dict[str, Optional[Token]]] = None) -> list[Token]:
    """Split a post into lowercase tokens classified as word/hashtag/mention/url.

    Whitespace split; URLs detected by ``http(s)://`` or ``www.`` prefix;
    '#'/'@' prefixes are preserved while other edge punctuation is stripped.
    ``memo`` maps chunks already seen to their token (or None); pass one dict
    to every call over a corpus so each distinct chunk is classified once.
    """
    if memo is None:
        memo = {}
    tokens: list[Token] = []
    for chunk in text.split():
        try:
            token = memo[chunk]
        except KeyError:
            token = memo[chunk] = _chunk_token(chunk)
        if token is not None:
            tokens.append(token)
    return tokens


def content_tokens(tokens: Iterable[Token]) -> list[str]:
    """Surface strings of the word and hashtag tokens, dropping mentions and urls."""
    return [t.surface for t in tokens if t.kind in ("word", "hashtag")]


def _mentions(token: Token, group: list[str]) -> bool:
    # words must equal a keyword; hashtags/mentions only need to contain one
    if token.kind == "word":
        return token.surface in group
    return token.kind != "url" and any(kw in token.surface for kw in group)


def filter_relevant(
    tokens: list[Token],
    group_a: list[str],
    group_b: list[str],
    memo: Optional[dict[Token, int]] = None,
) -> bool:
    """Whether a post's tokens mention at least one keyword from each group.

    Matching is at token boundaries: a word token must equal the keyword,
    while hashtag/mention tokens match on containment. ``memo`` maps tokens
    already seen to which groups they mention (bit 1: group a, bit 2: group
    b); pass one dict to every call with the same groups so each distinct
    token is tested once.
    """
    if memo is None:
        memo = {}
    found = 0
    for token in tokens:
        try:
            bits = memo[token]
        except KeyError:
            bits = memo[token] = _mentions(token, group_a) | 2 * _mentions(token, group_b)
        found |= bits
        if found == 3:
            return True
    return False


def filter_bots(post: Post, official_clients: set[str]) -> bool:
    """Whether the post was sent from an official client (bots use others)."""
    return post.client in official_clients


class Gazetteer:
    """Maps place names and abbreviations to two-letter region codes.

    Loaded from a ``name,state_code`` CSV with a header row. All codes must
    belong to the closed 51-value set (50 states + DC).
    """

    def __init__(self, entries: dict[str, str]):
        codes = set(entries.values())
        unknown = codes - US_STATE_CODES
        if unknown:
            raise ValueError(f"gazetteer contains unknown region codes: {sorted(unknown)}")
        self.entries = entries
        self.max_words = max((name.count(" ") + 1 for name in entries), default=1)
        # a match can only start at a word that begins some entry
        self.first_words = frozenset(name.split(" ", 1)[0] for name in entries)
        self._resolved: dict[str, Optional[str]] = {}

    @classmethod
    def from_csv(cls, path) -> "Gazetteer":
        entries: dict[str, str] = {}
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            for row in reader:
                entries[_normalize_place(row["name"])] = row["state_code"].strip().upper()
        return cls(entries)

    def lookup(self, name: str) -> Optional[str]:
        return self.entries.get(_normalize_place(name))

    def resolve(self, field: str) -> Optional[str]:
        """The region code of a geo or profile field, computed once per distinct field."""
        try:
            return self._resolved[field]
        except KeyError:
            code = self._resolved[field] = _resolve_field(field, self)
            return code


def _normalize_place(name: str) -> str:
    name = re.sub(r"[^\w\s]", " ", name.lower())
    return " ".join(name.split())


def _scan_words(words: list[str], gazetteer: Gazetteer, min_len: int = 3) -> Optional[str]:
    # longest n-gram wins at each position, leftmost position wins overall;
    # entries shorter than min_len (bare region codes: "in", "or", "me", ...)
    # collide with everyday words, so free-text scans skip them
    first_words = gazetteer.first_words
    for start, word in enumerate(words):
        if word not in first_words:
            continue
        for n in range(min(gazetteer.max_words, len(words) - start), 0, -1):
            name = " ".join(words[start : start + n])
            if len(name) < min_len:
                continue
            code = gazetteer.entries.get(name)
            if code is not None:
                return code
    return None


def _resolve_field(field: str, gazetteer: Gazetteer) -> Optional[str]:
    code = gazetteer.lookup(field)
    if code is not None:
        return code
    segments = [seg.strip() for seg in field.split(",") if seg.strip()]
    for seg in reversed(segments):  # region usually trails, as in "Charlotte, NC"
        code = gazetteer.lookup(seg)
        if code is not None:
            return code
    return _scan_words(_normalize_place(field).split(), gazetteer, min_len=1)


def infer_state(post: Post, gazetteer: Gazetteer, tokens: list[Token]) -> Optional[str]:
    """Infer a region code from the post, trying geo tag, then profile, then
    the word tokens of its text (``tokens``, as ``tokenize(post.text)`` makes them)."""
    if post.geo_field:
        code = gazetteer.resolve(post.geo_field)
        if code is not None:
            return code
    if post.profile_location:
        code = gazetteer.resolve(post.profile_location)
        if code is not None:
            return code
    words = [t.surface for t in tokens if t.kind == "word"]
    return _scan_words(words, gazetteer)


class Vocabulary:
    """Dense token index with reserved padding (0) and unknown (1) slots.

    Retained tokens are indexed by descending count with lexicographic
    tiebreak, which makes the index a pure function of the corpus.
    """

    PAD = 0
    UNK = 1

    def __init__(self, counts: dict[str, int]):
        ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        self.index = {PAD_TOKEN: self.PAD, UNK_TOKEN: self.UNK}
        self.counts = [0, 0]
        for token, count in ordered:
            self.index[token] = len(self.index)
            self.counts.append(count)
        self.tokens = list(self.index)

    def __len__(self) -> int:
        return len(self.index)

    def __contains__(self, token: str) -> bool:
        return token in self.index

    def lookup(self, token: str) -> int:
        return self.index.get(token, self.UNK)


def build_vocab(
    corpus: Iterable[list[str]],
    min_count: int = 5,
    exclude: Optional[set[str]] = None,
) -> Vocabulary:
    """Build a vocabulary from an iterable of token-string lists.

    Tokens in ``exclude`` (e.g. opinion-labeled hashtags) never enter the
    vocabulary; tokens below ``min_count`` fall back to the unknown index.
    """
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    exclude = exclude or set()
    counts: Counter[str] = Counter()
    n_docs = 0
    for tokens in corpus:
        n_docs += 1
        counts.update(t for t in tokens if t not in exclude)
    if n_docs == 0:
        raise ValueError("empty corpus")
    retained = {t: c for t, c in counts.items() if c >= min_count}
    return Vocabulary(retained)


US_STATE_CODES = frozenset(
    {
        "AL", "AK", "AZ", "AR", "CA", "CO", "CT", "DE", "DC", "FL", "GA", "HI",
        "ID", "IL", "IN", "IA", "KS", "KY", "LA", "ME", "MD", "MA", "MI", "MN",
        "MS", "MO", "MT", "NE", "NV", "NH", "NJ", "NM", "NY", "NC", "ND", "OH",
        "OK", "OR", "PA", "RI", "SC", "SD", "TN", "TX", "UT", "VT", "VA", "WA",
        "WV", "WI", "WY",
    }
)
