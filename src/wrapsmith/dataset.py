"""Corpus loading: manifests, gold labels, page sampling, case files, and
the record codec that writes every artifact and reads every input file.

A corpus is a directory of HTML files described by a JSON manifest. Each
(website, attribute) pair becomes one test case: up to ``sample_n`` pages
drawn without replacement (the same page sample is shared by all attributes
of a website), the instruction assembled from the domain preamble plus the
attribute prompt, and per-page gold value sets with character references
normalized the same way page text is.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field, fields, is_dataclass, replace
from enum import Enum
from functools import cache, partial
from operator import attrgetter
from pathlib import Path
from types import UnionType
from typing import Any, Callable, TypeVar, Union, get_args, get_origin, get_type_hints

from .dom import normalize_escapes


class DatasetError(Exception):
    """Base class for corpus loading failures."""


class MissingGold(DatasetError):
    """No gold table for a (website, attribute) pair."""


class MissingTemplate(DatasetError):
    """No instruction template for a (domain, attribute) pair."""


class SchemaViolation(DatasetError):
    """A file is not JSON, or a manifest's page file is missing or altered."""


#: Field metadata for the record codec below. An ``OPTIONAL`` field is left
#: out of its record when it is ``None``, and a missing key reads as the
#: field's default. A ``TRANSIENT`` field is never written and always reads
#: as its default.
OPTIONAL = {"record": "optional"}
TRANSIENT = {"record": "transient"}

#: Built-in instruction templates per domain: preamble plus one prompt per
#: attribute. Manifests may override or extend these.
INSTRUCTIONS: dict[str, tuple[str, dict[str, str]]] = {
    "auto": (
        "Here's a webpage with detailed information about an auto.",
        {
            "model": "Please extract the model of the auto.",
            "price": "Please extract the price of the auto.",
            "engine": "Please extract the engine of the auto.",
            "fuel_economy": "Please extract the fuel efficiency of the auto.",
        },
    ),
    "book": (
        "Here's a webpage with detailed information about a book.",
        {
            "title": "Please extract the title of the book.",
            "author": "Please extract the author of the book.",
            "isbn_13": "Please extract the isbn number of the book.",
            "publisher": "Please extract the publisher of the book.",
            "publication_date": "Please extract the publication date of the book.",
        },
    ),
    "camera": (
        "Here's a webpage with detail information of camera.",
        {
            "model": "Please extract the product name of the camera.",
            "price": "Please extract the sale price of the camera.",
            "manufacturer": "Please extract the manufacturer of the camera.",
        },
    ),
    "job": (
        "Here's a webpage with detailed information about a job.",
        {
            "title": "Please extract the title of the job.",
            "company": "Please extract the name of the company that offers the job.",
            "location": "Please extract the working location of the job.",
            "date_posted": "Please extract the date that post the job.",
        },
    ),
    "movie": (
        "Here's a webpage with detailed information about a movie.",
        {
            "title": "Please extract the title of the movie.",
            "director": "Please extract the director of the movie.",
            "genre": "Please extract the genre of the movie.",
            "mpaa_rating": "Please extract the MPAA rating of the movie.",
        },
    ),
    "nbaplayer": (
        "Here's a webpage with detailed information about an NBA player.",
        {
            "name": "Please extract the name of the player.",
            "team": "Please extract the team of the player he plays now.",
            "height": "Please extract the height of the player.",
            "weight": "Please extract the weight of the player.",
        },
    ),
    "restaurant": (
        "Here's a webpage with detailed information about a restaurant.",
        {
            "name": "Please extract the restaurant's name.",
            "address": "Please extract the restaurant's address.",
            "phone": "Please extract the restaurant's phone number.",
            "cuisine": "Please extract the cuisine that the restaurant offers.",
        },
    ),
    "university": (
        "Here's a webpage on detailed information about a university.",
        {
            "name": "Please extract the name of the university.",
            "phone": "Please extract the contact phone number of the university.",
            "website": "Please extract the website url of the university.",
            "type": "Please extract the type of the university.",
        },
    ),
}


@dataclass(frozen=True)
class PageRecord:
    page_id: str
    html_path: str  # relative to the corpus root
    gold: tuple[str, ...]


@dataclass(frozen=True)
class WebpageCase:
    domain: str
    website: str
    attribute: str
    instruction: str
    pages: tuple[PageRecord, ...]

    @property
    def case_id(self) -> str:
        return f"{self.domain}__{self.website}__{self.attribute}"

    @property
    def page_ids(self) -> tuple[str, ...]:
        return tuple(p.page_id for p in self.pages)


#: Gold labels of a website: attribute -> page id -> values.
GoldTable = dict[str, dict[str, tuple[str, ...]]]


@dataclass(frozen=True)
class WebsiteEntry:
    pages: dict[str, str] = field(default_factory=dict, metadata=OPTIONAL)  # id -> path
    # The table, or the path of a JSON file holding it, relative to the root.
    gold: str | GoldTable = field(default_factory=dict, metadata=OPTIONAL)


@dataclass(frozen=True)
class DomainEntry:
    websites: dict[str, WebsiteEntry] = field(default_factory=dict, metadata=OPTIONAL)
    # Override or extend the built-in instruction template of the domain.
    preamble: str = field(default="", metadata=OPTIONAL)
    attributes: dict[str, str] = field(default_factory=dict, metadata=OPTIONAL)


@dataclass(frozen=True)
class CorpusManifest:
    domains: dict[str, DomainEntry]
    checksums: dict[str, str] = field(default_factory=dict, metadata=OPTIONAL)
    root: Path = field(default=Path(), metadata=TRANSIENT)

    @classmethod
    def load(cls, path: str | Path) -> "CorpusManifest":
        path = Path(path)
        manifest = replace(read_record(path, partial(from_record, cls)), root=path.parent)
        for domain in manifest.domains.values():
            for website, entry in domain.websites.items():
                if isinstance(entry.gold, str):
                    gold_path = manifest.root / entry.gold
                    if not gold_path.exists():
                        raise MissingGold(f"gold file {gold_path} does not exist")
                    gold = read_record(gold_path, partial(from_record, GoldTable))
                    domain.websites[website] = replace(entry, gold=gold)
        manifest.verify_files()
        return manifest

    def verify_files(self) -> None:
        for domain, spec in self.domains.items():
            for website, entry in spec.websites.items():
                for page_id, rel in entry.pages.items():
                    full = self.root / rel
                    if not full.exists():
                        raise SchemaViolation(
                            f"page file missing: {rel} ({domain}/{website}/{page_id})"
                        )
                    if rel in self.checksums:
                        digest = hashlib.sha256(full.read_bytes()).hexdigest()
                        if digest != self.checksums[rel]:
                            raise SchemaViolation(f"checksum mismatch for {rel}")

    def instruction_for(self, domain: str, attribute: str) -> str:
        spec = self.domains.get(domain, DomainEntry())
        builtin_preamble, builtin_prompts = INSTRUCTIONS.get(domain, ("", {}))
        preamble = spec.preamble or builtin_preamble
        prompt = spec.attributes.get(attribute, builtin_prompts.get(attribute))
        if not preamble or not prompt:
            raise MissingTemplate(f"no instruction template for {domain}/{attribute}")
        return f"{preamble} {prompt}"


def derive_seed(base_seed: int, *parts: str) -> int:
    """Stable sub-seed for a named stream (never ``hash()``: not stable)."""
    digest = hashlib.sha256(
        ("\x1f".join([str(base_seed), *parts])).encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big")


def build_cases(
    manifest: CorpusManifest,
    sample_n: int = 100,
    rng_seed: int = 0,
) -> list[WebpageCase]:
    """One case per (website, attribute); page samples shared per website."""
    cases: list[WebpageCase] = []
    for domain in sorted(manifest.domains):
        websites = manifest.domains[domain].websites
        for website in sorted(websites):
            entry = websites[website]
            page_ids = sorted(entry.pages)
            take = min(sample_n, len(page_ids))
            rng = random.Random(derive_seed(rng_seed, domain, website))
            sampled = sorted(rng.sample(page_ids, take))
            attributes = sorted(entry.gold)
            if not attributes:
                raise MissingGold(f"no gold tables for {domain}/{website}")
            for attribute in attributes:
                instruction = manifest.instruction_for(domain, attribute)
                table = entry.gold[attribute]
                pages = tuple(
                    PageRecord(
                        page_id=pid,
                        html_path=entry.pages[pid],
                        gold=tuple(normalize_escapes(v) for v in table.get(pid, ())),
                    )
                    for pid in sampled
                )
                cases.append(WebpageCase(domain, website, attribute, instruction, pages))
    return cases


def dump_json(record, path: str | Path) -> None:
    """Canonical JSON writer shared by every artifact for byte-stable files.

    The file appears whole or not at all: the text goes to ``.<name>.tmp``
    beside it first (a name no ``*.json`` glob picks up) and is then moved
    into place, so a crash never leaves a half-written artifact.
    """
    path = Path(path)
    text = json.dumps(record, ensure_ascii=False, indent=2, sort_keys=True) + "\n"
    tmp = path.with_name(f".{path.name}.tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


T = TypeVar("T")


# --------------------------------------------------------------------------
# Record codec: every artifact and input file is a dataclass, written as the
# JSON object of its fields and read back against its type hints. Each type's
# encoder and decoder is built once, on first use, and cached.
# --------------------------------------------------------------------------

#: The JSON types a scalar field takes: a float field takes an integer too,
#: and a bare ``dict`` is free-form JSON.
_KINDS = {
    str: (str,), int: (int,), float: (float, int), bool: (bool,), dict: (dict,), list: (list,),
    type(None): (type(None),),
}


def _recorded_fields(cls: type) -> list[tuple[str, bool]]:
    """``(name, optional)`` of each field of a dataclass that its record holds."""
    modes = [(f.name, f.metadata.get("record")) for f in fields(cls)]
    return [(name, mode == "optional") for name, mode in modes if mode != "transient"]


def to_record(value: Any) -> Any:
    """The JSON record of ``value``: a dataclass becomes the object of its
    fields, an enum its value, a tuple a list."""
    return _encoder(type(value))(value)


@cache
def _encoder(cls: type) -> Callable[[Any], Any]:
    if is_dataclass(cls):
        plan = _recorded_fields(cls)

        def encode(value: Any) -> dict:
            record = {}
            for name, optional in plan:
                item = getattr(value, name)
                if item is not None or not optional:
                    record[name] = to_record(item)
            return record

        return encode
    if issubclass(cls, Enum):
        return attrgetter("value")
    if issubclass(cls, (tuple, list)):
        return lambda value: [to_record(item) for item in value]
    if issubclass(cls, dict):
        return lambda value: {key: to_record(item) for key, item in value.items()}
    return lambda value: value


def from_record(cls: type[T], record: Any) -> T:
    """Build a ``cls`` from its record, checking each value against its type
    hint. A missing key raises ``KeyError`` and a value of the wrong type
    ``TypeError``; both name the field's path, as in ``pages[0].html_path``.
    """
    return _decoder(cls)(record, "")


def _mismatch(path: str, expected: str, value: Any) -> TypeError:
    return TypeError(f"{path.lstrip('.') or 'record'}: expected {expected}, got {value!r:.80}")


def _checked(kind: type, value: Any, path: str) -> Any:
    if type(value) not in _KINDS[kind]:
        raise _mismatch(path, kind.__name__, value)
    return value


@cache
def _decoder(hint: Any) -> Callable[[Any, str], Any]:
    origin, args = get_origin(hint), get_args(hint)
    if origin in (Union, UnionType):  # Optional[T] or str | dict[...]
        # The value's JSON type picks the arm; any other value goes to the
        # first arm that is not None, which reports the mismatch.
        arms = {get_origin(arg) or arg: _decoder(arg) for arg in args}
        first = _decoder(next(arg for arg in args if arg is not type(None)))
        return lambda value, path: arms.get(type(value), first)(value, path)
    if origin is tuple:
        item = _decoder(args[0])
        return lambda value, path: tuple(
            item(element, f"{path}[{i}]") for i, element in enumerate(_checked(list, value, path))
        )
    if origin is dict:
        item = _decoder(args[1])
        return lambda value, path: {
            key: item(element, f"{path}.{key}")
            for key, element in _checked(dict, value, path).items()
        }
    if is_dataclass(hint):
        return _fields_of(hint)
    if issubclass(hint, Enum):
        return _enum(hint)
    return partial(_checked, hint)


def _fields_of(cls: type) -> Callable[[Any, str], Any]:
    hints = get_type_hints(cls)
    plan = [(name, _decoder(hints[name]), optional) for name, optional in _recorded_fields(cls)]

    def decode(value: Any, path: str) -> Any:
        record = _checked(dict, value, path)
        kwargs = {}
        for name, item, optional in plan:
            if name in record:
                kwargs[name] = item(record[name], f"{path}.{name}")
            elif not optional:
                raise KeyError(f"{path}.{name}".lstrip("."))
        return cls(**kwargs)

    return decode


def _enum(cls: type[Enum]) -> Callable[[Any, str], Enum]:
    def decode(value: Any, path: str) -> Enum:
        try:
            return cls(value)
        except (ValueError, TypeError):
            raise _mismatch(path, f"one of {[member.value for member in cls]}", value) from None

    return decode


def read_record(path: str | Path, decode: Callable[[Any], T]) -> T:
    """Read a JSON file and decode it; text that is not JSON, or a missing,
    ill-typed or out-of-range field, is a data error."""
    try:
        record = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaViolation(f"{path} is not valid JSON: {exc}") from exc
    try:
        return decode(record)
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise DatasetError(f"malformed record {path}: {type(exc).__name__}: {exc}") from exc


def load_case(path: str | Path) -> WebpageCase:
    return read_record(path, partial(from_record, WebpageCase))
