"""Synthetic keyword corpus with realistic skew.

The paper's storage-system workloads describe documents by common words.
Word usage in real corpora is Zipf-distributed and words cluster
lexicographically (many share prefixes: compute/computer/computation...).
This module reproduces both properties:

* a base vocabulary mixing an embedded list of common English stems with
  pronounceable synthetic derivations (stem + suffix), giving heavy prefix
  sharing;
* Zipf-ranked sampling over that vocabulary.

Everything is seeded and deterministic.
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError
from repro.util.rng import RandomLike, as_generator

__all__ = ["COMMON_STEMS", "Vocabulary", "zipf_weights"]

# A compact embedded stem list: enough real English structure to give the
# keyword space its characteristic lexicographic clustering without shipping
# a dictionary file.
COMMON_STEMS = [
    "access", "account", "act", "adapt", "address", "agent", "alloc",
    "analy", "app", "arch", "array", "assign", "async", "atom", "audit",
    "auth", "backup", "balance", "band", "base", "batch", "bind", "bit",
    "block", "board", "boot", "branch", "bridge", "broad", "buffer", "build",
    "bus", "byte", "cache", "call", "cast", "cell", "cent", "chain",
    "channel", "check", "chip", "class", "client", "clock", "cloud",
    "cluster", "code", "collect", "column", "command", "commit", "common",
    "compact", "company", "compile", "complex", "compress", "comput",
    "concur", "config", "connect", "consist", "control", "copy", "core",
    "count", "cover", "cpu", "crash", "create", "cross", "crypt", "current",
    "cursor", "cycle", "daemon", "data", "debug", "decode", "deep",
    "default", "define", "degree", "delay", "delete", "deliver", "depend",
    "deploy", "design", "detect", "device", "digit", "direct", "disc",
    "discover", "disk", "dispatch", "distribut", "document", "domain",
    "down", "drive", "dual", "dump", "duplex", "dynamic", "edge", "edit",
    "elastic", "element", "embed", "emit", "empty", "encode", "engine",
    "entry", "equal", "error", "event", "exact", "exchange", "exec",
    "expand", "export", "express", "extend", "fabric", "factor", "fail",
    "fast", "fault", "fetch", "fiber", "field", "file", "filter", "final",
    "find", "first", "fixed", "flag", "flash", "flat", "flex", "float",
    "flood", "flow", "flush", "fork", "form", "forward", "frame", "free",
    "frequent", "front", "full", "func", "fuse", "gate", "gather", "general",
    "global", "grain", "grant", "graph", "grid", "group", "guard", "handle",
    "hash", "head", "heap", "heart", "heavy", "hidden", "high", "hint",
    "hold", "hook", "host", "hyper", "ideal", "index", "info", "inherit",
    "init", "inline", "input", "insert", "inspect", "install", "instance",
    "inter", "invoke", "item", "iterate", "job", "join", "journal", "jump",
    "kernel", "key", "kind", "label", "lambda", "lane", "large", "latch",
    "latency", "launch", "layer", "lazy", "leader", "leaf", "lease", "level",
    "library", "light", "limit", "line", "link", "list", "load", "local",
    "lock", "log", "logic", "long", "loop", "machine", "macro", "main",
    "manage", "map", "mark", "mask", "master", "match", "matrix", "measure",
    "media", "member", "memory", "merge", "mesh", "message", "meta",
    "method", "metric", "micro", "migrate", "mirror", "mobile", "mode",
    "model", "modul", "monitor", "mount", "multi", "mutex", "name", "native",
    "nest", "net", "network", "neural", "node", "normal", "notify", "null",
    "object", "offset", "online", "open", "operat", "optim", "order",
    "output", "over", "owner", "pack", "page", "pair", "panel", "parallel",
    "parse", "part", "patch", "path", "pattern", "peer", "perform",
    "persist", "phase", "pipe", "pivot", "plan", "point", "policy", "poll",
    "pool", "port", "post", "power", "prefix", "press", "primary", "print",
    "prior", "probe", "process", "profile", "program", "project", "proof",
    "proto", "proxy", "publish", "pull", "pulse", "push", "quant", "query",
    "queue", "quick", "quota", "random", "range", "rank", "rapid", "rate",
    "read", "ready", "real", "rebalance", "receive", "record", "recover",
    "reduce", "region", "register", "relate", "relay", "release", "remote",
    "render", "repair", "repeat", "replica", "report", "request", "reserve",
    "reset", "resolve", "resource", "response", "rest", "result", "retry",
    "return", "reverse", "ring", "role", "roll", "root", "route", "router",
    "row", "rule", "run", "runtime", "safe", "sample", "scale", "scan",
    "schedule", "schema", "scope", "search", "second", "secret", "section",
    "secure", "segment", "select", "self", "send", "sense", "sequence",
    "serial", "serve", "server", "service", "session", "shard", "share",
    "shell", "shift", "short", "signal", "simple", "single", "sink", "size",
    "slice", "slot", "small", "smart", "snapshot", "socket", "soft", "solid",
    "solve", "sort", "source", "space", "spawn", "spec", "speed", "spin",
    "split", "stack", "stage", "stamp", "standard", "start", "state",
    "static", "station", "status", "steal", "step", "storage", "store",
    "stream", "stress", "string", "stripe", "strong", "struct", "style",
    "subnet", "super", "supply", "support", "swap", "switch", "symbol",
    "sync", "system", "table", "tag", "tail", "target", "task", "template",
    "term", "test", "thread", "tick", "tier", "time", "token", "tool",
    "topic", "topology", "total", "trace", "track", "traffic", "transfer",
    "transform", "transit", "tree", "trigger", "trunk", "trust", "tune",
    "tuple", "turbo", "type", "unit", "update", "upgrade", "upload", "usage",
    "user", "utility", "valid", "value", "vector", "verify", "version",
    "view", "virtual", "volume", "wait", "walk", "watch", "wave", "web",
    "weight", "wide", "window", "wire", "word", "work", "worker", "wrap",
    "write", "zone",
]

_SUFFIXES = ["", "s", "er", "ers", "ing", "ed", "ion", "ions", "or", "able", "ment", "al"]


def zipf_weights(count: int, exponent: float = 1.0) -> np.ndarray:
    """Normalized Zipf rank weights ``1/rank**exponent``."""
    if count < 1:
        raise WorkloadError(f"count must be >= 1, got {count}")
    if exponent < 0:
        raise WorkloadError(f"exponent must be >= 0, got {exponent}")
    weights = 1.0 / np.power(np.arange(1, count + 1, dtype=float), exponent)
    return weights / weights.sum()


class Vocabulary:
    """A ranked vocabulary with Zipf-distributed sampling.

    Words are stem+suffix derivations of :data:`COMMON_STEMS`, shuffled into
    a popularity ranking by the seed, so popular words are spread across the
    alphabet while prefix families still cluster lexicographically.
    """

    def __init__(
        self,
        size: int = 2000,
        exponent: float = 1.0,
        rng: RandomLike = None,
    ) -> None:
        if size < 1:
            raise WorkloadError(f"vocabulary size must be >= 1, got {size}")
        gen = as_generator(rng)
        words: list[str] = []
        seen: set[str] = set()
        stems = list(COMMON_STEMS)
        # Derive until we have enough distinct words.
        round_idx = 0
        while len(words) < size:
            for stem in stems:
                suffix = _SUFFIXES[round_idx % len(_SUFFIXES)]
                extra = (
                    ""
                    if round_idx < len(_SUFFIXES)
                    else "".join(
                        "abcdefghijklmnopqrstuvwxyz"[i]
                        for i in gen.integers(0, 26, size=2)
                    )
                )
                word = stem + suffix + extra
                if word not in seen:
                    seen.add(word)
                    words.append(word)
                if len(words) >= size:
                    break
            round_idx += 1
        order = gen.permutation(size)
        self.words = [words[i] for i in order]
        self.weights = zipf_weights(size, exponent)
        self._gen = gen

    def __len__(self) -> int:
        return len(self.words)

    def sample(self, count: int, rng: RandomLike = None) -> list[str]:
        """Draw ``count`` words according to the Zipf weights."""
        gen = as_generator(rng) if rng is not None else self._gen
        picks = gen.choice(len(self.words), size=count, p=self.weights)
        return [self.words[i] for i in picks]

    def rank_of(self, word: str) -> int:
        """Popularity rank of ``word`` (0 = most popular)."""
        try:
            return self.words.index(word)
        except ValueError:
            raise WorkloadError(f"{word!r} not in vocabulary") from None
