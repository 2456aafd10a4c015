"""The verdict report of the splitting, Poincare, hexagon and algebra checks.

A `CheckReport` is a named family of labelled entries, each passing or
failing, printed as text or as one JSON document. It lives in a module of
its own, importing nothing, so the modules that report through it
(`multiforms`, `cohomology`, `quotient_algebra`) share it without loading
one another; `to_json` imports `json` when it is called, so a text run
does not load it.
"""

from __future__ import annotations


class CheckReport:
    """Plain-text plus machine-readable verdict for a family of checks."""

    def __init__(self, name: str, params: dict, entries: list | None = None):
        self.name = name
        self.params = params
        self.entries = [] if entries is None else entries

    @property
    def failures(self) -> list:
        return [e["label"] for e in self.entries if not e["pass"]]

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(self, label, passed, detail=None):
        self.entries.append({"label": label, "pass": bool(passed), "detail": detail})

    def expect(self, label, expected, got):
        self.entries.append({"label": label, "expected": expected, "got": got,
                             "pass": expected == got})

    def to_json(self) -> str:
        import json
        return json.dumps(
            {"check": self.name, "params": self.params, "pass": self.ok,
             "entries": self.entries},
            default=str,
        )

    def __str__(self):
        lines = [f"{self.name} {self.params}: {'PASS' if self.ok else 'FAIL'}"]
        for e in self.entries:
            mark = "ok" if e["pass"] else "FAIL"
            if "expected" in e:
                tail = f": expected {e['expected']}, got {e['got']}"
            else:
                tail = f" ({e['detail']})" if not e["pass"] and e.get("detail") else ""
            lines.append(f"  [{mark}] {e['label']}{tail}")
        return "\n".join(lines)
