"""Run the quantcat CLI with the benchmark's wrap points installed.

    PYTHONPATH=src python perfbench/launcher.py TRACE_FILE CLI_ARGS...

Spans and counters stay in memory and are written to TRACE_FILE as JSON
when the CLI exits, whatever its exit code.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

from layers import WRAPS

_now = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent]
        self.stack: list[int] = []  # indices of the open spans
        self.counts: dict[str, int] = {}
        self.closures: list[set] = []  # pool keys of the open closure spans
        self.absent: list[str] = []

    def bump(self, key: str, by: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    def in_closure(self) -> bool:
        return bool(self.stack) and self.spans[self.stack[-1]][0] == "completion.closure"

    def in_law(self) -> bool:
        return bool(self.stack) and self.spans[self.stack[-1]][0].startswith("laws.")

    def timed(self, name: str, fn, args, kwargs):
        if self.in_law():
            # Inside a law suite all time is the law's: no nested spans.
            return fn(*args, **kwargs)
        index = len(self.spans)
        self.spans.append([name, _now(), 0, self.stack[-1] if self.stack else -1])
        self.stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self.stack.pop()
            self.spans[index][2] = _now()

    def wrapper(self, stem: str, kind: str, fn):
        tracer = self
        counts = self.counts

        if kind == "count":
            key = stem

            def wrapped(*args, **kwargs):
                counts[key] = counts.get(key, 0) + 1
                return fn(*args, **kwargs)

        elif kind == "span":

            def wrapped(*args, **kwargs):
                return tracer.timed(stem, fn, args, kwargs)

        elif kind == "lattice":

            def wrapped(*args, **kwargs):
                algorithm = args[2] if len(args) > 2 else kwargs.get("algorithm", "generated")
                if algorithm == "brute":
                    return tracer.timed("adjunction.crosscheck", fn, args, kwargs)
                result = tracer.timed("adjunction.generate", fn, args, kwargs)
                tracer.bump("adjunction.concepts", len(result))
                return result

        elif kind == "enumerate":

            def wrapped(*args, **kwargs):
                result = tracer.timed(stem, fn, args, kwargs)
                tracer.bump("distributor.weights", len(result))
                return result

        elif kind == "closure":

            def wrapped(*args, **kwargs):
                if tracer.in_law():
                    return fn(*args, **kwargs)
                tracer.closures.append(set())
                try:
                    result = tracer.timed(stem, fn, args, kwargs)
                finally:
                    pool = tracer.closures.pop()
                tracer.bump("completion.closure_new", len(result) - len(pool))
                return result

        elif kind == "pair":

            def wrapped(*args, **kwargs):
                if tracer.in_closure():
                    counts["completion.pair_ops"] = counts.get("completion.pair_ops", 0) + 1
                return fn(*args, **kwargs)

        elif kind == "pool":

            def wrapped(*args, **kwargs):
                result = fn(*args, **kwargs)
                if tracer.in_closure():
                    tracer.closures[-1].add((result.type_idx,) + tuple(result.weights))
                return result

        elif kind == "certificate":

            def wrapped(*args, **kwargs):
                result = tracer.timed(stem, fn, args, kwargs)
                tracer.bump("io.certificates")
                if result.get("checked"):
                    tracer.bump("io.certificates_checked")
                return result

        elif kind == "law":

            def wrapped(*args, **kwargs):
                law_id = args[0] if args else kwargs["law_id"]
                return tracer.timed(f"laws.{law_id}", fn, args, kwargs)

        else:
            raise ValueError(f"unknown wrap kind {kind!r}")
        return wrapped

    def install(self) -> None:
        for stem, module_name, path, kind in WRAPS:
            owner_path, _, attr = path.rpartition(".")
            try:
                owner = importlib.import_module(module_name)
                for part in owner_path.split(".") if owner_path else []:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{path}")
                continue
            setattr(owner, attr, self.wrapper(stem, kind, original))

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts, "absent": self.absent}, fh)


def main() -> None:
    trace_path, cli_args = sys.argv[1], sys.argv[2:]
    from quantcat.cli import main as cli_main

    tracer = Tracer()
    tracer.install()
    try:
        cli_main(args=cli_args, prog_name="quantcat")
    finally:
        tracer.dump(trace_path)


if __name__ == "__main__":
    main()
