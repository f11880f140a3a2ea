"""Reader for the observability report optpower prints with --metrics.

The report is a span tree (count, total and self wall time per path), then
a counter catalog, then histograms (count / mean / min / max). Spans are
summed by name over every path they appear on.
"""

import re

_UNITS = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}
_DUR = r"([0-9.]+)(ns|us|ms|s)"
_SPAN = re.compile(r"^(\s*)(\S+)\s+(\d+)\s+%s\s+%s\s*$" % (_DUR, _DUR))
_COUNTER = re.compile(r"^\s+(\S+)\s+(-?\d+)\s*$")
_HIST = re.compile(r"^\s+(\S+)\s+(\d+)\s+%s\s+%s\s+%s\s*$" % (_DUR, _DUR, _DUR))

# Counters whose values depend on scheduling or cache timing, not on the
# logical work (the "sched" and "cache" categories of the Obs catalog).
NONDETERMINISTIC_PREFIXES = ("pool.", "serve.batch", "serve.queue_wait",
                             "memo.")


def _ms(value, unit):
    return float(value) * _UNITS[unit]


def parse(text):
    """Parse the last report in `text`.

    Returns {"spans": {name: [count, total_ms, self_ms]},
             "counters": {name: int},
             "hists": {name: [count, mean_ms]}}.
    """
    lines = text.splitlines()
    start = None
    for i, line in enumerate(lines):
        if line.startswith("span ") and "count" in line:
            start = i
    spans, counters, hists = {}, {}, {}
    if start is None:
        return {"spans": spans, "counters": counters, "hists": hists}
    section = "spans"
    for line in lines[start + 1:]:
        if line.startswith("counters:"):
            section = "counters"
            continue
        if line.startswith("histograms"):
            section = "hists"
            continue
        if section == "spans":
            m = _SPAN.match(line)
            if m:
                s = spans.setdefault(m.group(2), [0, 0.0, 0.0])
                s[0] += int(m.group(3))
                s[1] += _ms(m.group(4), m.group(5))
                s[2] += _ms(m.group(6), m.group(7))
        elif section == "counters":
            m = _COUNTER.match(line)
            if m:
                counters[m.group(1)] = int(m.group(2))
        else:
            m = _HIST.match(line)
            if m:
                hists[m.group(1)] = [int(m.group(2)),
                                     _ms(m.group(3), m.group(4))]
    return {"spans": spans, "counters": counters, "hists": hists}


def merge(reports):
    """Sum several parsed reports (spans, counters, histogram totals)."""
    out = {"spans": {}, "counters": {}, "hists": {}}
    for r in reports:
        for name, (c, tot, self_) in r["spans"].items():
            s = out["spans"].setdefault(name, [0, 0.0, 0.0])
            s[0] += c
            s[1] += tot
            s[2] += self_
        for name, v in r["counters"].items():
            out["counters"][name] = out["counters"].get(name, 0) + v
        for name, (c, mean) in r["hists"].items():
            h = out["hists"].setdefault(name, [0, 0.0])
            total = h[0] * h[1] + c * mean
            h[0] += c
            h[1] = total / h[0] if h[0] else 0.0
    return out


def deterministic_counters(report):
    return {k: v for k, v in report["counters"].items()
            if not k.startswith(NONDETERMINISTIC_PREFIXES)}
