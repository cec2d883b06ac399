"""OpenMetrics text exposition + the sim-bus scrape endpoint.

:func:`render_openmetrics` serialises a
:class:`~repro.telemetry.metrics.MetricsRegistry` in the OpenMetrics
text format (the Prometheus exposition format's standardised successor):
counters as ``_total`` samples, gauges verbatim, and histograms as real
histogram types with cumulative ``le`` buckets plus ``_count``/``_sum`` —
every registered series appears.

:class:`MetricsEndpoint` is the scrape surface: it registers a
``metrics`` endpoint on the cluster's
:class:`~repro.runtime.bus.MessageBus` and answers every
:class:`ScrapeRequest` with a :class:`ScrapeResponse` carrying the
exposition text — a Prometheus scrape, modulo HTTP. Scrapers register a
reply queue, send a request, and block on the response (see
``FaasmCluster.scrape_metrics``).
"""

from __future__ import annotations

import itertools
import re
import threading
from dataclasses import dataclass

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_RE = re.compile(r"[^a-zA-Z0-9_]")


def sanitize_name(name: str) -> str:
    """A metric name valid in the exposition format (dots become ``_``)."""
    name = _NAME_RE.sub("_", name)
    if not name or name[0].isdigit():
        name = "_" + name
    return name


def _sanitize_label(name: str) -> str:
    label = _LABEL_RE.sub("_", name)
    if not label or label[0].isdigit():
        label = "_" + label
    return label


def _escape_value(value) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _labels(labels: dict, extra: dict | None = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(
        f'{_sanitize_label(k)}="{_escape_value(v)}"'
        for k, v in sorted(merged.items())
    )
    return "{" + inner + "}"


def _format_number(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def render_openmetrics(registry) -> str:
    """The registry as OpenMetrics text, ``# EOF`` terminated."""
    groups: dict[str, list] = {}
    kinds: dict[str, str] = {}
    for name, labels, metric in registry.items():
        groups.setdefault(name, []).append((labels, metric))
        kinds[name] = metric.kind
    lines: list[str] = []
    for name in sorted(groups):
        base = sanitize_name(name)
        kind = kinds[name]
        if kind == "counter":
            lines.append(f"# TYPE {base} counter")
            for labels, metric in groups[name]:
                lines.append(
                    f"{base}_total{_labels(labels)} "
                    f"{_format_number(metric.value)}"
                )
        elif kind == "gauge":
            lines.append(f"# TYPE {base} gauge")
            for labels, metric in groups[name]:
                lines.append(
                    f"{base}{_labels(labels)} {_format_number(metric.value)}"
                )
        else:  # histogram: cumulative le buckets
            lines.append(f"# TYPE {base} histogram")
            for labels, metric in groups[name]:
                cumulative = 0
                for bound, count in metric.buckets():
                    cumulative += count
                    lines.append(
                        f"{base}_bucket"
                        f"{_labels(labels, {'le': _format_number(bound)})}"
                        f" {cumulative}"
                    )
                lines.append(
                    f"{base}_bucket{_labels(labels, {'le': '+Inf'})}"
                    f" {metric.count}"
                )
                lines.append(
                    f"{base}_count{_labels(labels)} {metric.count}"
                )
                lines.append(
                    f"{base}_sum{_labels(labels)} {_format_number(metric.sum)}"
                )
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Bus endpoint
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScrapeRequest:
    """Ask the metrics endpoint for an exposition; answered to
    ``reply_to``'s bus queue."""

    reply_to: str


@dataclass(frozen=True)
class ScrapeResponse:
    """The exposition text for one scrape."""

    body: str


class MetricsEndpoint:
    """The cluster's scrape target, living on the message bus."""

    HOST = "metrics"

    def __init__(self, bus, registry):
        self.bus = bus
        self.registry = registry
        self._scrape_ids = itertools.count()
        self.bus.register(self.HOST)
        self._thread = threading.Thread(
            target=self._serve, daemon=True, name="metrics-endpoint"
        )
        self._thread.start()

    def _serve(self) -> None:
        from repro.runtime.bus import Shutdown

        while True:
            message = self.bus.receive(self.HOST)
            if message is None or isinstance(message, Shutdown):
                return
            if isinstance(message, ScrapeRequest):
                body = render_openmetrics(self.registry)
                try:
                    self.bus.send(message.reply_to, ScrapeResponse(body))
                except KeyError:
                    pass  # scraper went away before the answer

    def scrape(self, timeout: float = 5.0) -> str:
        """One full scrape round trip over the bus."""
        reply_to = f"scrape-{next(self._scrape_ids)}"
        self.bus.register(reply_to)
        try:
            self.bus.send(self.HOST, ScrapeRequest(reply_to=reply_to))
            response = self.bus.receive(reply_to, timeout=timeout)
        finally:
            self.bus.deregister(reply_to)
        if not isinstance(response, ScrapeResponse):
            raise TimeoutError("metrics scrape timed out")
        return response.body

    def shutdown(self, timeout: float = 2.0) -> None:
        from repro.runtime.bus import Shutdown

        try:
            self.bus.send(self.HOST, Shutdown())
        except KeyError:
            return
        self._thread.join(timeout)
        try:
            self.bus.deregister(self.HOST)
        except KeyError:
            pass
