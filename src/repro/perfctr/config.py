"""nanoBench counter-configuration files (Section III-J).

"The performance events to be measured are specified in a configuration
file ... the events are not hard-coded, which makes it easy to adapt
nanoBench to future CPUs, as only a new configuration file has to be
created."

File syntax (one event per line, ``#`` comments)::

    # cfg_Skylake.txt
    0E.01 UOPS_ISSUED.ANY
    A1.01 UOPS_DISPATCHED_PORT.PORT_0
    D1.01 MEM_LOAD_RETIRED.L1_HIT

The code may be omitted when the name is known to the catalogue.  When
a configuration lists more events than there are programmable counters,
nanoBench runs the benchmark multiple times with different counter
assignments — :func:`split_into_groups` computes that partition.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigError
from .events import PerfEvent, event_catalog, find_event

_LINE_RE = re.compile(
    r"^(?:(?P<code>[0-9A-Fa-f]{2}\.[0-9A-Fa-f]{2})\s+)?(?P<name>[A-Za-z0-9_.]+)$"
)


@dataclass(frozen=True)
class ConfigDiagnostic:
    """One file:line-precise finding from a configuration scan."""

    line: int  # 1-based; 0 = whole-file findings
    message: str
    filename: Optional[str] = None
    severity: str = "error"  # "error" or "warning"

    def location(self) -> str:
        if self.filename:
            return "%s:%d" % (self.filename, self.line)
        return "line %d" % (self.line,)

    def describe(self) -> str:
        if self.line == 0 and self.filename is None:
            return self.message
        if self.line == 0:
            return "%s: %s" % (self.filename, self.message)
        return "%s: %s" % (self.location(), self.message)


@dataclass(frozen=True)
class CounterConfig:
    """A parsed configuration: the ordered list of events to measure."""

    events: Tuple[PerfEvent, ...]

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(event.name for event in self.events)

    def core_events(self) -> Tuple[PerfEvent, ...]:
        return tuple(e for e in self.events if not e.uncore)


@dataclass(frozen=True)
class ConfigScan:
    """Everything one pass over a configuration finds."""

    #: The resolved events in file order, each listed once.
    events: Tuple[PerfEvent, ...]
    #: Every finding, in line order; the whole-file one comes last.
    diagnostics: Tuple[ConfigDiagnostic, ...]
    #: Lines that are neither blank nor comment-only.
    lines: int


def scan_config(text: str, catalog: Dict[str, PerfEvent],
                filename: Optional[str] = None) -> ConfigScan:
    """Read configuration *text* against an event *catalog*, line by line.

    The only reader of the file syntax: :func:`parse_config` and
    :func:`collect_config_diagnostics` are views of its result.  It
    keeps going past a bad line, so all broken lines show in one pass.
    Duplicate events and name/code mismatches against the catalogue are
    warnings (the parser tolerates both).
    """
    diagnostics: List[ConfigDiagnostic] = []
    seen: Dict[str, int] = {}
    events: List[PerfEvent] = []
    lines = 0
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        lines += 1
        match = _LINE_RE.match(line)
        if not match:
            diagnostics.append(ConfigDiagnostic(
                line_number, "cannot parse %r" % (raw.strip(),), filename
            ))
            continue
        name = match.group("name")
        code = match.group("code")
        try:
            event = find_event(catalog, name)
        except KeyError:
            if code is None:
                diagnostics.append(ConfigDiagnostic(
                    line_number, "unknown event %r" % (name,), filename
                ))
                continue
            try:
                event = find_event(catalog, code)
            except KeyError:
                diagnostics.append(ConfigDiagnostic(
                    line_number,
                    "unknown event %r (code %s)" % (name, code), filename
                ))
                continue
        if code is not None and event.code != code.upper():
            diagnostics.append(ConfigDiagnostic(
                line_number,
                "code %s does not match catalogue code %s for %s"
                % (code, event.code, event.name),
                filename, severity="warning",
            ))
        if event.name in seen:
            diagnostics.append(ConfigDiagnostic(
                line_number,
                "duplicate event %s (first listed on line %d)"
                % (event.name, seen[event.name]),
                filename, severity="warning",
            ))
        else:
            seen[event.name] = line_number
            events.append(event)
    if not seen:
        diagnostics.append(ConfigDiagnostic(
            0, "configuration contains no events", filename
        ))
    return ConfigScan(tuple(events), tuple(diagnostics), lines)


def parse_config(text: str, catalog: Dict[str, PerfEvent],
                 filename: Optional[str] = None) -> CounterConfig:
    """Parse configuration *text* against an event *catalog*.

    The first error of :func:`scan_config` raises a :class:`ConfigError`
    whose message pins the failure to its exact location —
    ``file.txt:7: ...`` when *filename* is given, ``line 7: ...``
    otherwise.
    """
    scan = scan_config(text, catalog, filename)
    for diagnostic in scan.diagnostics:
        if diagnostic.severity == "error":
            raise ConfigError(diagnostic.describe())
    return CounterConfig(scan.events)


def collect_config_diagnostics(
    text: str, catalog: Dict[str, PerfEvent],
    filename: Optional[str] = None,
) -> List[ConfigDiagnostic]:
    """Every problem in a configuration at once (see :func:`scan_config`)."""
    return list(scan_config(text, catalog, filename).diagnostics)


def parse_config_file(path: str, catalog: Dict[str, PerfEvent]) -> CounterConfig:
    """Parse a configuration file; diagnostics carry ``path:line``."""
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError("cannot read config file %s: %s" % (path, exc))
    return parse_config(text, catalog, filename=path)


def format_config(config: CounterConfig) -> str:
    """Render a configuration back to file syntax."""
    return "\n".join("%s %s" % (e.code, e.name) for e in config.events) + "\n"


def split_into_groups(events: Sequence[PerfEvent],
                      n_programmable: int) -> List[Tuple[PerfEvent, ...]]:
    """Partition core events into counter-sized measurement groups.

    Uncore events do not occupy core programmable counters and are
    appended to the first group.
    """
    if n_programmable < 1:
        raise ConfigError("need at least one programmable counter")
    core = [e for e in events if not e.uncore]
    uncore = [e for e in events if e.uncore]
    groups: List[Tuple[PerfEvent, ...]] = []
    for start in range(0, len(core), n_programmable):
        groups.append(tuple(core[start:start + n_programmable]))
    if uncore:
        if groups:
            groups[0] = groups[0] + tuple(uncore)
        else:
            groups.append(tuple(uncore))
    return groups


# ----------------------------------------------------------------------
# Shipped default configurations (Section III-J: "we provide
# configuration files with all events for all recent Intel
# microarchitectures, and the AMD Zen microarchitecture").
# ----------------------------------------------------------------------

def default_config(family: str, n_cboxes: int = 0,
                   include_uncore: bool = False) -> CounterConfig:
    """The full shipped configuration for a family."""
    catalog = event_catalog(family, n_cboxes)
    events = [e for e in catalog.values() if include_uncore or not e.uncore]
    return CounterConfig(tuple(events))


def example_skylake_config() -> CounterConfig:
    """The events of the paper's Section III-A example output."""
    catalog = event_catalog("SKL")
    names = [
        "UOPS_ISSUED.ANY",
        "UOPS_DISPATCHED_PORT.PORT_0",
        "UOPS_DISPATCHED_PORT.PORT_1",
        "UOPS_DISPATCHED_PORT.PORT_2",
        "UOPS_DISPATCHED_PORT.PORT_3",
        "MEM_LOAD_RETIRED.L1_HIT",
        "MEM_LOAD_RETIRED.L1_MISS",
    ]
    return CounterConfig(tuple(catalog[name] for name in names))
