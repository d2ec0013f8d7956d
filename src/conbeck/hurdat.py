"""HURDAT2 hurricane-track ingestion and track-to-field conversion.

The parser follows the NOAA HURDAT2 layout: header lines of the form
``AL092011, IRENE, 39,`` followed by that many data rows (``date, time,
record id, status, lat, lon, ...``).  Malformed input never raises; bad
rows and count mismatches are returned as line-numbered diagnostics next
to whatever parsed cleanly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from datetime import datetime

import numpy as np

from .errors import FormatError
from .manifold import _nearest, project_to_tangent, sphere_point

__all__ = ["StormTrack", "hurdat2_parse", "track_to_field"]

_HEADER_RE = re.compile(r"^[A-Z]{2}\d{6}$")
_COORD_RE = re.compile(r"^(\d+(?:\.\d+)?)([NSEW])$")


@dataclass(frozen=True)
class StormTrack:
    """One storm: identifier, name, and the time-ordered track samples."""

    id: str
    name: str
    times: tuple = field(default_factory=tuple)
    lats: np.ndarray = field(default_factory=lambda: np.zeros(0))
    lons: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __len__(self):
        return len(self.times)


@dataclass
class _Storm:
    """A storm block being read: its header, the rows counted against its
    declared count so far, and the samples kept."""

    id: str
    name: str
    lineno: int
    declared: int
    seen: int = 0
    times: list = field(default_factory=list)
    lats: list = field(default_factory=list)
    lons: list = field(default_factory=list)


#: Sign of each hemisphere letter, by coordinate.
_HEMISPHERE_SIGN = {"latitude": {"N": 1.0, "S": -1.0}, "longitude": {"E": 1.0, "W": -1.0}}


def _parse_coord(token, kind):
    """``"28.0N"`` -> +28.0, ``"94.8W"`` -> -94.8, longitudes wrapped into
    (-180, 180]; raise ValueError if unparseable or out of range."""
    match = _COORD_RE.match(token.strip())
    sign = _HEMISPHERE_SIGN[kind].get(match.group(2)) if match else None
    if sign is None or (kind == "latitude" and float(match.group(1)) > 90.0):
        raise ValueError(f"bad {kind} {token.strip()!r}")
    value = sign * float(match.group(1))
    if kind == "longitude":
        value = (value + 180.0) % 360.0 - 180.0  # dateline-crossing values wrap
        value = 180.0 if value == -180.0 else value
    return value


def _parse_row(parts):
    """Parse one data row into (datetime, lat, lon); raise ValueError if bad."""
    if len(parts) < 6:
        raise ValueError(f"expected at least 6 fields, got {len(parts)}")
    when = datetime.strptime(parts[0].strip() + parts[1].strip(), "%Y%m%d%H%M")
    return when, _parse_coord(parts[4], "latitude"), _parse_coord(parts[5], "longitude")


def hurdat2_parse(text):
    """Parse HURDAT2 text into storm tracks.

    Returns ``(tracks, issues)`` where ``issues`` is a list of line-numbered
    diagnostic strings.  Rows with unparseable fields or non-increasing
    timestamps are dropped (with a diagnostic); a header whose declared row
    count does not match the rows that follow is reported by its line
    number.  Empty input yields ``([], [])``.
    """
    tracks = []
    issues = []

    def close(storm):
        if storm is None:
            return
        if storm.seen != storm.declared:
            issues.append(
                f"line {storm.lineno}: header {storm.id} declares {storm.declared} "
                f"rows, found {storm.seen}"
            )
        lats, lons = (np.array(values, dtype=float) for values in (storm.lats, storm.lons))
        tracks.append(StormTrack(storm.id, storm.name, tuple(storm.times), lats, lons))

    storm = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split(",")
        first = parts[0].strip()
        if _HEADER_RE.match(first):
            close(storm)
            storm = None
            if len(parts) < 3:
                issues.append(f"line {lineno}: header {first} is missing fields")
                continue
            try:
                declared = int(parts[2].strip())
            except ValueError:
                issues.append(
                    f"line {lineno}: header {first} has a non-integer row count "
                    f"{parts[2].strip()!r}"
                )
                declared = 0
            storm = _Storm(first, parts[1].strip(), lineno, declared)
            continue
        if storm is None:
            issues.append(f"line {lineno}: data row outside any storm block")
            continue
        if storm.seen >= storm.declared:
            issues.append(
                f"line {lineno}: data row beyond the declared count for "
                f"header {storm.id}"
            )
            continue
        storm.seen += 1
        try:
            when, lat, lon = _parse_row(parts)
        except ValueError as exc:
            issues.append(f"line {lineno}: row dropped ({exc})")
            continue
        if storm.times and when <= storm.times[-1]:
            issues.append(
                f"line {lineno}: row dropped (timestamp {when:%Y%m%d %H%M} "
                f"not increasing)"
            )
            continue
        storm.times.append(when)
        storm.lats.append(lat)
        storm.lons.append(lon)
    close(storm)
    return tracks, issues


def track_to_field(track, frames, cloud, normalize_before_average=True):
    """Convert a storm track to a tangent vector field on a sphere mesh.

    Track positions map to the unit sphere, forward differences
    ``y_{k+1} - y_k`` give displacement vectors (zero displacements are
    dropped), each vector is snapped to the mesh node nearest its base
    point (the lowest index among equally near nodes), vectors landing on
    one node are averaged, and the result is projected to tangent
    coordinates through the node frames.  The mesh must lie in R^3.

    With ``normalize_before_average`` each displacement is scaled to unit
    length before averaging (the default); otherwise raw displacements are
    averaged first and the per-node mean is normalized.
    """
    if len(track) < 2:
        raise FormatError(
            f"track {track.id} has {len(track)} samples; at least 2 are required"
        )
    cloud = np.asarray(cloud, dtype=float)
    frames = np.asarray(frames, dtype=float)
    n, p = cloud.shape
    if p != 3:
        raise FormatError(f"mesh points are in dimension {p}; storm positions need 3")
    theta = np.deg2rad(track.lats)
    psi = -np.deg2rad(track.lons)  # stored east-positive; psi is west-positive
    points = sphere_point(theta, psi)
    diffs = points[1:] - points[:-1]
    norms = np.linalg.norm(diffs, axis=1)
    keep = norms > 1e-12
    diffs = diffs[keep]
    bases = points[:-1][keep]
    sums = np.zeros((n, p))
    counts = np.zeros(n)
    if diffs.shape[0]:
        if normalize_before_average:
            diffs = diffs / norms[keep, None]
        nearest = _nearest(bases, cloud)
        np.add.at(sums, nearest, diffs)
        np.add.at(counts, nearest, 1.0)
    hit = counts > 0
    means = np.zeros_like(sums)
    means[hit] = sums[hit] / counts[hit, None]
    if not normalize_before_average:
        lengths = np.linalg.norm(means, axis=1)
        nz = lengths > 1e-12
        means[nz] = means[nz] / lengths[nz, None]
    return project_to_tangent(frames, means)
