"""HURDAT2 parsing and track-to-field conversion."""

from __future__ import annotations

import numpy as np
import pytest

from conbeck.errors import FormatError
from conbeck.hurdat import StormTrack, hurdat2_parse, track_to_field
from conbeck.manifold import (
    epsilon_graph,
    lift_to_ambient,
    sample_sphere_patch,
    sphere_point,
    tangent_frames,
)

SAMPLE = """\
AL092011, IRENE, 3,
20110821, 0000,  , TS, 15.0N, 59.0W, 45, 1006,
20110821, 0600,  , TS, 16.0N, 60.5W, 45, 1005,
20110821, 1200,  , TS, 16.8N, 62.1W, 50, 1003,
EP011949, UNNAMED, 2,
19490611, 0000,  , TS, 20.2N, 106.3W, 45, -999,
19490611, 0600,  , TS, 20.2N, 106.4W, 45, -999,
"""


def test_parse_two_storms():
    tracks, issues = hurdat2_parse(SAMPLE)
    assert issues == []
    assert [t.id for t in tracks] == ["AL092011", "EP011949"]
    assert [t.name for t in tracks] == ["IRENE", "UNNAMED"]
    assert len(tracks[0]) == 3 and len(tracks[1]) == 2


def test_parse_sign_conventions():
    tracks, _ = hurdat2_parse(SAMPLE)
    irene = tracks[0]
    assert irene.lats[0] == 15.0  # N positive
    assert irene.lons[0] == -59.0  # W negative
    text = "AL011900, TEST, 1,\n19000101, 0000,  , TS, 10.0S, 20.0E, 0, 0,\n"
    tracks, issues = hurdat2_parse(text)
    assert issues == []
    assert tracks[0].lats[0] == -10.0
    assert tracks[0].lons[0] == 20.0


def test_parse_empty_input():
    tracks, issues = hurdat2_parse("")
    assert tracks == [] and issues == []


def test_parse_count_mismatch_names_header_line():
    text = (
        "AL092011, IRENE, 3,\n"
        "20110821, 0000,  , TS, 15.0N, 59.0W, 45, 1006,\n"
        "20110821, 0600,  , TS, 16.0N, 60.5W, 45, 1005,\n"
    )
    tracks, issues = hurdat2_parse(text)
    assert len(tracks) == 1 and len(tracks[0]) == 2
    assert len(issues) == 1
    assert "line 1" in issues[0] and "AL092011" in issues[0]
    assert "3" in issues[0] and "2" in issues[0]


def test_parse_early_next_header_counts_as_mismatch():
    text = (
        "AL092011, IRENE, 3,\n"
        "20110821, 0000,  , TS, 15.0N, 59.0W, 45, 1006,\n"
        "EP011949, UNNAMED, 1,\n"
        "19490611, 0000,  , TS, 20.2N, 106.3W, 45, -999,\n"
    )
    tracks, issues = hurdat2_parse(text)
    assert [t.id for t in tracks] == ["AL092011", "EP011949"]
    assert len(issues) == 1 and "line 1" in issues[0]


def test_parse_bad_latlon_drops_row_with_diagnostic():
    text = (
        "AL092011, IRENE, 2,\n"
        "20110821, 0000,  , TS, 15.0X, 59.0W, 45, 1006,\n"
        "20110821, 0600,  , TS, 16.0N, 60.5W, 45, 1005,\n"
    )
    tracks, issues = hurdat2_parse(text)
    assert len(tracks[0]) == 1
    assert len(issues) == 1 and "line 2" in issues[0] and "latitude" in issues[0]


def test_parse_non_increasing_timestamp_dropped():
    text = (
        "AL092011, IRENE, 2,\n"
        "20110821, 0600,  , TS, 15.0N, 59.0W, 45, 1006,\n"
        "20110821, 0600,  , TS, 16.0N, 60.5W, 45, 1005,\n"
    )
    tracks, issues = hurdat2_parse(text)
    assert len(tracks[0]) == 1
    assert len(issues) == 1 and "line 3" in issues[0]


def test_parse_extra_rows_reported():
    text = (
        "AL092011, IRENE, 1,\n"
        "20110821, 0000,  , TS, 15.0N, 59.0W, 45, 1006,\n"
        "20110821, 0600,  , TS, 16.0N, 60.5W, 45, 1005,\n"
    )
    tracks, issues = hurdat2_parse(text)
    assert len(tracks[0]) == 1
    assert len(issues) == 1 and "line 3" in issues[0]


def test_parse_row_outside_block():
    text = "20110821, 0000,  , TS, 15.0N, 59.0W, 45, 1006,\n"
    tracks, issues = hurdat2_parse(text)
    assert tracks == []
    assert len(issues) == 1 and "line 1" in issues[0]



HEADER = "AL092011, IRENE, 1,\n"
ROW = "20110821, 0600,  , TS, {lat}, {lon}, 45, 1006,\n"


@pytest.mark.parametrize(
    "text, issue",
    [
        ("AL092011, IRENE, 3,\n" + ROW.format(lat="15.0N", lon="59.0W"),
         "line 1: header AL092011 declares 3 rows, found 1"),
        ("AL092011, IRENE, -1,\n", "line 1: header AL092011 declares -1 rows, found 0"),
        ("AL092011, IRENE\n", "line 1: header AL092011 is missing fields"),
        ("AL092011, IRENE, x,\n", "line 1: header AL092011 has a non-integer row count 'x'"),
        (ROW.format(lat="15.0N", lon="59.0W"), "line 1: data row outside any storm block"),
        (HEADER + 2 * ROW.format(lat="15.0N", lon="59.0W"),
         "line 3: data row beyond the declared count for header AL092011"),
        (HEADER + "20110821, 0600,  , TS\n",
         "line 2: row dropped (expected at least 6 fields, got 4)"),
        (HEADER + ROW.format(lat="15.0W", lon="59.0W"), "line 2: row dropped (bad latitude '15.0W')"),
        (HEADER + ROW.format(lat="90.5S", lon="59.0W"), "line 2: row dropped (bad latitude '90.5S')"),
        (HEADER + ROW.format(lat="-5N", lon="59.0W"), "line 2: row dropped (bad latitude '-5N')"),
        (HEADER + ROW.format(lat="15.0N", lon="59.0N"),
         "line 2: row dropped (bad longitude '59.0N')"),
        ("AL092011, IRENE, 2,\n" + 2 * ROW.format(lat="15.0N", lon="59.0W"),
         "line 3: row dropped (timestamp 20110821 0600 not increasing)"),
    ],
)
def test_parse_diagnostic_text(text, issue):
    assert hurdat2_parse(text)[1] == [issue]

def test_parse_dateline_wrap():
    text = "CP011900, TEST, 1,\n19000101, 0000,  , TS, 10.0N, 200.0W, 0, 0,\n"
    tracks, issues = hurdat2_parse(text)
    assert issues == []
    assert tracks[0].lons[0] == pytest.approx(160.0)


# ----------------------------------------------------------- track to field


def _patch_mesh(n_theta=12, n_psi=20, eps=0.25):
    cloud, _, _ = sample_sphere_patch(n_theta, n_psi)
    skeleton = epsilon_graph(cloud, eps)
    frames = tangent_frames(cloud, skeleton, d=2, eps=eps)
    return cloud, frames


def _track_from_latlon(lats, lons, storm="SY012020", name="SYNTH"):
    from datetime import datetime, timedelta

    base = datetime(2020, 1, 1)
    times = tuple(base + timedelta(hours=6 * k) for k in range(len(lats)))
    return StormTrack(
        id=storm,
        name=name,
        times=times,
        lats=np.asarray(lats, dtype=float),
        lons=np.asarray(lons, dtype=float),
    )


def test_track_too_short_rejected():
    cloud, frames = _patch_mesh()
    track = _track_from_latlon([15.0], [-59.0])
    with pytest.raises(FormatError):
        track_to_field(track, frames, cloud)


def test_two_sample_track_single_node():
    cloud, frames = _patch_mesh()
    track = _track_from_latlon([20.0, 22.0], [-30.0, -32.0])
    field = track_to_field(track, frames, cloud)
    support = np.flatnonzero(np.linalg.norm(field, axis=1) > 1e-12)
    assert support.size == 1
    base = sphere_point(np.deg2rad(20.0), -np.deg2rad(-30.0))
    expected_node = np.argmin(np.linalg.norm(cloud - base, axis=1))
    assert support[0] == expected_node


def test_stationary_track_zero_field():
    cloud, frames = _patch_mesh()
    track = _track_from_latlon([20.0, 20.0, 20.0], [-30.0, -30.0, -30.0])
    field = track_to_field(track, frames, cloud)
    assert np.abs(field).max() == 0.0


def test_great_circle_track_aligns_with_analytic_tangent():
    # meridian of constant longitude: heading due north, analytic tangent
    # is the unit latitude-derivative of the parameterization
    cloud, frames = _patch_mesh(n_theta=24, n_psi=40, eps=0.12)
    lats = np.linspace(12.0, 60.0, 40)
    lons = np.full_like(lats, -45.0)
    track = _track_from_latlon(lats, lons)
    field = track_to_field(track, frames, cloud)
    lifted = lift_to_ambient(frames, field)
    support = np.flatnonzero(np.linalg.norm(lifted, axis=1) > 1e-12)
    assert support.size >= 10
    cos = []
    lon = np.deg2rad(-45.0)
    for i in support:
        x, y, z = cloud[i]
        lat = np.arcsin(np.clip(z, -1, 1))
        analytic = np.array(
            [-np.sin(lat) * np.cos(lon), -np.sin(lat) * np.sin(lon), np.cos(lat)]
        )
        v = lifted[i] / np.linalg.norm(lifted[i])
        cos.append(float(v @ analytic))
    assert np.mean(cos) >= 0.9


def test_average_order_flag_changes_only_scale_for_aligned_hits():
    cloud, frames = _patch_mesh()
    track = _track_from_latlon([20.0, 25.0, 30.0], [-40.0, -40.0, -40.0])
    f1 = track_to_field(track, frames, cloud, normalize_before_average=True)
    f2 = track_to_field(track, frames, cloud, normalize_before_average=False)
    s1 = np.flatnonzero(np.linalg.norm(f1, axis=1) > 1e-12)
    s2 = np.flatnonzero(np.linalg.norm(f2, axis=1) > 1e-12)
    assert np.array_equal(s1, s2)
    for i in s1:
        c = f1[i] @ f2[i] / (np.linalg.norm(f1[i]) * np.linalg.norm(f2[i]))
        assert c >= 0.99
