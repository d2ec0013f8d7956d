"""Seeded inputs for the benchmark workloads.

Everything here is written by the benchmark itself, so the program under
test receives only generated files: a sphere-patch point cloud, a HURDAT2
archive of synthetic storms from two track families, and, for the flat
workload, a connection graph with a flat connection and its fields.
"""

from __future__ import annotations

import json

import numpy as np

#: North-Atlantic window of the hurricane pipeline: latitude 7..67 N and
#: west-positive azimuth -30..120 degrees (longitude 30 E .. 120 W).
LAT_RANGE = (7.0, 67.0)
PSI_RANGE = (-30.0, 120.0)


def sphere_point(lat_deg, lon_deg):
    """Unit-sphere point of an east-positive longitude, shape (..., 3)."""
    lat = np.deg2rad(np.asarray(lat_deg, dtype=float))
    lon = np.deg2rad(np.asarray(lon_deg, dtype=float))
    return np.stack(
        [np.cos(lat) * np.cos(lon), np.cos(lat) * np.sin(lon), np.sin(lat)], axis=-1
    )


def sphere_patch(n_lat, n_lon):
    """Inclusive lat/lon grid over the window, latitude-major, shape (n, 3)."""
    lat = np.linspace(np.deg2rad(LAT_RANGE[0]), np.deg2rad(LAT_RANGE[1]), n_lat)
    psi = np.linspace(np.deg2rad(PSI_RANGE[0]), np.deg2rad(PSI_RANGE[1]), n_lon)
    tt, pp = np.meshgrid(lat, psi, indexing="ij")
    tt, pp = tt.reshape(-1), pp.reshape(-1)
    return np.stack(
        [np.cos(tt) * np.cos(-pp), np.cos(tt) * np.sin(-pp), np.sin(tt)], axis=-1
    )


def write_points(path, cloud):
    with open(path, "w", encoding="utf-8") as fh:
        for row in cloud:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


# --------------------------------------------------------------- storms

#: Two track families: Cape Verde storms that run west-north-west and
#: recurve to the north-east, and Caribbean storms that run north-west
#: into the Gulf.  Genesis (lat, lon) and per-fix drift and bend, degrees.
FAMILIES = {
    "recurve": {"start": (12.0, -40.0), "step": (1.2, -4.5), "bend": (0.25, 0.55)},
    "gulf": {"start": (16.0, -70.0), "step": (2.4, -2.8), "bend": (0.15, 0.2)},
}


def storm_tracks(rng, count, fixes, n_lat, n_lon, shift_deg=(1.5, 2.0)):
    """``count`` storms alternating over the two families, on the grid of
    :func:`sphere_patch` ``(n_lat, n_lon)``.

    Storm ``k`` follows a fixed path of its family, shifted north and west
    by ``shift_deg`` for each earlier storm of the family; its
    six-hourly fixes sit on distinct grid nodes, rounded to 0.1 degree as in
    HURDAT2, and the seed moves the whole track by -0.1, 0 or +0.1 degree in
    latitude and in longitude.  The nodes a storm visits therefore do not
    depend on the seed, and the work of solving between two storms depends
    on it only slightly: moving single fixes instead turns step directions
    by degrees and changes the epochs to a tolerance by up to 10 %.

    Returns a list of ``(storm_id, family, lats, lons)``.
    """
    dlat = (LAT_RANGE[1] - LAT_RANGE[0]) / (n_lat - 1)
    dlon = (PSI_RANGE[1] - PSI_RANGE[0]) / (n_lon - 1)
    lon_min = -PSI_RANGE[1]
    families = list(FAMILIES)
    tracks = []
    for k in range(count):
        fam = families[k % len(families)]
        spec = FAMILIES[fam]
        shift = k // len(families)
        t = np.arange(fixes, dtype=float)
        lat = spec["start"][0] + shift_deg[0] * (shift % 7) + spec["step"][0] * t \
            + spec["bend"][0] * t * t
        lon = spec["start"][1] - shift_deg[1] * (shift % 11) + spec["step"][1] * t \
            + spec["bend"][1] * t * t
        i = np.clip(np.rint((lat - LAT_RANGE[0]) / dlat), 0, n_lat - 1).astype(int)
        j = np.clip(np.rint((lon - lon_min) / dlon), 0, n_lon - 1).astype(int)
        keep = np.ones(fixes, dtype=bool)
        keep[1:] = (np.diff(i) != 0) | (np.diff(j) != 0)
        i, j = i[keep], j[keep]
        jitter = 0.1 * rng.integers(-1, 2, size=(2, 1))
        lats = np.round(LAT_RANGE[0] + i * dlat, 1) + jitter[0]
        lons = np.round(lon_min + j * dlon, 1) + jitter[1]
        storm_id = f"AL{k % 30 + 1:02d}{1950 + k // 30}"
        tracks.append((storm_id, fam, lats, lons))
    return tracks


def _coord(value, pos, neg):
    return f"{abs(value):.1f}{pos if value >= 0 else neg}"


def hurdat2_text(tracks):
    """HURDAT2 text: one header per storm and one row per six-hourly fix."""
    lines = []
    for storm_id, fam, lats, lons in tracks:
        year = int(storm_id[4:])
        lines.append(f"{storm_id}, {fam.upper()}, {len(lats)},")
        for h, (lat, lon) in enumerate(zip(lats, lons)):
            day, hour = 1 + (6 * h) // 24, (6 * h) % 24
            lines.append(
                f"{year}08{day:02d}, {hour:02d}00,  , TS, "
                f"{_coord(lat, 'N', 'S')}, {_coord(lon, 'E', 'W')}, 45, 1000,"
            )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------- flat graphs


def random_rotations(rng, n, d):
    """``n`` Haar-random d x d rotations (determinant +1)."""
    q, r = np.linalg.qr(rng.normal(size=(n, d, d)))
    q = q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    flip = np.linalg.det(q) < 0
    q[flip, :, 0] *= -1.0
    return q


def write_graph(path, n, d, pairs, weights, sigmas):
    """Graph JSON in the program's documented format."""
    edges = [
        {"i": int(i), "j": int(j), "w": float(w), "sigma": [float(x) for x in s.reshape(-1)]}
        for (i, j), w, s in zip(pairs, weights, sigmas)
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"n": n, "d": d, "edges": edges}, fh)


def write_field(path, values):
    values = np.asarray(values, dtype=float)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"n": values.shape[0], "d": values.shape[1], "values": values.tolist()}, fh)


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
