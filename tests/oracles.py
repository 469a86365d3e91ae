"""Independent oracles used to cross-check the library implementations.

Everything here is deliberately written with a different method than the
code under test: explicit Gaussian elimination instead of lstsq, per-window
polynomial fits instead of convolution kernels, permutation enumeration
instead of coalition weights, scipy tail functions instead of the library's
own special functions. They share one rule with the library: whether a
follower closes on its leader is ``surrogate.closes``, so that the rule
changes in one place.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from netsafety.surrogate import closes


def gaussian_elimination_solve(a, b):
    """Solve a @ x = b by elimination with partial pivoting (no numpy.linalg)."""
    a = [list(map(float, row)) for row in np.asarray(a)]
    b = [float(v) for v in np.asarray(b)]
    n = len(a)
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(a[r][col]))
        if abs(a[pivot][col]) < 1e-14:
            raise ZeroDivisionError("singular system")
        a[col], a[pivot] = a[pivot], a[col]
        b[col], b[pivot] = b[pivot], b[col]
        for r in range(col + 1, n):
            factor = a[r][col] / a[col][col]
            for c in range(col, n):
                a[r][c] -= factor * a[col][c]
            b[r] -= factor * b[col]
    x = [0.0] * n
    for r in range(n - 1, -1, -1):
        s = b[r] - sum(a[r][c] * x[c] for c in range(r + 1, n))
        x[r] = s / a[r][r]
    return np.array(x)


def ols_oracle(x, y):
    """OLS via explicit normal equations + hand R2/adjR2/F; p-value from scipy."""
    from scipy import stats as st

    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    design = np.column_stack([np.ones(len(y)), x])
    n, p = design.shape
    beta = gaussian_elimination_solve(design.T @ design, design.T @ y)
    yhat = design @ beta
    tss = float(np.sum((y - y.mean()) ** 2))
    rss = float(np.sum((y - yhat) ** 2))
    r2 = float(np.sum((yhat - y.mean()) ** 2)) / tss
    adj = 1 - (1 - r2) * (n - 1) / (n - p)
    f = ((tss - rss) / (p - 1)) / (rss / (n - p))
    return {
        "beta": beta,
        "r2": r2,
        "adj_r2": adj,
        "f": f,
        "p": float(st.f.sf(f, p - 1, n - p)),
    }


def fill_gaps_oracle(frames, boxes, max_gap):
    """Per-point gap fill: each missing frame f between prev and next rows gets
    ``prev + w * (next - prev)`` with ``w = (f - prev) / (next - prev)``, corners
    then reordered so x1 <= x2 and y1 <= y2; longer gaps are flagged."""
    frames = [int(f) for f in frames]
    rows = [tuple(map(float, b)) for b in np.asarray(boxes)]
    out_frames, out_rows, flagged = [frames[0]], [rows[0]], []
    for (pf, prev), (nf, nxt) in zip(zip(frames, rows), zip(frames[1:], rows[1:])):
        if 0 < nf - pf - 1 <= max_gap:
            for f in range(pf + 1, nf):
                w = (f - pf) / (nf - pf)
                x1, y1, x2, y2 = (p + w * (n - p) for p, n in zip(prev, nxt))
                lo_x, hi_x = (x2, x1) if x1 > x2 else (x1, x2)
                lo_y, hi_y = (y2, y1) if y1 > y2 else (y1, y2)
                out_frames.append(f)
                out_rows.append((lo_x, lo_y, hi_x, hi_y))
        elif nf - pf - 1 > max_gap:
            flagged.append((pf, nf))
        out_frames.append(nf)
        out_rows.append(nxt)
    return out_frames, out_rows, flagged


def sg_window_fit_oracle(series, window, order):
    """Savitzky-Golay by definition: polynomial LSQ per window, polynomial edges."""
    series = np.asarray(series, dtype=float)
    n = series.size
    half = window // 2
    out = np.empty(n)
    for i in range(n):
        if i < half:
            lo, hi, at = 0, window, i
        elif i >= n - half:
            lo, hi, at = n - window, n, i - (n - window)
        else:
            lo, hi, at = i - half, i + half + 1, half
        t = np.arange(hi - lo, dtype=float)
        coef = np.polynomial.polynomial.polyfit(t, series[lo:hi], order)
        out[i] = np.polynomial.polynomial.polyval(float(at), coef)
    return out


def shapley_permutation_oracle(n_players, value_fn):
    """Shapley by averaging marginal contributions over all n! orderings."""
    totals = [0.0] * n_players
    count = 0
    for perm in itertools.permutations(range(n_players)):
        count += 1
        seen = frozenset()
        for player in perm:
            totals[player] += value_fn(seen | {player}) - value_fn(seen)
            seen = seen | {player}
    return [t / count for t in totals]


def pairwise_ttc_oracle(positions, speeds):
    """Per follower: nearest downstream vehicle at lower-or-equal speed, TTC if closing.

    Mirrors the plain two-vehicle formula, selecting the leader by brute
    force over downstream candidates.
    """
    out = {}
    for i, (p_i, v_i) in enumerate(zip(positions, speeds)):
        best = None
        for j, (p_j, v_j) in enumerate(zip(positions, speeds)):
            if j == i or p_j <= p_i or closes(v_j, v_i):
                continue
            if best is None or p_j < positions[best]:
                best = j
        if best is not None and closes(v_i, speeds[best]):
            out[i] = (positions[best] - p_i) / (v_i - speeds[best])
    return out


def _union_find_labels(px, py, threshold):
    """Connected-component labels under pairwise Euclidean distance <= threshold,
    from the full distance matrix and a union-find over its edges."""
    n = px.size
    parent = np.arange(n)

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    d2 = (px[:, None] - px[None, :]) ** 2 + (py[:, None] - py[None, :]) ** 2
    ii, jj = np.nonzero(np.triu(d2 <= threshold * threshold, k=1))
    for i, j in zip(ii.tolist(), jj.tolist()):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    return np.array([find(i) for i in range(n)], dtype=int)


def _cttc_from_arrays(axis_pos, axis_vel):
    """Cluster TTCs by a double loop: each cluster scans downstream in position
    order for the first strictly-ahead cluster moving no faster."""
    order = np.argsort(axis_pos, kind="stable")
    p = axis_pos[order]
    v = axis_vel[order]
    values = []
    n = p.size
    for i in range(n - 1):
        v_i = v[i]
        for j in range(i + 1, n):
            if p[j] <= p[i]:  # co-located cluster is not downstream
                continue
            if not closes(v[j], v_i):
                if closes(v_i, v[j]):
                    values.append(float((p[j] - p[i]) / (v_i - v[j])))
                break
    return values


def single_linkage_bfs_oracle(px, py, threshold):
    """Components by breadth-first search over all pairs: one set of row indices per component."""
    n = len(px)
    seen = [False] * n
    parts = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        part, queue = [start], [start]
        while queue:
            i = queue.pop()
            for j in range(n):
                if not seen[j] and (px[i] - px[j]) ** 2 + (py[i] - py[j]) ** 2 <= threshold * threshold:
                    seen[j] = True
                    part.append(j)
                    queue.append(j)
        parts.append(frozenset(part))
    return set(parts)


def ttc_cv_oracle(frames):
    """``ttc_cv`` one frame at a time: per frame with 2+ values, std(ddof=1) / mean * rho; their mean."""
    per_frame = []
    for f in frames:
        if len(f.cttc_values) >= 2:
            vals = np.asarray(f.cttc_values, dtype=float)
            per_frame.append(float(vals.std(ddof=1) / vals.mean() * (f.n_vehicles / f.n_clusters)))
    return float(np.mean(per_frame)) if per_frame else None


def ivvr_oracle(speeds_by_vehicle):
    """``ivvr`` one vehicle at a time, each mean by np.mean; warns as ``ivvr`` does."""
    import warnings

    terms, excluded = [], []
    for vid, speeds in speeds_by_vehicle.items():
        arr = np.asarray(speeds, dtype=float)
        if arr.size < 2:
            continue
        v_av = arr.mean()
        if v_av <= 0:
            excluded.append(vid)
            continue
        terms.append(float((arr.max() - arr.min()) / v_av))
    if excluded:
        warnings.warn(f"ivvr: excluded vehicles with zero mean speed: {excluded}", stacklevel=2)
    return float(np.mean(terms)) if terms else None


def ovvr_oracle(speeds_by_vehicle):
    """``ovvr`` one vehicle at a time, each mean by np.mean."""
    means = [float(np.mean(speeds)) for speeds in speeds_by_vehicle.values() if len(speeds) > 0]
    if not means:
        return None
    fleet = float(np.mean(means))
    if fleet <= 0:
        return None
    return float(np.mean([abs(m - fleet) / fleet for m in means]))


def osr_oracle(max_speed_by_vehicle, speed_limit, thresholds=(1.0,)):
    """``osr`` by one comparison per vehicle and threshold."""
    ratios = np.array([v / speed_limit for v in max_speed_by_vehicle.values()])
    return {float(theta): float(np.mean(ratios > theta)) for theta in thresholds}


def tci_oracle(class_counts):
    """``tci`` and class shares from the counts of one interval."""
    counts = np.array([class_counts[c] for c in class_counts], dtype=float)
    total = counts.sum()
    value = float(total * total / (len(counts) * np.sum(counts * counts)))
    return value, {name: float(class_counts[name] / total) for name in class_counts}


@dataclass
class MetricsRow:
    """One (segment, interval) row of network-level metrics, None marking an absent value.

    The row form of a ``MetricsTable``, which the oracles build and tests read:
    ``metrics_rows`` and ``metrics_table_of`` convert between the two."""

    segment_id: str
    t_start: float
    t_end: float
    ttc_cv: float | None = None
    ivvr: float | None = None
    ovvr: float | None = None
    osr: dict[float, float] = field(default_factory=dict)
    tci: float | None = None
    f_truck: float | None = None
    ntc: float | None = None
    trt: float | None = None
    n_vehicles: int = 0
    coverage: float | None = 0.0
    e_ttc: float | None = None


_ROW_METRICS = ("ttc_cv", "ivvr", "ovvr", "tci", "f_truck", "ntc", "trt", "coverage", "e_ttc")


def metrics_rows(table):
    """A ``MetricsTable`` as one ``MetricsRow`` per row, cell by cell."""
    def cells(name):
        return [None if math.isnan(v) else v for v in table.columns[name].tolist()]

    osr = {theta: cells(f"osr_{theta!r}") for theta in table.thresholds}
    metrics = {name: cells(name) for name in _ROW_METRICS}
    return [
        MetricsRow(sid, t0, t1, osr={theta: v[i] for theta, v in osr.items() if v[i] is not None},
                   n_vehicles=n, **{name: v[i] for name, v in metrics.items()})
        for i, (sid, t0, t1, n) in enumerate(zip(table.segment_id.tolist(), table.columns["interval_start"].tolist(),
                                                 table.columns["interval_end"].tolist(),
                                                 table.columns["n_vehicles"].tolist()))
    ]


def metrics_table_of(rows, thresholds=(1.0,)):
    """``MetricsRow`` rows as a ``MetricsTable`` of the given osr thresholds, cell by cell."""
    from netsafety.network_metrics import MetricsTable

    def cells(values):
        return [math.nan if v is None else v for v in values]

    columns = {name: cells(getattr(r, name) for r in rows) for name in _ROW_METRICS}
    columns.update({f"osr_{float(t)!r}": cells(r.osr.get(t) for r in rows) for t in thresholds})
    return MetricsTable.build([r.segment_id for r in rows], thresholds, interval_start=[r.t_start for r in rows],
                              interval_end=[r.t_end for r in rows], n_vehicles=[r.n_vehicles for r in rows], **columns)


def prepared_run(vehicle_id, vclass, length_m, frames, t, x, y, vx, vy):
    """One hand-made run of one vehicle as a one-run ``trajectories.PreparedTracks`` table."""
    from netsafety.trajectories import PreparedTracks

    frames = np.asarray(frames, dtype=np.int64)
    return PreparedTracks([vehicle_id], [vclass], np.array([length_m], dtype=float), np.zeros(1, dtype=int),
                          np.array([0, frames.size]), frames, *(np.asarray(a, dtype=float) for a in (t, x, y, vx, vy)))


def _first_runs(runs) -> dict:
    """Each vehicle id's first run, keyed in order of first appearance."""
    first = {}
    for run in runs:
        first.setdefault(run.vehicle_ids[0], run)
    return first


def prepared_tracks_of(runs):
    """One-run tables, in order, as one ``trajectories.PreparedTracks`` table.

    Vehicles are coded by id in order of first appearance, each with the length and class of its first run.
    """
    from netsafety.trajectories import PreparedTracks

    runs = list(runs)
    first = _first_runs(runs)
    code_of = {vid: code for code, vid in enumerate(first)}

    def column(name, dtype=float):
        return np.concatenate([np.zeros(0, dtype)] + [getattr(run, name) for run in runs])

    return PreparedTracks(list(first), [run.classes[0] for run in first.values()],
                          np.array([run.lengths[0] for run in first.values()], dtype=float),
                          np.array([code_of[run.vehicle_ids[0]] for run in runs], dtype=int),
                          np.cumsum([0] + [run.frames.size for run in runs]), column("frames", np.int64),
                          column("t"), column("x"), column("y"), column("vx"), column("vy"))


def sample_table_oracle(tracks, travel_axis):
    """``SampleTable.build`` by concatenating the table's runs one at a time.

    Vehicles are coded by id in order of first appearance among the runs, each with the length and class of its
    first run; rows are sorted by frame, in run order within a frame.
    """
    from netsafety.network_metrics import SampleTable

    ux, uy = travel_axis
    runs = list(tracks)
    first = _first_runs(runs)
    code_of = {vid: code for code, vid in enumerate(first)}
    frame = np.concatenate([np.zeros(0, dtype=int)] + [run.frames for run in runs])
    order = np.argsort(frame, kind="stable")

    def column(values):
        return np.concatenate([np.zeros(0)] + [values(run) for run in runs])[order]

    x, y = column(lambda run: run.x), column(lambda run: run.y)
    return SampleTable(
        frame=frame[order], x=x, y=y, axis_pos=x * ux + y * uy, speed=column(lambda run: run.speed),
        axis_speed=column(lambda run: run.vx) * ux + column(lambda run: run.vy) * uy,
        vid_code=np.repeat([code_of[run.vehicle_ids[0]] for run in runs], [run.frames.size for run in runs])[order],
        vids=list(first), lengths=np.array([run.lengths[0] for run in first.values()]),
        classes=[run.classes[0] for run in first.values()],
    )


def interval_metrics_oracle(tracks, segment, cluster_cfg, fps, windows, trt_cfg):
    """``compute_interval_metrics`` by a loop over each window's frames.

    Per frame: length total and mean speed; at a refresh, union-find labels of
    the frame's vehicles; then per-frame cluster centroids/velocities by
    ``np.bincount`` over the vehicles' labels (unseen vehicles ride alone under
    ``-code - 1``), cluster TTCs by ``_cttc_from_arrays`` or toward the
    collision point, and ``ttc_cv_oracle`` over the frames. Per window: the
    speed and composition metrics from its vehicles' speeds by the per-vehicle
    ``ivvr_oracle``, ``ovvr_oracle``, ``osr_oracle`` and ``tci_oracle``.
    """
    from netsafety import network_metrics as nm

    def cluster_values(axis_pos, axis_vel):
        if segment.collision_point is None:
            return _cttc_from_arrays(axis_pos, axis_vel)
        ux, uy = segment.unit_axis
        point = segment.collision_point[0] * ux + segment.collision_point[1] * uy
        return [float((point - p) / v) for p, v in zip(axis_pos, axis_vel) if v > 0 and point > p]

    table = sample_table_oracle(tracks, segment.unit_axis)
    results = []
    have_data = table.frame.size > 0
    free_flow = trt_cfg.free_flow
    if have_data:
        fmin, fmax = int(table.frame[0]), int(table.frame[-1])
        if free_flow is None:
            free_flow = table.free_flow_speed()
        follower, leader, _, _, ttc = table.leader_pairs()
        closing = closes(table.axis_speed[follower], table.axis_speed[leader])
        pair_frame = table.frame[follower[closing]]
        pair_ttc = ttc[closing]
    stride = max(1, round(fps / cluster_cfg.membership_rate))
    for t0, t1 in windows:
        f0 = math.ceil(t0 * fps - 1e-9)
        f1 = math.ceil(t1 * fps - 1e-9)
        row = MetricsRow(segment_id=segment.segment_id, t_start=t0, t_end=t1)
        results.append(row)
        if not have_data:
            continue
        lo, hi = max(f0, fmin), min(f1, fmax + 1)
        row.coverage = max(0, hi - lo) / (f1 - f0)
        if hi <= lo:
            continue
        left, right = np.searchsorted(table.frame, (lo, hi))
        sl_w = slice(left, right)
        frame, x, y = table.frame[sl_w], table.x[sl_w], table.y[sl_w]
        axis_pos, speed = table.axis_pos[sl_w], table.speed[sl_w]
        axis_speed, code = table.axis_speed[sl_w], table.vid_code[sl_w]

        rows_of = nm.index_groups(code)
        speeds_by_vehicle = {table.vids[c]: speed[rows] for c, rows in rows_of.items()}
        row.n_vehicles = len(rows_of)
        if row.n_vehicles:
            row.ivvr = ivvr_oracle(speeds_by_vehicle)
            row.ovvr = ovvr_oracle(speeds_by_vehicle)
            row.osr = osr_oracle({v: float(s.max()) for v, s in speeds_by_vehicle.items()},
                                 segment.speed_limit, segment.osr_thresholds)
            counts = {vc.value: 0 for vc in nm.VEHICLE_CLASSES}
            for c in rows_of:
                counts[table.classes[c].value] += 1
            row.tci, shares = tci_oracle(counts)
            row.f_truck = shares[nm.VehicleClass.TRUCK.value]

        frame_totals = np.zeros(hi - lo)
        present, fstarts = np.unique(frame, return_index=True)
        fbounds = np.append(fstarts, frame.size)
        series, per_frame = [], []
        label_of = {}
        next_refresh = lo
        for i, f in enumerate(present):
            sl = slice(fstarts[i], fbounds[i + 1])
            codes_f = code[sl]
            frame_totals[int(f) - lo] = table.lengths[codes_f].sum()
            series.append((f / fps, float(speed[sl].mean())))
            if f >= next_refresh:
                labels = _union_find_labels(x[sl], y[sl], cluster_cfg.distance_threshold)
                label_of = {int(c): int(lbl) for c, lbl in zip(codes_f, labels)}
                next_refresh = f + stride
            frame_labels = np.array([label_of.get(int(c), -int(c) - 1) for c in codes_f])
            uniq, inv = np.unique(frame_labels, return_inverse=True)
            counts = np.bincount(inv)
            values = cluster_values(np.bincount(inv, weights=axis_pos[sl]) / counts,
                                    np.bincount(inv, weights=axis_speed[sl]) / counts)
            per_frame.append(nm.FrameClusterTTC(int(f), values, codes_f.size, uniq.size))
        row.ttc_cv = ttc_cv_oracle(per_frame)
        row.ntc = nm.ntc(frame_totals, segment.lane_count, segment.length_m)
        p0, p1 = np.searchsorted(pair_frame, (lo, hi))
        if p1 > p0:
            row.e_ttc = float(pair_ttc[p0:p1].mean())
        if free_flow is not None and series:
            row.trt = nm.trt(nm.detect_congestion_events(series, free_flow, trt_cfg.theta, trt_cfg.t_min_seconds))
    return results


def ssm_rows_oracle(tracks, travel_axis, fps):
    """The ``ssm`` CSV by a per-pair loop over scalar surrogate functions.

    Per frame, vehicles sorted by (axis position, vehicle id) pair with the
    next one downstream when strictly ahead; each pair gets ``PairState`` +
    ``surrogate.ttc``/``drac``, and PET from one ``np.interp`` on the leader's
    passage curve (axis position made monotone over its whole track, against
    time).
    """
    from netsafety.surrogate import PairState, drac, pet, ttc

    ux, uy = travel_axis
    by_frame: dict[int, list] = {}
    passage: dict[str, tuple[list, list]] = {}
    for tr in tracks:
        (vid,) = tr.vehicle_ids
        pos = (tr.x * ux + tr.y * uy).tolist()
        vel = (tr.vx * ux + tr.vy * uy).tolist()
        for frame, p, v in zip(tr.frames.tolist(), pos, vel):
            by_frame.setdefault(frame, []).append((p, vid, v))
        curve_pos, curve_t = passage.setdefault(vid, ([], []))
        curve_pos += pos
        curve_t += tr.t.tolist()
    curves = {vid: (np.maximum.accumulate(p), np.array(t)) for vid, (p, t) in passage.items()}

    rows = []
    for frame in sorted(by_frame):
        t = frame / fps
        ordered = sorted(by_frame[frame])
        for (x_f, id_f, v_f), (x_l, id_l, v_l) in zip(ordered, ordered[1:]):
            if x_l <= x_f:
                continue
            state = PairState(x_leader=x_l, x_follower=x_f, v_leader=v_l, v_follower=v_f)
            lead_pos, lead_t = curves[id_l]
            pet_v = None
            if lead_pos[0] <= x_f <= lead_pos[-1]:
                t_pass = float(np.interp(x_f, lead_pos, lead_t))
                if t_pass <= t:
                    pet_v = pet(t_pass, t)
            rows.append((t, id_f, id_l, ttc(state), drac(state), pet_v, state.gap(), v_f, v_l))
    header = ["t", "follower_id", "leader_id", "ttc", "drac", "pet", "gap", "v_follower", "v_leader"]
    return csv_rows_oracle(header, rows)


def csv_rows_oracle(header, rows):
    """A CSV table written one ``csv.writer`` row at a time, each cell through ``format_cell``."""
    import csv
    import io

    from netsafety.trajectories import format_cell

    # A CRLF terminator makes csv.writer quote a carriage return as well as a newline; each line then ends in LF.
    lines = []
    for row in [header, *([format_cell(v) for v in row] for row in rows)]:
        out = io.StringIO()
        csv.writer(out, lineterminator="\r\n").writerow(row)
        lines.append(out.getvalue()[:-2] + "\n")
    return "".join(lines)


def chi2_sf_oracle(x, df):
    from scipy import stats as st

    return float(st.chi2.sf(x, df))


def f_sf_oracle(f, d1, d2):
    from scipy import stats as st

    return float(st.f.sf(f, d1, d2))


def yates_chi2_oracle(table):
    """Hand Yates computation for a 2xC table + scipy tail."""
    table = np.asarray(table, dtype=float)
    row = table.sum(axis=1)
    col = table.sum(axis=0)
    total = table.sum()
    stat = 0.0
    for i in range(table.shape[0]):
        for j in range(table.shape[1]):
            e = row[i] * col[j] / total
            stat += max(abs(table[i, j] - e) - 0.5, 0.0) ** 2 / e
    df = (table.shape[0] - 1) * (table.shape[1] - 1)
    return stat, df, chi2_sf_oracle(stat, df)


def pearson_oracle(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    num = float(np.sum((x - x.mean()) * (y - y.mean())))
    den = math.sqrt(float(np.sum((x - x.mean()) ** 2)) * float(np.sum((y - y.mean()) ** 2)))
    return num / den


def kendall_pairs_oracle(x, y):
    """Kendall tau-a by a loop over the n(n-1)/2 pairs: concordant minus discordant, over the pair count."""
    n = len(x)
    total = 0
    for i in range(n):
        for j in range(i + 1, n):
            total += ((x[i] > x[j]) - (x[i] < x[j])) * ((y[i] > y[j]) - (y[i] < y[j]))
    return 2.0 * total / (n * (n - 1))


def shapley_oracle(d):
    """Shapley attribution of adjusted R-squared by one ``ols_fit`` per coalition.

    Returns ``(phi, values, degenerate)``: ``values`` maps each coalition
    (frozenset of column indices) to its adjusted R-squared, and a singular
    coalition takes the value of the greedy independent subset of its
    columns and is listed in ``degenerate`` in bitmask order.
    """
    from netsafety.errors import SingularDesignError
    from netsafety.stats.regression import Dataset, independent_columns, ols_fit

    values, degenerate = {}, []
    for mask in range(1 << d.m):
        idx = [i for i in range(d.m) if mask >> i & 1]
        coalition = frozenset(idx)
        if not idx:
            values[coalition] = 0.0
            continue
        try:
            values[coalition] = ols_fit(Dataset(d.x[:, idx], d.y, [d.predictor_names[i] for i in idx])).adj_r2
        except SingularDesignError:
            degenerate.append(coalition)
            cols = [idx[j] for j in independent_columns(d.x[:, idx])]
            sub = Dataset(d.x[:, cols], d.y, [d.predictor_names[i] for i in cols])
            values[coalition] = ols_fit(sub).adj_r2 if cols else 0.0
    fact = [math.factorial(i) for i in range(d.m + 1)]
    phi = []
    for i in range(d.m):
        total = 0.0
        for coalition, v in values.items():
            if i not in coalition:
                total += fact[len(coalition)] * fact[d.m - len(coalition) - 1] / fact[d.m] * (values[coalition | {i}] - v)
        phi.append(total)
    return phi, values, degenerate


def shapley_values_oracle(d):
    """``shapley_values`` with every coalition slice tested for rank, one SVD stack per coalition size.

    The same QR slices, rank test and attribution as the library, without its one-SVD
    shortcut for a full design that passes the test by a margin, so the two agree bit for bit.
    """
    from netsafety.errors import DataError
    from netsafety.stats.regression import Dataset, adjusted_r2, independent_columns, ols_fit
    from netsafety.stats.shapley import ShapleyReport, _members, _phi

    m, n = d.m, d.n
    r = np.linalg.qr(np.column_stack([np.ones(n), d.x, d.y]), mode="r")
    tss = float(np.sum((d.y - d.y.mean()) ** 2))
    values = np.zeros(1 << m)
    degenerate = []
    for k in range(1, m + 1):
        combos = np.array(list(itertools.combinations(range(m), k)))
        masks = (1 << combos).sum(axis=1)
        cols = np.hstack([np.zeros((len(combos), 1), int), combos + 1, np.full((len(combos), 1), m + 1)])
        slices = r[:, cols].transpose(1, 0, 2)
        sv = np.linalg.svd(slices[:, :, :-1], compute_uv=False)
        full = sv[:, -1] > sv[:, 0] * n * np.finfo(float).eps
        if full.any():
            if tss == 0:
                raise DataError("R-squared undefined: response is constant (TSS = 0)")
            ess = np.sum(np.linalg.qr(slices[full], mode="r")[:, 1:-1, -1] ** 2, axis=1)
            values[masks[full]] = adjusted_r2(ess / tss, n, k + 1)
        for combo, mask in zip(combos[~full], masks[~full]):
            cols = combo[independent_columns(d.x[:, combo])]
            sub = Dataset(d.x[:, cols], d.y, [d.predictor_names[i] for i in cols])
            values[mask] = ols_fit(sub).adj_r2 if cols.size else 0.0
            degenerate.append(int(mask))
    flagged = [_members(mask, m) for mask in sorted(degenerate)]
    return ShapleyReport(list(d.predictor_names), _phi(values, m), values, flagged)


def kfold_cv_oracle(x, y, k, seed, model_kind):
    """``kfold_cv`` fold by fold from the raw arrays, for the same seed's permutation dealt by ``array_split``.

    Each training set is sliced from ``x`` and ``y`` as a list of the other folds' rows, in fold order, and
    fitted with ``ols_fit`` or ``poisson_fit``. A fold whose fit raises DataError is skipped; one whose
    held-out response is constant counts for N-MSE only; adjusted R-squared needs more held-out rows than
    parameters. Returns the fields of the report that depend on the folds, the full-data ``beta``, and
    the message of each skip, in fold order.
    """
    from netsafety.errors import DataError
    from netsafety.stats.regression import Dataset, adjusted_r2, n_mse, ols_fit, poisson_fit, predict, r2_score

    fit = ols_fit if model_kind == "linear" else poisson_fit
    names = [f"x{j}" for j in range(x.shape[1])]
    folds = np.array_split(np.random.default_rng(seed).permutation(len(y)), k)
    p = x.shape[1] + 1
    r2s, adjs, nmses, notes = [], [], [], []
    for i, test in enumerate(folds):
        train = [row for j, fold in enumerate(folds) if j != i for row in fold]
        try:
            model = fit(Dataset(x[train], y[train], names))
        except DataError as exc:
            notes.append(f"fold {i} skipped: {exc}")
            continue
        yhat = predict(model, x[test])
        nmses.append(n_mse(y[test], yhat))
        if len(set(y[test].tolist())) == 1:
            notes.append(f"fold {i}: held-out response constant, no R-squared")
            continue
        r2s.append(r2_score(y[test], yhat))
        if len(test) > p:
            adjs.append(adjusted_r2(r2s[-1], len(test), p))
    mean = lambda vals: float(np.mean(vals)) if vals else None  # noqa: E731
    return {"r2": mean(r2s), "adj_r2": mean(adjs), "n_mse": mean(nmses), "folds_used": len(nmses),
            "beta": fit(Dataset(x, y, names)).beta, "notes": notes}


def pooled_abs_r_oracle(per_segment):
    """Cross-segment combination rows by stacking each subset's rows and correlating them.

    For every subset size, a list of ``(size, n_combinations, pooled,
    segment_mean)``: ``pooled`` maps each predictor to the mean over subsets of
    |r| on the subset's stacked rows, ``segment_mean`` to the mean over subsets
    of the mean per-segment |r|; subsets where |r| is undefined (fewer than two
    rows, or a constant column or response) are left out, and a predictor
    with no defined subset maps to None.
    """
    def abs_r(x, y):
        if x.size < 2 or np.all(x == x[0]) or np.all(y == y[0]):
            return None
        return abs(pearson_oracle(x, y))

    seg_ids = sorted(per_segment)
    names = per_segment[seg_ids[0]].predictor_names
    mean = lambda v: float(np.mean(v)) if v else None  # noqa: E731
    rows = []
    for size in range(1, len(seg_ids) + 1):
        combos = list(itertools.combinations(seg_ids, size))
        pooled, segment_mean = {}, {}
        for j, name in enumerate(names):
            pooled_r, seg_means = [], []
            for combo in combos:
                x = np.concatenate([per_segment[s].x[:, j] for s in combo])
                y = np.concatenate([per_segment[s].y for s in combo])
                if (r := abs_r(x, y)) is not None:
                    pooled_r.append(r)
                seg = [r for s in combo if (r := abs_r(per_segment[s].x[:, j], per_segment[s].y)) is not None]
                if seg:
                    seg_means.append(float(np.mean(seg)))
            pooled[name], segment_mean[name] = mean(pooled_r), mean(seg_means)
        rows.append((size, len(combos), pooled, segment_mean))
    return rows


def parse_trajectories_oracle(text, fps):
    """``parse_trajectories`` as one row loop: each row's cells by int()/float() in column order, then its checks.

    The vehicles come as ``(vehicle_id, frames, boxes)`` in order of first appearance.
    """
    from netsafety.errors import DataError, ParameterError, SchemaError
    from netsafety.trajectories import TRAJECTORY_COLUMNS, CsvRecords

    if fps <= 0:
        raise ParameterError(f"fps must be positive, got {fps}")
    rows = CsvRecords(text, TRAJECTORY_COLUMNS, "trajectory")
    i_frame, i_vid, *i_corners = (rows.col[c] for c in TRAJECTORY_COLUMNS)

    def refuse(line, column, cell, what):
        raise SchemaError(f"line {line}: column {column!r} is not {what}: {cell!r}")

    tracks: dict[str, tuple[list[int], list[float]]] = {}  # vehicle_id -> (frames, corners), first appearance first
    for line, row in rows:
        try:
            frame = int(row[i_frame])
        except ValueError:
            frame = None
        if frame is None or not -2**63 <= frame < 2**63:
            refuse(line, "frame", row[i_frame], "an integer")
        box = []
        for column, i in zip(TRAJECTORY_COLUMNS[2:], i_corners):
            try:
                box.append(float(row[i]))
            except ValueError:
                refuse(line, column, row[i], "a number")
            if not math.isfinite(box[-1]):
                refuse(line, column, row[i], "finite")
        x1, y1, x2, y2 = box
        if frame < 0:
            raise DataError(f"line {line}: negative frame index {frame}")
        vid = row[i_vid].strip()
        if not vid:
            raise SchemaError(f"line {line}: empty vehicle_id")
        track = tracks.get(vid)
        if track is None:
            track = tracks[vid] = ([], [])
        elif frame <= track[0][-1]:
            raise DataError(f"vehicle {vid!r}: non-monotone frame {frame} after {track[0][-1]} (line {line})")
        if x1 > x2:
            x1, x2 = x2, x1
        if y1 > y2:
            y1, y2 = y2, y1
        track[0].append(frame)
        track[1].extend((x1, y1, x2, y2))

    return [(vid, np.array(frames, dtype=np.int64), np.array(corners, dtype=float).reshape(-1, 4))
            for vid, (frames, corners) in tracks.items()]


def displacement_oracle(boxes):
    """A vehicle's net displacement: math.hypot of its first and last box centroids' difference."""
    (fx1, fy1, fx2, fy2), (lx1, ly1, lx2, ly2) = np.asarray(boxes)[[0, -1]].tolist()
    return math.hypot(0.5 * (lx1 + lx2) - 0.5 * (fx1 + fx2), 0.5 * (ly1 + ly2) - 0.5 * (fy1 + fy2))


def trajectory_table_of(vehicles, fps):
    """``(vehicle_id, frames, boxes)`` vehicles, in order, as one ``trajectories.Trajectory`` table."""
    from netsafety.trajectories import Trajectory

    sizes = [len(frames) for _, frames, _ in vehicles]
    return Trajectory([vid for vid, _, _ in vehicles], np.concatenate([[0], np.cumsum(sizes, dtype=np.int64)]),
                      np.array([f for _, frames, _ in vehicles for f in np.asarray(frames).tolist()], dtype=np.int64),
                      np.array([r for _, _, boxes in vehicles for r in np.asarray(boxes, dtype=float).tolist()],
                               dtype=float).reshape(-1, 4), fps)


def prepare_tracks_oracle(vehicles, fps, travel_axis, prep):
    """``prepare_tracks`` of ``(vehicle_id, frames, boxes)`` vehicles at ``fps``, one vehicle and one run at a time.

    ``prep`` is the TrackPrepConfig that both take. Per vehicle: the static filter by displacement_oracle, the gap
    fill by fill_gaps_oracle, the length by np.median of the box extents; per run: Savitzky-Golay by one
    np.correlate and two projection matvecs per corner, velocities by np.diff. The runs are joined by
    prepared_tracks_of.
    """
    from netsafety.trajectories import _sg_projection, classify_by_length

    sg_window, sg_order = prep.sg_window, prep.sg_order

    def smooth(arr):
        proj = _sg_projection(sg_window, sg_order)
        half = sg_window // 2
        out = np.empty_like(arr)
        out[half : arr.size - half] = np.correlate(arr, proj[half], mode="valid")
        out[:half] = proj[:half] @ arr[:sg_window]
        out[arr.size - half :] = proj[half + 1 :] @ arr[-sg_window:]
        return out

    ux, uy = travel_axis
    norm = math.hypot(ux, uy)
    ux, uy = ux / norm, uy / norm
    prepared = []
    for vid, frames, boxes in vehicles:
        if displacement_oracle(boxes) < prep.min_displacement_m or len(frames) < 2:
            continue
        filled_frames, rows, flagged = fill_gaps_oracle(frames, boxes, prep.max_gap_frames)
        filled_frames, b = np.array(filled_frames, dtype=np.int64), np.array(rows, dtype=float)
        length = float(np.median(np.abs((b[:, 2] - b[:, 0]) * ux) + np.abs((b[:, 3] - b[:, 1]) * uy)))
        vclass = classify_by_length(length, prep.class_threshold_m)
        cuts = np.searchsorted(filled_frames, [after for _, after in flagged]).tolist()
        for lo, hi in zip([0, *cuts], [*cuts, filled_frames.size]):
            if hi - lo < 2:
                continue
            run = filled_frames[lo:hi]
            corners = b[lo:hi]
            if run.size >= sg_window:
                corners = np.column_stack([smooth(corners[:, j]) for j in range(4)])
            cx = 0.5 * (corners[:, 0] + corners[:, 2])
            cy = 0.5 * (corners[:, 1] + corners[:, 3])
            dt = np.diff(run.astype(float)) / fps
            vx, vy = np.empty_like(cx), np.empty_like(cy)
            vx[1:], vy[1:] = np.diff(cx) / dt, np.diff(cy) / dt
            vx[0], vy[0] = vx[1], vy[1]
            prepared.append(prepared_run(vid, vclass, length, run, run / fps, cx, cy, vx, vy))
    return prepared_tracks_of(prepared)


def generate_trajectories_oracle(spec):
    """``synth.generate_trajectories`` one scalar draw and one row tuple at a time.

    Every vehicle draws its own jitter normal inside the car-following loop, the rows
    are sorted by (vehicle id, frame) with a key function, and each segment's text is
    written one ``csv.writer`` row at a time.
    """
    from netsafety.synth import (
        CAR_LENGTH_M,
        HEADWAY_S,
        LANE_WIDTH_M,
        MIN_SPAWN_GAP_M,
        SEGMENT_SPACING_M,
        TRUCK_LENGTH_M,
        VEHICLE_WIDTH_M,
        _interval_rng,
    )
    from netsafety.trajectories import TRAJECTORY_COLUMNS

    def simulate(segment_idx, interval_idx):
        rng = _interval_rng(spec, segment_idx, interval_idx)
        u = lambda rng_range: float(rng.uniform(*rng_range))  # noqa: E731
        flow = u(spec.flow_veh_per_min)
        v_mean = u(spec.speed_mean)
        v_std = u(spec.speed_std)
        jitter_std = u(spec.speed_jitter)
        truck_frac = u(spec.truck_fraction)
        overspeed_frac = u(spec.overspeed_fraction)

        n_frames = round(spec.interval_seconds * spec.fps)
        dt = 1.0 / spec.fps
        base_frame = round(interval_idx * spec.slot_seconds * spec.fps)
        y_base = segment_idx * SEGMENT_SPACING_M
        counter = 0

        def new_vehicle(lane, x):  # [vid, lane, x, desired, jitter, length]
            nonlocal counter
            if rng.random() < overspeed_frac:
                desired = spec.speed_limit * (1.03 + 0.22 * rng.random())
            else:
                desired = min(float(rng.normal(v_mean, v_std)) if v_std > 0 else v_mean,
                              0.97 * spec.speed_limit)
                desired = max(desired, 3.0)
            length = TRUCK_LENGTH_M if rng.random() < truck_frac else CAR_LENGTH_M
            counter += 1
            return [f"S{segment_idx + 1}-i{interval_idx:03d}-{counter:03d}", lane, x, desired, 0.0, length]

        lanes = [[] for _ in range(spec.lane_count)]
        per_lane_rate = flow / 60.0 / spec.lane_count
        expected = per_lane_rate * spec.segment_length_m / max(v_mean, 1.0)
        for lane in range(spec.lane_count):
            k0 = int(rng.poisson(expected))
            xs = np.sort(rng.uniform(0.0, spec.segment_length_m, size=k0))[::-1]
            for x in xs:
                if lanes[lane] and lanes[lane][-1][2] - x < MIN_SPAWN_GAP_M:
                    continue
                lanes[lane].append(new_vehicle(lane, float(x)))
        arrivals = rng.poisson(per_lane_rate * dt, size=(n_frames, spec.lane_count))

        rows = []
        ar = 1.0 - math.exp(-dt)
        for step in range(n_frames):
            frame = base_frame + step
            for lane_idx, lane in enumerate(lanes):
                for _ in range(int(arrivals[step, lane_idx])):
                    if not lane or lane[-1][2] >= MIN_SPAWN_GAP_M:
                        lane.append(new_vehicle(lane_idx, 0.0))
                for pos, veh in enumerate(lane):
                    if jitter_std > 0:
                        veh[4] += ar * (-veh[4]) + jitter_std * math.sqrt(2 * ar) * float(rng.standard_normal())
                    speed = max(veh[3] + veh[4], 0.5)
                    if pos > 0:
                        leader = lane[pos - 1]
                        if (leader[2] - veh[2]) / speed < HEADWAY_S:
                            speed = min(speed, max(leader[3] + leader[4], 0.5))
                    veh[2] += speed * dt
                    if veh[2] <= spec.segment_length_m:
                        y_c = y_base + (lane_idx + 0.5) * LANE_WIDTH_M
                        rows.append((frame, veh[0], veh[2] - veh[5] / 2.0, y_c - VEHICLE_WIDTH_M / 2.0,
                                     veh[2] + veh[5] / 2.0, y_c + VEHICLE_WIDTH_M / 2.0))
                lanes[lane_idx] = [v for v in lane if v[2] <= spec.segment_length_m]
        rows.sort(key=lambda r: (r[1], r[0]))
        return rows

    return {
        sid: csv_rows_oracle(TRAJECTORY_COLUMNS, [row for i in range(spec.n_intervals) for row in simulate(k, i)])
        for k, sid in enumerate(spec.segment_ids())
    }


def crash_records_csv_oracle(plant, segments, slot_minutes, plane, seed=0):
    """``synth.crash_records_csv`` with four scalar draws per crash: uniform x3, then choice(p=...)."""
    from datetime import timedelta

    from netsafety.synth import BASE_DATE, TYPE_MIX

    by_id = {s.segment_id: s for s in segments}
    rng = np.random.default_rng([seed, 3])
    type_names = [name for name, _ in TYPE_MIX]
    type_probs = [p for _, p in TYPE_MIX]
    rows = []
    for (sid, slot), count in sorted(plant.counts.items()):
        xmin, ymin, xmax, ymax = by_id[sid].bbox
        for _ in range(count):
            minute_of_day = slot * slot_minutes + float(rng.uniform(0, slot_minutes))
            x = float(rng.uniform(xmin + 1.0, xmax - 1.0))
            y = float(rng.uniform(ymin + 1.0, ymax - 1.0))
            lat, lon = plane.to_latlon(x, y)
            crash_type = type_names[int(rng.choice(len(type_names), p=type_probs))]
            rows.append(((BASE_DATE + timedelta(minutes=minute_of_day)).isoformat(), lat, lon, crash_type))
    return csv_rows_oracle(["timestamp", "lat", "lon", "type"], rows)


def bin_crashes_oracle(records, segments, slot_minutes, plane, year_range=None):
    """``crashes.bin_crashes`` one record at a time, into a dict grid.

    Returns ``({(segment_id, slot): {family: count}}, years_covered, n_assigned, n_dropped, n_multi_match)``.
    """
    from netsafety.crashes import CRASH_FAMILIES, CrashType

    types = list(CrashType)
    if year_range is not None:
        years = year_range[1] - year_range[0] + 1
    else:
        years = max(len(set(records.year.tolist())), 1)
    grid = {(s.segment_id, slot): dict.fromkeys(CRASH_FAMILIES, 0)
            for s in segments for slot in range(24 * 60 // slot_minutes)}
    assigned = dropped = multi = 0
    xs, ys = plane.to_xy(records.lat, records.lon)
    for year, minute, x, y, code in zip(records.year.tolist(), records.minute.tolist(), xs.tolist(), ys.tolist(),
                                        records.crash_type.tolist()):
        matches = [s.segment_id for s in segments if s.bbox[0] <= x <= s.bbox[2] and s.bbox[1] <= y <= s.bbox[3]]
        if not matches or (year_range is not None and not year_range[0] <= year <= year_range[1]):
            dropped += 1
            continue
        if len(matches) > 1:
            multi += 1
        cell = grid[(matches[0], minute // slot_minutes)]
        cell["AllType"] += 1  # every record, Other included
        if types[code] is CrashType.REAR_END:
            cell["RearEnd"] += 1
        elif types[code] is CrashType.SIDESWIPE:
            cell["Sideswipe"] += 1
        assigned += 1
    return grid, years, assigned, dropped, multi


def crash_binning_of(cells, slot_minutes=10):
    """A ``CrashBinning`` of ``{(segment_id, slot): (AllType, RearEnd, Sideswipe)}`` over one year.

    Its segments are those the cells name; every other cell of theirs is nan, no crash data.
    """
    from netsafety.crashes import CRASH_FAMILIES, CrashBinning

    segment_ids = tuple(dict.fromkeys(sid for sid, _ in cells))
    counts = np.full((len(CRASH_FAMILIES), len(segment_ids), 24 * 60 // slot_minutes), np.nan)
    for (sid, slot), values in cells.items():
        counts[:, segment_ids.index(sid), slot] = values
    return CrashBinning(segment_ids, counts, slot_minutes, years_covered=1)
