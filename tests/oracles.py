"""Independent oracles used to cross-check the library implementations.

Everything here is deliberately written with a different method than the
code under test: explicit Gaussian elimination instead of lstsq, per-window
polynomial fits instead of convolution kernels, permutation enumeration
instead of coalition weights, scipy tail functions instead of the library's
own special functions.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


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
            if j == i or p_j <= p_i or v_j > v_i:
                continue
            if best is None or p_j < positions[best]:
                best = j
        if best is not None and speeds[best] < v_i:
            out[i] = (positions[best] - p_i) / (v_i - speeds[best])
    return out


def ssm_rows_oracle(tracks, travel_axis, fps):
    """The ``ssm`` CSV by a per-pair loop over scalar surrogate functions.

    Per frame, vehicles sorted by (axis position, vehicle id) pair with the
    next one downstream when strictly ahead; each pair gets ``PairState`` +
    ``surrogate.ttc``/``drac``, and PET from one ``np.interp`` on the leader's
    passage curve (axis position made monotone over its whole track, against
    time).
    """
    import csv
    import io

    from netsafety.surrogate import PairState, drac, pet, ttc
    from netsafety.trajectories import format_cell

    ux, uy = travel_axis
    by_frame: dict[int, list] = {}
    passage: dict[str, tuple[list, list]] = {}
    for tr in tracks:
        pos = (tr.x * ux + tr.y * uy).tolist()
        vel = (tr.vx * ux + tr.vy * uy).tolist()
        for frame, p, v in zip(tr.frames.tolist(), pos, vel):
            by_frame.setdefault(frame, []).append((p, tr.vehicle_id, v))
        curve_pos, curve_t = passage.setdefault(tr.vehicle_id, ([], []))
        curve_pos += pos
        curve_t += tr.t.tolist()
    curves = {vid: (np.maximum.accumulate(p), np.array(t)) for vid, (p, t) in passage.items()}

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["t", "follower_id", "leader_id", "ttc", "drac", "pet", "gap", "v_follower", "v_leader"])
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
            row = (t, id_f, id_l, ttc(state), drac(state), pet_v, state.gap(), v_f, v_l)
            writer.writerow([format_cell(v) for v in row])
    return out.getvalue()


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
