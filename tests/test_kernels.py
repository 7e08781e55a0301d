"""The array kernels behind one fiber read and one quadrature level give
the IEEE bits of their former forms, kept here as references: the
gathering batched Newton, the k x k row separations, the per-segment read
of a batch with its tracked samples, the per-segment bisection take and
Gauss sum. (The
tracker step's carried state is checked in test_tracker.)"""

import numpy as np
import pytest

from algebroid import tracker
from algebroid.config import DEFAULT
from algebroid.errors import QuadratureStall
from algebroid.quad import _GL_W, _GL_X, _MAX_DEPTH, _MAX_PIECES, _Bisection, _gauss, _take
from algebroid.rootfind import newton_polish_pairs, poly_eval_pairs, residual_scale
from algebroid.surface import DefiningEquation, fiber_at
from algebroid.tracker import (Arc, Line, SegmentTracker, _read, _row_separations,
                               _WalkedSegment)


def _bits(values) -> list:
    """The IEEE bit patterns of float or complex entries: -0.0 differs from 0.0."""
    return np.ascontiguousarray(values).view(np.int64).tolist()


def _passes_reference_gate(coeffs, w):
    """|p(w)| <= 1e-10 residual_scale(p, w) for each row of coeffs at the
    matching entry of w, the scale one row at a time."""
    p, _ = poly_eval_pairs(coeffs, w)
    scales = np.array([residual_scale(list(c), x) for c, x in zip(coeffs, w)])
    return np.abs(p) <= 1e-10 * scales


def _newton_reference(coeffs, w, max_iter=40, tol=1e-15):
    """newton_polish_pairs as it gathered the entries still iterating on
    every iteration, and gated each entry whose step did not shrink right
    after that step."""
    w = np.array(w, dtype=complex)
    active = np.arange(len(w))
    last = np.full(len(w), np.inf)
    for _ in range(max_iter):
        if not len(active):
            return w
        p, dp = poly_eval_pairs(coeffs[active], w[active])
        stalled = dp == 0
        w[active[stalled]] = np.nan
        active, p, dp = active[~stalled], p[~stalled], dp[~stalled]
        step = p / dp
        w[active] -= step
        size = np.abs(step)
        go = ~(size <= tol * (1.0 + np.abs(w[active])))
        stuck = go & (size >= last[active])
        last[active] = size
        floor = active[stuck]
        go[stuck] = ~_passes_reference_gate(coeffs[floor], w[floor])
        active = active[go]
    w[active[~_passes_reference_gate(coeffs[active], w[active])]] = np.nan
    return w


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("max_iter", [30, 3])
def test_batched_newton_is_bit_identical_to_the_gathering_form(k, max_iter):
    rng = np.random.default_rng(25 + k)
    n = 300
    coeffs = rng.normal(size=(n, k + 1)) + 1j * rng.normal(size=(n, k + 1))
    coeffs[:, -1] = 1.0
    starts = (rng.normal(size=n) + 1j * rng.normal(size=n)) * rng.choice([0.1, 1.0, 10.0], size=n)
    # a stall: p'(0) = 0 for W^k - 1 (k > 1)
    coeffs[0] = [-1.0] + [0.0] * (k - 1) + [1.0]
    starts[0] = 0.0
    # an exact root: the first step is 0, so it converges at iteration 1
    coeffs[1] = [-4.0 ** k] + [0.0] * (k - 1) + [1.0]
    starts[1] = 4.0
    # runs to max_iter and fails the residual test: W^2 + 1 and W^4 + 1 from
    # a real start stay real, and W^3 - 2W + 2 cycles 0, 1, 0, ...
    cycling = {2: ([1.0, 0.0, 1.0], 0.3), 3: ([2.0, -2.0, 0.0, 1.0], 0.0),
               4: ([1.0, 0.0, 0.0, 0.0, 1.0], 0.3)}
    if k in cycling:
        coeffs[2], starts[2] = cycling[k]
    # (W - 1)^k from 0.7 + 0.2i (k > 1): steps shrink linearly to the
    # rounding floor of the multiple root, where they stop shrinking
    coeffs[3], starts[3] = np.poly(np.ones(k))[::-1], 0.7 + 0.2j
    got = newton_polish_pairs(coeffs, starts, max_iter=max_iter)
    want = _newton_reference(coeffs, starts, max_iter=max_iter)
    assert _bits(got) == _bits(want)
    assert np.isnan(got[0]) == (k > 1)
    assert got[1] == 4.0
    assert np.isnan(got[2]) == (k > 1)


def _separations_reference(rows):
    """_row_separations as the minimum over the full k x k distance table."""
    k = rows.shape[1]
    d = np.abs(rows[:, :, None] - rows[:, None, :])
    d[:, np.arange(k), np.arange(k)] = np.inf
    return d.min(axis=(1, 2))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_row_separations_are_bit_identical_to_the_full_table(k):
    rng = np.random.default_rng(k)
    rows = rng.normal(size=(200, k)) + 1j * rng.normal(size=(200, k))
    rows[:20] = rows[:20].real  # signed zeros in the imaginary parts
    rows[20:40] *= -1
    rows[40, 0] = np.nan
    if k > 1:
        rows[41, 1] = rows[41, 0]  # two equal roots
    assert _bits(_row_separations(rows)) == _bits(_separations_reference(rows))


def _read_reference(walked, tss):
    """tracker._read as one pass per segment alone, with each sample that
    fails its gates taken by a tracker that starts at the last knot at or
    before it and steps there."""
    out = []
    for seg, ts in zip(walked, tss):
        ts = np.asarray(ts, dtype=float)
        with np.errstate(all="ignore"):
            pred = tracker._hermite([seg.dense()], [ts])
            rows, ok = tracker._correct(seg.eq, seg.seg.ats(ts), pred, seg.tol)
        for j in np.flatnonzero(~ok):
            i = np.searchsorted(seg.ts, ts[j], side="right") - 1
            trk = SegmentTracker(seg.eq, seg.seg, seg.fibers[i], seg.tol, seg.ts[i])
            trk.advance_to(float(ts[j]))
            rows[j] = trk.fiber
        out.append(rows)
    return out


def _knots(walked):
    """The knots of each walked segment, as plain lists."""
    return [(list(seg.ts), list(seg.zs), [list(f) for f in seg.fibers]) for seg in walked]


def test_read_tracks_each_failed_sample_as_the_per_segment_form(monkeypatch, sqrt_z):
    # the sample at 0.4 of the first arc is pushed to the other sheet: it
    # fails its gates and takes the fiber tracked from the knot before it,
    # while the other segments read 0.4 from their knots; the cubic's line
    # reads 0.3 twice, and 1.0 ends every segment; one batch per equation
    cubic = DefiningEquation.from_strings(["0", "-3", "-z"])
    batches = [[(sqrt_z, Arc(0j, 2.0, 0.5, 3.0)), (sqrt_z, Line(1, 4))],
               [(cubic, Line(2 + 1j, 3 - 1j)), (cubic, Arc(0j, 3.0, 2.0, -3.0))]]
    tsss = [[np.array([0.1, 0.4, 0.7, 1.0]), np.array([0.3, 0.4, 0.9, 1.0])],
            [np.array([0.3, 0.05, 1.0, 0.3]), np.append(np.linspace(0.0, 1.0, 9), 0.4)]]
    hermite = tracker._hermite

    def perturbed(dense, ts_group):
        pred = hermite(dense, ts_group)
        lo = 0
        for ts in ts_group:
            if ts is tsss[0][0]:
                hit = lo + np.flatnonzero(ts == 0.4)
                pred[hit, 0] += 0.7 * (pred[hit, 1] - pred[hit, 0])
            lo += len(ts)
        return pred

    monkeypatch.setattr(tracker, "_hermite", perturbed)
    tracked, calls = _WalkedSegment.tracked, []

    def counting_tracked(self, t):
        calls.append((self.seg, t))
        return tracked(self, t)

    monkeypatch.setattr(_WalkedSegment, "tracked", counting_tracked)
    reads = []
    for batch, tss in zip(batches, tsss):
        def walked():
            return [_WalkedSegment(eq, seg, fiber_at(eq, seg.start).roots, DEFAULT)
                    for eq, seg in batch]

        new, old = walked(), walked()
        knots = _knots(new)
        got, want = _read(new, tss), _read_reference(old, tss)
        assert [_bits(rows) for rows in got] == [_bits(rows) for rows in want]
        assert _knots(new) == knots  # the read leaves every walk as it was
        for seg, rows, ts in zip(new, got, tss):
            end = rows[ts == 1.0]
            assert np.abs(end - seg.end).max() <= 1e-15 * max(1.0, *map(abs, seg.end))
        reads.append((new, got))
    assert calls == [(batches[0][0][1], 0.4)]  # the one failed sample
    (arc, _), (arc_rows, _) = reads[0]
    assert arc_rows[1].tolist() == arc.tracked(0.4)
    _, (cubic_line_rows, _) = reads[1]
    assert cubic_line_rows[0].tolist() == cubic_line_rows[3].tolist()  # 0.3 twice


def _gauss_reference(walked, t0s, t1s):
    """quad._gauss with its former per-segment node placement and sums."""
    halves = [0.5 * (t1 - t0) for t0, t1 in zip(t0s, t1s)]
    tss = [((0.5 * (t1 + t0))[:, None] + half[:, None] * _GL_X).ravel()
           for t0, t1, half in zip(t0s, t1s, halves)]
    out = []
    for seg, rows, ts, half in zip(walked, _read(walked, tss), tss, halves):
        a = rows.reshape(-1, len(_GL_X), rows.shape[1]) * _GL_W[:, None]
        d = seg.seg.derivs(ts).reshape(len(a), -1, 1)
        terms = np.empty_like(a)
        terms.real = a.real * d.real - a.imag * d.imag
        terms.imag = a.real * d.imag + a.imag * d.real
        out.append(sum(terms.swapaxes(0, 1), 0j) * half[:, None])
    return out


def test_gauss_values_are_bit_identical_to_the_per_segment_form(sqrt_z):
    # one batch per equation: two segments of W^2 - z, one of each other
    cubic = DefiningEquation.from_strings(["0", "-3", "-z"])
    poles = DefiningEquation.from_strings(["z/(z-3)", "-3", "-z^2+1/(z+2)"])
    batches = [[(sqrt_z, Line(1, 4)), (sqrt_z, Arc(0j, 2.0, 0.5, 7.0))],
               [(cubic, Arc(0j, 3.0, 2.0, -3.0))], [(poles, Line(1j, -1 + 2j))]]
    rng = np.random.default_rng(7)
    for batch, counts in zip(batches, [(1, 2), (3,), (5,)]):
        t0s, t1s = [], []
        for n in counts:
            t0 = np.sort(rng.uniform(size=n))
            t0s.append(t0)
            t1s.append(t0 + rng.uniform(0.01, 1.0, size=n) * (1.0 - t0))

        def walked():
            return [_WalkedSegment(eq, seg, fiber_at(eq, seg.start).roots, DEFAULT)
                    for eq, seg in batch]

        got, want = _gauss(walked(), t0s, t1s), _gauss_reference(walked(), t0s, t1s)
        assert [_bits(v) for v in got] == [_bits(v) for v in want]


class _Reference:
    """_Bisection as it took its values alone, a level at a time: pieces()
    with every left half before every right half, after the whole segment on
    the first read and before the halves of those halves, which that read
    takes ahead; and take, of the whole, then of each level's halves, the
    second level's from the rows taken ahead."""

    def __init__(self, share, tol):
        self.quad_tol, self.tol_abs = tol.quad_tol, tol.quad_tol * max(share, 1e-3)
        self.t0, self.t1, self.whole, self.ahead = np.zeros(1), np.ones(1), None, None
        self.depth, self.accepted, self.done = 0, [], False

    @staticmethod
    def _halves(t0, t1):
        tm = 0.5 * (t0 + t1)
        return np.concatenate((t0, tm)), np.concatenate((tm, t1))

    def pieces(self):
        t0, t1 = self._halves(self.t0, self.t1)
        if self.whole is None:
            q0, q1 = self._halves(t0, t1)
            return np.concatenate((self.t0, t0, q0)), np.concatenate((self.t1, t1, q1))
        return t0, t1

    def take(self, values=None):
        if values is None:  # the level taken ahead
            values, self.ahead = self.ahead, None
        elif self.whole is None:  # one whole piece, its halves, their halves
            self.whole, values, self.ahead = np.split(values, [1, 3])
        t0, t1 = self.t0, self.t1
        tm = 0.5 * (t0 + t1)
        left, right = np.split(values, 2)
        halves = left + right
        errs = np.abs(self.whole - halves)
        bound = self.tol_abs * (t1 - t0)[:, None] + self.quad_tol * np.abs(halves)
        ok = (errs <= bound).all(axis=1)
        self.accepted.append((halves[ok].sum(axis=0), errs[ok].sum(axis=0)))
        if ok.all():
            self.done = True
            return
        if self.depth == _MAX_DEPTH or 2 * np.count_nonzero(~ok) > _MAX_PIECES:
            i = np.flatnonzero(~ok)[0]
            raise QuadratureStall(
                f"adaptive bisection stalled on [{t0[i]}, {t1[i]}] (err {errs[i].max():.3e})"
            )
        self.depth += 1
        self.t0 = np.column_stack((t0, tm))[~ok].ravel()
        self.t1 = np.column_stack((tm, t1))[~ok].ravel()
        self.whole = np.stack((left, right), axis=1)[~ok].reshape(len(self.t0), -1)


def _left_first(n):
    """The order that puts every left half of n interleaved halves first."""
    return np.argsort(np.arange(n) % 2, kind="stable")


def _integrand(t, k):
    """A smooth fiber-valued test integrand, one column per position: its
    value on [t0, t1] is a fixed combination of the piece's end points, so
    a piece's halves sum to its whole up to a rounding-size error that
    grows with the piece."""
    j = np.arange(1, k + 1)
    return (np.exp(1j * j * t[:, None]) - np.exp(1j * j * 0.0)) / (1j * j) * (1 + 0.3 * j)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_bisection_levels_are_bit_identical_to_the_per_segment_take(k):
    # four segments of one equation, read level by level: each piece's value
    # is its exact integral plus a noise of amp * length**power, so a piece
    # passes once it is short enough; the first segment's noise never lets a
    # piece pass, until a level would hold too many pieces
    rng = np.random.default_rng(k)
    shares, amp, power = [0.5, 0.25, 0.2, 0.05], [1e-6, 3e-11, 1e-10, 1e-17], [0.5, 2, 2, 0]
    parts = [_Bisection(None, share, DEFAULT) for share in shares]
    refs = [_Reference(share, DEFAULT) for share in shares]
    stalled = 0
    for level in range(_MAX_DEPTH):
        live = [n for n, part in enumerate(parts) if not part.done]
        if not live:
            break
        reads, ref_reads = [], []
        for n in live:
            if parts[n].ahead is not None:  # the level its first read took ahead
                assert refs[n].ahead is not None
                reads.append(parts[n].ahead)
                ref_reads.append(None)
                continue
            assert refs[n].ahead is None
            t0, t1 = parts[n].pieces()
            r0, r1 = refs[n].pieces()
            assert sorted(zip(_bits(t0), _bits(t1))) == sorted(zip(_bits(r0), _bits(r1)))
            noise = rng.normal(size=(len(t0), k)) * amp[n] * (t1 - t0)[:, None] ** power[n]
            values = _integrand(t1, k) - _integrand(t0, k) + noise
            reads.append(values)
            # the reference reads the same pieces with every left half first
            if parts[n].whole is None:  # the whole, its halves, their halves
                ref_reads.append(np.concatenate((values[:3], values[3:][_left_first(4)])))
            else:
                ref_reads.append(values[_left_first(len(t0))])
        stalls = _take([parts[n] for n in live], reads, DEFAULT.quad_tol)
        for n, values, stall in zip(live, ref_reads, stalls):
            try:
                refs[n].take(values)
            except QuadratureStall as exc:
                assert stall is not None and str(stall) == str(exc)
                parts[n].done = refs[n].done = True
                stalled += 1
            else:
                assert stall is None
    assert stalled == 1 and parts[0].depth == 6  # 64 failed pieces at depth 6
    assert len(parts[2].accepted) > 3 and len(parts[3].accepted) == 1
    for part, ref in zip(parts, refs):
        assert part.done == ref.done and part.depth == ref.depth
        assert [(_bits(v), _bits(e)) for v, e in part.accepted] == [
            (_bits(v), _bits(e)) for v, e in ref.accepted]
        assert _bits(part.t0) == _bits(ref.t0) and _bits(part.t1) == _bits(ref.t1)
