"""Tests of the benchmark's own arithmetic: self time, tail rule, FFT points.

Run with ``python3 -m pytest perfbench``; they need numpy only.
"""

import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from stats import self_time, tail, tail_permille, union_length
from tracer import Tracer, fft_points


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_union_length_merges_overlaps_and_skips_empty():
    assert union_length([]) == 0.0
    assert union_length([(0, 2), (1, 3), (5, 6), (6, 6)]) == 4.0
    assert union_length([(4, 5), (0, 10)]) == 10.0


def test_self_time_nested_counts_only_direct_children():
    # parent [0, 10] > child [1, 4] > grandchild [2, 3]
    assert self_time(0, 10, [(1, 4)]) == 7
    assert self_time(1, 4, [(2, 3)]) == 2
    assert self_time(2, 3, []) == 1


def test_self_time_overlapping_children_subtracted_once():
    # two pool threads under one CLI span, overlapping on [3, 5]
    assert self_time(0, 10, [(1, 5), (3, 8)]) == 3


def test_self_time_clips_children_to_the_parent():
    assert self_time(2, 6, [(0, 3), (5, 9)]) == 2


def test_tracer_builds_nested_and_cross_thread_parents():
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.span("cli.main") as root:
        clock.now = 1.0
        with tracer.span("recovery.run_hsnld") as child:
            clock.now = 2.0
        worker_spans = []

        def work():
            with tracer.span("recovery.run_hsnld") as span:
                worker_spans.append(span)

        thread = threading.Thread(target=work)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
        clock.now = 4.0
    assert child.parent is root
    assert worker_spans[0].parent is root
    assert root.parent is None
    assert (root.start, root.end, child.start, child.end) == (0.0, 4.0, 1.0, 2.0)


@pytest.mark.parametrize(
    "count, permille",
    [(19, None), (20, 500), (39, 500), (40, 750), (99, 750), (100, 900),
     (199, 900), (200, 950), (999, 950), (1000, 990), (9999, 990), (10000, 999)],
)
def test_tail_permille_keeps_ten_samples_beyond(count, permille):
    assert tail_permille(count) == permille


def test_tail_value_and_small_sample_fallback():
    values = np.arange(1, 41, dtype=float)  # 40 samples -> p75
    pct, value = tail(values)
    assert pct == 75.0
    assert value == pytest.approx(np.percentile(values, 75))
    assert tail([3.0, 1.0, 2.0]) == (50.0, 2.0)


@pytest.mark.parametrize(
    "name, args, kwargs, expected",
    [
        ("fft", (np.ones(16383),), {}, 16383),
        ("fft", (np.ones((100, 5)), 256), {"axis": 0}, 256 * 5),
        ("ifft", (np.ones((256, 5)),), {"axis": 0}, 256 * 5),
        ("fft", (np.ones(10),), {"n": 4}, 4),
        ("rfft", (np.ones(30), 64), {}, 64),
        ("rfft", (np.ones((3, 30)),), {}, 90),
        ("irfft", (np.ones(17),), {}, 32),
        ("ihfft", (np.ones(12),), {}, 12),
        ("fft2", (np.ones((2, 4, 6)),), {}, 48),
        ("rfft2", (np.ones((4, 6)),), {}, 24),
        ("rfftn", (np.ones((4, 6)),), {"s": (8, 10), "axes": (0, 1)}, 80),
        ("irfftn", (np.ones((4, 6)),), {}, 40),
    ],
)
def test_fft_points_is_transform_length_times_batch(name, args, kwargs, expected):
    out = getattr(np.fft, name)(*args, **kwargs)
    assert fft_points(name, args, kwargs, out) == expected


def test_install_counts_package_ffts_and_restores():
    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "hankelx").is_dir():
        pytest.skip("hankelx sources not present")
    sys.path.insert(0, str(src))
    import hankelx

    original = np.fft.fft
    sig = hankelx.reweight(np.arange(15, dtype=complex), hankelx.HankelShape.square(15))
    tracer = Tracer()
    tracer.install()
    try:
        hankelx.hankel_matmat(sig, np.ones((sig.shape.n2, 2)))
    finally:
        tracer.uninstall()
    assert np.fft.fft is original
    names = [s.name for s in tracer.spans]
    assert names[0] == "hankel.hankel_matmat"
    ffts = [s for s in tracer.spans if s.name.startswith("numpy.fft.")]
    assert all(s.parent is tracer.spans[0] for s in ffts)
    # signal transform + 2 columns forward + 2 columns inverse, all at 32 points
    assert sum(s.info[0] for s in ffts) == 32 * 5
