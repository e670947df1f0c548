"""The verdict rule of tools/bench_pairs.py on made-up paired runs, and
its clean start of both checkouts."""

import importlib.util
import json
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

# ten parent runs with median 10.0 and quartiles 9.75 and 10.25
PARENT = [9.0, 9.5, 9.75, 9.75, 10.0, 10.0, 10.25, 10.25, 10.5, 11.0]


def test_quartiles_are_inclusive():
    q = bench_pairs.quartiles(list(range(1, 11)))
    assert q == {"median": 5.5, "q1": 3.25, "q3": 7.75}
    assert bench_pairs.quartiles(PARENT) == {"median": 10.0, "q1": 9.75,
                                             "q3": 10.25}


def _summary(chg, par=PARENT, better="lower", bound=0.25):
    return bench_pairs.summarize(list(par), list(chg), better, bound)


def test_gain_needs_nine_wins_in_ten():
    # every run of the change 0.8 lower: a 0.8 gap over a 0.5 IQR
    s = _summary([x - 0.8 for x in PARENT])
    assert (s["change_wins"], s["verdict"]) == (10, "gain")
    nine = [x - 0.8 for x in PARENT]
    nine[0] = PARENT[0] + 0.1  # one pair lost
    assert _summary(nine)["verdict"] == "gain"
    eight = list(nine)
    eight[9] = PARENT[9] + 0.1
    s = _summary(eight)
    assert (s["change_wins"], s["verdict"]) == (8, "within bound")


def test_gain_needs_a_gap_wider_than_the_parents_iqr():
    # ten wins, but the medians differ by 0.4 < 0.5 = q3 - q1
    s = _summary([x - 0.4 for x in PARENT])
    assert (s["change_wins"], s["verdict"]) == (10, "within bound")


def test_ties_count_for_neither_side():
    # nine wins and one tie: the tie is no win, yet nine of ten suffice
    chg = [x - 0.8 for x in PARENT]
    chg[4] = PARENT[4]
    s = _summary(chg)
    assert (s["change_wins"], s["ties"], s["verdict"]) == (9, 1, "gain")
    # eight wins and two ties fall short of nine
    chg[5] = PARENT[5]
    s = _summary(chg)
    assert (s["change_wins"], s["ties"], s["verdict"]) == (8, 2,
                                                           "within bound")
    # identical runs: no wins, all ties, nothing worse
    s = _summary(PARENT)
    assert (s["change_wins"], s["ties"], s["verdict"]) == (0, 10,
                                                           "within bound")


@pytest.mark.parametrize("shift, verdict", [(2.4, "within bound"),
                                            (2.6, "worse")])
def test_worse_is_read_against_bound_times_parent_median(shift, verdict):
    # bound 0.25 of the parent median 10.0 allows 2.5
    assert _summary([x + shift for x in PARENT])["verdict"] == verdict


@pytest.mark.parametrize("shift, verdict", [(0.24, "within bound"),
                                            (0.26, "worse")])
def test_worse_uses_the_magnitude_of_a_negative_median(shift, verdict):
    par = [-x / 10.0 for x in PARENT]  # median -1.0, allowance 0.25
    assert _summary([x + shift for x in par], par=par)["verdict"] == verdict


def test_higher_is_better_metrics():
    par = [0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9]
    s = _summary([1.0] * 10, par=par, better="higher", bound=0.05)
    assert (s["change_wins"], s["verdict"]) == (10, "gain")
    # a fall of 0.1 against an allowance of 0.05 * 0.9
    s = _summary([0.8] * 10, par=par, better="higher", bound=0.05)
    assert (s["change_wins"], s["verdict"]) == (0, "worse")
    s = _summary([0.88] * 10, par=par, better="higher", bound=0.05)
    assert s["verdict"] == "within bound"


def _checkout(root):
    for sub in ("src/pkg/__pycache__", "src/pkg/sub/__pycache__",
                "perfbench/__pycache__"):
        (root / sub).mkdir(parents=True)
        (root / sub / "mod.cpython-311.pyc").write_bytes(b"")
    (root / "src/pkg/mod.py").write_text("")
    return root


def test_both_checkouts_start_without_cached_bytecode(tmp_path, monkeypatch):
    parent = _checkout(tmp_path / "parent")
    change = _checkout(tmp_path / "change")
    (change / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1,
        "end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}]}))
    seen = []

    def run_side(root, workload, seed, seconds):
        # no side finds bytecode under src/, from the first pair on
        seen.append(sorted(str(c.relative_to(root))
                           for c in root.rglob("__pycache__")))
        return {"failed": 0, "attempted": 1, "wall_s": 1.0}

    monkeypatch.setattr(bench_pairs, "run_side", run_side)
    out = tmp_path / "bench.json"
    assert bench_pairs.main([str(parent), str(change), "--workload", "w",
                             "--seed", "1", "--pairs", "2",
                             "--out", str(out)]) == 0
    assert seen == [["perfbench/__pycache__"]] * 4
    assert (parent / "src/pkg/mod.py").is_file()
