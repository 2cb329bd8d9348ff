import json
import re
import resource
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import nextsym
from nextsym import cli, kernel, verify
from nextsym.cli import _fmt, main
from nextsym.estimator import LogK, Schedules, SqrtJ
from nextsym.processes import _MAX_HORIZON
from nextsym.sequences import Alphabet
from nextsym.verify import verify_equivalence
from nextsym.streaming import StreamingEstimator


MARKOV_DOC = {
    "process": {
        "kind": "markov",
        "alphabet": "01",
        "order": 1,
        "transition": [[0.7, 0.3], [0.3, 0.7]],
    },
    "experiment": {
        "horizon": 512,
        "replicates": 3,
        "base_seed": 42,
        "payoff": {"kind": "indicator", "symbol": "1"},
    },
}


_R = np.random.default_rng(0).random((4, 4))
SLOW_SOURCES = {  # hidden or context chains that mix slowly
    "hmm": {
        "kind": "hmm",
        "alphabet": "01",
        "transition": (0.9999 * np.eye(4) + 0.0001 * _R / _R.sum(axis=1, keepdims=True)).tolist(),
        "emission": [[0.9, 0.1], [0.2, 0.8], [0.5, 0.5], [0.3, 0.7]],
    },
    "order2": {
        "kind": "markov",
        "alphabet": "01",
        "order": 2,
        "transition": [[0.99999, 0.00001], [0.5, 0.5], [0.5, 0.5], [0.00002, 0.99998]],
    },
}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestSimulate:
    @pytest.mark.parametrize("name", SLOW_SOURCES)
    def test_slowly_mixing_source_runs(self, tmp_path, name):
        # a step-capped power iteration stopped short of their stationary laws and exited 1
        doc = {"process": SLOW_SOURCES[name], "experiment": {"horizon": 100, "replicates": 1}}
        assert main(["simulate", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "out")]) == 0

    def test_happy_path_writes_three_files(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MARKOV_DOC)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "metrics.csv").exists()
        assert (out / "tails.csv").exists()
        assert (out / "manifest.json").exists()
        header = (out / "metrics.csv").read_text().splitlines()[0]
        assert header == "replicate,n,kappa,lambda,abstained,estimate_or_tv,oracle_summary,abs_error,cesaro_avg"
        tails_header = (out / "tails.csv").read_text().splitlines()[0]
        assert tails_header == "n,epsilon,fraction,wilson_halfwidth,replicates"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"] == MARKOV_DOC
        assert manifest["rng"] == "numpy-pcg64"
        assert manifest["checks"] == {}

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, MARKOV_DOC)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()
        assert (out1 / "tails.csv").read_bytes() == (out2 / "tails.csv").read_bytes()

    def test_worker_count_is_invisible_in_output(self, tmp_path):
        cfg = write_config(tmp_path, MARKOV_DOC)
        out1, out2 = tmp_path / "w1", tmp_path / "w8"
        assert main(["simulate", "--config", cfg, "--out", str(out1), "--workers", "1"]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out2), "--workers", "8"]) == 0
        assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()
        assert (out1 / "tails.csv").read_bytes() == (out2 / "tails.csv").read_bytes()

    def test_huge_linear_J_abstains_everywhere(self, tmp_path):
        # J(n) = ceil(1e19 * n) is past the int64 range; no block can reach it
        doc = json.loads(json.dumps(MARKOV_DOC))
        doc["schedules"] = {"J": {"kind": "linear", "coeff": 1e19}}
        out = tmp_path / "out"
        assert main(["simulate", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        rows = (out / "metrics.csv").read_text().splitlines()[1:]
        assert rows and all(row.split(",")[4] == "1" for row in rows)

    def test_nonstochastic_row_names_the_row(self, tmp_path, capsys):
        doc = json.loads(json.dumps(MARKOV_DOC))
        doc["process"]["transition"][1] = [0.5, 0.6]
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "transition[1]" in err

    def test_string_decimal_rejected(self, tmp_path, capsys):
        doc = json.loads(json.dumps(MARKOV_DOC))
        doc["process"]["transition"][0] = ["0.7", 0.3]
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        assert "transition[0][0]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda doc: doc.update(process={"kind": "iid", "alphabet": "01", "probs": [float("nan"), 1.0]}),
             "process.probs[0]"),
            (lambda doc: doc["experiment"].update(epsilons=[float("nan")]), "experiment.epsilons[0]"),
            (lambda doc: doc["process"]["transition"][0].__setitem__(1, float("inf")), "process.transition[0][1]"),
            # finite payoffs whose sums overflow: 2 * max|v| * (horizon + 1) is inf
            (lambda doc: doc.update(
                process={"kind": "iid", "alphabet": "01", "probs": [0.5, 0.5]},
                experiment={"horizon": 64, "payoff": {"kind": "table", "values": {"0": 1e308, "1": -1e308}}},
            ), "experiment.payoff.values"),
        ],
    )
    def test_non_finite_number_rejected_with_field_path(self, tmp_path, capsys, edit, field):
        doc = json.loads(json.dumps(MARKOV_DOC))
        edit(doc)
        cfg = write_config(tmp_path, doc)  # json.dumps writes NaN and Infinity literals
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        captured = capsys.readouterr()
        assert field in captured.err
        assert captured.out == ""
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "alphabet, probs, message",
        [
            ("01", [1.5, -0.5], "probs[1] must be >= 0, got -0.5"),
            ("01", [0.5, 0.6], "probs must be a distribution summing to 1 within 1e-12, got sum 1.1"),
            ("abc", [0.5, 0.5], "probs must have 3 entries"),
        ],
    )
    def test_iid_law_error_names_the_written_entry(self, tmp_path, capsys, alphabet, probs, message):
        doc = json.loads(json.dumps(MARKOV_DOC))
        doc["process"] = {"kind": "iid", "alphabet": alphabet, "probs": probs}
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.startswith(f"error: process.{message}")

    def test_overflowing_number_rejected_with_field_path(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(MARKOV_DOC).replace('"replicates": 3', '"replicates": 3, "epsilons": [1e999]'))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
        assert "experiment.epsilons[0]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda doc: doc.update(process={"kind": "iid", "alphabet": "01", "probs": [10**400, 0]}),
             "process.probs[0]"),
            (lambda doc: doc["experiment"].update(epsilons=[10**400]), "experiment.epsilons[0]"),
        ],
    )
    def test_int_too_large_for_a_float_names_its_field(self, tmp_path, capsys, edit, field):
        # exited 1 with "runtime error: int too large to convert to float"
        doc = json.loads(json.dumps(MARKOV_DOC))
        edit(doc)
        cfg = write_config(tmp_path, doc)  # json.dumps writes the 401 digits
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert not (tmp_path / "x").exists()

    def test_too_fine_log_coefficient_rejected(self, tmp_path, capsys):
        doc = json.loads(json.dumps(MARKOV_DOC))
        doc["schedules"] = {"K": {"kind": "log", "coeff": 0.1234567}}
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        assert "schedules.K.coeff" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_out_of_range_base_seed_names_its_field(self, tmp_path, capsys, seed):
        doc = json.loads(json.dumps(MARKOV_DOC))
        doc["experiment"]["base_seed"] = seed
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.startswith("error: experiment.base_seed must be in 0..18446744073709551615")

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2

    def test_wide_requires_distribution_mode(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MARKOV_DOC)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x"), "--wide"]) == 2

    def test_wide_distribution_columns(self, tmp_path):
        doc = json.loads(json.dumps(MARKOV_DOC))
        doc["experiment"]["payoff"] = {"kind": "distribution"}
        doc["experiment"]["replicates"] = 1
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "wide"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--wide"]) == 0
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0].endswith("cesaro_avg,p_0,p_1")
        assert all(len(line.split(",")) == 11 for line in lines)


class TestEstimate:
    def run_estimate(self, tmp_path, content, argv_extra=(), capsys=None):
        path = tmp_path / "seq.txt"
        path.write_text(content)
        return main(["estimate", str(path), *argv_extra])

    def test_worked_example_final_only(self, tmp_path, capsys):
        assert self.run_estimate(tmp_path, "01010", ("--final-only",)) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "n,kappa,lambda,abstained,p_0,p_1"
        assert out[1] == "4,1,2,0,0,1"

    def test_abstained_row(self, tmp_path, capsys):
        assert self.run_estimate(tmp_path, "01", ("--final-only",)) == 0
        assert capsys.readouterr().out.splitlines()[1] == "1,0,0,1,0,0"

    def test_alphabet_relabeling_invariance(self, tmp_path, capsys):
        assert self.run_estimate(tmp_path, "01010") == 0
        digits = capsys.readouterr().out
        path = tmp_path / "letters.txt"
        path.write_text("abab a".replace(" ", "\n").replace("\n", ""))  # 'ababa'
        assert main(["estimate", str(path), "--alphabet", "ab"]) == 0
        letters = capsys.readouterr().out
        assert digits.replace("p_0,p_1", "P") == letters.replace("p_a,p_b", "P")

    def test_per_position_rows(self, tmp_path, capsys):
        assert self.run_estimate(tmp_path, "0101") == 0
        rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 5  # header + one row per position

    def test_unknown_symbol_reports_line(self, tmp_path, capsys):
        path = tmp_path / "seq.txt"
        path.write_text("0101\n0121\n")
        assert main(["estimate", str(path)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_lines_mode(self, tmp_path, capsys):
        path = tmp_path / "seq.txt"
        path.write_text("up\ndown\nup\ndown\nup\n")
        assert main(["estimate", str(path), "--lines", "--alphabet", "up,down", "--final-only"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "n,kappa,lambda,abstained,p_up,p_down"
        assert out[1] == "4,1,2,0,0,1"

    def test_empty_file(self, tmp_path, capsys):
        path = tmp_path / "seq.txt"
        path.write_text("\n\n")
        assert main(["estimate", str(path)]) == 2

    @pytest.mark.parametrize("seed", range(16))
    def test_output_equals_a_streamed_replay(self, tmp_path, capsys, monkeypatch, seed):
        # the kernel route against one push and one query per symbol, with
        # chunks small enough that rows cross chunk boundaries
        rng = np.random.default_rng(seed)
        size = int(rng.integers(2, 5))
        tokens = "0123"[:size]
        symbols = rng.integers(0, size, int(rng.integers(1, 400))).tolist()
        final_only = bool(seed % 2)
        monkeypatch.setattr(kernel, "CHUNK", int(rng.choice([1, 3, 8, 64])))

        alphabet = Alphabet(tokens)
        est = StreamingEstimator(alphabet, Schedules.default(size), horizon=max(1, len(symbols) - 1))
        want = ["n,kappa,lambda,abstained," + ",".join(f"p_{t}" for t in tokens)]
        for n, x in enumerate(symbols):
            est.push(x)
            if final_only and n < len(symbols) - 1:
                continue
            dist = est.current_distribution()
            cells = [_fmt(n), _fmt(dist.context_len), _fmt(dist.matches), _fmt(dist.abstained)]
            want.append(",".join(cells + [_fmt(p) for p in dist.probs]))

        path = tmp_path / "seq.txt"
        path.write_text("".join(tokens[x] for x in symbols))
        argv = ["estimate", str(path), "--alphabet", tokens] + (["--final-only"] if final_only else [])
        assert main(argv) == 0
        assert capsys.readouterr().out == "\n".join(want) + "\n"


class TestVerify:
    def test_small_run_passes(self, capsys):
        assert main(["verify", "--max-n", "60", "--cases", "8", "--seed", "5"]) == 0
        assert "equivalence ok" in capsys.readouterr().out

    def test_broken_build_yields_counterexample(self):
        class OffByOne(StreamingEstimator):
            def probe(self):
                # threshold bug: treats "at least J" as "strictly more than J"
                hit = super().probe()
                if hit is not None and hit[1] == self.schedules.J(len(self.seq) - 1):
                    return None
                return hit

        report = verify_equivalence(cases=5, max_n=40, seed=5, estimator_factory=OffByOne)
        assert not report.ok and report.prefixes_checked == 3
        ce = report.counterexample
        assert (ce["route"], ce["case"], ce["n"], ce["field"]) == ("streaming", 0, 3, "context_len")
        assert (ce["scanning"], ce["streaming"], ce["prefix"]) == (1, 0, [2, 1, 2, 2])

    def test_broken_kernel_is_named(self, monkeypatch):
        replay = kernel.replay

        def off_by_one(*args, **kwargs):
            for part in replay(*args, **kwargs):
                part.hist[len(part.hist) // 2, 0] += 1
                yield part

        monkeypatch.setattr(kernel, "replay", off_by_one)
        report = verify_equivalence(cases=3, max_n=40, seed=5)
        assert not report.ok and report.prefixes_checked == 31
        ce = report.counterexample
        assert (ce["route"], ce["case"], ce["n"], ce["field"]) == ("kernel", 0, 15, "histogram")
        assert (ce["scanning"], ce["kernel"]) == ([1, 3, 7], [2, 3, 7])

    def test_kernel_counterexample_is_the_earliest_prefix(self, monkeypatch):
        replay = kernel.replay

        def two_bugs(*args, **kwargs):
            # the histogram is off at n = 300, the context length only later, at n = 900
            for part in replay(*args, **kwargs):
                for n, column in ((300, part.hist[:, 0]), (900, part.kappa)):
                    if part.start <= n < part.start + len(part.kappa):
                        column[n - part.start] += 1
                yield part

        monkeypatch.setattr(kernel, "replay", two_bugs)
        report = verify_equivalence(cases=1, max_n=2000, seed=2026)
        ce = report.counterexample
        assert not report.ok and report.prefixes_checked == 1840
        assert (ce["route"], ce["case"], ce["n"], ce["field"]) == ("kernel", 0, 300, "histogram")
        assert ce["kernel"][0] == ce["scanning"][0] + 1 and ce["kernel"][1:] == ce["scanning"][1:]

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"max_n": 2.5}, "max_n must be an integer, got 2.5"),
            ({"cases": 3.0}, "cases must be an integer, got 3.0"),
            ({"cases": True}, "cases must be an integer, got True"),
            ({"max_n": 0}, "max_n must be >= 1, got 0"),
            ({"cases": -1}, "cases must be >= 1, got -1"),
        ],
    )
    def test_arguments_are_integers_of_at_least_one(self, kwargs, message):
        # max_n 2.5 ran 2-symbol cases and reported ok; cases=True reported "cases: True"
        with pytest.raises(ValueError, match=re.escape(message)):
            verify_equivalence(**{"cases": 1, "max_n": 2, **kwargs})

    def test_break_at_long_contexts_needs_deep_schedules(self):
        class DeepBug(StreamingEstimator):
            def probe(self):
                # counts one match too many, but only for contexts of length 2 and up
                hit = super().probe()
                if hit is not None and hit[0] >= 2:
                    return hit[0], hit[1] + 1, hit[2]
                return hit

        def deep(size):
            return Schedules(K=LogK(size, 0.5), J=SqrtJ())

        report = verify_equivalence(cases=20, max_n=300, seed=5, schedules_for=deep, estimator_factory=DeepBug)
        assert not report.ok and report.prefixes_checked == 81
        ce = report.counterexample
        assert (ce["route"], ce["case"], ce["n"], ce["field"]) == ("streaming", 0, 81, "matches")
        assert (ce["scanning"], ce["streaming"]) == (12, 13)
        # the prefix shows its head and the last 20 symbols through X_n, where the length-2 suffix sits
        assert len(ce["prefix"]) == 41 and ce["prefix"][20] == "..."
        assert ce["prefix"][-20:] == [0, 0, 2, 2, 0, 1, 2, 0, 1, 0, 2, 1, 0, 0, 0, 0, 1, 0, 1, 2]
        # the default schedules never reach K(n) = 2 at max_n 2000, so the default suite misses it
        assert verify_equivalence(estimator_factory=DeepBug).ok

    def test_one_scan_per_row_block(self, monkeypatch):
        scan, blocks = verify._scan, []

        def counted(arr, ns, *args):
            blocks.append((len(ns), len(arr)))
            return scan(arr, ns, *args)

        monkeypatch.setattr(verify, "_scan", counted)
        report = verify_equivalence(cases=2, max_n=2000, seed=3)
        assert report.ok and sum(rows for rows, _ in blocks) == report.prefixes_checked
        # every prefix is scanned once, in blocks of at most _BLOCK_CELLS rows x length: so a case of
        # length <= 2000 is scanned in blocks of _BLOCK_CELLS // 2000 rows or more
        cells = verify._BLOCK_CELLS
        assert all(rows * length <= cells for rows, length in blocks) and len(blocks) <= 2 * -(-2000 // (cells // 2000))

    def test_trivial_max_n(self):
        report = verify_equivalence(cases=3, max_n=1, seed=1)
        assert report.ok and report.prefixes_checked == 3

    def test_failure_prints_every_counterexample_field(self, monkeypatch, capsys):
        scan = verify._scan

        def one_match_too_many(*args):
            kappa, matches, hist = scan(*args)
            return kappa, matches + 1, hist

        monkeypatch.setattr(verify, "_scan", one_match_too_many)
        report = verify_equivalence(cases=3, max_n=40, seed=5)
        assert main(["verify", "--max-n", "40", "--cases", "3", "--seed", "5"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            "equivalence FAILED; first counterexample:",
            *(f"  {key}: {value}" for key, value in report.counterexample.items()),
        ]
        fields = ["case", "alphabet_size", "n", "route", "field", "scanning", "streaming", "prefix"]
        assert list(report.counterexample) == fields
        # the line the benchmark parses to count the cases that passed
        assert re.search(r"^\s*case: (\d+)$", err, re.MULTILINE).group(1) == "0"


class TestLemmas:
    def lemmas_doc(self):
        return {
            "process": {"kind": "iid", "alphabet": "01", "probs": [0.5, 0.5]},
            "resampling": {"cases": [{"k": 1, "j": 1, "n": 60}], "replicates": 120, "base_seed": 7},
            "divergence": {
                "horizon": 2048,
                "replicates": 10,
                "base_seed": 8,
                "schedules": {"K": {"kind": "log", "coeff": 0.25}},
            },
            "return_time": {"block": "1", "window": 50, "threshold": 10, "replicates": 500, "base_seed": 9},
        }

    def test_default_style_config_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.lemmas_doc())
        assert main(["lemmas", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "resampling[k=1,j=1,n=60]: pass" in out
        assert "context_divergence: pass" in out
        assert "return_time_bound: pass" in out

    def test_top_level_schedules_serve_the_divergence_check(self, tmp_path, capsys):
        doc = self.lemmas_doc()
        doc["schedules"] = doc["divergence"].pop("schedules")
        assert main(["lemmas", "--config", write_config(tmp_path, doc)]) == 0
        assert "context_divergence: pass" in capsys.readouterr().out
        doc["schedules"]["K"] = {"kind": "constant", "value": 17}  # 2^17 blocks
        assert main(["lemmas", "--config", write_config(tmp_path, doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: schedules.K must be small enough")

    def test_small_replicates_warns_but_exits_zero(self, tmp_path, capsys):
        doc = self.lemmas_doc()
        doc["resampling"]["replicates"] = 10
        cfg = write_config(tmp_path, doc)
        assert main(["lemmas", "--config", cfg]) == 0
        captured = capsys.readouterr()
        assert "inconclusive" in captured.out
        assert "warning" in captured.err

    def test_linear_J_reports_violation_and_skips(self, tmp_path, capsys):
        doc = self.lemmas_doc()
        doc["divergence"]["schedules"] = {"J": {"kind": "linear"}}
        cfg = write_config(tmp_path, doc)
        assert main(["lemmas", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "hypotheses violated" in out and "J(n)/n" in out

    @pytest.mark.parametrize("coeff", [1e19, 1e308])
    def test_huge_linear_J_reports_violation(self, tmp_path, capsys, coeff):
        # J(n) = ceil(coeff * n) is past the int64 range (1e308 * n even past
        # the floats) and saturates at SCHEDULE_CAP, which is still reported
        doc = self.lemmas_doc()
        doc["divergence"]["schedules"]["J"] = {"kind": "linear", "coeff": coeff}
        cfg = write_config(tmp_path, doc)
        assert main(["lemmas", "--config", cfg]) == 0
        captured = capsys.readouterr()
        assert "runtime error" not in captured.out + captured.err
        assert "hypotheses violated" in captured.out

    def test_manifest_records_checks(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.lemmas_doc())
        out = tmp_path / "out"
        assert main(["lemmas", "--config", cfg, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["checks"]["return_time_bound"] == "pass"
        assert manifest["command"] == "lemmas"


@pytest.mark.parametrize(
    "field, value",
    [
        ("resampling.cases[0].k", 0),
        ("resampling.cases[0].k", 62),  # above n + 1
        ("resampling.cases[0].j", 0),
        ("resampling.cases[0].n", -1),
        ("resampling.cases[0].block_len", 0),
        ("resampling.cases[0].block_len", 4),
        ("resampling.cases[0].block_len", 3),  # with a 41-symbol alphabet: 41^3 blocks
        ("divergence.schedules.K", {"kind": "constant", "value": 17}),  # 2^17 blocks
        ("resampling.replicates", 0),
        ("divergence.horizon", 0),
        ("divergence.replicates", 0),
        ("return_time.window", 0),
        ("return_time.threshold", 0),
        ("return_time.replicates", 0),
        ("resampling.base_seed", -1),  # seeds are 64-bit words: these would alias others
        ("divergence.base_seed", 2**64 + 1),
        ("return_time.base_seed", -1),
        ("--cases", 0),
        ("--max-n", 0),
        ("--seed", -5),
        ("experiment.horizon", 0),
        ("experiment.replicates", 0),
        ("experiment.workers", 0),
        ("experiment.eval_grid[0]", 0),
        ("experiment.eval_grid[0]", 513),  # above the horizon
        ("experiment.epsilons[1]", -1),
        ("experiment.epsilons[0]", 2),  # above 1 with an indicator payoff
        ("process.alphabet", [0, "0"]),  # the CSV header would name both p_0
        ("process.order", 0),
        ("process.order", 17),  # 2^17 contexts
        ("schedules.K.base", 1),
        ("schedules.K.value", 2**70),  # past int64
        ("schedules.J.value", 2**70),
        ("--workers", 0),  # appended last: earlier ids carry list positions
        ("process.transition[0][1]", -0.3),
        ("process.transition[1]", [0.5, 0.6]),  # sums to 1.1
        ("schedules.K.coeff", 0),
        ("schedules.J.coeff", -1),  # with kind linear
        ("experiment.payoff.values", {"0": 1, "1": 0, "2": 5}),  # with kind table: "2" names no symbol
    ],
)
def test_out_of_range_input_exits_two_naming_its_field(tmp_path, capsys, field, value):
    assert _rejected(tmp_path, capsys, field, value).startswith(f"error: {field} must be")


LEMMA_MESSAGES = [  # (schedules section, field, value, the whole stderr): the lemma cases above and more
    ("divergence", "resampling.cases[0].k", 0, "resampling.cases[0].k must be in 1..61, got 0"),
    ("divergence", "resampling.cases[0].k", 62, "resampling.cases[0].k must be in 1..61, got 62"),
    ("divergence", "resampling.cases[0].j", 0, "resampling.cases[0].j must be >= 1, got 0"),
    ("divergence", "resampling.cases[0].n", -1, "resampling.cases[0].n must be >= 0, got -1"),
    ("divergence", "resampling.cases[0].block_len", 0, "resampling.cases[0].block_len must be in 1..3, got 0"),
    ("divergence", "resampling.cases[0].block_len", 4, "resampling.cases[0].block_len must be in 1..3, got 4"),
    ("divergence", "resampling.cases[0].block_len", 3,
     "resampling.cases[0].block_len must be small enough that 41^block_len <= 65536, got 3"),
    ("divergence", "divergence.schedules.K", {"kind": "constant", "value": 17},
     "divergence.schedules.K must be small enough that 2^K(divergence.horizon) <= 65536, got K(2048) = 17"),
    ("divergence", "resampling.replicates", 0, "resampling.replicates must be >= 1, got 0"),
    ("divergence", "divergence.horizon", 0, "divergence.horizon must be >= 1, got 0"),
    ("divergence", "divergence.replicates", 0, "divergence.replicates must be >= 1, got 0"),
    ("divergence", "return_time.window", 0, "return_time.window must be >= 1, got 0"),
    ("divergence", "return_time.threshold", 0, "return_time.threshold must be >= 1, got 0"),
    ("divergence", "return_time.replicates", 0, "return_time.replicates must be >= 1, got 0"),
    ("divergence", "resampling.base_seed", -1, "resampling.base_seed must be in 0..18446744073709551615, got -1"),
    ("divergence", "divergence.base_seed", 2**64 + 1,
     "divergence.base_seed must be in 0..18446744073709551615, got 18446744073709551617"),
    ("divergence", "return_time.base_seed", -1, "return_time.base_seed must be in 0..18446744073709551615, got -1"),
    ("divergence", "return_time.block", "", "return_time.block must not be empty"),
    ("divergence", "return_time.block", [], "return_time.block must not be empty"),
    ("divergence", "return_time.block", "x", "return_time.block: unknown symbol 'x'"),
    ("divergence", "return_time.block", [5], "return_time.block: unknown symbol 5"),
    ("divergence", "resampling.cases[0].k", 1.5, "resampling.cases[0].k must be an integer, got 1.5"),
    ("divergence", "divergence.horizon", True, "divergence.horizon must be an integer, got True"),
    ("divergence", "return_time.window", "3", "return_time.window must be an integer, got '3'"),
    ("top level", "divergence.horizon", 0, "divergence.horizon must be >= 1, got 0"),
    ("top level", "divergence.replicates", 0, "divergence.replicates must be >= 1, got 0"),
    ("top level", "schedules.K", {"kind": "constant", "value": 17},
     "schedules.K must be small enough that 2^K(divergence.horizon) <= 65536, got K(2048) = 17"),
]


@pytest.mark.parametrize("schedules, field, value, message", LEMMA_MESSAGES)
def test_lemma_input_error_prints_its_whole_message(tmp_path, capsys, schedules, field, value, message):
    # the checks' readers name a field in config's words, whichever section holds the divergence schedules
    doc = TestLemmas().lemmas_doc()
    if schedules == "top level":
        doc["schedules"] = doc["divergence"].pop("schedules")
    assert _rejected(tmp_path, capsys, field, value, doc) == f"error: {message}\n"


@pytest.mark.parametrize(
    "field", ["experiment.horizon", "divergence.horizon", "resampling.cases[0].n", "return_time.window", "generate"]
)
def test_horizon_past_the_bound_is_refused(tmp_path, field):
    # such a horizon drew until memory ran out, so the child runs with its address space capped, under a timeout
    past = _MAX_HORIZON + 1
    if field == "generate":
        args = ["-c", f"from nextsym import *\ngenerate(IIDProcess(Alphabet('01'), (0.5, 0.5)), 1, {past})"]
        want = f"ValueError: horizon must be <= {_MAX_HORIZON}, got {past}\n"
    else:
        args = ["-m", "nextsym", *_argv(tmp_path, field, past)]
        want = f"error: {field} must be <= {_MAX_HORIZON}, got {past}\n"
    cap = partial(resource.setrlimit, resource.RLIMIT_AS, (2 << 30, 2 << 30))
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=120, preexec_fn=cap)
    assert (proc.returncode, proc.stdout, proc.stderr[-len(want) :]) == (1 if field == "generate" else 2, "", want)


def _rejected(tmp_path, capsys, field, value, doc=None):
    """The stderr of the command run with ``_argv``, after checking that it
    exited 2 before any output."""
    assert main(_argv(tmp_path, field, value, doc)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # rejected before any check ran
    return captured.err


def _argv(tmp_path, field, value, doc=None):
    """The command line whose input has ``field`` set to ``value``: a config
    field is set in ``doc``, else in the simulate or lemmas document its
    section belongs to."""
    if field == "--workers":
        cfg = write_config(tmp_path, MARKOV_DOC)
        return ["simulate", "--config", cfg, "--out", str(tmp_path / "out"), field, str(value)]
    if field.startswith("--"):
        return ["verify", field, str(value)]
    if doc is not None:
        command = ["lemmas"]
    elif field.startswith(("experiment.", "process.", "schedules.")):
        command, doc = ["simulate", "--out", str(tmp_path / "out")], json.loads(json.dumps(MARKOV_DOC))
        doc["experiment"]["eval_grid"] = [1, 512]
        doc["experiment"]["epsilons"] = [0.05, 0.1]
    else:
        command, doc = ["lemmas"], TestLemmas().lemmas_doc()
    if (field, value) == ("resampling.cases[0].block_len", 3):
        doc["process"] = {"kind": "iid", "alphabet": 41, "probs": [1 / 41] * 41}
    if field in ("schedules.K.value", "schedules.J.value"):
        doc["schedules"] = {field.split(".")[1]: {"kind": "constant"}}
    if field == "schedules.J.coeff":
        doc["schedules"] = {"J": {"kind": "linear"}}
    if field == "experiment.payoff.values":
        doc["experiment"]["payoff"] = {"kind": "table"}
    *parents, key = re.sub(r"\[(\d+)\]", r".\1", field).split(".")
    target = doc
    for name in parents:
        target = target[int(name)] if name.isdigit() else target.setdefault(name, {})
    target[int(key) if key.isdigit() else key] = value
    return [*command, "--config", write_config(tmp_path, doc)]


@pytest.mark.parametrize("command", ["simulate", "lemmas", "estimate"])
def test_input_not_utf8_exits_two(tmp_path, capsys, command):
    path = tmp_path / "input"
    if command == "estimate":
        path.write_bytes(b"0101\xff")
        argv, message = [str(path)], "sequence file is not UTF-8"
    else:
        doc = MARKOV_DOC if command == "simulate" else TestLemmas().lemmas_doc()
        path.write_bytes(json.dumps(doc).encode() + b"\xff")
        argv, message = ["--config", str(path), "--out", str(tmp_path / "out")], "config is not UTF-8"
    assert main([command, *argv]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


@pytest.mark.parametrize(
    "command, content, message",
    [
        ("estimate", None, "cannot read sequence file"),  # no such file
        ("simulate", b'{"process": ', "config is not valid JSON"),
        ("lemmas", b"[]", "config document must be a JSON object"),
    ],
)
def test_unreadable_input_exits_two(tmp_path, capsys, command, content, message):
    path = tmp_path / "input"
    if content is not None:
        path.write_bytes(content)
    argv = [str(path)] if command == "estimate" else ["--config", str(path), "--out", str(tmp_path / "out")]
    assert main([command, *argv]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_runtime_failure_exits_one(tmp_path, capsys):
    cfg = write_config(tmp_path, MARKOV_DOC)
    # output path collides with an existing file: mkdir raises at runtime
    blocker = tmp_path / "blocked"
    blocker.write_text("")
    assert main(["simulate", "--config", cfg, "--out", str(blocker)]) == 1
    assert "runtime error" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text("01010")
    proc = subprocess.run(
        [sys.executable, "-m", "nextsym", "estimate", str(path), "--final-only"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1] == "4,1,2,0,0,1"


SUBMODULES = tuple(p.stem for p in Path(nextsym.__file__).parent.glob("[!_]*.py"))
START_UP_RUNS = {  # statement run in a fresh interpreter -> nextsym submodules it must leave unloaded
    "import": ("import nextsym", SUBMODULES),
    "verify": ("assert main(['verify', '--cases', '1', '--max-n', '2']) == 0", ("harness",)),
    "simulate": ("assert main(['simulate', '--config', CONFIG, '--out', OUT]) == 0", ("verify", "streaming")),
    "estimate": ("assert main(['estimate', SEQUENCE]) == 0", ("harness",)),
}


@pytest.mark.parametrize("path", START_UP_RUNS)
def test_start_up_does_not_load_the_pool_or_statistics(tmp_path, path):
    # each command imports only what it runs: the harness alone cost `verify` about 13 ms of start-up,
    # and a run with one usable worker never starts a pool, whose machinery cost every run about 20 ms.
    # A fresh interpreter, since pytest has loaded all of these already
    run, unloaded = START_UP_RUNS[path]
    config = write_config(tmp_path, {"process": MARKOV_DOC["process"], "experiment": {"horizon": 64}})
    (tmp_path / "seq.txt").write_text("0110101101")
    banned = ["concurrent.futures.process", "multiprocessing", "statistics", *(f"nextsym.{m}" for m in unloaded)]
    code = (
        f"import sys\nCONFIG, OUT, SEQUENCE = {config!r}, {str(tmp_path / 'out')!r}, {str(tmp_path / 'seq.txt')!r}\n"
        + ("" if path == "import" else "from nextsym.cli import main\n")
        + f"{run}\nloaded = [m for m in {banned!r} if m in sys.modules]\nassert not loaded, loaded\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_package_namespace_resolves_on_first_use():
    for name in nextsym.__all__:
        value = getattr(nextsym, name)
        if name != "__version__":  # the same object as in the module that defines it
            assert getattr(sys.modules[value.__module__], name) is value, name
    assert set(nextsym.__all__) <= set(dir(nextsym))
    namespace = {}
    exec("from nextsym import *", namespace)
    assert set(nextsym.__all__) <= namespace.keys()
    with pytest.raises(AttributeError, match="no_such_name"):
        nextsym.no_such_name
    # submodules still import through the package, as the benchmark's job and tracer do
    code = "import sys\nfrom nextsym import harness, cli\nassert harness is sys.modules['nextsym.harness'] and cli.main\n"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_handlers_call_the_names_a_tracer_replaces(tmp_path, monkeypatch, capsys):
    # the benchmark's tracer swaps these cli attributes; a handler that bypassed them would zero its spans
    calls = []
    for name in ("run_experiment", "verify_equivalence"):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, name=name, real=real, **k: calls.append(name) or real(*a, **k))
    assert main(["simulate", "--config", write_config(tmp_path, MARKOV_DOC), "--out", str(tmp_path / "out")]) == 0
    assert main(["verify", "--cases", "1", "--max-n", "2"]) == 0
    assert calls == ["run_experiment", "verify_equivalence"]


def test_defaults_when_sections_missing(tmp_path, capsys):
    # lemmas command fills documented defaults: fair coin, resampling case
    # (k=1, j=1, n=100); keep replicates low via explicit sections elsewhere
    doc = {
        "resampling": {"replicates": 60},
        "divergence": {"horizon": 1024, "replicates": 5, "schedules": {"K": {"kind": "log", "coeff": 0.25}}},
        "return_time": {"replicates": 200},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert main(["lemmas", "--config", str(path)]) == 0
