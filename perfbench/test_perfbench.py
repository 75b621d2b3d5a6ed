"""Self-tests of the benchmark: python3 -m pytest perfbench"""

import gzip
import io
import json
from collections import Counter

import checks
import run
import tracing
import workloads
from tracing import Span

qcasim = run.import_program()


def _golden_text(name: str) -> str:
    return gzip.decompress((run.GOLDEN_DIR / f"{name}.csv.gz").read_bytes()).decode()


# -- generators --------------------------------------------------------------


def test_generators_are_deterministic_per_seed(tmp_path):
    assert workloads.block_cells(7, 5, 6, 3) == workloads.block_cells(7, 5, 6, 3)
    assert workloads.wire_cells(7, 14) == workloads.wire_cells(7, 14)
    assert any(workloads.block_cells(7, 5, 6, 3) != workloads.block_cells(s, 5, 6, 3)
               for s in range(8, 12))
    for workload in workloads.WORKLOADS.values():
        a, b = tmp_path / workload.name / "a", tmp_path / workload.name / "b"
        a.mkdir(parents=True)
        b.mkdir(parents=True)
        # the digest names files by their base name, so it compares contents
        assert run.input_digest(workload.build(3, a)) == run.input_digest(workload.build(3, b))


def test_block_keeps_its_size_across_seeds():
    sizes = {len(workloads.block_cells(s, *workloads.BLOCK_SHAPE)) for s in range(5)}
    assert sizes == {16 * 21 - 6}


# -- correctness checks ------------------------------------------------------


def _temp_verifier():
    workload = workloads.WORKLOADS["temp-sweep"]
    return run.Verifier(workload, workload.build(run.DEFAULT_SEED, None), run.DEFAULT_SEED)


def test_golden_output_passes():
    assert _temp_verifier().check(0, _golden_text("temp-sweep"), "") == []


def test_corrupted_value_is_a_failure():
    text = _golden_text("temp-sweep")
    row = next(line for line in text.splitlines() if line.startswith("3.00000e+01"))
    value = row.rsplit(",", 1)[1]
    # still non-increasing in T, so only the golden comparison can catch it
    bumped = row.replace(value, f"{float(value) * 0.999:.5e}")
    assert _temp_verifier().check(0, text.replace(row, bumped), "") != []
    for bad in ("nan", "1.5", "x"):
        assert _temp_verifier().check(0, text.replace(row, row.replace(value, bad)), "") != []


def test_header_and_precision_changes_are_not_failures():
    text = _golden_text("temp-sweep")
    lines = ["# a comment the golden file does not have"]
    for line in text.splitlines():
        if line[:1].isdigit():
            t, cell, p = line.split(",")
            line = f"{float(t):.7e},{cell},{float(p):.7e}"
        lines.append(line)
    assert _temp_verifier().check(0, "\n".join(lines) + "\n", "") == []


def test_run_ops_counts_each_bad_op():
    text = _golden_text("temp-sweep")
    replies = iter([(0, text, ""), (0, text + "0,out,0\n", ""), (1, "", "error: x\n"),
                    (0, text, "")])

    def fake_cli(argv, stdout, stderr):
        code, out, err = next(replies)
        stdout.write(out)
        stderr.write(err)
        return code

    ops = run.run_ops(0.0, fake_cli, (), _temp_verifier(), None)
    assert (len(ops.wall), len(ops.norm), ops.traced, ops.failed) == (4, 4, [], 2)
    assert "op 1" in ops.messages[0] and "op 2" in ops.messages[1]


def test_bistable_residual_flags_a_wrong_polarization(tmp_path):
    workload = workloads.WORKLOADS["bistable-block"]
    inputs = workload.build(run.DEFAULT_SEED, tmp_path)
    table = checks.parse_table(_golden_text("bistable-block"))
    assert workload.invariant(table, inputs) == []
    pols = dict(zip(table.column("cell_id"), table.column("polarization")))
    free = next(c.id for c in inputs.cells if c.role == "normal")
    pols[free] = -pols[free]
    assert checks.bistable_residual(inputs.files[0], pols, workloads.BLOCK_GAMMA) > 0.1


# -- tracing -----------------------------------------------------------------


def test_self_time_is_span_minus_children():
    spans = [Span("cli.run_cli", 0.0, 10.0, -1, 0),
             Span("sweeps.sweep", 1.0, 8.0, 0, 0),
             Span("kernels.euler", 2.0, 5.0, 1, 0),
             Span("kernels.euler", 5.5, 7.5, 1, 0),
             Span("sweeps.emit", 8.5, 9.0, 0, 0)]
    assert tracing.self_times(spans) == [2.5, 2.0, 3.0, 2.0, 0.5]
    m = tracing.op_layer_metrics(list(zip(spans, tracing.self_times(spans))), Counter())
    assert (m["cli.self_s"], m["sweeps.sweep_self_s"], m["kernels.euler_s"],
            m["kernels.euler_calls"], m["sweeps.emit_s"]) == (2.5, 2.0, 5.0, 2, 0.5)


def test_tracer_wraps_every_call_site_and_restores_them():
    from qcasim import cli, electrostatics, sweeps
    original = electrostatics.kink_matrix
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.kink_matrix is sweeps.kink_matrix is electrostatics.kink_matrix
        assert cli.kink_matrix is not original
        span, code = tracer.run_op(0, cli.run_cli, ["kink", "--layout", "builtin:inv3"],
                                   io.StringIO(), io.StringIO())
    finally:
        tracer.uninstall()
    assert cli.kink_matrix is original and sweeps.kink_matrix is original
    assert code == 0
    metrics = tracing.layer_metrics(tracer)
    assert metrics["electrostatics.kink_calls"] == 1
    assert metrics["electrostatics.pairs"] == metrics["electrostatics.pair_evals"] == 3
    assert metrics["geometry.cells"] == 3 and metrics["geometry.overlap_pairs"] == 3


def test_printed_metrics_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_UNITS
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "op_norm_s.p50", "throughput_norm", "peak_rss_mb", "success_ratio"}
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def test_kink_invariant_catches_a_dropped_pair(tmp_path):
    cells = workloads.block_cells(5, 6, 7, 4)
    path = tmp_path / "small.qcl"
    workloads._write_qcl(path, cells)
    inputs = workloads.Inputs(("kink", "--layout", str(path)), (path,), cells)
    code, out, err = run.call_cli(qcasim.cli.run_cli, inputs.argv)
    table = checks.parse_table(out)
    invariant = workloads.WORKLOADS["kink-large"].invariant
    assert code == 0 and invariant(table, inputs) == []
    assert invariant(checks.Table(table.columns, table.rows[1:]), inputs) != []
