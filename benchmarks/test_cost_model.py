"""Cost-model accuracy: predicted vs. measured seconds per template.

Not a timing benchmark of the model itself (estimation is microseconds) —
each benchmark measures the real query while recording the model's
prediction in ``extra_info``, and the summary writes a predicted-vs-
measured table to ``benchmarks/results/cost_model.txt``.
"""

from statistics import mean

import pytest

from conftest import results_path, timed
from repro.bench.workloads import DEFAULT_LATENCY, bench_engine, template_queries
from repro.plan.cost import CostModel

MEAN = sum(DEFAULT_LATENCY) / 2.0
_ROWS = []


@pytest.mark.parametrize("template", [1, 2, 3])
@pytest.mark.parametrize("mode", ["sync", "async"])
def test_prediction_vs_measurement(benchmark, template, mode):
    engine = bench_engine()
    model = CostModel(latency_mean=MEAN)
    sql = template_queries(template, instances=1)[0]
    predicted = model.seconds(engine.plan(sql, mode=mode))

    def run():
        return bench_engine().execute(sql, mode=mode)

    run, seconds = timed(run)
    benchmark.pedantic(run, rounds=2, iterations=1)
    measured = mean(seconds)
    benchmark.extra_info["predicted_seconds"] = round(predicted, 4)
    _ROWS.append((template, mode, predicted, measured))
    # Order-of-magnitude sanity: the model must not be wildly off.
    assert predicted == pytest.approx(measured, rel=4.0)


def test_cost_model_summary(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    if not _ROWS:
        pytest.skip("no measurements collected")
    lines = ["{:<10}{:<8}{:>14}{:>14}{:>9}".format(
        "template", "mode", "predicted(s)", "measured(s)", "ratio")]
    for template, mode, predicted, measured in _ROWS:
        lines.append(
            "{:<10}{:<8}{:>14.4f}{:>14.4f}{:>9.2f}".format(
                template, mode, predicted, measured,
                predicted / measured if measured else float("inf"),
            )
        )
    table = "\n".join(lines)
    with open(results_path("cost_model.txt"), "w", encoding="utf-8") as f:
        f.write(table + "\n")
    print("\n" + table)
