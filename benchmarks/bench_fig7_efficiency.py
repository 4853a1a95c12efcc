"""EXP-F7: regenerate Figure 7 -- training and testing time per model.

Paper Figure 7: min/avg/max TTime (model all 60 users) and ETime (rank
all test sets) per representation model. Expected shape: TN is the
fastest overall; character models are slower than their token
counterparts; topic models pay at least an order of magnitude more
TTime for inference, with BTM's biterm explosion the slowest to train
and the nonparametric HLDA the slowest at test time.
"""

from __future__ import annotations

from benchmarks._common import (
    bench_environment,
    bench_trials,
    figure_sweep,
    write_result,
)
from repro.experiments.report import format_figure7


def test_fig7_time_efficiency(benchmark):
    bench_environment()
    result = benchmark.pedantic(figure_sweep, rounds=bench_trials(), iterations=1)
    text = format_figure7(result)
    write_result("fig7_efficiency", text)

    tn_ttime, _ = result.timing_summary("TN")
    lda_ttime, _ = result.timing_summary("LDA")
    # The defining shape of Figure 7: topic inference costs far more
    # training time than the vector space model.
    assert lda_ttime.average > tn_ttime.average
