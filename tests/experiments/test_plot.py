"""ASCII chart rendering."""

import pytest

from repro.experiments.plot import render_chart


def test_basic_chart_contains_series_and_labels():
    chart = render_chart({"alpha": [(1, 1.0), (2, 4.0), (4, 2.0)]},
                         title="Test chart", x_label="xs", y_label="ys")
    assert "Test chart" in chart
    assert "o = alpha" in chart
    assert "xs" in chart and "ys" in chart
    assert "o" in chart


def test_multiple_series_distinct_glyphs():
    chart = render_chart({"a": [(1, 1), (2, 2)], "b": [(1, 2), (2, 1)]})
    assert "o = a" in chart
    assert "x = b" in chart


def test_log_x_axis():
    chart = render_chart({"s": [(32, 1), (1024, 2), (8192, 3)]},
                         x_label="n", log_x=True)
    assert "(log scale)" in chart
    # With log x, 32->1024 and 1024->8192 are comparable spans; the
    # middle marker must not hug the left edge.
    lines = [line for line in chart.splitlines()
             if "|" in line and "o" in line]
    positions = sorted(line.index("o") for line in lines)
    assert len(positions) == 3
    assert positions[1] - positions[0] > 5
    assert positions[2] - positions[1] > 5


def test_extremes_rejected():
    with pytest.raises(ValueError):
        render_chart({})
    with pytest.raises(ValueError):
        render_chart({"a": []})
    with pytest.raises(ValueError):
        render_chart({"a": [(1, 1)]}, width=4)


def test_figure_charts_render():
    from repro.experiments import fig10, fig11, fig12
    from repro.experiments.common import Scale
    from repro.experiments.plot import (fig10_chart, fig11_chart,
                                        fig12_chart)
    tiny = Scale(name="plot-test", initial_size=32, n_requests=8,
                 group_sizes=(32, 64), degrees=(2, 4), n_sequences=1)
    assert "Figure 10" in fig10_chart(fig10.run(tiny))
    assert "Figure 11" in fig11_chart(fig11.run(tiny))
    assert "Figure 12" in fig12_chart(fig12.run(tiny))


def test_cli_with_plot_flag(capsys):
    from repro.experiments.__main__ import main
    import repro.experiments.__main__ as main_module
    import repro.experiments as experiments
    # Patch the scale so the CLI test stays fast.
    from repro.experiments.common import Scale
    tiny = Scale(name="cli-test", initial_size=32, n_requests=8,
                 group_sizes=(32, 64), degrees=(2, 4), n_sequences=1)
    original = main_module.QUICK
    main_module.QUICK = tiny
    try:
        assert main(["--plot", "figure12"]) == 0
    finally:
        main_module.QUICK = original
    out = capsys.readouterr().out
    assert "Figure 12" in out
    assert "key tree degree" in out  # the chart rendered


def test_cli_name_selection():
    """Names select by title without running anything; ``fig`` stands
    for ``figure``, as the CLI's help advertises."""
    from repro.experiments import ALL_EXPERIMENTS
    from repro.experiments.__main__ import main, select

    def titles(*names):
        return [title for title, _runner in select(names)]

    assert titles("fig10") == ["Figure 10"]
    assert titles("figure10") == ["Figure 10"]
    assert titles("table5", "fig10") == ["Table 5", "Figure 10"]
    assert titles("table4") == ["Table 4"]
    assert titles("Table 1", "fig12") == ["Table 1", "Figure 12"]
    assert len(titles()) == len(ALL_EXPERIMENTS)
    assert titles("fig99") == []
    with pytest.raises(SystemExit):
        main(["fig99"])
