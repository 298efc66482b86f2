"""Figure 6: AMPL statistics — temporaries participating in coloring.

Paper reports, per application, the number of variables in the DefLi /
DefLDj sets (read aggregates) and UseSi / UseSDj sets (write
aggregates):

            DefLi  DefLDj  total   UseSi  UseSDj  total
  AES        68     16      84       4     10      14
  Kasumi     44     14      58       4     14      18
  NAT        43     22      65       8     60      64(*)

The benchmark measures building the model *data* (liveness + the
instruction sets) from the flowgraph.
"""

from repro.alloc.ilpmodel import build_instr_sets

from benchmarks.conftest import print_table, span_counters

PAPER_FIG6 = {
    "AES": (68, 16, 4, 10),
    "Kasumi": (44, 14, 4, 14),
    "NAT": (43, 22, 8, 60),
}


def test_fig6_table(one_shot_apps):
    # The coloring-participation sets are counters on the tracer's
    # ``model`` span (recorded while the allocation ILP is built).
    rows = []
    for name, (_, comp) in one_shot_apps.items():
        c = span_counters(comp, "model")
        rows.append(
            [
                name,
                c["DefLi"],
                c["DefLDj"],
                c["DefLi"] + c["DefLDj"],
                c["UseSi"],
                c["UseSDj"],
                c["UseSi"] + c["UseSDj"],
            ]
        )
    print_table(
        "Figure 6: coloring participation (this reproduction)",
        ["program", "DefLi", "DefLDj", "def total", "UseSi", "UseSDj", "use total"],
        rows,
    )
    print_table(
        "Figure 6: paper's values",
        ["program", "DefLi", "DefLDj", "def total", "UseSi", "UseSDj", "use total"],
        [[k, v[0], v[1], v[0] + v[1], v[2], v[3], v[2] + v[3]] for k, v in PAPER_FIG6.items()],
    )
    by_name = {row[0]: row for row in rows}
    # Shape: every program has a substantial coloring problem; crypto
    # apps are read-dominated (tables), exactly as in the paper.
    for name in ("AES", "Kasumi", "NAT"):
        assert by_name[name][3] > 0 and by_name[name][6] > 0
    assert by_name["AES"][1] > by_name["AES"][4]  # DefLi >> UseSi
    assert by_name["Kasumi"][1] > by_name["Kasumi"][4]


def test_model_data_speed_aes(benchmark, virtual_apps):
    graph = virtual_apps["AES"][1].flowgraph
    benchmark(lambda: build_instr_sets(graph, graph.points()))


def test_model_data_speed_kasumi(benchmark, virtual_apps):
    graph = virtual_apps["Kasumi"][1].flowgraph
    benchmark(lambda: build_instr_sets(graph, graph.points()))
