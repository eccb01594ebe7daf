"""Fig. 3: sparsity and expression sharing in trained TM models.

Section II's empirical claim: trained models are extremely sparse in
includes and share boolean expressions within and among classes.  This
bench quantifies both on every trained evaluation model and asserts the
claims hold (density well under 10%, measurable sharing).
"""

from _harness import DATASETS, format_table, get_trained_model, save_results
from repro.model import analyze_sharing, analyze_sparsity


def test_fig3_sparsity_and_sharing(benchmark):
    rows = []
    for dataset in DATASETS:
        model = get_trained_model(dataset)["model"]
        sparsity = analyze_sparsity(model)
        sharing = analyze_sharing(model)
        rows.append(
            {
                "Dataset": dataset,
                "Automata": sparsity.total_automata,
                "Includes": sparsity.total_includes,
                "Density (%)": round(100 * sparsity.density, 3),
                "Mean inc/clause": round(sparsity.includes_per_clause_mean, 1),
                "Empty clauses": sparsity.empty_clauses,
                "Distinct exprs": sharing.distinct_expressions,
                "Duplicate instances": sharing.duplicate_instances,
                "Clause sharing (%)": round(100 * sharing.full_clause_sharing_ratio, 2),
                "Literal overlap": round(sharing.pairwise_literal_overlap, 4),
                "Shared literal pairs": sharing.shared_literal_pairs,
            }
        )
        # The paper's sparsity claim: includes are a small fraction of the
        # automata ("extremely high sparsity in the occurrence of includes").
        assert sparsity.density < 0.10, f"{dataset} not sparse: {sparsity.density}"
        # Sharing raw material exists: literals overlap between clauses.
        assert sharing.pairwise_literal_overlap > 0.0

    print()
    print(format_table(rows, list(rows[0])))
    save_results("fig3_sparsity.json", rows)

    model = get_trained_model("mnist")["model"]
    benchmark(lambda: analyze_sharing(model))
