"""Ablation — the same-length restriction in Algorithm 1.

The paper reduces the |N|·|M|·|L| scan by only comparing an IDN against
reference labels of the same length.  This ablation measures the pruning
power on the benchmark population: how many (IDN, reference) pairs the
length index eliminates before any character comparison happens.
"""

from collections import Counter

from bench_util import print_table

from repro.idn.domain import DomainName
from repro.idn.idna_codec import IDNAError


def test_ablation_same_length_pruning(benchmark, study, population, finder):
    idns = study.extract_idns()
    reference = population.reference.domains()

    idn_labels = []
    for domain in idns:
        try:
            idn_labels.append(DomainName(domain).registrable_unicode)
        except (IDNAError, ValueError):
            continue
    reference_labels = [d.rsplit(".", 1)[0] for d in reference]

    def count_candidate_pairs():
        # fold_label preserves length, so raw lengths group like folded ones.
        length_counts = Counter(map(len, reference_labels))
        with_pruning = sum(length_counts[len(label)] for label in idn_labels)
        without_pruning = len(idn_labels) * len(reference_labels)
        return with_pruning, without_pruning

    with_pruning, without_pruning = benchmark(count_candidate_pairs)

    ratio = with_pruning / without_pruning if without_pruning else 0.0
    print_table("Ablation: same-length restriction", [
        ("IDN labels", len(idn_labels)),
        ("reference labels", len(reference_labels)),
        ("pairs without pruning", f"{without_pruning:,}"),
        ("pairs with length pruning", f"{with_pruning:,}"),
        ("fraction of work remaining", f"{ratio:.3f}"),
    ])

    assert with_pruning < without_pruning
    # Length bucketing removes the large majority of candidate comparisons.
    assert ratio < 0.5
