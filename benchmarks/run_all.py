"""Regenerate every table and figure of the paper in one run.

Usage::

    python benchmarks/run_all.py            # quick mode (a few minutes)
    REPRO_BENCH_FULL=1 python benchmarks/run_all.py   # long accuracy runs

Reports are printed and saved under ``benchmarks/results/``; each report
prints the paper's numbers beside ours where the paper has them.
"""
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from bench_table1_kernel_comparison import report_table1
from bench_table2_cifar_accuracy import report_table2
from bench_table3_imagenet_resnet50 import report_table3
from bench_table4_mobilenet_ablation import report_table4
from bench_table5_inference import report_table5
from bench_fig7_training_speedup_cifar import report_fig7
from bench_fig8_training_speedup_imagenet import report_fig8
from bench_fig9_backward import report_fig9
from bench_fig10_memory_cc import report_fig10
from bench_fig11_groups_sweep import report_fig11
from bench_fig12_overlap_sweep import report_fig12
from bench_fig13_batch_size import report_fig13
from bench_fig14_multigpu import report_fig14
from bench_ablation_cyclic_index import report_ablation_cyclic
from bench_ablation_plan_cache import report_ablation_plan_cache
from bench_ablation_vectorization import report_ablation_vectorization
from bench_ablation_shift_scc import report_ablation_shift
from bench_serving_batching import report_serving_batching
from bench_multimodel_serving import report_multimodel_serving
from bench_async_gateway import report_async_gateway
from bench_fault_tolerance import report_fault_tolerance

REPORTS = [
    ("Table I", report_table1),
    ("Table II", report_table2),
    ("Table III", report_table3),
    ("Table IV", report_table4),
    ("Table V", report_table5),
    ("Figure 7", report_fig7),
    ("Figure 8", report_fig8),
    ("Figure 9", report_fig9),
    ("Figure 10", report_fig10),
    ("Figure 11", report_fig11),
    ("Figure 12", report_fig12),
    ("Figure 13", report_fig13),
    ("Figure 14", report_fig14),
    ("Ablation: cyclic index", report_ablation_cyclic),
    ("Ablation: plan cache", report_ablation_plan_cache),
    ("Ablation: vectorization", report_ablation_vectorization),
    ("Ablation: shift+scc", report_ablation_shift),
    ("Serving: bucketed batching", report_serving_batching),
    ("Serving: multi-model routing", report_multimodel_serving),
    ("Serving: async gateway", report_async_gateway),
    ("Serving: fault tolerance", report_fault_tolerance),
]


def main() -> None:
    from repro.utils import seed_all

    total_start = time.perf_counter()
    for label, fn in REPORTS:
        seed_all(0)
        start = time.perf_counter()
        fn()
        print(f"[{label} done in {time.perf_counter() - start:.1f}s]")
    print(f"\nAll {len(REPORTS)} experiments regenerated in "
          f"{time.perf_counter() - total_start:.1f}s; reports in benchmarks/results/.")


if __name__ == "__main__":
    main()
